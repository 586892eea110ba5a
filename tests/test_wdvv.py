import ast
import hashlib
import importlib
import inspect
import itertools
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbifrob as of
from orbifrob import wdvv
from orbifrob import POINT, SeriesKey, Twisted, UNIT, WdvvQuad
from orbifrob.rationals import QQ
from orbifrob.series import key_layout

from helpers import copy_potential, key_of
from oracle import SymbolicOracle


def all_targets(geom, quad, m_max):
    return [
        SeriesKey(alpha, m)
        for m in range(m_max + 1)
        for alpha in of.admissible_targets(geom, quad, m)
    ]


def test_unit_quads_vanish(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    geom = pot.geometry
    rng = random.Random(3)
    labels = list(geom.labels)
    pool = [SeriesKey(a, m) for m in range(3) for a in of.admissible_keys(geom, m)]
    for _ in range(150):
        quad = WdvvQuad(UNIT, *(rng.choice(labels) for _ in range(3)))
        assert of.wdvv_coefficient(pot, quad, rng.choice(pool)) == 0


def test_two_term_relation_at_product_key(reconstructed):
    # The quartic and the degree-one seed cancel in the equation that
    # determined the quartic: 1/a + 4 a (-1/(4 a^2)) = 0.
    pot, _ = reconstructed("2,3,4", 1)
    geom = pot.geometry
    target = key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    for i, a in enumerate(geom.orders, start=1):
        quad = WdvvQuad(Twisted(i, 1), Twisted(i, a - 1), POINT, POINT)
        assert of.wdvv_coefficient(pot, quad, target) == 0


def test_wdvv_coefficient_is_zero_above_twice_the_stored_orders(reconstructed):
    # Every term of an order-8 coefficient has a factor of order >= 4,
    # above max_order = 2, so it is 0 without a lookup; the layout of
    # order 2 could not even pack the key.
    pot, _ = reconstructed("2,3,7", 2)
    assert pot.sealed and pot.packed().layout is key_layout(pot.geometry, 2)
    quad = WdvvQuad(Twisted(2, 1), Twisted(3, 1), POINT, POINT)
    alphas = of.admissible_targets(pot.geometry, quad, 8)
    assert alphas
    assert of.wdvv_coefficient(pot, quad, SeriesKey(alphas[0], 8)) == 0


def test_wdvv_coefficient_against_symbolic_oracle_seeds_only():
    # Seeds alone do not satisfy the equations; the oracle must agree on
    # the nonzero values too.
    geom = of.build_geometry("2,2,3")
    pot = of.seed(geom, of.STANDARD, 2)
    oracle = SymbolicOracle(pot)
    quads = [
        WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT),
        WdvvQuad(Twisted(3, 1), Twisted(3, 2), POINT, POINT),
        WdvvQuad(Twisted(1, 1), Twisted(2, 1), Twisted(3, 1), POINT),
        WdvvQuad(Twisted(3, 1), Twisted(3, 1), Twisted(3, 2), Twisted(3, 2)),
        WdvvQuad(Twisted(1, 1), POINT, Twisted(2, 1), POINT),
    ]
    seen_nonzero = False
    for quad in quads:
        for target in all_targets(geom, quad, 2):
            got = of.wdvv_coefficient(pot, quad, target)
            assert got == oracle.wdvv_coefficient(quad, target)
            seen_nonzero = seen_nonzero or got != 0
    assert seen_nonzero


def test_wdvv_coefficient_against_symbolic_oracle_reconstructed(reconstructed):
    pot, _ = reconstructed("2,2,2", 2)
    geom = pot.geometry
    oracle = SymbolicOracle(pot)
    quads = [
        WdvvQuad(Twisted(1, 1), Twisted(1, 1), Twisted(2, 1), Twisted(2, 1)),
        WdvvQuad(Twisted(1, 1), Twisted(2, 1), Twisted(3, 1), POINT),
        WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT),
    ]
    for quad in quads:
        for target in all_targets(geom, quad, 2):
            got = of.wdvv_coefficient(pot, quad, target)
            assert got == 0  # reconstruction satisfies the equations
            assert oracle.wdvv_coefficient(quad, target) == 0


def test_wdvv_symmetries(reconstructed):
    # Coefficient-wise: antisymmetric in b<->c, symmetric in a<->b, c<->d
    # and under swapping the two pairs.
    geom = of.build_geometry("2,2,3")
    pot = of.seed(geom, of.STANDARD, 2)  # seeds only, so nonzero values occur
    rng = random.Random(11)
    labels = [lab for lab in geom.labels if lab is not UNIT]
    pool = [SeriesKey(a, m) for m in range(3) for a in of.admissible_keys(geom, m)]
    checked_nonzero = 0
    for _ in range(120):
        a, b, c, d = (rng.choice(labels) for _ in range(4))
        target = rng.choice(pool)
        base = of.wdvv_coefficient(pot, WdvvQuad(a, b, c, d), target)
        assert of.wdvv_coefficient(pot, WdvvQuad(a, c, b, d), target) == -base
        assert of.wdvv_coefficient(pot, WdvvQuad(b, a, d, c), target) == base
        assert of.wdvv_coefficient(pot, WdvvQuad(c, d, a, b), target) == base
        if base != 0:
            checked_nonzero += 1
    assert checked_nonzero > 0


def test_admissible_targets_examples():
    g222 = of.build_geometry("2,2,2")
    quad = WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT)
    targets = of.admissible_targets(g222, quad, 1)
    product = of.alpha_from_pairs(g222, {(1, 1): 1, (2, 1): 1, (3, 1): 1})
    assert product in targets
    # Two units and high-degree labels push the required degree below zero.
    g234 = of.build_geometry("2,3,4")
    assert (
        of.admissible_targets(g234, WdvvQuad(UNIT, UNIT, Twisted(3, 1), Twisted(3, 1)), 0)
        == []
    )
    # Negative chi: sets grow with m (eventually) but stay finite.
    g237 = of.build_geometry("2,3,7")
    quad237 = WdvvQuad(Twisted(3, 1), Twisted(3, 6), POINT, POINT)
    n0 = len(of.admissible_targets(g237, quad237, 0))
    n30 = len(of.admissible_targets(g237, quad237, 30))
    assert 0 < n0 < n30


def test_nonzero_wdvv_targets_are_admissible():
    # The sympy oracle shares no code with the kernel's degree gate, so it
    # checks that admissible_targets really bounds where WDVV can be nonzero.
    geom = of.build_geometry("2,2,3")
    oracle = SymbolicOracle(of.seed(geom, of.STANDARD, 1))
    quad = WdvvQuad(Twisted(3, 1), Twisted(3, 2), POINT, POINT)
    nonzero = []
    for m in range(2):
        admissible = set(of.admissible_targets(geom, quad, m))
        for beta in itertools.product(range(3), repeat=geom.n_twisted):
            if oracle.wdvv_coefficient(quad, SeriesKey(beta, m)):
                assert beta in admissible, (beta, m)
                nonzero.append(SeriesKey(beta, m))
    # Not vacuous: the seeds leave exactly one nonzero monomial, at m=1.
    assert nonzero == [key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)]


def test_residual_scan_clean_and_counts(reconstructed):
    pot, _ = reconstructed("2,2,2", 2)
    report = of.residual_scan(pot, 2)
    assert report.ok
    assert report.quads_checked == 55  # 10 pairs over 4 labels, paired up
    assert set(report.targets_checked) == {0, 1, 2}
    text = report.to_text()
    assert "nonzero-residuals: 0" in text


def test_residual_scan_counts_the_compared_monomials(reconstructed):
    # Recount, with plain dicts, the monomials carried by either side of
    # every canonical equation: sum over eta^{st} of F_xys F_tzw, orders
    # up to m_max.
    pot, _ = reconstructed("2,2,3", 2)
    geom = pot.geometry
    labels = [lab for lab in geom.labels if lab is not UNIT]

    def side(x, y, z, w):
        keys = set()
        for sigma, tau, _ in geom.eta_inverse_pairs:
            left = pot.third_derivative_map(x, y, sigma)
            right = pot.third_derivative_map(tau, z, w)
            for k1 in left:
                for k2 in right:
                    if k1.m + k2.m <= 2:
                        alpha = tuple(u + v for u, v in zip(k1.alpha, k2.alpha))
                        keys.add(SeriesKey(alpha, k1.m + k2.m))
        return keys

    counts = {m: 0 for m in range(3)}
    pairs = [(i, j) for i in range(len(labels)) for j in range(i, len(labels))]
    for n, (i, j) in enumerate(pairs):
        for k, l in pairs[n:]:
            a, b, c, d = labels[i], labels[j], labels[k], labels[l]
            for key in side(a, b, c, d) | side(a, c, b, d):
                counts[key.m] += 1
    report = of.residual_scan(pot, 2)
    assert report.quads_checked == len(pairs) * (len(pairs) + 1) // 2
    assert report.targets_checked == counts
    assert all(counts.values())



def _kernel_against_scan(broken):
    """Compare the kernel's coefficient of every target of every equation
    with the scan's residuals; returns (label pairs, targets checked,
    residuals)."""
    geom = broken.geometry
    scan = {(q, k): v for q, k, v in of.residual_scan(broken, broken.max_order).nonzero}
    labels = [lab for lab in geom.labels if lab is not UNIT]
    pairs = [(i, j) for i in range(len(labels)) for j in range(i, len(labels))]
    checked = set()
    for n, (i, j) in enumerate(pairs):
        for k, l in pairs[n:]:
            quad = WdvvQuad(labels[i], labels[j], labels[k], labels[l])
            for target in all_targets(geom, quad, broken.max_order):
                expected = scan.get((quad, target), 0)
                assert of.wdvv_coefficient(broken, quad, target) == expected
                checked.add((quad, target))
    assert set(scan) <= checked  # every residual sits at a checked target
    return len(pairs), len(checked), len(scan)


def test_kernel_matches_scan_on_every_target(reconstructed):
    # The scan is the independent evaluator of the equations (packed
    # integer pair products, no shared code with contract_at).  With one
    # m=1 coefficient perturbed, every equation's coefficient from the
    # kernel must equal the scan's residual, or 0 where it reports none.
    pot, _ = reconstructed("2,3,4", 2)
    geom = pot.geometry
    victim = key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    broken = copy_potential(pot, {victim: pot.get_coefficient(victim) + 1})
    assert _kernel_against_scan(broken) == (28, 14092, 493)


def test_kernel_matches_scan_on_every_target_rescaled(reconstructed):
    # The same comparison in a rescaled mode, perturbed by 1/11: the
    # kernel's terms then fall in denominator buckets with coprime
    # denominators (powers of 3 from -2/3, 11 from the perturbation, those
    # of the pairing), which only the final lcm brings together.
    pot, _ = reconstructed("2,3,4", 2, of.rescaled_mode(QQ(-2, 3)))
    geom = pot.geometry
    victim = key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    broken = copy_potential(pot, {victim: pot.get_coefficient(victim) + QQ(1, 11)})
    assert _kernel_against_scan(broken) == (28, 14092, 493)


def test_kernel_matches_scan_on_every_target_235(reconstructed):
    # A second multiplet, and orders up to 3: most of the scan's residual
    # keys have a nonzero last field, which it reads off the Euler
    # constraint rather than from a stored key.
    pot, _ = reconstructed("2,3,5", 3)
    geom = pot.geometry
    victim = key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    broken = copy_potential(pot, {victim: pot.get_coefficient(victim) + 1})
    assert _kernel_against_scan(broken) == (36, 23671, 2431)
    report = of.residual_scan(broken, 3)
    assert sum(1 for _, key, _ in report.nonzero if key.alpha[-1]) == 1551

def test_residual_scan_detects_perturbation(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    geom = pot.geometry
    victim = key_of(geom, {(1, 1): 4}, 0)
    broken = copy_potential(pot, {victim: pot.get_coefficient(victim) + 1})
    report = of.residual_scan(broken, 2)
    assert not report.ok
    assert "residual |" in report.to_text()


def test_residual_scan_seeds_only_order_zero():
    geom = of.build_geometry("2,2,2")
    pot = of.seed(geom, of.STANDARD, 1)
    pot.seal(0)
    report = of.residual_scan(pot, 0)
    assert report.ok


def test_residual_values_stable_under_extending_store(reconstructed):
    # The residual of a fixed target only involves orders below it, so
    # perturbing one coefficient yields identical low-order residuals in
    # the m_max=2 and m_max=4 scans.
    pot, _ = reconstructed("2,2,3", 4)
    geom = pot.geometry
    victim = key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    broken = copy_potential(pot, {victim: pot.get_coefficient(victim) + 1})
    low = {(q, k): v for q, k, v in of.residual_scan(broken, 2).nonzero}
    high = {
        (q, k): v for q, k, v in of.residual_scan(broken, 4).nonzero if k.m <= 2
    }
    assert low == high
    assert low  # the perturbation is visible at low order


def test_scan_and_targets_reject_negative_orders(reconstructed):
    pot, _ = reconstructed("2,2,2", 2)
    with pytest.raises(ValueError, match="-1"):
        of.residual_scan(pot, -1)
    quad = WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT)
    with pytest.raises(ValueError, match="m must be >= 0"):
        of.admissible_targets(pot.geometry, quad, -1)


# The solver's kernel, probe and candidate builders.  The read side (the
# residual scan, the verify checks, the file formats and the store they
# read) must name none of them, so that it stays an independent re-check
# of what the solver wrote.
READ_SIDE = ("wdvv", "formats", "series", "verify")
SOLVER_NAMES = {
    "contract_at",
    "_quad_plan",
    "_splits",
    "probe_candidate",
    "guided_candidates",
    "_candidates_order0",
    "_minus_pairs",
    "_decrement",
    "exhaustive_candidates",
    "_fallback_sockets",
    "Blocked",
    "TARGET",
    "wdvv_coefficient",
}


def _names(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname


def test_read_side_names_no_solver_code():
    for name in READ_SIDE:
        module = importlib.import_module(f"orbifrob.{name}")
        assert not SOLVER_NAMES & set(_names(inspect.getsource(module))), name


def test_read_side_imports_no_solver_module():
    # Follow the package's relative imports from the read side: a static
    # closure, which holds whatever modules a test run has loaded before.
    package = Path(of.__file__).parent
    closure, todo = set(), list(READ_SIDE)
    while todo:
        name = todo.pop()
        if name in closure:
            continue
        closure.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                todo.append(node.module)
    assert {"geometry", "rationals"} < closure
    assert not closure & {"reconstruct", "cli"}, closure


def test_solver_imports_no_read_side_module():
    # The same static closure from the solver: it loads the geometry, the
    # rationals and the store, and none of the scan, the checks or the
    # file formats.
    package = Path(of.__file__).parent
    closure, todo = set(), ["reconstruct"]
    while todo:
        name = todo.pop()
        if name in closure:
            continue
        closure.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                todo.append(node.module)
    assert closure == {"reconstruct", "geometry", "rationals", "series"}


def test_residual_scan_requires_sealed_and_complete(reconstructed):
    geom = of.build_geometry("2,2,2")
    pot = of.seed(geom, of.STANDARD, 1)
    with pytest.raises(ValueError):
        of.residual_scan(pot, 1)
    sealed, _ = reconstructed("2,2,2", 2)
    with pytest.raises(ValueError):
        of.residual_scan(sealed, 3)


def test_solve_step_slopes_against_symbolic_oracle(reconstructed):
    # Each solved equation is affine in its target with the recorded slope:
    # it vanishes on the potential, and raising the target by 1 moves it by
    # exactly the slope.  The oracle shares no code with the kernel.
    pot, trace = reconstructed("2,2,3", 2)
    steps = [next(s for s in trace.steps if s.target.m == m) for m in range(3)]
    oracle = SymbolicOracle(pot)
    for step in steps:
        assert oracle.wdvv_coefficient(step.quad, step.xkey) == 0
        raised = copy_potential(
            pot, {step.target: pot.get_coefficient(step.target) + 1}, seal=False
        )
        assert SymbolicOracle(raised).wdvv_coefficient(step.quad, step.xkey) == step.slope


def _perturbed(reconstructed, multiplet, m_max, mode, pairs, m, delta):
    pot, _ = reconstructed(multiplet, m_max, mode)
    geom = pot.geometry
    victim = key_of(geom, pairs, m)
    return copy_potential(pot, {victim: pot.get_coefficient(victim) + delta})


@pytest.mark.parametrize(
    "multiplet, m_max, mode, pairs, m, delta, lines, digest",
    [
        ("2,3,4", 2, of.STANDARD, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1, 1, 493,
         "799c743ab38689ffac6ba0b8a7aff6b099e073b81bcb835b5425382aefeec1c3"),
        ("2,2,3", 3, of.STANDARD, {(1, 1): 1, (2, 1): 1, (3, 2): 1}, 2, of.QQ(1, 3), 107,
         "33c59490be1dccf73f58c8b7db68f51d55146fe6ce7236aa6727bab7c16b57c0"),
        ("3,3,3", 2, of.STANDARD, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1, 2, 499,
         "0557aa9e0490abf26ff0bb2f99d8434e10330f5e32248d652fbe22e5224f59e8"),
        ("2,3,7", 4, of.rescaled_mode(of.QQ(-1, 2)), {(2, 1): 1, (3, 1): 1, (3, 3): 1}, 4,
         of.QQ(1, 11), 2725,
         "835313957a0f4a2a06ae187edc74540ccbc77d68a9640d8d6e50d7b27a2bccbb"),
        ("2,3,5", 5, of.rescaled_mode(of.QQ(-2, 3)), {(2, 2): 5, (3, 4): 1}, 4,
         of.QQ(1, 5), 319,
         "c6870e5d008f66acd5b512e66856455af654cc4dddd586d6320227a083343b8b"),
    ],
    ids=["234-m2", "223-m3", "333-m2", "237-m4-rescaled", "235-m5-rescaled"],
)
def test_residual_report_bytes_pinned(
    reconstructed, multiplet, m_max, mode, pairs, m, delta, lines, digest
):
    # sha256 of the full report of a perturbed potential, recorded when the
    # scan still kept every pair product: pins the residual values, the
    # order of the residual lines (quad order, then canonical key order)
    # and the targets-checked counts.  The two rescaled files were pinned
    # while the scan still cleared the store with a single lcm; their
    # denominators (powers of 2 and 3, and the perturbation's 11 or 5)
    # differ from one monomial length to the next.
    broken = _perturbed(reconstructed, multiplet, m_max, mode, pairs, m, delta)
    text = of.residual_scan(broken, m_max).to_text()
    assert text.count("residual |") == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_residual_report_is_the_same_under_a_second_rational_type(
    reconstructed, bind_second_rational_type
):
    # Under PythonMPQ, the parse and the scan of a perturbed rescaled file
    # must print the report the Fraction backend prints, byte for byte.
    broken = _perturbed(
        reconstructed, "2,3,5", 5, of.rescaled_mode(of.QQ(-2, 3)), {(2, 2): 5, (3, 4): 1}, 4,
        of.QQ(1, 5),
    )
    text = of.serialize_potential(broken)
    expected = of.residual_scan(of.parse_potential(text), 5).to_text()

    mpq = bind_second_rational_type()
    pot = of.parse_potential(text)
    assert {type(value) for value in pot.coeffs.values()} == {mpq}
    report = of.residual_scan(pot, 5)
    assert report.nonzero and {type(value) for _, _, value in report.nonzero} == {mpq}
    assert report.to_text() == expected


def test_residual_scan_holds_one_multiset_at_a_time(reconstructed):
    # The scan keeps only the pair products of the current 4-label
    # multiset and no derivative map on the potential.  Keeping every
    # product for the whole scan peaks at about 0.7 MB here; streaming
    # them peaks at about 0.16 MB.
    pot, _ = reconstructed("2,3,4", 3)
    fresh = copy_potential(pot)
    tracemalloc.start()
    try:
        report = of.residual_scan(fresh, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 350_000


@pytest.mark.parametrize(
    "multiplet, m_max, mode, scan_to",
    [
        ("2,3,4", 3, of.STANDARD, 3),
        ("3,4,5", 3, of.rescaled_mode(-2), 3),
        ("2,3,7", 4, of.STANDARD, 4),
        ("2,3,7", 4, of.STANDARD, 2),
        ("2,2,2,2", 6, of.STANDARD, 6),
    ],
    ids=["234-m3", "345-m3-rescaled-2", "237-m4", "237-m4-scan2", "2222-m6"],
)
def test_scan_maps_are_scaled_third_derivative_maps(
    reconstructed, multiplet, m_max, mode, scan_to
):
    # The scan builds its integer derivative maps in one pass over the
    # store.  For every sorted label triple, UNIT and empty ones included,
    # the map must be Potential.third_derivative_map up to the scan order,
    # each value times c * rho**|alpha| for its key's total exponent
    # |alpha|, each entry filed under its own order, orders increasing.
    pot, _ = reconstructed(multiplet, m_max, mode)
    geom = pot.geometry
    (c, rho), layout, maps = wdvv._scan_maps(pot, scan_to)
    assert type(c) is int and type(rho) is int and c > 0 and rho > 0

    triples = list(itertools.combinations_with_replacement(range(len(geom.labels)), 3))
    assert set(maps) <= set(triples)
    entries = 0
    for triple in triples:
        labels = [geom.labels[k] for k in triple]
        expected = {
            layout.pack(*key): value * c * rho ** sum(key.alpha)
            for key, value in pot.third_derivative_map(*labels).items()
            if key.m <= scan_to
        }
        got = {}
        orders = [m for m, _ in maps.get(triple, [])]
        assert orders == sorted(set(orders)), triple
        for m, items in maps.get(triple, []):
            assert items, triple
            for packed, value in items:
                assert type(value) is int and packed & layout.mmask == m
                got[packed] = value
                entries += 1
        assert got == expected, labels
    assert entries == sum(len(items) for lists in maps.values() for _, items in lists)
    assert any(m == scan_to for lists in maps.values() for m, _ in lists)


@pytest.mark.parametrize(
    "multiplet, m_max, mode, products",
    [
        ("3,4,5", 3, of.rescaled_mode(-2), 868_115),
        ("2,2,2,2", 6, of.STANDARD, 7_918),
        ("2,3,4", 3, of.STANDARD, 17_677),
    ],
    ids=["345-m3-rescaled-2", "2222-m6", "234-m3"],
)
def test_scan_products_never_carry(reconstructed, multiplet, m_max, mode, products):
    # A pair product's key is the sum of two packed map keys.  It is an
    # extraction monomial that the scan's layout holds, so the addition
    # carries out of no field: no start bit of the layout sees a carry.
    # Checked for every eta-paired pair of map entries that a product of
    # two label pairs can multiply, within the scan order.
    pot, _ = reconstructed(multiplet, m_max, mode)
    geom = pot.geometry
    _, layout, maps = wdvv._scan_maps(pot, m_max)
    index = geom.label_index
    eta = [(index[sigma], index[tau]) for sigma, tau, _ in geom.eta_inverse_pairs]
    series = [k for k, lab in enumerate(geom.labels) if lab is not UNIT]
    pairs = list(itertools.combinations_with_replacement(series, 2))
    paired = {
        (tuple(sorted((*p1, sigma))), tuple(sorted((*p2, tau))))
        for p1, p2 in itertools.product(pairs, repeat=2)
        for sigma, tau in eta
    }
    starts = layout.starts
    checked = carries = 0
    for triple1, triple2 in paired:
        for m1, items1 in maps.get(triple1, ()):
            for m2, items2 in maps.get(triple2, ()):
                if m1 + m2 > m_max:
                    break
                for k1, _ in items1:
                    for k2, _ in items2:
                        checked += 1
                        if (k1 ^ k2 ^ (k1 + k2)) & starts:
                            carries += 1
    assert (checked, carries) == (products, 0)


def _plain_dict_recount(pot, m_max):
    """Rebuild both sides of every equation as plain dicts of packed key ->
    integer from the scan's own map entries (wdvv._scan_maps), one entry
    pair at a time, and take the residuals and the compared monomials from
    those.  Returns the residuals as {(quad, key): value}, the compared
    monomials per order, and how many left-side keys cancel to 0."""
    geom = pot.geometry
    (c, rho), layout, maps = wdvv._scan_maps(pot, m_max)
    index = geom.label_index
    eta = [(index[sigma], index[tau], w) for sigma, tau, w in geom.eta_inverse_pairs]
    series = [k for k, lab in enumerate(geom.labels) if lab is not UNIT]
    pairs = list(itertools.combinations_with_replacement(series, 2))

    def side(p1, p2):
        out = {}
        for sigma, tau, w in eta:
            for m1, items1 in maps.get(tuple(sorted((*p1, sigma))), ()):
                for m2, items2 in maps.get(tuple(sorted((*p2, tau))), ()):
                    if m1 + m2 <= m_max:
                        for k1, v1 in items1:
                            for k2, v2 in items2:
                                out[k1 + k2] = out.get(k1 + k2, 0) + w * v1 * v2
        return out

    residuals = {}
    counts = {m: 0 for m in range(m_max + 1)}
    cancelled = 0
    for p1, p2 in itertools.combinations_with_replacement(pairs, 2):
        quad = WdvvQuad(*(geom.labels[k] for k in p1 + p2))
        lhs = side(p1, p2)
        rhs = side((p1[0], p2[0]), tuple(sorted((p1[1], p2[1]))))
        cancelled += sum(not v for v in lhs.values())
        for k in lhs.keys() | rhs.keys():
            counts[k & layout.mmask] += 1
            diff = lhs.get(k, 0) - rhs.get(k, 0)
            if diff:
                key = layout.unpack(k)
                residuals[quad, key] = QQ(diff, c * c * rho ** sum(key.alpha))
    return residuals, counts, cancelled


def test_residual_scan_matches_a_plain_dict_recount(reconstructed):
    # The scan multiplies whole Euler-line fibers (the entries whose keys
    # agree below the second last twisted field) where the recount takes
    # one entry pair at a time, so the case must hold fibers of two or
    # more keys, compared keys whose contributions cancel to 0, and
    # residual keys with a nonzero last field, which the scan gets back
    # from the Euler constraint.
    broken = _perturbed(
        reconstructed, "2,3,4", 2, of.STANDARD, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1, 1
    )
    _, layout, maps = wdvv._scan_maps(broken, 2)
    below = (1 << layout.offsets[-2]) - 1
    residuals, counts, cancelled = _plain_dict_recount(broken, 2)

    report = of.residual_scan(broken, 2)
    assert {(quad, key): value for quad, key, value in report.nonzero} == residuals
    assert len(report.nonzero) == len(residuals) == 493
    assert report.targets_checked == counts
    # The longest fiber of any map order.
    assert max(
        max(Counter(k & below for k, _ in items).values())
        for lists in maps.values()
        for _, items in lists
    ) >= 2
    assert cancelled
    assert any(key.alpha[-1] for _, key in residuals)


# A numerator of 1 to 40 digits, either sign: sizes spread evenly.
_LARGE_NUMERATORS = st.builds(
    int.__mul__,
    st.integers(1, 40).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    st.sampled_from((1, -1)),
)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    changes=st.lists(
        st.tuples(
            st.integers(0, 42),  # one of the 43 records of the 2,3,4 m=3 file
            st.one_of(
                st.none(),  # flip the record's sign
                st.tuples(_LARGE_NUMERATORS, st.integers(1, 10**6)),
            ),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda change: change[0],
    )
)
def test_residual_scan_matches_a_plain_dict_recount_at_large_values(reconstructed, changes):
    # Records set to numerators of up to 40 digits over denominators with
    # the prime factor 10^9 + 7, or with their sign flipped, make the
    # scan's per-length scale and its digit width large; the residuals and
    # the compared monomials must still equal the plain-dict recount.
    pot, _ = reconstructed("2,3,4", 3)
    records = [key for key, _ in pot.items_sorted()]
    assert len(records) == 43
    changed = {}
    for n, value in changes:
        key = records[n]
        if value is None:
            changed[key] = -pot.coeffs[key]
        else:
            num, den = value
            changed[key] = QQ(num, (10**9 + 7) * den)
    broken = copy_potential(pot, changed)
    residuals, counts, _ = _plain_dict_recount(broken, 3)
    report = of.residual_scan(broken, 3)
    assert {(quad, key): value for quad, key, value in report.nonzero} == residuals
    assert report.targets_checked == counts


def test_equations_with_b_equal_c_vanish_on_a_perturbed_store(reconstructed):
    # WDVV(a, b, b, d) subtracts sum_{s,t} F_abs eta^{st} F_tbd from
    # itself, and WDVV(a, b, c, a) does the same by the symmetry of eta,
    # so their coefficients are zero at every target whatever the store
    # holds: here a store with three of its 35 records changed (two of
    # order 0, one of order 2), on which other equations leave 455
    # residuals.  Neither the guided stream nor the fallback proposes a
    # candidate in these quads.
    pot, _ = reconstructed("2,3,4", 2)
    records = [key for key, _ in pot.items_sorted()]
    broken = copy_potential(pot, {key: 7 * pot.coeffs[key] + 1 for key in records[::12]})
    geom = broken.geometry
    assert len(of.residual_scan(broken, 2).nonzero) == 455
    series = [lab for lab in geom.labels if lab is not UNIT]
    quads = [WdvvQuad(a, b, b, d) for a, b, d in itertools.combinations_with_replacement(series, 3)]
    quads += [WdvvQuad(a, b, c, a) for a, b, c in itertools.product(series, repeat=3)]
    checked = 0
    for quad in quads:
        for target in all_targets(geom, quad, 4):
            assert of.wdvv_coefficient(broken, quad, target) == 0, (quad, target)
            checked += 1
    assert checked


# One admissible m=8 record of the 2,3,7 m=8 potential under a huge header.
_HUGE_HEADER_FILE = """frobenius-potential v1
multiplet: 2,3,7
mode: standard
max-order: 200000
coefficients: 1
(2,1)^2 (3,1)^1 | m=8 | 1
"""


def test_residual_scan_is_sized_by_the_store_not_the_header():
    # The derivative maps are sized by the highest stored order.  Sized by
    # the header instead, this scan took 1.7 s and 189 MB.  The report is
    # the one the scan printed before its maps were built in one pass
    # (sha256 recorded then), and the traced peak stays within 10% of the
    # 21,533,552 bytes measured then, nearly all of it the per-order
    # targets-checked counts.
    pot = of.parse_potential(_HUGE_HEADER_FILE)
    _, layout, _ = wdvv._scan_maps(pot, pot.max_order)
    assert layout is key_layout(pot.geometry, 8)
    tracemalloc.start()
    try:
        report = of.residual_scan(pot, pot.max_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = report.to_text()
    assert text.count("residual |") == 45
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b33a49e550d560dd48ed10e270259999245648b5e094b217d22d9a1d573670f1"
    )
    assert peak <= 1.1 * 21_533_552
