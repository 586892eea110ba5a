import ast
import hashlib
import importlib
import inspect
import itertools
import random
import tracemalloc

import pytest

import orbifrob as of
from orbifrob import POINT, SeriesKey, Twisted, UNIT, WdvvQuad

from oracle import SymbolicOracle


def key_of(geom, pairs, m):
    return SeriesKey(of.alpha_from_pairs(geom, pairs), m)


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



def test_kernel_matches_scan_on_every_target(reconstructed):
    # The scan is the independent evaluator of the equations (packed
    # integer pair products, no shared code with contract_at).  With one
    # m=1 coefficient perturbed, every equation's coefficient from the
    # kernel must equal the scan's residual, or 0 where it reports none.
    pot, _ = reconstructed("2,3,4", 2)
    geom = pot.geometry
    victim = key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    broken = of.Potential(geom, pot.seed_mode)
    for key, value in pot.coeffs.items():
        broken.set_coefficient(key, value + (key == victim))
    broken.seal(2)
    scan = {(q, k): v for q, k, v in of.residual_scan(broken, 2).nonzero}
    labels = [lab for lab in geom.labels if lab is not UNIT]
    pairs = [(i, j) for i in range(len(labels)) for j in range(i, len(labels))]
    assert len(pairs) == 28
    checked = set()
    for n, (i, j) in enumerate(pairs):
        for k, l in pairs[n:]:
            quad = WdvvQuad(labels[i], labels[j], labels[k], labels[l])
            for target in all_targets(geom, quad, 2):
                expected = scan.get((quad, target), 0)
                assert of.wdvv_coefficient(broken, quad, target) == expected
                checked.add((quad, target))
    assert set(scan) <= checked  # every residual sits at a checked target
    assert len(checked) == 14092 and len(scan) == 493

def test_residual_scan_detects_perturbation(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    geom = pot.geometry
    broken = of.Potential(geom, pot.seed_mode)
    for key, value in pot.coeffs.items():
        broken.set_coefficient(key, value)
    victim = key_of(geom, {(1, 1): 4}, 0)
    broken.set_coefficient(victim, pot.get_coefficient(victim) + 1)
    broken.seal(pot.max_order)
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
    broken = of.Potential(geom, pot.seed_mode)
    for key, value in pot.coeffs.items():
        broken.set_coefficient(key, value)
    victim = key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    broken.set_coefficient(victim, broken.get_coefficient(victim) + 1)
    broken.seal(4)
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
# residual scan and the verify checks) must name none of them, so that it
# stays an independent re-check of what the solver wrote.
SOLVER_NAMES = {
    "contract_at",
    "_quad_plan",
    "_splits",
    "probe_candidate",
    "guided_candidates",
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
    for obj in (of.residual_scan, importlib.import_module("orbifrob.verify")):
        assert not SOLVER_NAMES & set(_names(inspect.getsource(obj))), obj


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
    geom = pot.geometry
    steps = [next(s for s in trace.steps if s.target.m == m) for m in range(3)]
    oracle = SymbolicOracle(pot)
    for step in steps:
        assert oracle.wdvv_coefficient(step.quad, step.xkey) == 0
        raised = of.Potential(geom, pot.seed_mode)
        for key, value in pot.coeffs.items():
            raised.set_coefficient(key, value)
        raised.set_coefficient(step.target, pot.get_coefficient(step.target) + 1)
        assert SymbolicOracle(raised).wdvv_coefficient(step.quad, step.xkey) == step.slope


def _perturbed(reconstructed, multiplet, m_max, pairs, m, delta):
    pot, _ = reconstructed(multiplet, m_max)
    geom = pot.geometry
    victim = key_of(geom, pairs, m)
    broken = of.Potential(geom, pot.seed_mode)
    for key, value in pot.coeffs.items():
        broken.set_coefficient(key, value)
    broken.set_coefficient(victim, pot.get_coefficient(victim) + delta)
    broken.seal(m_max)
    return broken


@pytest.mark.parametrize(
    "multiplet, m_max, pairs, m, delta, lines, digest",
    [
        ("2,3,4", 2, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1, 1, 493,
         "799c743ab38689ffac6ba0b8a7aff6b099e073b81bcb835b5425382aefeec1c3"),
        ("2,2,3", 3, {(1, 1): 1, (2, 1): 1, (3, 2): 1}, 2, of.QQ(1, 3), 107,
         "33c59490be1dccf73f58c8b7db68f51d55146fe6ce7236aa6727bab7c16b57c0"),
        ("3,3,3", 2, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1, 2, 499,
         "0557aa9e0490abf26ff0bb2f99d8434e10330f5e32248d652fbe22e5224f59e8"),
    ],
    ids=["234-m2", "223-m3", "333-m2"],
)
def test_residual_report_bytes_pinned(
    reconstructed, multiplet, m_max, pairs, m, delta, lines, digest
):
    # sha256 of the full report of a perturbed potential, recorded when the
    # scan still kept every pair product: pins the residual values, the
    # order of the residual lines (quad order, then canonical key order)
    # and the targets-checked counts.
    broken = _perturbed(reconstructed, multiplet, m_max, pairs, m, delta)
    text = of.residual_scan(broken, m_max).to_text()
    assert text.count("residual |") == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_residual_scan_holds_one_multiset_at_a_time(reconstructed):
    # The scan keeps only the pair products of the current 4-label
    # multiset and no derivative map on the potential.  Keeping every
    # product for the whole scan peaks at about 0.7 MB here; streaming
    # them peaks at about 0.16 MB.
    pot, _ = reconstructed("2,3,4", 3)
    fresh = of.Potential(pot.geometry, pot.seed_mode)
    for key, value in pot.coeffs.items():
        fresh.set_coefficient(key, value)
    fresh.seal(3)
    tracemalloc.start()
    try:
        report = of.residual_scan(fresh, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 350_000
