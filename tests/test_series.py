import importlib
import itertools
import random
import re

import pytest

import orbifrob as of
from orbifrob import POINT, SeriesKey, Twisted, UNIT
from orbifrob.geometry import partition_counts, sector_key_bound
from orbifrob.rationals import QQ
from orbifrob.series import (
    MAX_KEYS,
    admissible_key_count,
    check_key_count,
    effective_max_order,
    key_layout,
    multiplicity,
    selection_key_count,
    support_sectors,
    wdeg_scaled,
)

from helpers import copy_potential, key_of
from oracle import SymbolicOracle


def test_weighted_degree_examples():
    g222 = of.build_geometry("2,2,2")
    k = key_of(g222, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)
    assert of.weighted_degree(g222, k) == 2
    assert of.weighted_degree(g222, SeriesKey(of.zero_alpha(g222), 0)) == 0
    g237 = of.build_geometry("2,3,7")
    assert of.weighted_degree(g237, key_of(g237, {(1, 1): 4}, 0)) == 2


def brute_force_admissible(geom, m):
    """Independent oracle: bounded product enumeration + exact filtering."""
    bounds = []
    budget = QQ(2) - m * geom.chi
    if budget < 0:
        return set()
    for lab in geom.twisted:
        bounds.append(int(budget / geom.degree(lab)))
    out = set()
    for alpha in itertools.product(*(range(b + 1) for b in bounds)):
        wdeg = (
            sum(
                (k * geom.degree(lab) for k, lab in zip(alpha, geom.twisted)),
                QQ(0),
            )
            + m * geom.chi
        )
        if wdeg == 2:
            out.add(alpha)
    return out


@pytest.mark.parametrize(
    "orders, m",
    [("2,2,2", 0), ("2,2,2", 1), ("2,2,3", 2), ("2,2,3", 3), ("2,3,4", 1), ("2,3,4", 2)],
)
def test_admissible_keys_against_brute_force(orders, m):
    geom = of.build_geometry(orders)
    keys = of.admissible_keys(geom, m)
    assert len(set(keys)) == len(keys)
    assert set(keys) == brute_force_admissible(geom, m)
    for alpha in keys:
        assert of.weighted_degree(geom, SeriesKey(alpha, m)) == 2


def test_admissible_keys_222_order_one_count():
    # All alpha with |alpha| = 3 over three generators: 10 weak compositions.
    geom = of.build_geometry("2,2,2")
    keys = of.admissible_keys(geom, 1)
    assert len(keys) == 10
    assert all(sum(alpha) == 3 for alpha in keys)


def test_admissible_keys_chi_zero_decouples_m():
    geom = of.build_geometry("3,3,3")
    assert of.admissible_keys(geom, 0) == of.admissible_keys(geom, 1)
    assert of.admissible_keys(geom, 0) == of.admissible_keys(geom, 7)


def test_admissible_keys_empty_beyond_cap():
    geom = of.build_geometry("2,2,2")  # chi = 1/2, cap at m = 4
    assert of.admissible_keys(geom, 5) == []
    with pytest.raises(ValueError):
        of.admissible_keys(geom, -1)


@pytest.mark.parametrize(
    "orders, m_max",
    [("2,2,2", 9), ("2,3,4", 30), ("3,3,3", 7), ("2,3,7", 8), ("3,4,5", 4), ("2,2,2,3", 6), ("2,2,2,2,2", 3)],
)
def test_admissible_key_count_matches_the_enumeration(orders, m_max):
    geom = of.build_geometry(orders)
    top = effective_max_order(geom, m_max)
    listed = sum(len(of.admissible_keys(geom, m)) for m in range(top + 1))
    assert admissible_key_count(geom, m_max) == listed


def test_admissible_key_count_pinned_and_guarded():
    # Counts only: no run of these sizes is started.
    counts = {
        ("3,4,5", 3): 343,
        ("3,4,5", 6): 1_228,
        ("3,4,5", 10): 4_610,
        ("4,4,4", 2): 2_931,
        ("3,3,3,3", 4): 25_640,
        ("3,3,3,3", 6): 107_865,
        ("3,4,5", 40): 2_729_795,
    }
    for (orders, m_max), count in counts.items():
        assert admissible_key_count(of.build_geometry(orders), m_max) == count
    assert MAX_KEYS == 10**6
    check_key_count(of.build_geometry("3,3,3,3"), 6)
    # chi(2,3,4) > 0 caps the order at 24 whatever the bound asked.
    check_key_count(of.build_geometry("2,3,4"), 10**12)
    with pytest.raises(ValueError, match=r"3,4,5 has more than 1000000 admissible keys up to order 40"):
        check_key_count(of.build_geometry("3,4,5"), 40)
    # The count is taken at doubling orders, so a huge bound stops early:
    # on 2,3,7 the count first passes at order 256, on 3,3,3 at 16,384.
    with pytest.raises(ValueError, match=r"\(5161226 up to order 256\)$"):
        check_key_count(of.build_geometry("2,3,7"), 10**15)
    with pytest.raises(ValueError, match=r"\(1949815 up to order 16384\)$"):
        check_key_count(of.build_geometry("3,3,3"), 10**12)


@pytest.mark.parametrize(
    "orders, coprime",
    [
        ("2,3,7", True), ("3,4,5", True), ("5,7,9", True), ("2,3,5,7", True),
        ("2,2,2", False), ("2,3,4", False), ("3,3,3", False), ("4,4,4", False),
        ("2,2,2,3", False), ("2,2,2,2,2", False), ("3,3,3,3", False), ("4,6,9", False),
        ("2,9,10", False),
    ],
)
def test_selection_key_count_bounds_the_keys_of_each_order(orders, coprime):
    # The keys that obey the selection rule are some of the admissible
    # keys, and on pairwise coprime orders all of them.
    geom = of.build_geometry(orders)
    for m in range(3):
        listed = of.admissible_keys(geom, m)
        obeying = sum(
            all(
                sum(j * alpha[geom.slot[Twisted(i, j)]] for j in range(1, a)) % a == m % a
                for i, a in enumerate(geom.orders, start=1)
            )
            for alpha in listed
        )
        assert selection_key_count(geom, m) == obeying <= len(listed)
        if coprime:
            assert obeying == len(listed)


def test_selection_key_count_is_linear_in_the_sectors(monkeypatch):
    # 1000 twos: the order-0 keys that obey the selection rule are the
    # x_i^2 x_k^2 and x_i^4, and order 1 only has x_1 ... x_1000.  Each
    # sector's table stops at 2 a_i (the spare sum, 2 at m = 0 and none at
    # m = 1), where a table up to the whole sum 2 + m (r - 2) would make
    # the count cubic in r.
    series = importlib.import_module("orbifrob.series")
    tops = []

    def counted(parts, top, cap=None):
        tops.append(top)
        return partition_counts(parts, top, cap)

    monkeypatch.setattr(series, "partition_counts", counted)
    geom = of.build_geometry(",".join(["2"] * 1000))
    assert [selection_key_count(geom, m) for m in (0, 1)] == [1000 * 999 // 2 + 1000, 1]
    assert len(tops) == 2000 and max(tops) <= 4


@pytest.mark.parametrize(
    "orders", ["2,2,2", "2,3,4", "3,3,3", "2,3,7", "3,4,5", "2,2,2,3", "2,2,2,2,2"]
)
def test_sector_key_bound_counts_the_largest_sectors_order0_keys(orders):
    # Below MAX_KEYS the bound is exact: the listed order-0 keys supported
    # on the sector of the largest order, a part of all the order-0 keys.
    geom = of.build_geometry(orders)
    listed = of.admissible_keys(geom, 0)
    own = sum(1 for alpha in listed if support_sectors(geom, alpha) == {geom.r})
    assert sector_key_bound(geom.orders[-1]) == own <= admissible_key_count(geom, 0)


def test_sector_key_bound_passes_the_limit_on_one_large_order():
    # 2,3,20000 and 17,19,1723 stalled the whole count, a DP over 2 lcm of
    # the orders; 2,3,10^8 stalled building its labels.  The bound reads the
    # closed form for parts up to 3 on 20000 and 10^8, and the partitions
    # of 3446 into parts up to 4 on 1723, where the closed form is 991,300.
    assert sector_key_bound(20000) == 133_353_334
    assert sector_key_bound(1723) == 285_412_031
    assert sector_key_bound(10**8) > MAX_KEYS
    # The bound passes MAX_KEYS from order 31 (937,838 keys at 30):
    # Geometry refuses such a multiplet before it lists a label, and
    # builds below.
    assert of.build_geometry("2,3,30").n_twisted == 1 + 2 + 29
    refusal = r"^2,3,31 has more than 1000000 admissible keys of order 0 \(at least 1044986 "
    with pytest.raises(ValueError, match=refusal + r"on one sector\)$"):
        of.build_geometry("2,3,31")


def test_get_coefficient_and_euler_guard():
    geom = of.build_geometry("2,2,2")
    pot = of.seed(geom, of.STANDARD, 1)
    missing = key_of(geom, {(1, 1): 4}, 0)
    assert pot.get_coefficient(missing) == 0
    assert pot.get_coefficient(key_of(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}, 1)) == 1
    with pytest.raises(ValueError):
        pot.set_coefficient(key_of(geom, {(1, 1): 5}, 0), QQ(1))
    pot.seal(1)
    with pytest.raises(ValueError):
        pot.set_coefficient(missing, QQ(1))


@pytest.mark.parametrize(
    "triple, expected",
    [((1, 2, 3), 1), ((1, 1, 1), 6), ((1, 1, 2), 2), ((4, 2, 4), 2), ((7, 7, 7), 6)],
)
def test_s_factor(triple, expected):
    assert of.s_factor(*triple) == expected


@pytest.mark.parametrize("orders", ["2,3,4", "3,3,3"])
def test_cubic_relation_from_seeds(orders):
    # s(j1,j2,j3) * c(e_{i,j1}+e_{i,j2}+e_{i,j3}, 0) equals 1/a_i exactly
    # when the indices sum to a_i, and the coefficient is 0 otherwise.
    geom = of.build_geometry(orders)
    pot = of.seed(geom, of.STANDARD, 1)
    for i, a in enumerate(geom.orders, start=1):
        for js in itertools.product(range(1, a), repeat=3):
            alpha = of.alpha_from_pairs(geom, [((i, j), 1) for j in js])
            value = pot.get_coefficient(SeriesKey(alpha, 0))
            if sum(js) == a:
                assert of.s_factor(*js) * value == QQ(1, a)
            else:
                assert value == 0


def test_third_derivative_unit_gives_pairing():
    geom = of.build_geometry("2,3,4")
    pot = of.seed(geom, of.STANDARD, 1)
    origin = SeriesKey(of.zero_alpha(geom), 0)
    for lab in geom.twisted:
        conj = Twisted(lab.sector, geom.order(lab.sector) - lab.j)
        got = pot.third_derivative_coefficient(UNIT, lab, conj, origin)
        assert got == QQ(1, geom.order(lab.sector))
    assert pot.third_derivative_coefficient(UNIT, UNIT, POINT, origin) == 1
    # Nonzero target key kills the analytic part.
    shifted = key_of(geom, {(1, 1): 1}, 0)
    assert pot.third_derivative_coefficient(UNIT, Twisted(1, 1), Twisted(1, 1), shifted) == 0


def test_third_derivative_point_cubes():
    # c(0, m) exp(m tmu) differentiates to m^3 c(0, m) along the last label.
    geom = of.build_geometry("2,2,2")
    pot = of.Potential(geom)
    pot.set_coefficient(SeriesKey(of.zero_alpha(geom), 4), QQ(5, 7))
    got = pot.third_derivative_coefficient(
        POINT, POINT, POINT, SeriesKey(of.zero_alpha(geom), 4)
    )
    assert got == 64 * QQ(5, 7)


def test_third_derivative_quartic_multiplicity():
    # t^4 differentiates three times to 24 t.
    geom = of.build_geometry("2,3,4")
    pot = of.Potential(geom)
    quartic = key_of(geom, {(1, 1): 4}, 0)
    pot.set_coefficient(quartic, QQ(-1, 96))
    lab = Twisted(1, 1)
    got = pot.third_derivative_coefficient(lab, lab, lab, key_of(geom, {(1, 1): 1}, 0))
    assert got == 24 * QQ(-1, 96)
    assert multiplicity(quartic, 0, [(geom.slot[lab], 3)]) == 24


def test_third_derivatives_reject_labels_outside_the_geometry(reconstructed):
    pot, _ = reconstructed("2,3,4", 2)
    key = SeriesKey(of.zero_alpha(pot.geometry), 0)
    for outside in (Twisted(4, 1), Twisted(1, 2)):
        with pytest.raises(ValueError, match=re.escape(repr(outside))):
            pot.third_derivative_map(outside, UNIT, POINT)
        with pytest.raises(ValueError):
            pot.third_derivative_coefficient(POINT, outside, UNIT, key)


def test_alpha_from_pairs_rejects_negative_exponents():
    geom = of.build_geometry("2,3,4")
    with pytest.raises(ValueError, match="non-negative"):
        of.alpha_from_pairs(geom, {(1, 1): 1, (3, 2): -1})


def test_third_derivative_against_symbolic_oracle(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    oracle = SymbolicOracle(pot)
    geom = pot.geometry
    rng = random.Random(42)
    labels = list(geom.labels)
    keys = [SeriesKey(a, m) for m in range(3) for a in of.admissible_keys(geom, m)]
    shifts = [of.zero_alpha(geom)] + [k.alpha for k in keys]
    for _ in range(60):
        d1, d2, d3 = (rng.choice(labels) for _ in range(3))
        target = SeriesKey(rng.choice(shifts), rng.randrange(3))
        got = pot.third_derivative_coefficient(d1, d2, d3, target)
        assert got == oracle.third_derivative_coefficient(d1, d2, d3, target)


def test_third_derivative_permutation_symmetry(reconstructed):
    pot, _ = reconstructed("2,3,4", 2)
    geom = pot.geometry
    rng = random.Random(7)
    labels = list(geom.labels)
    pool = [SeriesKey(a, m) for m in range(3) for a in of.admissible_keys(geom, m)]
    for _ in range(200):
        ds = [rng.choice(labels) for _ in range(3)]
        target = rng.choice(pool)
        values = {
            pot.third_derivative_coefficient(*perm, target)
            for perm in itertools.permutations(ds)
        }
        assert len(values) == 1


def test_third_derivative_map_matches_pointwise(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    geom = pot.geometry
    full = pot.third_derivative_map(Twisted(3, 1), Twisted(3, 2), POINT)
    assert full  # not empty
    for key, value in full.items():
        assert value == pot.third_derivative_coefficient(
            Twisted(3, 1), Twisted(3, 2), POINT, key
        )
        assert value != 0


def test_stored_keys_all_admissible(reconstructed):
    pot, _ = reconstructed("2,3,4", 2)
    geom = pot.geometry
    for key in pot.coeffs:
        assert wdeg_scaled(geom, key.alpha, key.m) == 2 * geom.scale


# -- packed keys ----------------------------------------------------------


def _round_trips(layout, key):
    packed = layout.pack(*key)
    return layout.unpack(packed) == key


def test_packing_round_trips_at_the_widest_fields_237_m12():
    # Hyperbolic chi lets exponents grow with the order: the layout of
    # 2,3,7 at m=12 must hold every admissible key, every extraction of
    # order up to 24 and each of them shifted by 3 in every slot.
    geom = of.build_geometry("2,3,7")
    layout = key_layout(geom, 12)
    keys = [SeriesKey(a, m) for m in range(13) for a in of.admissible_keys(geom, m)]
    assert max(k for key in keys for k in key.alpha) == 16
    assert all(_round_trips(layout, key) for key in keys)
    # The widest extraction: four POINT labels at order 24 reach the limit.
    point4 = of.WdvvQuad(POINT, POINT, POINT, POINT)
    targets = [SeriesKey(b, 24) for b in of.admissible_targets(geom, point4, 24)]
    assert max(k for key in targets for k in key.alpha) == layout.limit == 25
    assert all(_round_trips(layout, key) for key in targets)
    n = geom.n_twisted
    top = SeriesKey((layout.limit,) * n, 24)
    assert _round_trips(layout, top)
    shifted = layout.pack(*top) + layout.pack((3,) * n, 0)
    assert layout.unpack(shifted) == SeriesKey((layout.limit + 3,) * n, 24)


def test_packing_round_trips_the_widest_fallback_extraction_345(monkeypatch):
    module = importlib.import_module("orbifrob.reconstruct")
    probe = module.probe_candidate
    xkeys = []

    def recording(pot, quad, xkey, target):
        xkeys.append(xkey)
        return probe(pot, quad, xkey, target)

    monkeypatch.setattr(module, "probe_candidate", recording)
    pot, _ = of.reconstruct("3,4,5", 3, strategy="exhaustive")
    assert len(xkeys) == 1581
    layout = pot.packed().layout
    assert layout is key_layout(pot.geometry, 3)
    widest = max(xkeys, key=lambda key: max(key.alpha))
    deepest = max(xkeys, key=lambda key: key.m)
    assert (max(widest.alpha), deepest.m) == (11, 3)
    for key in (widest, deepest):
        assert _round_trips(layout, key)
        assert max(key.alpha) + 3 <= layout.fmask


def test_packing_rejects_a_component_past_its_field():
    geom = of.build_geometry("2,3,4")
    layout = key_layout(geom, 2)
    n = geom.n_twisted
    with pytest.raises(ValueError, match="order"):
        layout.pack((0,) * n, layout.mmask + 1)
    for s in range(n):
        alpha = [0] * n
        for bad in (layout.limit + 1, -1):
            alpha[s] = bad
            with pytest.raises(ValueError, match="exponent"):
                layout.pack(tuple(alpha), 0)
        # The largest component plus a shift of 3 stays in its own field.
        alpha[s] = layout.limit
        unit = [0] * n
        unit[s] = 3
        packed = layout.pack(tuple(alpha), 4) + layout.pack(tuple(unit), 0)
        alpha[s] = layout.limit + 3
        assert layout.unpack(packed) == SeriesKey(tuple(alpha), 4)


def test_borrow_check_tests_containment():
    # (packed ^ vec ^ (packed - vec)) & starts is zero exactly when
    # vec <= alpha componentwise.  Otherwise the lowest short field borrows
    # from the next field up, so the lowest start bit set is that field's
    # successor, or the bit above the top field, which a negative
    # difference sets.
    geom = of.build_geometry("3,4,5")
    layout = key_layout(geom, 3)
    n = geom.n_twisted
    ends = [*layout.offsets[1:], layout.starts.bit_length() - 1]

    def check(alpha, vec, m):
        packed, shift = layout.pack(alpha, m), layout.pack(vec, 0)
        borrowed = (packed ^ shift ^ (packed - shift)) & layout.starts
        short = [s for s, (a, v) in enumerate(zip(alpha, vec)) if a < v]
        if not short:
            assert borrowed == 0
        else:
            assert borrowed & -borrowed == 1 << ends[short[0]]
        return borrowed

    rng = random.Random(5)
    for _ in range(500):
        alpha = tuple(rng.randrange(4) for _ in range(n))
        vec = tuple(rng.randrange(3) for _ in range(n))
        check(alpha, vec, rng.randrange(4))
    # Only the lowest field short, and only the top field short (the
    # difference is then negative).
    full = (layout.limit,) * n
    for s in (0, n - 1):
        vec = [0] * n
        vec[s] = 1
        alpha = list(full)
        alpha[s] = 0
        assert check(tuple(alpha), tuple(vec), 3)
    assert check(full, (3,) * n, 3) == 0


def test_potential_repr(reconstructed):
    pot, _ = reconstructed("2,3,4", 3)
    assert repr(pot) == "Potential(2,3,4, 43 coefficients, sealed)"
    seeded = of.seed(of.build_geometry("2,3,7"), of.STANDARD, 2)
    assert repr(seeded) == "Potential(2,3,7, 6 coefficients, building)"


def _assert_packed_image(pot):
    layout, coeffs, unknown = pot.packed()
    assert coeffs == {layout.pack(*key): value for key, value in pot.coeffs.items()}
    assert unknown == {layout.pack(*key) for key in pot.unknown}


def test_packed_view_is_rebuilt_past_its_layout():
    # A write above the view's layout drops the view; the next packed()
    # builds it under the layout of the new top order.
    geom = of.build_geometry("2,3,7")
    pot = of.seed(geom, of.STANDARD, 2)
    assert pot.packed().layout is key_layout(geom, 2)
    pot.set_coefficient(SeriesKey(of.admissible_keys(geom, 3)[0], 3), QQ(5, 7))
    assert pot.packed().layout is key_layout(geom, 3)
    _assert_packed_image(pot)


def test_packed_view_is_the_image_of_the_store():
    geom = of.build_geometry("2,3,4")
    pot = of.seed(geom, of.STANDARD, 3)
    view = pot.packed()
    _assert_packed_image(pot)
    # Writes through set_coefficient are mirrored into the same view.
    target = min(pot.unknown, key=of.series.key_sort_key)
    cubic = min(pot.coeffs, key=of.series.key_sort_key)
    pot.set_coefficient(target, QQ(2, 3))
    pot.set_coefficient(cubic, 0)
    assert pot.packed() is view
    _assert_packed_image(pot)

    # rescale_novikov copies through set_coefficient; seal clears unknown.
    scaled = of.rescale_novikov(pot, QQ(-2, 3))
    scaled_view = scaled.packed()
    _assert_packed_image(scaled)
    scaled.seal(scaled.max_order)
    assert scaled.packed() is scaled_view and not scaled_view.unknown
    _assert_packed_image(scaled)

    # A seal at a lower order after the view exists rebuilds it under the
    # layout of the new order (the seeds reach order 1 only).
    lower = of.seed(geom, of.STANDARD, 3)
    lower_view = lower.packed()
    assert lower_view.layout is key_layout(geom, 3)
    lower.seal(2)
    assert lower.packed() is not lower_view
    assert lower.packed().layout is key_layout(geom, 2)
    _assert_packed_image(lower)

    # An equal but distinct unknown set rebuilds the view too, and later
    # writes are mirrored into the new one.
    fresh = of.seed(geom, of.STANDARD, 3)
    fresh_view = fresh.packed()
    fresh.unknown = set(fresh.unknown)
    rebuilt = fresh.packed()
    assert rebuilt is not fresh_view
    _assert_packed_image(fresh)
    fresh.set_coefficient(target, QQ(1, 5))
    assert fresh.packed() is rebuilt
    _assert_packed_image(fresh)

    # The solver builds the view at its first probe and mirrors every
    # solved value and the final seal into it.
    solved, _ = of.reconstruct("2,3,4", 3)
    assert solved._packed is not None
    _assert_packed_image(solved)

    # copy_potential sets max_order after the writes; assigning a new
    # max_order or unknown drops the view, rebuilt under its layout.
    copy = copy_potential(solved, {target: QQ(1, 2)}, seal=False)
    _assert_packed_image(copy)
    copy.max_order = 5
    assert copy.packed().layout is key_layout(geom, 5)
    copy.unknown = {SeriesKey(a, 3) for a in of.admissible_keys(geom, 3)} - set(copy.coeffs)
    assert copy.unknown
    _assert_packed_image(copy)
