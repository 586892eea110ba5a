import itertools
import random
import re

import pytest

import orbifrob as of
from orbifrob import POINT, SeriesKey, Twisted, UNIT
from orbifrob.rationals import QQ
from orbifrob.series import alpha_length, multiplicity, wdeg_scaled

from oracle import SymbolicOracle


def key_of(geom, pairs, m):
    return SeriesKey(of.alpha_from_pairs(geom, pairs), m)


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
    assert all(alpha_length(alpha) == 3 for alpha in keys)


def test_admissible_keys_chi_zero_decouples_m():
    geom = of.build_geometry("3,3,3")
    assert of.admissible_keys(geom, 0) == of.admissible_keys(geom, 1)
    assert of.admissible_keys(geom, 0) == of.admissible_keys(geom, 7)


def test_admissible_keys_empty_beyond_cap():
    geom = of.build_geometry("2,2,2")  # chi = 1/2, cap at m = 4
    assert of.admissible_keys(geom, 5) == []
    with pytest.raises(ValueError):
        of.admissible_keys(geom, -1)


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
