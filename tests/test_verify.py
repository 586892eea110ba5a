import pytest

import orbifrob as of
from orbifrob import POINT, SeriesKey, Twisted, UNIT
from orbifrob.rationals import QQ


def key_of(geom, pairs, m):
    return SeriesKey(of.alpha_from_pairs(geom, pairs), m)


def copy_potential(pot):
    out = of.Potential(pot.geometry, pot.seed_mode)
    for key, value in pot.coeffs.items():
        out.set_coefficient(key, value)
    out.seal(pot.max_order)
    return out


def test_check_euler(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    assert of.check_euler(pot).passed
    broken = copy_potential(pot)
    bad = key_of(pot.geometry, {(1, 1): 1}, 0)  # wdeg 1/2
    broken.coeffs[bad] = QQ(1)  # bypass the insertion guard on purpose
    report = of.check_euler(broken)
    assert not report.passed
    assert "(1,1)^1 | m=0" in report.line()
    empty = of.Potential(pot.geometry)
    assert of.check_euler(empty).passed


def test_check_separation(reconstructed):
    for name in ("2,3,4", "3,3,4"):
        pot, _ = reconstructed(name, 1)
        assert of.check_separation(pot).passed
    pot, _ = reconstructed("2,2,5", 1)
    assert of.check_separation(pot).passed
    broken = copy_potential(pot)
    broken.coeffs[key_of(broken.geometry, {(1, 1): 2, (2, 1): 2}, 0)] = QQ(1)
    report = of.check_separation(broken)
    assert not report.passed
    assert "(1,1)^2 (2,1)^2" in report.detail


def test_check_symmetry(reconstructed):
    p333, _ = reconstructed("3,3,3", 2)
    for i1, i2 in ((1, 2), (1, 3), (2, 3)):
        assert of.check_symmetry(p333, i1, i2).passed
    p225, _ = reconstructed("2,2,5", 2)
    assert of.check_symmetry(p225, 1, 2).passed
    with pytest.raises(ValueError):
        of.check_symmetry(p225, 1, 3)
    broken = copy_potential(p225)
    victim = key_of(broken.geometry, {(1, 1): 4}, 0)
    broken.coeffs[victim] = broken.coeffs[victim] + 1
    assert not of.check_symmetry(broken, 1, 2).passed


def test_sector_restriction_values(reconstructed):
    pot, _ = reconstructed("2,3,4", 1)
    prof1 = of.sector_restriction(pot, 1)
    assert prof1 == {(4,): QQ(-1, 96)}
    prof2 = of.sector_restriction(pot, 2)
    assert prof2[(3, 0)] == QQ(1, 18)
    assert prof2[(2, 2)] == QQ(-1, 36)
    assert set(prof2) == {(3, 0), (2, 2), (1, 4), (0, 6)}
    stripped = of.Potential(pot.geometry)
    assert of.sector_restriction(stripped, 1) == {}


def test_sector_universality(reconstructed):
    p233, _ = reconstructed("2,3,3", 1)
    p334, _ = reconstructed("3,3,4", 1)
    assert of.check_sector_universality(p233, 2, p334, 1).passed
    p223, _ = reconstructed("2,2,3", 1)
    p234, _ = reconstructed("2,3,4", 1)
    assert of.check_sector_universality(p223, 1, p234, 1).passed
    assert of.check_sector_universality(p234, 2, p234, 2).passed
    with pytest.raises(ValueError):
        of.check_sector_universality(p223, 1, p234, 2)
    broken = copy_potential(p234)
    victim = key_of(broken.geometry, {(1, 1): 4}, 0)
    broken.coeffs[victim] = QQ(1)
    assert not of.check_sector_universality(p223, 1, broken, 1).passed


def test_check_vanishing(reconstructed):
    vanishing, _ = reconstructed("2,2,3", 2, of.VANISHING)
    assert of.check_vanishing(vanishing).passed
    standard, _ = reconstructed("2,2,3", 2)
    report = of.check_vanishing(standard)
    assert not report.passed
    assert "(1,1)^1 (2,1)^1 (3,1)^1 | m=1" in report.detail


def test_limit_ring_structure():
    geom = of.build_geometry("2,2,2")
    ring = of.LimitRing(geom)
    assert ring.dimension == 5
    assert ring.product(Twisted(1, 1), Twisted(1, 1)) == {POINT: QQ(1, 2)}
    assert ring.product(Twisted(1, 1), Twisted(2, 1)) == {}
    assert ring.product(UNIT, POINT) == {POINT: QQ(1)}
    assert ring.product(POINT, POINT) == {}
    g234 = of.build_geometry("2,3,4")
    r234 = of.LimitRing(g234)
    assert r234.product(Twisted(3, 1), Twisted(3, 2)) == {Twisted(3, 3): QQ(1)}
    assert r234.product(Twisted(3, 2), Twisted(3, 2)) == {POINT: QQ(1, 4)}
    assert r234.product(Twisted(3, 3), Twisted(3, 2)) == {}


@pytest.mark.parametrize("orders", ["2,2,2", "2,3,4", "3,3,3", "2,3,7"])
def test_limit_ring_associative(orders):
    assert of.LimitRing(of.build_geometry(orders)).is_associative()


@pytest.mark.parametrize("orders", ["2,2,2", "2,3,4", "3,3,3"])
def test_limit_product_matches_potential(orders, reconstructed):
    pot, _ = reconstructed(orders, 1)
    assert of.check_limit_product(pot).passed


def test_limit_product_detects_wrong_seeds(reconstructed):
    pot, _ = reconstructed("2,3,4", 1)
    broken = copy_potential(pot)
    victim = key_of(broken.geometry, {(2, 1): 3}, 0)
    broken.coeffs[victim] = broken.coeffs[victim] * 2
    report = of.check_limit_product(broken)
    assert not report.passed
    assert "(2,1)" in report.detail


def test_checks_are_pure(reconstructed):
    pot, _ = reconstructed("2,3,4", 1)
    before = dict(pot.coeffs)
    of.check_euler(pot)
    of.check_separation(pot)
    of.check_limit_product(pot)
    first = of.check_vanishing(pot)
    second = of.check_vanishing(pot)
    assert (first.passed, first.detail) == (second.passed, second.detail)
    assert pot.coeffs == before
