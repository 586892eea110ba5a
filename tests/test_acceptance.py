"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Everything is exact rational arithmetic; "tolerance"
is equality.
"""

import itertools
import random
import time

import pytest

import orbifrob as of
from orbifrob import SeriesKey, UNIT, WdvvQuad
from orbifrob.cli import main as cli_main
from orbifrob.rationals import QQ


def key_of(geom, pairs, m):
    return SeriesKey(of.alpha_from_pairs(geom, pairs), m)


def product_key(geom):
    return key_of(geom, {(i, 1): 1 for i in range(1, geom.r + 1)}, 1)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS  ({text})")


def test_criterion_1_seed_values():
    start = time.perf_counter()
    pot, _ = of.reconstruct("2,3,4", 1)
    geom = pot.geometry
    assert pot.get_coefficient(key_of(geom, {(2, 1): 3}, 0)) == QQ(1, 18)
    assert pot.get_coefficient(key_of(geom, {(3, 1): 2, (3, 2): 1}, 0)) == QQ(1, 8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"(2,3,4) cubic seeds exact, {elapsed:.3f}s")


def test_criterion_2_regression_values(reconstructed):
    start = time.perf_counter()
    for name in ("2,2,2", "2,2,3", "2,3,4", "3,3,3"):
        pot, _ = reconstructed(name, 2)
        geom = pot.geometry
        assert pot.get_coefficient(product_key(geom)) == 1
        for i, a in enumerate(geom.orders, start=1):
            if a >= 3:
                quartic = key_of(geom, {(i, 1): 2, (i, a - 1): 2}, 0)
                assert pot.get_coefficient(quartic) == QQ(-1, 4 * a * a)
                for j in range(1, a - 1):
                    pairs = {(k, 1): 1 for k in range(1, geom.r + 1) if k != i}
                    for idx in (j + 1, a - j):
                        pairs[(i, idx)] = pairs.get((i, idx), 0) + 1
                    expected = QQ(1, 2 * a) if a - j == j + 1 else QQ(1, a)
                    assert pot.get_coefficient(key_of(geom, pairs, 1)) == expected
            else:
                assert pot.get_coefficient(key_of(geom, {(i, 1): 4}, 0)) == QQ(-1, 96)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"theorem regression values exact on 4 multiplets, {elapsed:.1f}s")


def test_criterion_3_wdvv_exactness(reconstructed):
    start = time.perf_counter()
    cases = [("2,2,2", 4), ("2,2,3", 4), ("2,3,4", 3), ("3,3,3", 4), ("2,3,7", 2)]
    for name, m_max in cases:
        pot, _ = reconstructed(name, m_max)
        scan = of.residual_scan(pot, m_max)
        assert scan.ok, f"nonzero residuals for {name}: {scan.nonzero[:3]}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(3, f"residual scans exactly zero on 5 multiplets, {elapsed:.1f}s")


def test_criterion_4_uniqueness_determinism(tmp_path, reconstructed, capsys):
    pa, _ = reconstructed("2,2,3", 2, of.STANDARD, "guided")
    pb, _ = reconstructed("2,2,3", 2, of.STANDARD, "exhaustive")
    fa, fb = tmp_path / "guided.txt", tmp_path / "exhaustive.txt"
    of.write_potential(pa, fa)
    of.write_potential(pb, fb)
    assert fa.read_bytes() == fb.read_bytes()
    assert cli_main(["diff", str(fa), str(fb)]) == 0
    capsys.readouterr()
    report(4, "guided and exhaustive schedules byte-identical on (2,2,3)")


def test_criterion_5_separation_and_symmetry(reconstructed):
    for name in ("2,3,4", "3,3,4"):
        pot, _ = reconstructed(name, 1)
        assert of.check_separation(pot).passed
    p333, _ = reconstructed("3,3,3", 2)
    for i1, i2 in ((1, 2), (1, 3), (2, 3)):
        assert of.check_symmetry(p333, i1, i2).passed
    p225, _ = reconstructed("2,2,5", 2)
    assert of.check_symmetry(p225, 1, 2).passed
    report(5, "separation on (2,3,4),(3,3,4); symmetry on (3,3,3),(2,2,5)")


def test_criterion_6_sector_universality(reconstructed):
    p233, _ = reconstructed("2,3,3", 1)
    p334, _ = reconstructed("3,3,4", 1)
    assert of.check_sector_universality(p233, 2, p334, 1).passed
    p223, _ = reconstructed("2,2,3", 1)
    p234, _ = reconstructed("2,3,4", 1)
    assert of.check_sector_universality(p223, 1, p234, 1).passed
    report(6, "order-3 and order-2 sector potentials agree across multiplets")


def test_criterion_7_vanishing_theorems(reconstructed):
    pot, trace = reconstructed("2,3,7", 3, of.VANISHING)
    assert not trace.free
    assert of.check_vanishing(pot).passed
    bare, trace_bare = reconstructed("2,2,2", 4, of.VANISHING_NO_QUARTIC)
    assert of.check_vanishing(bare).passed
    assert all(key.m == 0 for key in trace_bare.free)
    report(7, "all positive orders vanish: (2,3,7) seeded, (2,2,2) chi>=0 unseeded")


def test_criterion_8_rescaling_covariance(tmp_path, reconstructed, capsys):
    pot, _ = reconstructed("2,2,3", 3)
    scaled = of.rescale_novikov(pot, QQ(7, 3))
    assert of.residual_scan(scaled, 3).ok
    direct, _ = reconstructed("2,2,3", 3, of.rescaled_mode(QQ(7, 3)))
    fa, fb = tmp_path / "scaled.txt", tmp_path / "direct.txt"
    of.write_potential(scaled, fa)
    of.write_potential(direct, fb)
    assert cli_main(["diff", str(fa), str(fb)]) == 0
    capsys.readouterr()
    report(8, "rescaled potential passes the scan and matches rescaled seeding")


def test_criterion_9_limit_ring(reconstructed):
    for name in ("2,2,2", "2,3,4", "3,3,3"):
        geom = of.build_geometry(name)
        assert of.LimitRing(geom).dimension == geom.mu
        pot, _ = reconstructed(name, 1)
        assert of.check_limit_product(pot).passed
    report(9, "limit ring dimension mu and product match on 3 multiplets")


def test_criterion_10a_euler_guard_on_insertion():
    geom = of.build_geometry("2,2,3")
    pot = of.Potential(geom)
    with pytest.raises(ValueError):
        pot.set_coefficient(key_of(geom, {(1, 1): 3}, 0), QQ(1))
    pot.set_coefficient(key_of(geom, {(1, 1): 4}, 0), QQ(1))  # wdeg 2 passes
    report("10a", "Euler grading asserted on every insertion")


def test_criterion_10b_unit_quads_vanish_1000(reconstructed):
    pot, _ = reconstructed("2,3,4", 2)
    geom = pot.geometry
    rng = random.Random(2024)
    labels = list(geom.labels)
    pool = [SeriesKey(a, m) for m in range(3) for a in of.admissible_keys(geom, m)]
    for _ in range(1000):
        rest = [rng.choice(labels) for _ in range(3)]
        position = rng.randrange(4)
        rest.insert(position, UNIT)
        assert of.wdvv_coefficient(pot, WdvvQuad(*rest), rng.choice(pool)) == 0
    report("10b", "1000 random unit-quad coefficients identically zero")


def test_criterion_10c_third_derivative_symmetry_1000(reconstructed):
    pot, _ = reconstructed("2,3,7", 2)
    geom = pot.geometry
    rng = random.Random(515)
    labels = list(geom.labels)
    pool = [SeriesKey(a, m) for m in range(3) for a in of.admissible_keys(geom, m)]
    pool += [SeriesKey(of.zero_alpha(geom), m) for m in range(3)]
    count = 0
    for _ in range(1000):
        ds = [rng.choice(labels) for _ in range(3)]
        target = rng.choice(pool)
        values = {
            pot.third_derivative_coefficient(*perm, target)
            for perm in itertools.permutations(ds)
        }
        assert len(values) == 1
        count += 1
    assert count == 1000
    report("10c", "1000 random third-derivative permutation probes symmetric")


def test_criterion_10d_roundtrip_all_golden_files(tmp_path, reconstructed):
    cases = [
        ("2,2,2", 4, of.STANDARD),
        ("2,2,3", 4, of.STANDARD),
        ("2,3,4", 3, of.STANDARD),
        ("3,3,3", 4, of.STANDARD),
        ("2,3,7", 2, of.STANDARD),
        ("2,2,3", 2, of.VANISHING),
        ("2,2,3", 3, of.rescaled_mode(QQ(7, 3))),
    ]
    for index, (name, m_max, mode) in enumerate(cases):
        pot, _ = reconstructed(name, m_max, mode)
        path = tmp_path / f"golden{index}.txt"
        of.write_potential(pot, path)
        back = of.read_potential(path)
        assert of.serialize_potential(back) == path.read_text()
        assert of.diff_potentials(pot, back) is None
    report("10d", f"bit-exact round-trip on {len(cases)} golden files")
