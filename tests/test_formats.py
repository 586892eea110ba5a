import pytest

import orbifrob as of
from orbifrob import SeriesKey
from orbifrob.rationals import QQ, format_rational, parse_rational


def test_rational_formatting():
    assert format_rational(QQ(-1, 96)) == "-1/96"
    assert format_rational(QQ(4, 2)) == "2"
    assert format_rational(QQ(3, -9)) == "-1/3"
    assert parse_rational("7/3") == QQ(7, 3)
    assert parse_rational("-5") == QQ(-5)
    assert parse_rational(" -2/3 ") == QQ(-2, 3)
    for bad in ("", "1/0", "x/2", "1/-3", "+1", "1_0", "\u0663", "1/\u0663", "1 /3", "--1"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_roundtrip_bit_exact(reconstructed):
    for name, m in (("2,2,3", 3), ("2,3,4", 2)):
        pot, _ = reconstructed(name, m)
        text = of.serialize_potential(pot)
        back = of.parse_potential(text)
        assert of.serialize_potential(back) == text
        assert of.diff_potentials(pot, back) is None
        assert back.max_order == pot.max_order
        assert back.seed_mode.token() == pot.seed_mode.token()


def test_serialization_omits_zeros(reconstructed):
    pot, trace = reconstructed("2,2,3", 2)
    known_zeros = [key for key, value, _ in trace.seeds if value == 0]
    assert known_zeros  # sector-purity constraints are known zeros
    assert not any(key in pot.coeffs for key in known_zeros)
    text = of.serialize_potential(pot)
    back = of.parse_potential(text)
    assert all(v != 0 for v in back.coeffs.values())
    assert back.coeffs == pot.coeffs


def test_record_order_is_canonical(reconstructed):
    pot, _ = reconstructed("2,3,4", 2)
    lines = of.serialize_potential(pot).splitlines()[5:]
    ms = []
    for line in lines:
        _, morder, _ = [part.strip() for part in line.split("|")]
        ms.append(int(morder[2:]))
    assert ms == sorted(ms)


def test_unsealed_potentials_are_not_serialized():
    pot = of.seed(of.build_geometry("2,2,2"), of.STANDARD, 1)
    with pytest.raises(ValueError):
        of.serialize_potential(pot)


def test_parse_rejects_malformed():
    good = of.serialize_potential(of.reconstruct("2,2,2", 1)[0])
    with pytest.raises(ValueError):
        of.parse_potential("not a potential\n")
    with pytest.raises(ValueError):
        of.parse_potential(good.replace("coefficients:", "coefficients: 99\n#"))
    with pytest.raises(ValueError):
        of.parse_potential(good.replace("(1,1)^1", "(1,9)^1", 1))
    # A record violating the Euler constraint is rejected on load.
    broken = good.replace("(1,1)^4 | m=0", "(1,1)^3 | m=0", 1)
    with pytest.raises(ValueError):
        of.parse_potential(broken)


def test_key_query_parsing():
    geom = of.build_geometry("2,2,3")
    key = of.parse_key_query(geom, "(1,1)^4 m=0")
    assert key == SeriesKey(of.alpha_from_pairs(geom, {(1, 1): 4}), 0)
    key = of.parse_key_query(geom, "(1,1) (2,1) (3,1) m=1")
    assert key == SeriesKey(of.alpha_from_pairs(geom, {(1, 1): 1, (2, 1): 1, (3, 1): 1}), 1)
    assert of.parse_key_query(geom, "1 m=2") == SeriesKey(of.zero_alpha(geom), 2)
    for bad in ("", "(1,1)^4", "(1,1)^4 m=x", "(1,9)^1 m=0", "m=-1"):
        with pytest.raises(ValueError):
            of.parse_key_query(geom, bad)


def test_diff_potentials(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    assert of.diff_potentials(pot, pot) is None
    other, _ = reconstructed("2,2,3", 2, of.VANISHING)
    description, key = of.diff_potentials(pot, other)
    assert key.m == 1
    assert "(1,1)^1 (2,1)^1 (3,1)^1" in description
    mismatched, _ = reconstructed("2,2,2", 2)
    description, key = of.diff_potentials(pot, mismatched)
    assert key is None and "multiplets differ" in description
