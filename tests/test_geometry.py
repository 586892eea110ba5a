import re

import pytest

import orbifrob as of
from orbifrob import Multiplet, MultipletClass, POINT, Twisted, UNIT
from orbifrob.rationals import QQ


@pytest.mark.parametrize(
    "orders, mu, chi",
    [
        ((2, 2, 2), 5, QQ(1, 2)),
        ((3, 3, 3), 8, QQ(0)),
        ((2, 3, 7), 11, QQ(-1, 42)),
        ((2, 3, 4), 8, QQ(1, 12)),
        ((2, 2, 2, 2), 6, QQ(0)),
    ],
)
def test_rank_and_euler_number(orders, mu, chi):
    geom = of.build_geometry(orders)
    assert geom.mu == mu
    assert geom.chi == chi
    assert len(geom.labels) == mu


@pytest.mark.parametrize("bad", ["2", "2,3", "1,3,4", "3,2,4", "2,2,1"])
def test_invalid_multiplets_rejected(bad):
    with pytest.raises(ValueError):
        of.build_geometry(bad)


def test_multiplet_parse_roundtrip():
    m = Multiplet.parse("2,3,7")
    assert m.orders == (2, 3, 7)
    assert str(m) == "2,3,7"
    assert Multiplet.parse("2, 3, 7") == m
    for bad in ("2,x,7", "2,\u0663,7", "2,0_3,7", "2,+3,7", "2,,3,7"):
        with pytest.raises(ValueError):
            Multiplet.parse(bad)


def test_canonical_label_order():
    geom = of.build_geometry("2,3,4")
    assert geom.labels[0] is UNIT
    assert geom.labels[-1] is POINT
    assert geom.labels[1:-1] == (
        Twisted(1, 1),
        Twisted(2, 1),
        Twisted(2, 2),
        Twisted(3, 1),
        Twisted(3, 2),
        Twisted(3, 3),
    )


def test_degrees():
    geom = of.build_geometry("2,3,4")
    assert geom.degree(UNIT) == 1
    assert geom.degree(POINT) == 0
    assert geom.degree(Twisted(3, 1)) == QQ(3, 4)
    # Conjugate twisted degrees sum to 1.
    for lab in geom.twisted:
        conj = Twisted(lab.sector, geom.order(lab.sector) - lab.j)
        assert geom.degree(lab) + geom.degree(conj) == 1
    # Scaled degrees agree with the exact ones.
    for lab in geom.twisted:
        assert geom.degree_scaled(lab) == geom.degree(lab) * geom.scale


def test_pairing_values():
    geom = of.build_geometry("2,3,4")
    assert geom.pairing(Twisted(2, 1), Twisted(2, 2)) == QQ(1, 3)
    assert geom.pairing(UNIT, POINT) == 1
    assert geom.pairing(Twisted(2, 1), Twisted(3, 1)) == 0
    assert geom.pairing(UNIT, UNIT) == 0
    assert geom.pairing(POINT, POINT) == 0


def _eta_inverse(geom):
    """eta^-1 as a dict of its nonzero entries, from eta_inverse_pairs."""
    return {(sigma, tau): w for sigma, tau, w in geom.eta_inverse_pairs}


def test_pairing_inverse_values():
    inverse = _eta_inverse(of.build_geometry("2,3,4"))
    assert inverse[Twisted(3, 1), Twisted(3, 3)] == 4
    assert inverse[POINT, UNIT] == 1
    assert (Twisted(2, 1), Twisted(2, 1)) not in inverse


def test_labels_outside_the_multiplet_raise_value_error():
    geom = of.build_geometry("2,3,4")
    for outside in (Twisted(4, 1), Twisted(1, 2)):
        for call in (
            lambda: geom.degree(outside),
            lambda: geom.pairing(UNIT, outside),
            lambda: geom.pairing(outside, POINT),
        ):
            with pytest.raises(ValueError, match=re.escape(repr(outside))):
                call()


@pytest.mark.parametrize("orders", ["2,2,2", "2,3,4", "2,3,7", "2,2,2,3"])
def test_pairing_inverse_is_inverse(orders):
    geom = of.build_geometry(orders)
    labels = geom.labels
    inverse = _eta_inverse(geom)
    for u in labels:
        for v in labels:
            # Symmetry of both forms.
            assert geom.pairing(u, v) == geom.pairing(v, u)
            assert inverse.get((u, v)) == inverse.get((v, u))
            entry = sum(
                (geom.pairing(u, w) * inverse.get((w, v), 0) for w in labels),
                QQ(0),
            )
            assert entry == (1 if u is v else 0)


def test_eta_inverse_pairs_cover_every_label_once():
    geom = of.build_geometry("2,3,7")
    firsts = [sigma for sigma, _, _ in geom.eta_inverse_pairs]
    assert sorted(geom.label_index[s] for s in firsts) == list(range(geom.mu))
    for sigma, tau, w in geom.eta_inverse_pairs:
        assert geom.pairing(sigma, tau) * w == 1


@pytest.mark.parametrize(
    "orders, expected",
    [
        ((2, 3, 4), MultipletClass.GENERAL),
        ((3, 3, 3), MultipletClass.GENERAL),
        ((2, 2, 5), MultipletClass.SEMI_GENERAL),
        ((2, 2, 3, 3), MultipletClass.SEMI_GENERAL),
        ((2, 2, 2), MultipletClass.NON_GENERAL),
        ((2, 2, 2, 7), MultipletClass.NON_GENERAL),
    ],
)
def test_classify(orders, expected):
    assert of.classify(Multiplet(orders)) == expected


def test_classify_partitions_all_multiplets():
    import itertools

    for orders in itertools.combinations_with_replacement(range(2, 6), 3):
        got = of.classify(Multiplet(orders))
        expected = (
            MultipletClass.NON_GENERAL
            if orders[2] == 2
            else MultipletClass.SEMI_GENERAL
            if orders[1] == 2
            else MultipletClass.GENERAL
        )
        assert got == expected


def test_geometry_repr():
    assert repr(of.build_geometry("2,3,7")) == "Geometry(2,3,7, mu=11, chi=-1/42)"


def test_build_geometry_returns_one_geometry_per_multiplet():
    geom = of.build_geometry("3,4,5")
    assert of.build_geometry(Multiplet((3, 4, 5))) is geom
    assert of.build_geometry((3, 4, 5)) is geom
    assert of.build_geometry("2,3,7") is not geom
