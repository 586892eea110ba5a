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


def test_pairing_inverse_values():
    geom = of.build_geometry("2,3,4")
    assert geom.pairing_inverse(Twisted(3, 1), Twisted(3, 3)) == 4
    assert geom.pairing_inverse(POINT, UNIT) == 1
    assert geom.pairing_inverse(Twisted(2, 1), Twisted(2, 1)) == 0


@pytest.mark.parametrize("orders", ["2,2,2", "2,3,4", "2,3,7", "2,2,2,3"])
def test_pairing_inverse_is_inverse(orders):
    geom = of.build_geometry(orders)
    labels = geom.labels
    for u in labels:
        for v in labels:
            # Symmetry of both forms.
            assert geom.pairing(u, v) == geom.pairing(v, u)
            assert geom.pairing_inverse(u, v) == geom.pairing_inverse(v, u)
            entry = sum(
                (geom.pairing(u, w) * geom.pairing_inverse(w, v) for w in labels),
                QQ(0),
            )
            assert entry == (1 if u is v else 0)


def test_eta_inverse_pairs_cover_every_label_once():
    geom = of.build_geometry("2,3,7")
    firsts = [sigma for sigma, _, _ in geom.eta_inverse_pairs]
    assert sorted(geom.label_index[s] for s in firsts) == list(range(geom.mu))
    for sigma, tau, w in geom.eta_inverse_pairs:
        assert geom.pairing_inverse(sigma, tau) == w


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


def test_build_geometry_returns_one_geometry_per_multiplet():
    geom = of.build_geometry("3,4,5")
    assert of.build_geometry(Multiplet((3, 4, 5))) is geom
    assert of.build_geometry((3, 4, 5)) is geom
    assert of.build_geometry("2,3,7") is not geom
