"""Helpers shared by the test modules."""

import sys

import orbifrob as of
from orbifrob import SeriesKey


def key_of(geom, pairs, m):
    return SeriesKey(of.alpha_from_pairs(geom, pairs), m)


def product_key(geom):
    return key_of(geom, {(i, 1): 1 for i in range(1, geom.r + 1)}, 1)


def obeys_selection_rule(geom, key):
    """Whether sum_j j alpha_{i,j} == m (mod a_i) in every sector i: the
    selection rule of the orbifold group, read from the multiplet and the
    key alone."""
    charge = {i: 0 for i in range(1, geom.r + 1)}
    for lab, k in zip(geom.twisted, key.alpha):
        charge[lab.sector] += lab.j * k
    return all((charge[i] - key.m) % geom.order(i) == 0 for i in charge)


def copy_potential(pot, changes=None, seal=True):
    """A fresh copy of pot's coefficients with changes (key -> value; 0
    drops the key) applied, sealed at pot's max_order, or else left open
    with that max_order and no unknown keys."""
    out = of.Potential(pot.geometry, pot.seed_mode)
    for key, value in {**pot.coeffs, **(changes or {})}.items():
        out.set_coefficient(key, value)
    if seal:
        out.seal(pot.max_order)
    else:
        out.max_order = pot.max_order
    return out


def _leave_only(monkeypatch, status):
    """No guided candidates, and only the fallback candidates whose probe
    has the given status."""
    module = sys.modules["orbifrob.reconstruct"]
    every = module.exhaustive_candidates

    def kept(pot, target):
        for quad, xkey in every(pot, target):
            if module.probe_candidate(pot, quad, xkey, target).status == status:
                yield quad, xkey

    monkeypatch.setattr(module, "guided_candidates", lambda geom, target: [])
    monkeypatch.setattr(module, "exhaustive_candidates", kept)


def leave_only_useless_candidates(monkeypatch):
    """Make the worklist stall with no candidate blocked."""
    _leave_only(monkeypatch, "useless")


def leave_only_blocked_candidates(monkeypatch):
    """Make the worklist stall with every candidate blocked."""
    _leave_only(monkeypatch, "blocked")
