"""WDVV coefficient extraction and the exact residual scan.

For a coordinate quadruple (a, b, c, d) the associativity equation is

    sum_{s,t} F_abs eta^{st} F_tcd  -  sum_{s,t} F_acs eta^{st} F_tbd = 0

with third derivatives F_xyz of the potential.  One kernel, contract_at,
extracts the coefficient of a single monomial t^beta exp(m tmu) from the
left hand side.  It reads coefficients through a lookup that may answer
with the formal unknown TARGET, so the same contraction serves the solver
(the coefficient is affine in the unknown: intercept plus slope times x)
and wdvv_coefficient on a complete store.  Everything about an equation
that does not depend on the monomial or the store (the degree gate, the
derivative profile of every (eta pair, side) row, its sign and eta
constants) is compiled once per (geometry, quad) into a memoised plan,
built on the quad's first probe; a call then only checks the degree
gate, enumerates the splits of the monomial, looks up and multiplies.
The module also enumerates all degree-admissible target monomials of an
equation (admissible_targets) and sweeps every equation of a sealed
potential (residual_scan).

The scan deliberately does not use the kernel.  It is the independent
re-check of what the solver wrote, and it computes every target of an
equation at once: it clears denominators once (a single lcm over the store
and the pairing entries) and convolves integer maps whose keys are
exponent vectors packed into single machine integers, so residuals are
exact and the sweep stays fast.  Both sides of an equation are pair
products drawn from one 4-label multiset, so the scan streams the
equations one multiset at a time: it computes each pair product once,
holds at most three of them, and keeps only the packed derivative maps
(one per label triple) and the nonzero residuals for the whole sweep.
For a target of order m only stored orders m1 + m2 = m contribute, all
<= m_max, hence reported residuals are exact values of the equations,
not truncations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import Geometry, UNIT, format_label
from .rationals import QQ
from .series import (
    Potential,
    SeriesKey,
    alpha_add,
    effective_max_order,
    exponents_with_scaled_degree,
    format_key,
    indexed_profile,
    key_sort_key,
    multiplicity,
    unit_constant,
    wdeg_scaled,
)


class WdvvQuad(NamedTuple):
    """The four coordinate labels of one associativity equation."""

    a: object
    b: object
    c: object
    d: object


def format_quad(quad: WdvvQuad) -> str:
    return "(" + ",".join(format_label(lab) for lab in quad) + ")"


# The formal unknown x a lookup may answer with (truthy, never a number).
TARGET = object()


class Blocked(Exception):
    """Raised by a lookup on a coefficient that is not known yet."""

    def __init__(self, key: SeriesKey):
        super().__init__(key)
        self.key = key


def _splits(geom: Geometry, alpha: tuple[int, ...]) -> dict[int, list]:
    """All (beta1, alpha - beta1) with 0 <= beta1 <= alpha, grouped by the
    scaled degree of beta1."""
    parts = [((), (), 0)]
    for k, d in zip(alpha, geom.deg_scaled):
        if k:
            parts = [
                (beta1 + (j,), beta2 + (k - j,), deg + j * d)
                for beta1, beta2, deg in parts
                for j in range(k + 1)
            ]
        else:
            parts = [(beta1 + (0,), beta2 + (0,), deg) for beta1, beta2, deg in parts]
    groups: dict[int, list] = {}
    for beta1, beta2, deg in parts:
        groups.setdefault(deg, []).append((beta1, beta2))
    return groups


class _QuadPlan(NamedTuple):
    """The store-independent part of contract_at for one quad.

    rhs is the degree gate: only monomials of scaled degree rhs can carry
    a nonzero coefficient.  origin is the sum of the rows with UNIT on both
    sides, two constants eta that contribute at the monomial 1 of order 0
    only.  rows holds the other (eta pair, side) rows in kernel order:

    * (coef, p, vec, mults, None, None, None, None) when one side
      contains UNIT: coef is the signed eta weight times that side's
      constant eta (nonzero; rows with a zero constant are dropped), and
      the other side reads one coefficient, shifted by vec;
    * (weight, p1, vec1, mults1, p2, vec2, mults2, top) for a product of
      two series sides, where top = 2 - wdeg(vec1) (scaled) is the degree
      the order-0 part of beta1 must have.

    p counts POINT derivatives, vec is the twisted indicator vector and
    mults its (slot, multiplicity) pairs, as in derivative_profile.
    """

    rhs: int
    origin: object
    rows: tuple


@functools.cache
def _quad_plan(geom: Geometry, quad: WdvvQuad) -> _QuadPlan:
    """The plan of quad, built on its first probe and memoised."""
    index, labels = geom.label_index, geom.labels

    def const(triple):
        return unit_constant(geom, [labels[k] for k in triple])

    a, b, c, d = (index[lab] for lab in quad)
    two = 2 * geom.scale
    origin = QQ(0)
    rows = []
    for sigma, tau, w in geom.eta_inverse_pairs:
        sigma, tau = index[sigma], index[tau]
        for triple1, triple2, weight in (
            ((a, b, sigma), (c, d, tau), w),
            ((a, c, sigma), (b, d, tau), -w),
        ):
            u1, p1, vec1, mults1 = indexed_profile(geom, tuple(sorted(triple1)))
            u2, p2, vec2, mults2 = indexed_profile(geom, tuple(sorted(triple2)))
            if u1 and u2:
                origin += weight * const(triple1) * const(triple2)
            elif u1 or u2:
                coef = weight * const(triple1 if u1 else triple2)
                if coef:
                    p, vec, mults = (p2, vec2, mults2) if u1 else (p1, vec1, mults1)
                    rows.append((coef, p, vec, mults, None, None, None, None))
            else:
                top = two - wdeg_scaled(geom, vec1, 0)
                rows.append((weight, p1, vec1, mults1, p2, vec2, mults2, top))
    rhs = 3 * geom.scale - sum(geom.degree_scaled(lab) for lab in quad)
    return _QuadPlan(rhs, origin, tuple(rows))


def contract_at(geom: Geometry, quad: WdvvQuad, xkey: SeriesKey, lookup):
    """Coefficient of t^xkey in WDVV(quad) as (c0, c1, c2): c0 + c1 x + c2 x^2.

    lookup(key) returns the stored rational of an admissible key, TARGET
    for the formal unknown x, or raises Blocked(key) for a key that is not
    known yet.  It is only called on keys obeying the Euler constraint (the
    others are zero), and the second factor of a product is looked up only
    when the first is nonzero.  Derivatives containing UNIT come from
    F_triv and are the constants eta of the remaining pair.

    The rows come from the quad's plan (_quad_plan) in a fixed order, so
    the keys looked up, and which of them blocks first, depend only on
    quad, xkey and the answers of lookup.
    """
    c0 = c1 = c2 = QQ(0)
    plan = _quad_plan(geom, quad)
    alpha, m = xkey
    if wdeg_scaled(geom, alpha, m) != plan.rhs:
        return c0, c1, c2
    if m == 0 and not any(alpha):
        c0 += plan.origin
    chi = geom.chi_scaled
    splits = None
    for weight, p1, vec1, mults1, p2, vec2, mults2, top in plan.rows:
        if vec2 is None:
            if p1 and m == 0:
                continue
            key = SeriesKey(alpha_add(alpha, vec1), m)
            value = lookup(key)
            if not value:
                continue
            coef = weight * multiplicity(key, p1, mults1)
            if value is TARGET:
                c1 += coef
            else:
                c0 += coef * value
            continue

        if splits is None:
            splits = _splits(geom, alpha)
        for m1 in range(1 if p1 else 0, m if p2 else m + 1):
            m2 = m - m1
            for beta1, beta2 in splits.get(top - m1 * chi, ()):
                k1 = SeriesKey(alpha_add(beta1, vec1), m1)
                v1 = lookup(k1)
                if not v1:
                    continue
                k2 = SeriesKey(alpha_add(beta2, vec2), m2)
                v2 = lookup(k2)
                if not v2:
                    continue
                coef = weight * multiplicity(k1, p1, mults1) * multiplicity(k2, p2, mults2)
                if v1 is TARGET:
                    if v2 is TARGET:
                        c2 += coef
                    else:
                        c1 += coef * v2
                elif v2 is TARGET:
                    c1 += coef * v1
                else:
                    c0 += coef * v1 * v2
    return c0, c1, c2


def wdvv_coefficient(pot: Potential, quad: WdvvQuad, target: SeriesKey):
    """Exact coefficient of t^target in the equation WDVV(a, b, c, d).

    Pure; absent keys of the store count as zero.
    """
    coeffs = pot.coeffs
    return contract_at(pot.geometry, quad, target, lambda key: coeffs.get(key, 0))[0]


def admissible_targets(geom: Geometry, quad: WdvvQuad, m: int) -> list[tuple[int, ...]]:
    """All beta >= 0 that can carry a nonzero coefficient of WDVV(quad).

    Quasi-homogeneity pins wdeg(beta) + m chi to 3 minus the degree sum of
    the quadruple, so the set is finite; it is returned in canonical
    (length, tuple) order.
    """
    if m < 0:
        raise ValueError("exponential order m must be >= 0")
    rhs = 3 * geom.scale - sum(geom.degree_scaled(lab) for lab in quad)
    return list(exponents_with_scaled_degree(geom, rhs - m * geom.chi_scaled))


@dataclass
class ResidualReport:
    """Outcome of a residual scan: exact nonzero residuals, if any.

    targets_checked[m] counts the monomials of order m compared across all
    scanned equations: those carried by either side of an equation.
    """

    geometry: Geometry
    m_max: int
    quads_checked: int = 0
    targets_checked: dict[int, int] = field(default_factory=dict)
    nonzero: list[tuple[WdvvQuad, SeriesKey, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.nonzero

    def to_text(self) -> str:
        lines = [
            f"residual-scan: multiplet={self.geometry.multiplet} m-max={self.m_max}",
            f"quads-checked: {self.quads_checked}",
            "targets-checked: "
            + ", ".join(f"m={m}: {n}" for m, n in sorted(self.targets_checked.items())),
        ]
        for quad, key, value in self.nonzero:
            lines.append(
                f"residual | {format_quad(quad)} | {format_key(self.geometry, key)} | {value}"
            )
        lines.append(f"nonzero-residuals: {len(self.nonzero)}")
        return "\n".join(lines) + "\n"


def residual_scan(pot: Potential, m_max: int) -> ResidualReport:
    """Evaluate every WDVV equation of a sealed potential up to order m_max.

    Quads are canonicalised up to the symmetries a<->b, c<->d and
    (a,b)<->(c,d); quads containing the unit label are skipped (their
    equations vanish identically).  For chi > 0 the scan stops at
    floor(2/chi), as the reconstruction does, and reports that order.
    The scan is sequential and streams the equations one 4-label multiset
    at a time, holding only that multiset's pair products; the residuals
    are reported in quad order whatever order the multisets take.
    """
    if not pot.sealed:
        raise ValueError("residual_scan requires a sealed potential")
    if m_max < 0:
        raise ValueError(f"scan order must be >= 0, got {m_max}")
    geom = pot.geometry
    # Positive chi: no key is admissible above floor(2/chi), so no
    # equation has a monomial there.
    m_max = effective_max_order(geom, m_max)
    if pot.max_order is not None and pot.max_order < m_max:
        raise ValueError(
            f"potential is complete up to order {pot.max_order}, cannot scan to {m_max}"
        )
    report = ResidualReport(geom, m_max)

    # One denominator for the whole store: entries of the scaled maps are
    # plain integers and products/sums stay exact.
    scale = math.lcm(*geom.orders, *(int(c.denominator) for c in pot.coeffs.values()), 1)

    # Packing: one slot of `shift` bits per twisted coordinate plus low
    # bits for m.  A product's exponent is the sum of two derivative-map
    # exponents, each at most a stored exponent, so the stored keys size
    # the slots.
    max_entry = max((k for key in pot.coeffs for k in key.alpha), default=1)
    shift = (2 * max_entry + 1).bit_length()
    mbits = max((2 * m_max + 1).bit_length(), 1)
    mask = (1 << shift) - 1
    mmask = (1 << mbits) - 1

    def pack(key: SeriesKey) -> int:
        packed = key.m
        for s, k in enumerate(key.alpha):
            if k:
                packed |= k << (mbits + s * shift)
        return packed

    def unpack(packed: int) -> SeriesKey:
        m = packed & mmask
        packed >>= mbits
        alpha = []
        for _ in range(geom.n_twisted):
            alpha.append(packed & mask)
            packed >>= shift
        return SeriesKey(tuple(alpha), m)

    labels = geom.labels
    index = geom.label_index
    eta_pairs = [(index[sigma], index[tau], w) for sigma, tau, w in geom.eta_inverse_pairs]

    @functools.cache
    def dmap(triple: tuple[int, ...]) -> dict[int, dict[int, int]]:
        """Scaled, packed derivative map of a sorted label-index triple,
        grouped by order: {m: {packed key: integer coefficient}}."""
        out: dict[int, dict[int, int]] = {}
        for key, value in pot.third_derivative_map(*(labels[k] for k in triple)).items():
            if key.m > m_max:
                continue
            scaled = value * scale
            num = int(scaled)
            if num != scaled:  # pragma: no cover - scale is an lcm, always exact
                raise AssertionError("denominator not cleared")
            out.setdefault(key.m, {})[pack(key)] = num
        return out

    products: dict[tuple, dict[int, int]] = {}  # of the current multiset

    def product(p1: tuple[int, int], p2: tuple[int, int]) -> dict[int, int]:
        # Both sides of the loop below pass p1 <= p2, so the key is canonical.
        cache_key = (p1, p2)
        got = products.get(cache_key)
        if got is not None:
            return got
        out: dict[int, int] = {}
        get = out.get
        for sigma, tau, w in eta_pairs:
            d1 = dmap(tuple(sorted((*p1, sigma))))
            if not d1:
                continue
            d2 = dmap(tuple(sorted((*p2, tau))))
            if not d2:
                continue
            for m1, map1 in d1.items():
                for m2, map2 in d2.items():
                    if m1 + m2 > m_max:
                        continue
                    for k1, v1 in map1.items():
                        wv1 = w * v1
                        for k2, v2 in map2.items():
                            k = k1 + k2
                            prev = get(k)
                            out[k] = wv1 * v2 if prev is None else prev + wv1 * v2
        products[cache_key] = out
        return out

    series_labels = [k for k, lab in enumerate(labels) if lab is not UNIT]
    pairs = list(itertools.combinations_with_replacement(series_labels, 2))

    # Both sides of an equation are products of two label pairs drawn from
    # the same 4-label multiset, and each product belongs to exactly one
    # multiset; so the equations are scanned one multiset at a time and
    # only that multiset's (at most three) products are held.
    groups: dict[tuple[int, ...], list] = {}
    for p1, p2 in itertools.combinations_with_replacement(pairs, 2):
        groups.setdefault(tuple(sorted(p1 + p2)), []).append((p1, p2))
        report.quads_checked += 1

    denom = scale * scale
    target_counts: dict[int, int] = {m: 0 for m in range(m_max + 1)}
    found = []
    for equations in groups.values():
        products.clear()
        for p1, p2 in equations:
            lhs = product(p1, p2)
            rhs = product(
                tuple(sorted((p1[0], p2[0]))), tuple(sorted((p1[1], p2[1])))
            )
            bad = []
            for k in lhs.keys() | rhs.keys():
                target_counts[k & mmask] += 1
                diff = lhs.get(k, 0) - rhs.get(k, 0)
                if diff:
                    bad.append((unpack(k), QQ(diff, denom)))
            if bad:
                found.append((p1, p2, bad))

    # pairs is in lexicographic order, so sorting by (p1, p2) restores the
    # order of the quad enumeration; within a quad, canonical key order.
    found.sort(key=lambda item: item[:2])
    for p1, p2, bad in found:
        quad = WdvvQuad(*(labels[k] for k in p1 + p2))
        for key, value in sorted(bad, key=lambda t: key_sort_key(t[0])):
            report.nonzero.append((quad, key, value))
    report.targets_checked = target_counts
    return report
