"""Seeding and WDVV-driven reconstruction of the potential.

The solver, from seeding to the worklist.  seed loads the initial data
of a seed mode, the stream series.seed_entries, into a fresh potential
on which every other admissible key up to the maximal order is unknown.

Every other admissible coefficient is solved one at a time: the
coefficient of a chosen extraction monomial in a chosen WDVV equation is
an affine function of the single unknown, so probing the equation yields
intercept and slope and the unknown is -intercept/slope.  The probe is a
thin wrapper over the WDVV kernel contract_at: it answers lookups of
the target with the formal unknown, blocks on the keys the potential lists
as unknown or that lie above its max_order, and reads every other key from
the store (absent means 0).  The kernel extracts the coefficient of a
single monomial t^beta exp(m tmu) from the left hand side of one
equation (geometry.WdvvQuad).  It reads coefficients through a lookup that
may answer with the formal unknown TARGET, so the same contraction serves
the probe (the coefficient is affine in the unknown: intercept plus slope
times x) and wdvv_coefficient on a complete store.  It reads packed keys
(series.KeyLayout) through a plan compiled once per (layout, quad), as
its docstring tells.  The residual scan (wdvv.residual_scan) shares
none of this but the degree gate, geometry.quad_degree_scaled, and this
module imports nothing from wdvv.

Targets are scheduled in the induction
order of the underlying uniqueness argument (joint order-0/order-1
induction on the length, then order by order), with a worklist that
defers targets whose prerequisites are not known yet, and an exhaustive
candidate search as fallback for every target.  This worklist is the only
solver: when a pass with the fallback solves nothing, it raises SolverStuck
on the targets none of whose candidates was blocked, else NoProgress.
The trace (spelled by formats.serialize_trace) records every seed and,
for every solved equation, the probe result that solved it, making the
realized order auditable.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import (
    Geometry,
    POINT,
    Twisted,
    UNIT,
    WdvvQuad,
    build_geometry,
    format_quad,
    quad_degree_scaled,
)
from .rationals import QQ, format_rational
from .series import (
    KeyLayout,
    Potential,
    STANDARD,
    SeedMode,
    SeriesKey,
    VANISHING_NO_QUARTIC,
    admissible_keys,
    alpha_add,
    alpha_from_pairs,
    check_key_count,
    effective_max_order,
    format_key,
    indexed_profile,
    key_sort_key,
    packed_profile,
    rescaled_mode,
    seed_entries,
    support_sectors,
    unit_constant,
    wdeg_scaled,
)


class ReconstructionError(Exception):
    """Base class for solver failures."""


class _Stuck(ReconstructionError):
    """The worklist ended with targets left over: targets lists them, and
    the message names up to six after the subclass's reason."""

    reason: str

    def __init__(self, geom: Geometry, targets):
        self.targets = list(targets)
        names = ", ".join(format_key(geom, t) for t in self.targets[:6])
        more = "" if len(self.targets) <= 6 else f" (+{len(self.targets) - 6} more)"
        super().__init__(f"{self.reason}: {names}{more}")


class SolverStuck(_Stuck):
    """Every candidate equation (including the exhaustive fallback) for
    some target has slope zero: the seeds do not determine it."""

    reason = "no candidate determines"


class InconsistentSeed(ReconstructionError):
    """A fully-known equation evaluates to a nonzero constant: the seeded
    constraint system is contradictory."""

    def __init__(self, geom: Geometry, quad: WdvvQuad, xkey: SeriesKey, value):
        self.quad = quad
        self.xkey = xkey
        self.value = value
        super().__init__(
            f"equation {format_quad(quad)} at {format_key(geom, xkey)} "
            f"evaluates to {format_rational(value)} != 0"
        )


class NoProgress(_Stuck):
    """A full worklist pass solved nothing, and every target left was blocked."""

    reason = "worklist deadlock on"


# -- seeding ------------------------------------------------------------


def _seeded(geom: Geometry, mode: SeedMode, m_max: int) -> tuple[Potential, list]:
    """The seeded potential and its seed entries.  The size guard runs
    first, since seed_entries lists every admissible key of orders 0 and 1."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    check_key_count(geom, m_max)
    seeds = list(seed_entries(geom, mode))
    pot = Potential(geom, mode)
    pot.max_order = top = effective_max_order(geom, m_max)
    pot.unknown = {SeriesKey(a, m) for m in range(top + 1) for a in admissible_keys(geom, m)}
    for key, value, _ in seeds:
        pot.set_coefficient(key, value)
    return pot, seeds


def seed(geom: Geometry, mode: SeedMode, m_max: int) -> Potential:
    """Fresh unsealed potential knowing exactly the seed coefficients; every
    other admissible key up to the effective maximal order is unknown."""
    return _seeded(geom, mode, m_max)[0]


# -- schedule -----------------------------------------------------------


def _decrement(alpha, s: int):
    """alpha with one less at slot s, or None where that exponent is 0."""
    if not alpha[s]:
        return None
    return alpha[:s] + (alpha[s] - 1,) + alpha[s + 1 :]


def _minus_pairs(geom: Geometry, alpha, sector: int, budget=None):
    """Yield (j, j', alpha - e_{i,j} - e_{i,j'}) for 1 <= j <= j' < a_i in
    sector i, wherever the difference is >= 0 and, given a budget, the
    scaled degrees of (i,j) and (i,j') sum to at most the budget."""
    a = geom.order(sector)
    ds = geom.deg_scaled
    base = geom.slot[Twisted(sector, 1)] - 1  # (i,j) sits at slot base + j
    for j in range(1, a):
        rest1 = _decrement(alpha, base + j)
        if rest1 is None:
            continue
        for jp in range(j, a):
            rest2 = _decrement(rest1, base + jp)
            if rest2 is None:
                continue
            if budget is not None and ds[base + j] + ds[base + jp] > budget:
                continue
            yield j, jp, rest2


def _candidates_order0(geom: Geometry, gamma):
    """Guided candidates for a single-sector order-0 target."""
    sector = next(iter(support_sectors(geom, gamma)))
    a = geom.order(sector)
    base = geom.slot[Twisted(sector, 1)] - 1  # (i,j) sits at slot base + j
    lab = lambda j: Twisted(sector, j)
    others = alpha_from_pairs(
        geom, [((k, 1), 1) for k in range(1, geom.r + 1) if k != sector]
    )

    # Top-index family: target contains e_{i,a_i-1} and pairs against the
    # degree-one product seed through sigma = (i, a_i-1); probe the
    # order-1 extraction of quads ((i,l),(i,l'),P,P).
    detopped = _decrement(gamma, base + a - 1)
    if detopped is not None:
        for l, lp, rest in _minus_pairs(geom, detopped, sector, geom.scale):
            quad = WdvvQuad(lab(l), lab(lp), POINT, POINT)
            yield quad, SeriesKey(alpha_add(rest, others), 1)

    # Neither family below proposes a quad with b == c or a == d, whose
    # equation vanishes identically: WDVV(a,b,b,d) and WDVV(a,b,c,a)
    # subtract one sum from itself.

    # Middle family: quads ((i,n),(i,n'),(i,l),P) at the order-1
    # extraction, for targets containing e_{i,1} and e_{i,l-1}; n' != l.
    without_one = _decrement(gamma, base + 1)
    for l in range(2, a) if without_one is not None else ():
        if not without_one[base + l - 1]:
            continue
        rest0 = _decrement(gamma, base + l - 1)
        for n, np_, rest in _minus_pairs(geom, rest0, sector, l * geom.scale // a):
            if np_ != l:
                quad = WdvvQuad(lab(n), lab(np_), lab(l), POINT)
                yield quad, SeriesKey(alpha_add(rest, others), 1)

    # Quartic-slope family: pure order-0 extraction of quads
    # ((i,1),(i,l),(i,j),(i,j')), for targets containing e_{i,l+1}; j != l
    # and j' != 1.
    for l in range(1, a - 1):
        rest0 = _decrement(gamma, base + l + 1)
        if rest0 is None:
            continue
        for j, jp, rest in _minus_pairs(geom, rest0, sector):
            if j != l and jp != 1:
                yield WdvvQuad(lab(1), lab(l), lab(j), lab(jp)), SeriesKey(rest, 0)


def guided_candidates(geom: Geometry, target: SeriesKey):
    """An iterator over the candidate equations the induction suggests for
    target, in preference order, as (quad, extraction key) pairs; each is
    built only when the caller asks for it.

    Order 1 and higher first shift a coordinate e_{i,j}, j >= 2, of the
    target down to e_{i,j-1}: the quad ((i,1),(i,j-1),P,P) at the
    extraction target - e_{i,j}.  A target with bottom-row support only
    probes ((i,1),(i,a_i-1),P,P) at its own key: at order 1 on the sectors
    i it does not meet, at higher orders on every sector, those whose
    e_{i,1} exponent differs from m (nonzero slope) first.
    """
    gamma, m = target.alpha, target.m
    if m == 0:
        yield from _candidates_order0(geom, gamma)
        return
    shifted = False
    for s, lab in enumerate(geom.twisted):
        if gamma[s] and lab.j >= 2:
            shifted = True
            quad = WdvvQuad(
                Twisted(lab.sector, 1), Twisted(lab.sector, lab.j - 1), POINT, POINT
            )
            yield quad, SeriesKey(_decrement(gamma, s), m)
    if shifted:
        return
    if m == 1:
        present = support_sectors(geom, gamma)
        sectors = [i for i in range(1, geom.r + 1) if i not in present]
    else:
        sectors = sorted(
            range(1, geom.r + 1),
            key=lambda i: (gamma[geom.slot[Twisted(i, 1)]] == m, i),
        )
    for i in sectors:
        yield WdvvQuad(Twisted(i, 1), Twisted(i, geom.order(i) - 1), POINT, POINT), target


def build_schedule(pot: Potential) -> list[SeriesKey]:
    """Every unknown key of pot (a freshly seeded potential), in the
    induction order.

    The order-0 and order-1 strata are interleaved by level: level k holds
    the order-0 keys of length k + 4 and the order-1 keys of length
    k + r + 1.  Within a level the order-0 keys containing their sector's
    top index e_{i,a_i-1} come first, then the order-1 keys, then the
    remaining order-0 keys.  Orders 2..max_order follow, ordered by
    (m, length, exponents).  A key below level 0 sorts first.
    """
    geom = pot.geometry

    def induction_key(key: SeriesKey):
        if key.m >= 2:
            return (1, 0, 0) + key_sort_key(key)
        length = sum(key.alpha)
        if key.m == 1:
            return (0, length - geom.r - 1, 1) + key_sort_key(key)
        sector = next(iter(support_sectors(geom, key.alpha)))
        has_top = key.alpha[geom.slot[Twisted(sector, geom.order(sector) - 1)]] >= 1
        return (0, length - 4, 0 if has_top else 2) + key_sort_key(key)

    return sorted(pot.unknown, key=induction_key)


# -- the WDVV kernel ---------------------------------------------------


# The formal unknown x a lookup may answer with (truthy, never a number).
TARGET = object()


class Blocked(Exception):
    """Raised by a lookup on a coefficient that is not known yet; key is
    the packed key it was asked for."""

    def __init__(self, key: int):
        super().__init__(key)
        self.key = key


def _splits(layout: KeyLayout, alpha: tuple[int, ...]) -> dict[int, list[int]]:
    """Every beta1 <= alpha, packed with order 0, grouped by its scaled
    degree; each group in lexicographic beta1 order.  Only the slots alpha
    uses are walked."""
    parts = [(0, 0)]
    for k, off, d in zip(alpha, layout.offsets, layout.geometry.deg_scaled):
        if k:
            steps = [(j << off, j * d) for j in range(k + 1)]
            parts = [(b + jb, g + jd) for b, g in parts for jb, jd in steps]
    groups: dict[int, list[int]] = {}
    for b, g in parts:
        groups.setdefault(g, []).append(b)
    return groups


class _QuadPlan(NamedTuple):
    """The store-independent part of contract_at for one quad.

    rhs is the degree gate: only monomials of scaled degree rhs can carry
    a nonzero coefficient.  origin is the sum of the (eta pair, side) rows
    with UNIT on both sides, two constants eta that contribute at the
    monomial 1 of order 0 only.  The other rows are kept in kernel order,
    split by kind:

    * singles, one (num, den, p, vec, mults) per row where one side
      contains UNIT: num/den is the signed eta weight times that side's
      constant eta (nonzero; rows with a zero constant are dropped), and
      the other side reads one coefficient, shifted by vec;
    * products, one (w, p1, vec1, mults1, p2, vec2, mults2, top) per row
      with two series sides, whose weight w is a signed entry of the
      integral eta^-1; top = 2 - wdeg(vec1) (scaled) is the degree the
      order-0 part of beta1 must have.

    UNIT reaches a side of a UNIT-free quad only through the pairs
    (UNIT, POINT) and (POINT, UNIT), which eta_inverse_pairs lists first,
    and a quad containing UNIT has no product row, so every single row
    comes before every product row in kernel order.

    p counts POINT derivatives, vec is the packed shift of the twisted
    indicators and mults their (field offset, multiplicity) pairs, as
    series.packed_profile gives them.
    """

    rhs: int
    origin: object
    singles: tuple
    products: tuple


@functools.cache
def _quad_plan(layout: KeyLayout, quad: WdvvQuad) -> _QuadPlan:
    """The plan of quad, built on its first probe and memoised."""
    geom = layout.geometry
    index, labels = geom.label_index, geom.labels

    def const(triple):
        return unit_constant(geom, [labels[k] for k in triple])

    a, b, c, d = (index[lab] for lab in quad)
    two = 2 * geom.scale
    origin = QQ(0)
    singles, products = [], []
    for sigma, tau, w in geom.eta_inverse_pairs:
        sigma, tau = index[sigma], index[tau]
        for triple1, triple2, weight in (
            ((a, b, sigma), (c, d, tau), w),
            ((a, c, sigma), (b, d, tau), -w),
        ):
            triple1, triple2 = tuple(sorted(triple1)), tuple(sorted(triple2))
            u1, _, vec1, _ = indexed_profile(geom, triple1)
            u2 = indexed_profile(geom, triple2)[0]
            if u1 and u2:
                origin += weight * const(triple1) * const(triple2)
            elif u1 or u2:
                coef = weight * const(triple1 if u1 else triple2)
                if coef:
                    p, vec, mults = packed_profile(layout, triple2 if u1 else triple1)
                    singles.append((int(coef.numerator), int(coef.denominator), p, vec, mults))
            else:
                top = two - wdeg_scaled(geom, vec1, 0)
                row = (*packed_profile(layout, triple1), *packed_profile(layout, triple2))
                products.append((weight, *row, top))
    rhs = quad_degree_scaled(geom, quad)
    # A zero origin (no row has UNIT on both sides) is the shared int 0.
    return _QuadPlan(rhs, origin or 0, tuple(singles), tuple(products))


def _rational(sums: dict):
    """The rational sum of n/d over the items (d, n) of sums."""
    if not sums:
        return QQ(0)
    lcm = math.lcm(*sums)
    return QQ(sum(n * (lcm // d) for d, n in sums.items()), lcm)


def contract_at(layout: KeyLayout, quad: WdvvQuad, xkey: SeriesKey, lookup):
    """Coefficient of t^xkey in WDVV(quad) as (c0, c1, c2): c0 + c1 x + c2 x^2.

    Keys travel packed under layout (series.KeyLayout): m in the low bits,
    then one field per twisted slot.  lookup(packed) returns the
    stored rational of an admissible key, TARGET for the formal unknown x,
    or raises Blocked(packed) for a key that is not known yet.  It is only
    called on keys obeying the Euler constraint (the others are zero), and
    the second factor of a product only when the first is nonzero.
    Derivatives containing UNIT come from F_triv and are the constants eta
    of the remaining pair.  xkey itself is a SeriesKey; once past the
    degree gate it is packed, which raises ValueError for a key the layout
    cannot hold.  Every key of order <= 2 layout.m_max that passes the
    gate fits.

    The single rows and then the product rows come from the plan of
    (layout, quad) (_quad_plan) in a fixed order, so the keys looked up,
    and which of them blocks first, depend only on quad, xkey and the
    answers of lookup.  A single row looks up xkey + vec; a product row,
    for each order split m1 + m2 = m and each split beta1 <= alpha of the
    right degree (_splits), looks up beta1 + vec1 + m1 and then
    (alpha + vec2 + m2) - beta1, all integer additions that never carry
    across fields.  Falling factorials read each field with a shift and a
    mask.  The terms are summed as integers: c0 and c1 keep one numerator
    sum per denominator (the product of the denominators of a term's
    factors) and become one rational each at the end; c2, whose terms read
    no stored value, is an integer.
    """
    plan = _quad_plan(layout, quad)
    alpha, m = xkey
    if wdeg_scaled(layout.geometry, alpha, m) != plan.rhs:
        return QQ(0), QQ(0), 0
    packed = layout.pack(alpha, m)
    sums0: dict = {}  # denominator -> numerator sum of c0's terms
    sums1: dict = {}  # the same for c1
    c2 = 0
    if not packed:
        sums0[plan.origin.denominator] = plan.origin.numerator
    fmask = layout.fmask
    perm = math.perm
    for num, den, p, vec, mults in plan.singles:
        if p and m == 0:
            continue
        key = packed + vec
        value = lookup(key)
        if not value:
            continue
        coef = num * m**p
        for off, k in mults:
            coef *= perm((key >> off) & fmask, k)
        if value is TARGET:
            sums1[den] = sums1.get(den, 0) + coef
        else:
            d = den * value.denominator
            sums0[d] = sums0.get(d, 0) + coef * value.numerator

    chi = layout.geometry.chi_scaled
    splits = _splits(layout, alpha)
    for w, p1, vec1, mults1, p2, vec2, mults2, top in plan.products:
        for m1 in range(1 if p1 else 0, m if p2 else m + 1):
            group = splits.get(top - m1 * chi)
            if group is None:
                continue
            m2 = m - m1
            factor = w * m1**p1 * m2**p2
            base1 = vec1 + m1
            base2 = packed - m + vec2 + m2
            for beta1 in group:
                key1 = beta1 + base1
                v1 = lookup(key1)
                if not v1:
                    continue
                key2 = base2 - beta1
                v2 = lookup(key2)
                if not v2:
                    continue
                coef = factor
                for off, k in mults1:
                    coef *= perm((key1 >> off) & fmask, k)
                for off, k in mults2:
                    coef *= perm((key2 >> off) & fmask, k)
                if v1 is TARGET:
                    if v2 is TARGET:
                        c2 += coef
                    else:
                        d = v2.denominator
                        sums1[d] = sums1.get(d, 0) + coef * v2.numerator
                elif v2 is TARGET:
                    d = v1.denominator
                    sums1[d] = sums1.get(d, 0) + coef * v1.numerator
                else:
                    d = v1.denominator * v2.denominator
                    sums0[d] = sums0.get(d, 0) + coef * v1.numerator * v2.numerator
    return _rational(sums0), _rational(sums1), c2


def wdvv_coefficient(pot: Potential, quad: WdvvQuad, target: SeriesKey):
    """Exact coefficient of t^target in the equation WDVV(a, b, c, d).

    Pure; absent keys of the store count as zero.
    """
    layout, coeffs, _ = pot.packed()
    if target.m > 2 * layout.m_max:
        return QQ(0)  # every term has a factor above the orders stored
    return contract_at(layout, quad, target, lambda key: coeffs.get(key, 0))[0]


# -- probing ------------------------------------------------------------


@dataclass
class ProbeResult:
    """Affine data of one extraction of quad at xkey as a function of
    target: the target's value is -intercept/slope when the slope is
    nonzero and the equation is fully known.  A solved result is the
    trace's record of that step."""

    target: SeriesKey
    quad: WdvvQuad
    xkey: SeriesKey
    status: str  # "solved" | "blocked" | "useless"
    value: object = None
    slope: object = None
    blocker: SeriesKey | None = None


def probe_candidate(
    pot: Potential, quad: WdvvQuad, xkey: SeriesKey, target: SeriesKey
) -> ProbeResult:
    """Intercept/slope of one WDVV extraction as a function of the target.

    The extraction coefficient is affine in any single unknown as long as
    the unknown never multiplies itself; self-pairings (possible only in
    pathological fallback candidates) are detected and reported useless,
    as are extractions of the wrong degree, whose coefficient is 0.
    Touching an unknown coefficient other than the target that is not
    annihilated by a known zero makes the candidate blocked.  The kernel
    reads pot.packed(), the store under packed keys, whose layout holds
    every extraction of order <= 2 max_order; contract_at raises
    ValueError on a key it cannot hold.
    """
    layout, coeffs, unknown = pot.packed()
    max_order, mmask = pot.max_order, layout.mmask
    packed_target = layout.pack(*target)
    result = functools.partial(ProbeResult, target, quad, xkey)

    def lookup(key: int):
        if key == packed_target:
            return TARGET
        value = coeffs.get(key)
        if value is None:
            if (key & mmask) > max_order or key in unknown:
                raise Blocked(key)
            return 0
        return value

    try:
        intercept, slope, self_pair = contract_at(layout, quad, xkey, lookup)
    except Blocked as blocked:
        return result("blocked", blocker=layout.unpack(blocked.key))
    if self_pair:
        return result("useless")
    if slope == 0:
        if intercept != 0:
            raise InconsistentSeed(pot.geometry, quad, xkey, intercept)
        return result("useless")
    return result("solved", value=-intercept / slope, slope=slope)


# -- exhaustive fallback -------------------------------------------------


class _Groups(NamedTuple):
    """Items grouped by shift: group g holds items[bounds[g]:bounds[g + 1]],
    all with the shift numbered shifts[g] in the socket table, so a key
    costs one containment test per group, not one per item.  bounds and
    items are flat arrays, or ranges where each group holds one item."""

    shifts: array
    bounds: object
    items: object


def _grouped(shift_of, members) -> _Groups:
    """The ascending socket numbers members grouped by their shift number
    shift_of[n], the groups in first-seen order, each in socket order."""
    by_shift: dict[int, list] = {}
    for n in members:
        by_shift.setdefault(shift_of[n], []).append(n)
    ordered, bounds = array("i"), array("i", [0])
    for group in by_shift.values():
        ordered.extend(group)
        bounds.append(len(ordered))
    return _Groups(array("i", by_shift), bounds, ordered)


class _Sockets(NamedTuple):
    """One phase of the fallback's socket table.

    Socket n sits in the quad numbered quad[n].  groups holds the sockets
    by target-side shift vec1.  In the stored-partner phase each vec1
    group holds its own number g instead, and partners[g] holds that
    group's sockets by partner shift vec2, so a stored partner costs one
    containment test per (vec1, vec2) group.
    """

    groups: _Groups
    quad: array
    partners: tuple = ()


@functools.cache
def _fallback_sockets(layout: KeyLayout):
    """The exhaustive fallback's socket table, built once per key layout.

    A socket is a way for the target to sit in a derivative of one side of
    a WDVV equation: in the triple (x, y, sigma) with p1 POINT factors
    and packed twisted shift vec1, against either the analytic constant
    eta(z, t) (sigma = POINT pairs tau = UNIT) or a stored partner with
    p2 POINT factors and shift vec2, as series.packed_profile gives them.
    No label of a quad and neither sigma nor tau is UNIT, so a socket is
    named by (quad, vec1) or (quad, vec1, vec2).  Sockets are numbered in
    stream order: canonical quad order, then the four orientations, then
    the pairs of eta, first occurrence kept.  Each triple is looked up once.

    A canonical quad (p1, p2) with p1[1] == p2[0] gets no socket and no
    quad number: its equation WDVV(a, b, b, d) subtracts
    sum_{s,t} F_abs eta^{st} F_tbd from itself, so each of its
    coefficients is identically zero and no candidate in it can solve
    (wdvv.residual_scan only counts the same equations).

    Returns (quads, shifts, analytic, series): the canonical WdvvQuads that
    have sockets, the distinct shifts as (packed vec, p) in first-seen
    order, and one _Sockets per phase.
    """
    geom = layout.geometry
    labels, index = geom.labels, geom.label_index
    point = index[POINT]
    eta = [(index[s], index[t]) for s, t, _ in geom.eta_inverse_pairs if UNIT not in (s, t)]
    paired = set(eta)
    series_labels = [k for k, lab in enumerate(labels) if lab is not UNIT]
    pairs = list(itertools.combinations_with_replacement(series_labels, 2))

    shift_id: dict[tuple, int] = {}  # (packed vec, p) -> shift number
    triple_id: dict[tuple, int] = {}

    def shift(triple):
        got = triple_id.get(triple)
        if got is None:
            p, vec, _ = packed_profile(layout, tuple(sorted(triple)))
            got = triple_id[triple] = shift_id.setdefault((vec, p), len(shift_id))
        return got

    quads = []
    a_quad, a_vec1 = array("i"), array("i")
    s_groups: dict[int, array] = {}  # vec1 -> its stored-partner sockets
    s_quad, s_vec2 = array("i"), array("i")
    for p1, p2 in itertools.combinations_with_replacement(pairs, 2):
        if p1[1] == p2[0]:
            continue
        qi = len(quads)
        a, b, c, d = p1 + p2
        quads.append(WdvvQuad(labels[a], labels[b], labels[c], labels[d]))
        analytic: dict[int, None] = {}
        series: dict[tuple, None] = {}
        for x, y, z, t in ((a, b, c, d), (c, d, a, b), (a, c, b, d), (b, d, a, c)):
            if (z, t) in paired:
                analytic[shift((x, y, point))] = None
            for sigma, tau in eta:
                series[shift((x, y, sigma)), shift((z, t, tau))] = None
        for v1 in analytic:
            a_vec1.append(v1)
            a_quad.append(qi)
        for v1, v2 in series:
            s_groups.setdefault(v1, array("i")).append(len(s_quad))
            s_quad.append(qi)
            s_vec2.append(v2)

    partners = tuple(_grouped(s_vec2, members) for members in s_groups.values())
    by_vec1 = _Groups(array("i", s_groups), range(len(partners) + 1), range(len(partners)))
    return (
        tuple(quads),
        tuple(shift_id),
        _Sockets(_grouped(a_vec1, range(len(a_quad))), a_quad),
        _Sockets(by_vec1, s_quad, partners),
    )


def _fitting(layout: KeyLayout, groups: _Groups, packed: int, base: int = 0):
    """(item, base + packed - vec) for the items of every group whose
    shift vec fits under the packed key, in group order.

    One subtraction tests the fit: vec fits exactly when packed - vec
    borrows into no field, that is when no start bit of the layout is set
    in packed ^ vec ^ (packed - vec).  A POINT derivative carries a factor
    m, so shifts with p > 0 never fit an order-0 key."""
    shifts, starts = _fallback_sockets(layout)[1], layout.starts
    order0 = not packed & layout.mmask
    bounds, items = groups.bounds, groups.items
    hits = []
    for g, v in enumerate(groups.shifts):
        vec, p = shifts[v]
        if p and order0:
            continue
        rest = packed - vec
        if not (packed ^ vec ^ rest) & starts:
            hits += zip(items[bounds[g] : bounds[g + 1]], itertools.repeat(base + rest))
    return hits


def exhaustive_candidates(pot: Potential, target: SeriesKey):
    """Generate every potentially useful (quad, extraction) candidate.

    A candidate is useful only if the target's derivative appears in one
    side of the equation against a structurally nonzero partner: either
    the analytic constant side or a stored nonzero coefficient, and only
    in an equation that is not identically zero (_fallback_sockets gives
    the quads with b == c no socket).  The stream is deterministic:
    analytic partners first, then stored partners in canonical key order,
    each in socket order; a repeated candidate is dropped at its first
    occurrence.  The target is matched once per distinct vec1 of the
    socket table, all on packed keys.  The table keeps the stored-partner
    sockets of each vec1 grouped by partner shift vec2, so a stored
    partner is matched once per (vec1, vec2) group, and every socket of a
    group that fits has the same extraction key,
    (target - vec1) + (partner - vec2).  An extraction key is unpacked
    only when yielded.
    """
    layout = pot.packed().layout
    quads, _, analytic, series = _fallback_sockets(layout)
    packed_target = layout.pack(*target)
    seen: set[tuple] = set()

    # Analytic marks are distinct: sockets are distinct per (quad, vec1).
    hits = _fitting(layout, analytic.groups, packed_target)
    hits.sort()
    for n, beta1 in hits:
        qi = analytic.quad[n]
        seen.add((qi, beta1))
        yield quads[qi], layout.unpack(beta1)

    viable = [
        (series.partners[g], beta1)
        for g, beta1 in _fitting(layout, series.groups, packed_target)
    ]
    for k2, _ in pot.items_sorted():
        if k2 == target:
            continue
        packed2 = layout.pack(*k2)
        hits = []
        for partners, beta1 in viable:
            hits += _fitting(layout, partners, packed2, beta1)
        hits.sort()
        for n, xkey in hits:
            qi = series.quad[n]
            if (qi, xkey) not in seen:
                seen.add((qi, xkey))
                yield quads[qi], layout.unpack(xkey)


# -- the solver ---------------------------------------------------------


@dataclass
class ReconstructionTrace:
    """Audit record (formats.serialize_trace spells it): which equation
    determined which coefficient, and the seeds of seed_entries in order."""

    geometry: Geometry
    mode: SeedMode
    seeds: list[tuple[SeriesKey, object, str]] = field(default_factory=list)
    steps: list[ProbeResult] = field(default_factory=list)
    free: list[SeriesKey] = field(default_factory=list)


def reconstruct(
    multiplet,
    m_max: int,
    mode: SeedMode = STANDARD,
    *,
    strategy: str = "guided",
) -> tuple[Potential, ReconstructionTrace]:
    """Seed, then solve every admissible coefficient up to order m_max.

    Returns the sealed potential and the full trace.  The order-0 stratum
    is always completed (it is finite); positive chi lowers the effective
    maximal order to floor(2/chi).  strategy="guided" tries the guided
    candidates first and escalates to the exhaustive fallback only when a
    worklist pass stalls; strategy="exhaustive" uses the fallback alone.
    Raises SolverStuck, NoProgress or InconsistentSeed as the worklist
    dictates; in vanishing-no-quartic mode, underdetermined order-0
    coefficients are reported as free in the trace instead (the quartic
    values are genuinely extra initial data).  Before seeding, raises
    ValueError when more than geometry.MAX_KEYS admissible keys lie up to
    the effective maximal order.
    """
    if strategy not in ("guided", "exhaustive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    geom = build_geometry(multiplet)
    pot, seeds = _seeded(geom, mode, m_max)
    trace = ReconstructionTrace(geom, mode, seeds=seeds)
    pending = build_schedule(pot)
    guided = strategy == "guided"
    use_fallback = not guided

    while pending:
        still: list[SeriesKey] = []
        stuck: list[SeriesKey] = []  # unsolved, and no candidate blocked
        for target in pending:
            stream = guided_candidates(geom, target) if guided else ()
            if use_fallback:
                stream = itertools.chain(stream, exhaustive_candidates(pot, target))
            blocked = False
            for quad, xkey in stream:
                result = probe_candidate(pot, quad, xkey, target)
                if result.status == "solved":
                    pot.set_coefficient(target, result.value)
                    trace.steps.append(result)
                    break
                blocked = blocked or result.status == "blocked"
            else:
                still.append(target)
                if not blocked:
                    stuck.append(target)
        if len(still) == len(pending):  # the pass solved nothing
            if not use_fallback:
                # Escalate once: rerun the stalled set with the fallback.
                use_fallback = True
                continue
            if mode == VANISHING_NO_QUARTIC and all(t.m == 0 for t in pending):
                trace.free = sorted(pending, key=key_sort_key)
                break
            if stuck:
                raise SolverStuck(geom, stuck)
            raise NoProgress(geom, pending)
        pending = still

    pot.seal(pot.max_order)
    return pot, trace


def rescale_novikov(pot: Potential, a) -> Potential:
    """Multiply every order-m coefficient by a^m (a nonzero).

    This is the coordinate change shifting the exponential coordinate by
    log(a), so the result satisfies all WDVV equations again.
    """
    a = QQ(a)
    if a == 0:
        raise ValueError("rescaling factor must be nonzero")
    mode = pot.seed_mode
    if mode.degree_one:
        mode = rescaled_mode(mode.degree_one * a)
    out = Potential(pot.geometry, mode)
    out.max_order, out.unknown = pot.max_order, set(pot.unknown)
    for key, value in pot.coeffs.items():
        out.set_coefficient(key, value * a ** key.m)
    if pot.sealed:
        out.seal(pot.max_order)
    return out
