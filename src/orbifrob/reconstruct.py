"""Seeding and WDVV-driven reconstruction of the potential.

The initial data (seeds) is one stream, seed_entries, of (key, value,
family) entries in five families: limit-cubic, sector-purity, degree-one,
degree-one-support and, in vanishing mode, quartic.  Every nonzero value
is a derivative constant over prod_s alpha_s!, the factor
series.multiplicity gives along the key's own exponents: 1/a_i for the
limit cubics, the mode's value for the degree-one key, -1/a_i^2 for the
quartics and eta(sigma, tau) for F_triv's terms in pairing_entries.

Every other admissible coefficient is solved one at a time: the
coefficient of a chosen extraction monomial in a chosen WDVV equation is
an affine function of the single unknown, so probing the equation yields
intercept and slope and the unknown is -intercept/slope.  The probe is a
thin wrapper over the WDVV kernel wdvv.contract_at: it answers lookups of
the target with the formal unknown, blocks on the keys the potential lists
as unknown or that lie above its max_order, and reads every other key from
the store (absent means 0).  Targets are scheduled in the induction
order of the underlying uniqueness argument (joint order-0/order-1
induction on the length, then order by order), with a worklist that
defers targets whose prerequisites are not known yet, and an exhaustive
candidate search as fallback for every target.  This worklist is the only
solver: when a pass with the fallback solves nothing, it raises SolverStuck
on the targets none of whose candidates was blocked, else NoProgress.
The trace records every seed and, for every solved equation, the probe
result that solved it, making the realized order auditable.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import Geometry, POINT, Twisted, UNIT, build_geometry, format_label
from .rationals import QQ, format_rational, parse_rational
from .series import (
    KeyLayout,
    Potential,
    SeriesKey,
    admissible_keys,
    alpha_add,
    alpha_from_pairs,
    alpha_length,
    effective_max_order,
    format_key,
    key_sort_key,
    packed_profile,
    support_sectors,
)
from .wdvv import TARGET, Blocked, WdvvQuad, contract_at, format_quad


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


# -- seed modes ---------------------------------------------------------


@dataclass(frozen=True)
class SeedMode:
    """Choice of initial data beyond the cubics and sector purity: the
    value of the degree-one product coefficient, and whether the quartic
    seeds are imposed (only next to a vanishing degree-one value).

    The tokens are "standard" (value 1), "rescaled:<a>" (any other nonzero
    value a), "vanishing" (value 0 plus the quartics) and
    "vanishing-no-quartic" (value 0 alone).
    """

    degree_one: object = QQ(1)
    quartic: bool = False

    def __post_init__(self):
        if self.quartic and self.degree_one:
            raise ValueError("quartic seeds need a vanishing degree-one value")

    def token(self) -> str:
        if self.degree_one == 1:
            return "standard"
        if self.degree_one:
            return f"rescaled:{format_rational(self.degree_one)}"
        return "vanishing" if self.quartic else "vanishing-no-quartic"

    @classmethod
    def from_token(cls, token: str) -> "SeedMode":
        token = token.strip()
        for mode in (STANDARD, VANISHING, VANISHING_NO_QUARTIC):
            if token == mode.token():
                return mode
        if token.startswith("rescaled:"):
            return rescaled_mode(parse_rational(token.partition(":")[2]))
        raise ValueError(f"unknown seed mode {token!r}")


STANDARD = SeedMode()
VANISHING = SeedMode(QQ(0), quartic=True)
VANISHING_NO_QUARTIC = SeedMode(QQ(0))


def rescaled_mode(a) -> SeedMode:
    a = QQ(a)
    if a == 0:
        raise ValueError("rescaled seed value must be nonzero (use vanishing mode)")
    return STANDARD if a == 1 else SeedMode(a)


# -- seeding ------------------------------------------------------------


def _value(constant, exponents):
    """The coefficient whose derivative along its own exponents is constant."""
    return QQ(constant) / math.prod(map(math.factorial, exponents))


def seed_entries(geom: Geometry, mode: SeedMode):
    """The initial data as (key, value, family) entries, family by family."""
    # Limit cubics: single-sector length-3 keys.  Admissibility already
    # forces j1 + j2 + j3 = a_i, so all of them are nonzero here.
    for i, a in enumerate(geom.orders, start=1):
        for js in itertools.combinations_with_replacement(range(1, a), 3):
            if sum(js) == a:
                key = SeriesKey(alpha_from_pairs(geom, [((i, j), 1) for j in js]), 0)
                yield key, _value(QQ(1, a), key.alpha), "limit-cubic"

    # Sector purity: all order-0 keys meeting two sectors vanish.  Seeding
    # makes them known zeros, so they are never scheduled.
    for alpha in admissible_keys(geom, 0):
        if len(support_sectors(geom, alpha)) >= 2:
            yield SeriesKey(alpha, 0), QQ(0), "sector-purity"

    # Degree-one stratum of length <= r: the product key, then the rest.
    product = alpha_from_pairs(geom, [((i, 1), 1) for i in range(1, geom.r + 1)])
    yield SeriesKey(product, 1), _value(mode.degree_one, product), "degree-one"
    for alpha in admissible_keys(geom, 1):
        if alpha_length(alpha) <= geom.r and alpha != product:
            yield SeriesKey(alpha, 1), QQ(0), "degree-one-support"

    if mode.quartic:
        for i, a in enumerate(geom.orders, start=1):
            alpha = alpha_from_pairs(geom, [((i, 1), 2), ((i, a - 1), 2)])
            yield SeriesKey(alpha, 0), _value(QQ(-1, a * a), alpha), "quartic"


def pairing_entries(geom: Geometry):
    """F_triv as (sigma, tau, coefficient of t1 t_sigma t_tau), once per
    unordered pair of labels with eta(sigma, tau) != 0, in label order."""
    for sigma, tau, _ in geom.eta_inverse_pairs:
        if geom.label_index[sigma] <= geom.label_index[tau]:
            labels = (UNIT, sigma, tau)
            yield sigma, tau, _value(geom.pairing(sigma, tau), map(labels.count, set(labels)))


def _seeded(geom: Geometry, mode: SeedMode, m_max: int, entries) -> Potential:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    pot = Potential(geom, mode)
    pot.max_order = top = effective_max_order(geom, m_max)
    pot.unknown = {SeriesKey(a, m) for m in range(top + 1) for a in admissible_keys(geom, m)}
    for key, value, _ in entries:
        pot.set_coefficient(key, value)
    return pot


def seed(geom: Geometry, mode: SeedMode, m_max: int) -> Potential:
    """Fresh unsealed potential knowing exactly the seed coefficients; every
    other admissible key up to the effective maximal order is unknown."""
    return _seeded(geom, mode, m_max, seed_entries(geom, mode))


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

    # Middle family: quads ((i,n),(i,n'),(i,l),P) at the order-1
    # extraction, for targets containing e_{i,1} and e_{i,l-1}.
    without_one = _decrement(gamma, base + 1)
    for l in range(2, a) if without_one is not None else ():
        if not without_one[base + l - 1]:
            continue
        rest0 = _decrement(gamma, base + l - 1)
        for n, np_, rest in _minus_pairs(geom, rest0, sector, l * geom.scale // a):
            quad = WdvvQuad(lab(n), lab(np_), lab(l), POINT)
            yield quad, SeriesKey(alpha_add(rest, others), 1)

    # Quartic-slope family: pure order-0 extraction of quads
    # ((i,1),(i,l),(i,j),(i,j')), for targets containing e_{i,l+1}.
    for l in range(1, a - 1):
        rest0 = _decrement(gamma, base + l + 1)
        if rest0 is None:
            continue
        for j, jp, rest in _minus_pairs(geom, rest0, sector):
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
        length = alpha_length(key.alpha)
        if key.m == 1:
            return (0, length - geom.r - 1, 1) + key_sort_key(key)
        sector = next(iter(support_sectors(geom, key.alpha)))
        has_top = key.alpha[geom.slot[Twisted(sector, geom.order(sector) - 1)]] >= 1
        return (0, length - 4, 0 if has_top else 2) + key_sort_key(key)

    return sorted(pot.unknown, key=induction_key)


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


class _Sockets(NamedTuple):
    """One phase of the fallback's socket table.

    Socket n sits in the quad numbered quad[n]; in the stored-partner
    phase its partner shift is shifts[shift[n]].  groups holds
    (shift number of vec1, socket numbers) once per distinct target-side
    shift vec1, so a target costs one containment test per group, not one
    per socket.
    """

    groups: tuple
    quad: array
    shift: array


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

    Returns (quads, shifts, analytic, series): the canonical WdvvQuads,
    the distinct shifts as (packed vec, p) in first-seen order, and one
    _Sockets per phase.
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
    a_groups: dict[int, array] = {}
    a_quad = array("l")
    s_groups: dict[int, array] = {}
    s_quad, s_shift = array("l"), array("l")
    for p1, p2 in itertools.combinations_with_replacement(pairs, 2):
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
            a_groups.setdefault(v1, array("l")).append(len(a_quad))
            a_quad.append(qi)
        for v1, v2 in series:
            s_groups.setdefault(v1, array("l")).append(len(s_quad))
            s_quad.append(qi)
            s_shift.append(v2)

    return (
        tuple(quads),
        tuple(shift_id),
        _Sockets(tuple(a_groups.items()), a_quad, array("l")),
        _Sockets(tuple(s_groups.items()), s_quad, s_shift),
    )


def _fitting(layout: KeyLayout, groups, packed: int):
    """(item, packed - vec) for the items of every (shift number, items)
    group of the layout's socket table whose shift vec fits under the
    packed key, sorted by item.

    One subtraction tests the fit: vec fits exactly when packed - vec
    borrows into no field, that is when no start bit of the layout is set
    in packed ^ vec ^ (packed - vec).  A POINT derivative carries a factor
    m, so shifts with p > 0 never fit an order-0 key."""
    shifts, starts = _fallback_sockets(layout)[1], layout.starts
    order0 = not packed & layout.mmask
    hits = []
    for v, items in groups:
        vec, p = shifts[v]
        if p and order0:
            continue
        rest = packed - vec
        if not (packed ^ vec ^ rest) & starts:
            hits += zip(items, itertools.repeat(rest))
    hits.sort()
    return hits


def exhaustive_candidates(pot: Potential, target: SeriesKey):
    """Generate every potentially useful (quad, extraction) candidate.

    A candidate is useful only if the target's derivative appears in one
    side of the equation against a structurally nonzero partner: either
    the analytic constant side or a stored nonzero coefficient.  The
    stream is deterministic: analytic partners first, then stored
    partners in canonical key order, each in socket order; a repeated
    candidate is dropped at its first occurrence.  The target is matched
    once per distinct vec1 of the socket table (_fallback_sockets), and
    each partner once per distinct vec2 among the sockets the target fits,
    all on packed keys; an extraction key is unpacked only when yielded.
    """
    layout = pot.packed().layout
    quads, _, analytic, series = _fallback_sockets(layout)
    packed_target = layout.pack(*target)
    seen: set[tuple] = set()

    # Analytic marks are distinct: sockets are distinct per (quad, vec1).
    for n, beta1 in _fitting(layout, analytic.groups, packed_target):
        qi = analytic.quad[n]
        seen.add((qi, beta1))
        yield quads[qi], layout.unpack(beta1)

    viable = _fitting(layout, series.groups, packed_target)
    by_shift: dict[int, array] = {}
    for k, (n, _) in enumerate(viable):
        by_shift.setdefault(series.shift[n], array("l")).append(k)
    partner_groups = tuple(by_shift.items())
    for k2, _ in pot.items_sorted():
        if k2 == target:
            continue
        for k, beta2 in _fitting(layout, partner_groups, layout.pack(*k2)):
            n, beta1 = viable[k]
            qi, xkey = series.quad[n], beta1 + beta2
            if (qi, xkey) not in seen:
                seen.add((qi, xkey))
                yield quads[qi], layout.unpack(xkey)


# -- the solver ---------------------------------------------------------


@dataclass
class ReconstructionTrace:
    """Audit record: which equation determined which coefficient.  The
    seeds are the entries of seed_entries, in its order."""

    geometry: Geometry
    mode: SeedMode
    seeds: list[tuple[SeriesKey, object, str]] = field(default_factory=list)
    steps: list[ProbeResult] = field(default_factory=list)
    free: list[SeriesKey] = field(default_factory=list)

    def to_text(self) -> str:
        geom = self.geometry
        lines = [f"reconstruction-trace: multiplet={geom.multiplet} mode={self.mode.token()}"]
        for sigma, tau, value in pairing_entries(geom):
            # UNIT pairs with POINT only; t1 t_(i,j)^2 reads t1^1 (i,j)^1 (i,j)^1.
            head = "t1^2" if sigma is UNIT else f"t1^1 {format_label(sigma)}^1"
            lines.append(f"seed | {head} {format_label(tau)}^1 | {format_rational(value)} | pairing")
        for key, value, family in self.seeds:
            lines.append(f"seed | {format_key(geom, key)} | {format_rational(value)} | {family}")
        for step in self.steps:
            lines.append(
                f"solve | {format_key(geom, step.target)} | {format_rational(step.value)}"
                f" | quad={format_quad(step.quad)} | extract={format_key(geom, step.xkey)}"
                f" | slope={format_rational(step.slope)}"
            )
        for key in self.free:
            lines.append(f"free | {format_key(geom, key)}")
        return "\n".join(lines) + "\n"


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
    values are genuinely extra initial data).
    """
    if strategy not in ("guided", "exhaustive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    geom = build_geometry(multiplet)
    trace = ReconstructionTrace(geom, mode, seeds=list(seed_entries(geom, mode)))
    pot = _seeded(geom, mode, m_max, trace.seeds)
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
    if mode is not None and mode.degree_one:
        mode = rescaled_mode(mode.degree_one * a)
    out = Potential(pot.geometry, mode)
    out.max_order, out.unknown = pot.max_order, set(pot.unknown)
    for key, value in pot.coeffs.items():
        out.set_coefficient(key, value * a ** key.m)
    if pot.sealed:
        out.seal(pot.max_order)
    return out
