"""Seeding and WDVV-driven reconstruction of the potential.

The initial data (seeds) consists of

* the limit cubics: c(e_{i,j1} + e_{i,j2} + e_{i,j3}, 0) = 1/(a_i s) when
  j1 + j2 + j3 = a_i, where s is the multiplicity factor of the triple
  (these encode the limit product together with the pairing),
* sector purity: every order-0 key touching two different sectors is 0,
* the degree-one stratum of length <= r: zero except the product key
  e_{1,1} + ... + e_{r,1} at order 1, whose value the seed mode fixes,
* in vanishing mode, the quartic coefficients c(2e_{i,1}+2e_{i,a_i-1}, 0)
  (= c(4 e_{i,1}, 0) for a_i = 2).

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
candidate search as fallback for every target.  The trace records every
seed and every solved equation, making the realized order auditable.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import Geometry, POINT, Twisted, UNIT, build_geometry
from .rationals import QQ, format_rational, parse_rational
from .series import (
    Potential,
    SeriesKey,
    admissible_keys,
    alpha_add,
    alpha_from_pairs,
    alpha_length,
    alpha_sub,
    basis_alpha,
    effective_max_order,
    format_key,
    indexed_profile,
    key_sort_key,
    s_factor,
    support_sectors,
)
from .wdvv import TARGET, Blocked, WdvvQuad, contract_at, format_quad


class ReconstructionError(Exception):
    """Base class for solver failures."""


def _name_targets(geom: Geometry, targets: list[SeriesKey]) -> str:
    names = ", ".join(format_key(geom, t) for t in targets[:6])
    more = "" if len(targets) <= 6 else f" (+{len(targets) - 6} more)"
    return names + more


class SolverStuck(ReconstructionError):
    """Every candidate equation (including the exhaustive fallback) for
    some target has slope zero: the seeds do not determine it."""

    def __init__(self, geom: Geometry, targets):
        self.targets = list(targets)
        super().__init__(f"no candidate determines: {_name_targets(geom, self.targets)}")


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


class NoProgress(ReconstructionError):
    """A full worklist pass solved nothing while targets remain blocked."""

    def __init__(self, geom: Geometry, targets):
        self.targets = list(targets)
        super().__init__(f"worklist deadlock on: {_name_targets(geom, self.targets)}")


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


def _seed_with_provenance(geom: Geometry, mode: SeedMode, m_max: int):
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    pot = Potential(geom, mode)
    pot.max_order = top = effective_max_order(geom, m_max)
    pot.unknown = {SeriesKey(a, m) for m in range(top + 1) for a in admissible_keys(geom, m)}
    entries: list[tuple[SeriesKey, object, str]] = []

    def put(key, value, provenance):
        pot.set_coefficient(key, value)
        entries.append((key, QQ(value), provenance))

    # Limit cubics: single-sector length-3 keys.  Admissibility already
    # forces j1 + j2 + j3 = a_i, so all of them are nonzero here.
    for i, a in enumerate(geom.orders, start=1):
        for js in itertools.combinations_with_replacement(range(1, a), 3):
            if sum(js) != a:
                continue
            alpha = alpha_from_pairs(geom, [((i, j), 1) for j in js])
            put(SeriesKey(alpha, 0), QQ(1, a * s_factor(*js)), "limit-cubic")

    # Sector purity: all order-0 keys meeting two sectors vanish.  Seeding
    # makes them known zeros, so they are never scheduled.
    for alpha in admissible_keys(geom, 0):
        if len(support_sectors(geom, alpha)) >= 2:
            put(SeriesKey(alpha, 0), QQ(0), "sector-purity")

    # Degree-one stratum of length <= r: the product key, then the rest.
    product_alpha = alpha_from_pairs(geom, [((i, 1), 1) for i in range(1, geom.r + 1)])
    put(SeriesKey(product_alpha, 1), mode.degree_one, "degree-one")
    for alpha in admissible_keys(geom, 1):
        if alpha_length(alpha) <= geom.r and alpha != product_alpha:
            put(SeriesKey(alpha, 1), QQ(0), "degree-one-support")

    if mode.quartic:
        for i, a in enumerate(geom.orders, start=1):
            alpha = alpha_from_pairs(geom, [((i, 1), 2), ((i, a - 1), 2)])
            value = QQ(-1, 96) if a == 2 else QQ(-1, 4 * a * a)
            put(SeriesKey(alpha, 0), value, "quartic")

    return pot, entries


def seed(geom: Geometry, mode: SeedMode, m_max: int) -> Potential:
    """Fresh unsealed potential knowing exactly the seed coefficients; every
    other admissible key up to the effective maximal order is unknown."""
    pot, _ = _seed_with_provenance(geom, mode, m_max)
    return pot


# -- schedule -----------------------------------------------------------


def _product_alpha_except(geom: Geometry, skip_sector: int):
    return alpha_from_pairs(
        geom, [((k, 1), 1) for k in range(1, geom.r + 1) if k != skip_sector]
    )


def _minus_pairs(geom: Geometry, alpha, sector: int, budget=None):
    """Yield (j, j', alpha - e_{i,j} - e_{i,j'}) for 1 <= j <= j' < a_i in
    sector i, wherever the difference is >= 0 and, given a budget, the
    scaled degrees of (i,j) and (i,j') sum to at most the budget."""
    a = geom.order(sector)
    ds = geom.deg_scaled
    slot = lambda j: geom.slot[Twisted(sector, j)]
    for j in range(1, a):
        rest1 = alpha_sub(alpha, basis_alpha(geom, sector, j))
        if rest1 is None:
            continue
        for jp in range(j, a):
            rest2 = alpha_sub(rest1, basis_alpha(geom, sector, jp))
            if rest2 is None:
                continue
            if budget is not None and ds[slot(j)] + ds[slot(jp)] > budget:
                continue
            yield j, jp, rest2


def _candidates_order0(geom: Geometry, gamma):
    """Guided candidates for a single-sector order-0 target."""
    sector = next(iter(support_sectors(geom, gamma)))
    a = geom.order(sector)
    lab = lambda j: Twisted(sector, j)
    others = _product_alpha_except(geom, sector)
    cands = []

    # Top-index family: target contains e_{i,a_i-1} and pairs against the
    # degree-one product seed through sigma = (i, a_i-1); probe the
    # order-1 extraction of quads ((i,l),(i,l'),P,P).
    detopped = alpha_sub(gamma, basis_alpha(geom, sector, a - 1))
    if detopped is not None:
        for l, lp, rest in _minus_pairs(geom, detopped, sector, geom.scale):
            quad = WdvvQuad(lab(l), lab(lp), POINT, POINT)
            cands.append((quad, SeriesKey(alpha_add(rest, others), 1)))

    # Middle family: quads ((i,n),(i,n'),(i,l),P) at the order-1
    # extraction, for targets containing e_{i,1} and e_{i,l-1}.
    without_one = alpha_sub(gamma, basis_alpha(geom, sector, 1))
    for l in range(2, a) if without_one is not None else ():
        if alpha_sub(without_one, basis_alpha(geom, sector, l - 1)) is None:
            continue
        rest0 = alpha_sub(gamma, basis_alpha(geom, sector, l - 1))
        for n, np_, rest in _minus_pairs(geom, rest0, sector, l * geom.scale // a):
            quad = WdvvQuad(lab(n), lab(np_), lab(l), POINT)
            cands.append((quad, SeriesKey(alpha_add(rest, others), 1)))

    # Quartic-slope family: pure order-0 extraction of quads
    # ((i,1),(i,l),(i,j),(i,j')), for targets containing e_{i,l+1}.
    for l in range(1, a - 1):
        rest0 = alpha_sub(gamma, basis_alpha(geom, sector, l + 1))
        if rest0 is None:
            continue
        for j, jp, rest in _minus_pairs(geom, rest0, sector):
            quad = WdvvQuad(lab(1), lab(l), lab(j), lab(jp))
            cands.append((quad, SeriesKey(rest, 0)))
    return cands


def _shift_candidates(geom: Geometry, gamma, m: int):
    """Quads ((i,1),(i,j-1),P,P) at the extraction gamma - e_{i,j}, order m,
    for every coordinate (i,j) with j >= 2 present in gamma."""
    cands = []
    for s, k in enumerate(gamma):
        lab = geom.twisted[s]
        if k >= 1 and lab.j >= 2:
            xkey = SeriesKey(alpha_sub(gamma, basis_alpha(geom, lab.sector, lab.j)), m)
            quad = WdvvQuad(
                Twisted(lab.sector, 1), Twisted(lab.sector, lab.j - 1), POINT, POINT
            )
            cands.append((quad, xkey))
    return cands


def _bottom_row(geom: Geometry, gamma, m: int, sectors):
    """Quads ((i,1),(i,a_i-1),P,P) at the target itself, for the sectors i
    in the given order: the candidates of bottom-row-only targets."""
    return [
        (WdvvQuad(Twisted(i, 1), Twisted(i, geom.order(i) - 1), POINT, POINT),
         SeriesKey(gamma, m))
        for i in sectors
    ]


def guided_candidates(geom: Geometry, target: SeriesKey):
    """The candidate equations the induction suggests for target, in
    preference order, as (quad, extraction key) pairs.

    Order 1 and higher first shift a coordinate e_{i,j}, j >= 2, of the
    target down to e_{i,j-1}.  A target with bottom-row support only
    probes its own key: at order 1 on the sectors it does not meet, at
    higher orders on every sector, those whose e_{i,1} exponent differs
    from m (nonzero slope) first.
    """
    gamma, m = target.alpha, target.m
    if m == 0:
        return _candidates_order0(geom, gamma)
    shifts = _shift_candidates(geom, gamma, m)
    if shifts:
        return shifts
    if m == 1:
        present = support_sectors(geom, gamma)
        return _bottom_row(
            geom, gamma, 1, [i for i in range(1, geom.r + 1) if i not in present]
        )
    return _bottom_row(
        geom,
        gamma,
        m,
        sorted(
            range(1, geom.r + 1),
            key=lambda i: (gamma[geom.slot[Twisted(i, 1)]] == m, i),
        ),
    )


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
    """Affine data of one extraction: coefficient = -intercept/slope when
    the slope is nonzero and the equation is fully known."""

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
    annihilated by a known zero makes the candidate blocked.
    """
    coeffs, unknown, max_order = pot.coeffs, pot.unknown, pot.max_order

    def lookup(key: SeriesKey):
        if key == target:
            return TARGET
        value = coeffs.get(key)
        if value is None:
            if key.m > max_order or key in unknown:
                raise Blocked(key)
            return 0
        return value

    try:
        intercept, slope, self_pair = contract_at(pot.geometry, quad, xkey, lookup)
    except Blocked as blocked:
        return ProbeResult("blocked", blocker=blocked.key)
    if self_pair:
        return ProbeResult("useless")
    if slope == 0:
        if intercept != 0:
            raise InconsistentSeed(pot.geometry, quad, xkey, intercept)
        return ProbeResult("useless")
    return ProbeResult("solved", value=-intercept / slope, slope=slope)


# -- exhaustive fallback -------------------------------------------------


class _Sockets(NamedTuple):
    """One phase of the fallback's socket table.

    Socket n sits in the quad numbered quad[n]; in the stored-partner
    phase its partner shift is shifts[shift[n]].  groups holds
    (vec1, p1, socket numbers) once per distinct target-side shift vec1,
    so a target costs one alpha_sub per group, not one per socket.
    """

    groups: tuple
    quad: array
    shift: array


@functools.cache
def _fallback_sockets(geom: Geometry):
    """The exhaustive fallback's socket table, built once per geometry.

    A socket is a way for the target to sit in a derivative of one side of
    a WDVV equation: in the triple (x, y, sigma) with twisted indicators
    vec1 and p1 POINT factors, against either the analytic constant
    eta(z, t) (sigma = POINT pairs tau = UNIT) or a stored partner shifted
    by vec2 with p2 POINT factors.  No label of a quad and neither sigma
    nor tau is UNIT, so a shift vector fixes its p = 3 - |vec|, and a
    socket is named by (quad, vec1) or (quad, vec1, vec2).  Sockets are
    numbered in stream order: canonical quad order, then the four
    orientations, then the pairs of eta, first occurrence kept.  Each
    label triple's derivative profile is computed once.

    Returns (quads, shifts, analytic, series): the canonical WdvvQuads,
    the distinct shift vectors as (vec, p), and one _Sockets per phase.
    """
    labels, index = geom.labels, geom.label_index
    point = index[POINT]
    eta = [(index[s], index[t]) for s, t, _ in geom.eta_inverse_pairs if UNIT not in (s, t)]
    paired = set(eta)
    series_labels = [k for k, lab in enumerate(labels) if lab is not UNIT]
    pairs = list(itertools.combinations_with_replacement(series_labels, 2))

    # Shift vectors are numbered in first-seen order.
    vec_id: dict[tuple, int] = {}
    triple_id: dict[tuple, int] = {}

    def shift(triple):
        got = triple_id.get(triple)
        if got is None:
            vec = indexed_profile(geom, tuple(sorted(triple)))[2]
            got = triple_id[triple] = vec_id.setdefault(vec, len(vec_id))
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

    shifts = tuple((vec, 3 - sum(vec)) for vec in vec_id)

    def grouped(groups):
        return tuple(shifts[v] + (numbers,) for v, numbers in groups.items())

    return (
        tuple(quads),
        shifts,
        _Sockets(grouped(a_groups), a_quad, array("l")),
        _Sockets(grouped(s_groups), s_quad, s_shift),
    )


def _fitting(groups, key: SeriesKey):
    """(item, key.alpha - vec) for the items of every (vec, p, items) group
    whose vec fits under key.alpha, sorted by item.  A POINT derivative
    carries a factor m, so groups with p > 0 never fit an order-0 key."""
    hits = []
    for vec, p, items in groups:
        if p and key.m == 0:
            continue
        beta = alpha_sub(key.alpha, vec)
        if beta is not None:
            hits += zip(items, itertools.repeat(beta))
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
    each partner once per distinct vec2 among the sockets the target fits.
    """
    quads, shifts, analytic, series = _fallback_sockets(pot.geometry)
    seen: set[tuple] = set()

    # Analytic marks are distinct: sockets are distinct per (quad, vec1).
    for n, beta1 in _fitting(analytic.groups, target):
        qi, xkey = analytic.quad[n], SeriesKey(beta1, target.m)
        seen.add((qi, xkey))
        yield quads[qi], xkey

    viable = _fitting(series.groups, target)
    by_shift: dict[int, array] = {}
    for k, (n, _) in enumerate(viable):
        by_shift.setdefault(series.shift[n], array("l")).append(k)
    partner_groups = [shifts[v] + (ks,) for v, ks in by_shift.items()]
    for k2, _ in pot.items_sorted():
        if k2 == target:
            continue
        m = target.m + k2.m
        for k, beta2 in _fitting(partner_groups, k2):
            n, beta1 = viable[k]
            qi, xkey = series.quad[n], SeriesKey(alpha_add(beta1, beta2), m)
            if (qi, xkey) not in seen:
                seen.add((qi, xkey))
                yield quads[qi], xkey


# -- the solver ---------------------------------------------------------


@dataclass
class SolveStep:
    target: SeriesKey
    quad: WdvvQuad
    xkey: SeriesKey
    slope: object
    value: object


@dataclass
class ReconstructionTrace:
    """Audit record: which equation determined which coefficient.  The
    seeds are listed in the order seeding imposed them."""

    geometry: Geometry
    mode: SeedMode
    seeds: list[tuple[SeriesKey, object, str]] = field(default_factory=list)
    steps: list[SolveStep] = field(default_factory=list)
    free: list[SeriesKey] = field(default_factory=list)

    def to_text(self) -> str:
        geom = self.geometry
        lines = [
            f"reconstruction-trace: multiplet={geom.multiplet} mode={self.mode.token()}"
        ]
        lines.append("seed | t1^2 tmu^1 | 1/2 | pairing")
        for i, a in enumerate(geom.orders, start=1):
            for j in range(1, a // 2 + 1):
                jc = a - j
                value = QQ(1, 2 * a) if j == jc else QQ(1, a)
                lines.append(
                    f"seed | t1^1 ({i},{j})^1 ({i},{jc})^1 | {format_rational(value)} | pairing"
                )
        for key, value, provenance in self.seeds:
            lines.append(
                f"seed | {format_key(geom, key)} | {format_rational(value)} | {provenance}"
            )
        for step in self.steps:
            lines.append(
                f"solve | {format_key(geom, step.target)} | {format_rational(step.value)}"
                f" | quad={format_quad(step.quad)} | extract={format_key(geom, step.xkey)}"
                f" | slope={format_rational(step.slope)}"
            )
        for key in self.free:
            lines.append(f"free | {format_key(geom, key)}")
        return "\n".join(lines) + "\n"


def _attempt(pot: Potential, target: SeriesKey, guided: bool, use_fallback: bool):
    """Try the guided candidates (when guided), then the fallback (when
    use_fallback); returns the SolveStep, or else whether a candidate was
    blocked."""
    stream = guided_candidates(pot.geometry, target) if guided else ()
    if use_fallback:
        stream = itertools.chain(stream, exhaustive_candidates(pot, target))
    blocked = False
    for quad, xkey in stream:
        result = probe_candidate(pot, quad, xkey, target)
        if result.status == "solved":
            return SolveStep(target, quad, xkey, result.slope, result.value)
        if result.status == "blocked":
            blocked = True
    return blocked


def solve_target(pot: Potential, target: SeriesKey):
    """Solve one target from a potential holding all its prerequisites.

    Returns the solved value without storing it.  Raises SolverStuck when
    no candidate (guided, then the exhaustive fallback) has nonzero slope,
    and InconsistentSeed if a fully-known candidate is violated.
    """
    step = _attempt(pot, target, guided=True, use_fallback=True)
    if isinstance(step, SolveStep):
        return step.value
    raise SolverStuck(pot.geometry, [target])


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
    pot, seed_entries = _seed_with_provenance(geom, mode, m_max)
    trace = ReconstructionTrace(geom, mode, seeds=seed_entries)
    pending = build_schedule(pot)
    guided = strategy == "guided"
    use_fallback = not guided

    while pending:
        progressed = False
        still: list[SeriesKey] = []
        any_blocked = False
        for target in pending:
            step = _attempt(pot, target, guided, use_fallback)
            if isinstance(step, SolveStep):
                pot.set_coefficient(target, step.value)
                trace.steps.append(step)
                progressed = True
            else:
                any_blocked = any_blocked or step
                still.append(target)
        pending = still
        if pending and not progressed:
            if not use_fallback:
                # Escalate once: rerun the stalled set with the fallback.
                use_fallback = True
                continue
            if mode == VANISHING_NO_QUARTIC and all(t.m == 0 for t in pending):
                trace.free = sorted(pending, key=key_sort_key)
                break
            if any_blocked:
                raise NoProgress(geom, pending)
            raise SolverStuck(geom, pending)

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
