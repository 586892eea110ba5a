"""The WDVV equations and the exact residual scan.

For a coordinate quadruple (a, b, c, d) the associativity equation is

    sum_{s,t} F_abs eta^{st} F_tcd  -  sum_{s,t} F_acs eta^{st} F_tbd = 0

with third derivatives F_xyz of the potential.  The equations are named
by geometry.WdvvQuad and spelled by geometry.format_quad, which the
solver shares; this module enumerates all degree-admissible target
monomials of one (admissible_targets) and sweeps every equation of a
sealed potential (residual_scan).  It is the read side: the solver's
kernel, which extracts one coefficient of one equation, lives in
reconstruct (contract_at); nothing here imports it, and it imports
nothing from here.

The scan is the independent re-check of what the solver wrote, and it
computes every target of an equation at once in integers.  It packs each
key under the series.KeyLayout of the highest stored order it reads,
sharing that key format with the solver, not the kernel: a pair
product's key is one integer addition that never carries across fields.
One pass over the store builds the derivative map of every label triple,
each stored key feeding the triples that fit under it, so the set-up
costs one step per map entry.  The entries are integers at a scale that
grows with the length of the key: the entry at a map key of total
exponent n is c * rho**n times its value, rho a product of primes of the
orders, so both sides of an equation carry c**2 * rho**n at a product key
of total exponent n and compare exactly, with entries about half as long
as under one lcm.  Each map is then cut into Euler-line fibers, the
entries of one order whose keys agree below the last two twisted fields,
where the Euler constraint leaves one free exponent, alpha_fb, and fixes
the last, alpha_fa.  A fiber is two integers, V with one base-2**bits
digit per entry at its alpha_fb and S with a digit 1 at each alpha_fb
present, so one multiply-add per pair of fibers does the work of one per
pair of entries.

Every equation is one comparison of two pair products, streamed one
4-label multiset at a time, each product built once by one loop.  The
sides of WDVV(a,b,b,d) are one product, compared with itself; the
mirror WDVV(a,c,b,d) of WDVV(a,b,c,d) swaps the two sides and takes that
comparison's counts and negated residuals.  Equal sides, as on a correct
potential, are compared with one dict comparison; only unequal sides are
walked fiber by fiber and digit by digit.  For a target of order m only
stored orders m1 + m2 = m contribute, all <= m_max, hence reported
residuals are exact values of the equations, not truncations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .geometry import POINT, UNIT, Geometry, WdvvQuad, format_quad, quad_degree_scaled
from .rationals import QQ
from .series import (
    KeyLayout,
    Potential,
    SeriesKey,
    effective_max_order,
    exponents_with_scaled_degree,
    format_key,
    indexed_profile,
    key_layout,
    key_sort_key,
    multiplicity,
    unit_constant,
    wdeg_scaled,
)


def admissible_targets(geom: Geometry, quad: WdvvQuad, m: int) -> list[tuple[int, ...]]:
    """All beta >= 0 that can carry a nonzero coefficient of WDVV(quad).

    Quasi-homogeneity pins wdeg(beta) + m chi to 3 minus the degree sum of
    the quadruple, so the set is finite; it is returned in canonical
    (length, tuple) order.
    """
    if m < 0:
        raise ValueError("exponential order m must be >= 0")
    rhs = quad_degree_scaled(geom, quad)
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


def _length_scale(geom: Geometry, lcm: int, gcds: dict, counts: dict) -> tuple[int, int]:
    """The (c, rho) of _scan_maps for entries first cleared by lcm.

    gcds[n] is the gcd of the cleared entries of map keys of total exponent
    n, counts[n] their number; lcm // gcd(lcm, gcds[n]) must divide
    c * rho**n.  Only primes of the orders enter rho, each with the
    exponent that gives the entries the fewest digits in all; the part of
    the denominators prime to the orders goes into c.  Integers only, and
    no denominator is ever factored.
    """
    needed = {n: lcm // math.gcd(lcm, g) for n, g in gcds.items()}
    primes: list[int] = []
    for p in range(2, max(geom.orders) + 1):
        # A composite p has its prime factors in primes already.
        if any(a % p == 0 for a in geom.orders) and all(p % q for q in primes):
            primes.append(p)
    c = rho = 1
    for p in primes:
        powers = {}
        for n, d in needed.items():
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            needed[n], powers[n] = d, e
        # p**(base + step * n) covers p**powers[n] at every length n.
        options = []
        for step in range(max(powers.values(), default=0) + 1):
            base = max(0, *(e - step * n for n, e in powers.items()))
            options.append((sum(counts[n] * (base + step * n) for n in powers), step, base))
        _, step, base = min(options)
        rho *= p**step
        c *= p**base
    return c * math.lcm(*needed.values()), rho


def _scan_maps(pot: Potential, m_max: int) -> tuple[tuple[int, int], KeyLayout, dict]:
    """Every nonzero third derivative of pot up to order m_max, in one pass.

    Returns ((c, rho), layout, maps).  Keys are packed under layout, the
    series.KeyLayout of the highest stored order the scan reads.  maps
    holds the derivative map of each sorted label-index triple once, as
    (m, items) pairs in increasing order m, where items lists the (packed
    key, integer) entries of that order; triples whose map is empty are
    absent.  c and rho are positive integers: the entry at a map key k is
    c * rho**|k| times the derivative's value, |k| the total exponent of
    k's alpha.  The factor is multiplicative in k, so every term of a
    pair product at key k carries c**2 * rho**|k|.

    A stored key feeds the derivative along each triple whose twisted
    multiset fits under its exponents, the rest of the triple being POINT
    (only at m > 0, where the multiplicity m^points is nonzero): the entry
    sits at the key minus the multiset and is the cleared coefficient
    times its multiplicity.  Triples containing UNIT derive F_triv and
    carry one constant at the monomial 1.  So the work is one step per map
    entry, whatever the number of triples.  The entries are first cleared
    by one lcm over the store and the pairing, then brought to the
    per-length scale of _length_scale in place.
    """
    geom = pot.geometry
    lcm = math.lcm(*geom.orders, *(int(c.denominator) for c in pot.coeffs.values()), 1)

    # A pair product's key is an extraction monomial of weighted degree
    # <= 3 and order <= 2 top, which the layout of top holds without a
    # carry.  Sized by the store, not by m_max, which a file header may
    # make huge.
    top = max((key.m for key in pot.coeffs if key.m <= m_max), default=0)
    layout = key_layout(geom, top)
    pack = layout.pack

    def cleared(value) -> int:
        scaled = value * lcm
        if scaled.denominator != 1:  # pragma: no cover - lcm clears the store
            raise AssertionError("denominator not cleared")
        return int(scaled.numerator)

    point = geom.label_index[POINT]
    shapes = {}  # sorted triple -> (POINT count, slot multiplicities, packed shift)
    for triple in itertools.combinations_with_replacement(range(1, point + 1), 3):
        _, points, vec, mults = indexed_profile(geom, triple)
        shapes[triple] = points, mults, pack(vec, 0)

    # Until they are rescaled, entries are (packed key, cleared value,
    # total exponent of the key).  Only stored orders get an item list, so
    # nothing here grows with m_max, which a file header may make huge.
    orders: dict[tuple[int, ...], dict[int, list[tuple]]] = {}
    gcds: dict[int, int] = {}
    counts: dict[int, int] = {}
    for key, value in pot.coeffs.items():
        if key.m > m_max:
            continue
        num = cleared(value)
        packed = pack(key.alpha, key.m)
        length = sum(key.alpha)
        # Label indices of the slots alpha uses: slot s is label s + 1.
        support = [s + 1 for s, k in enumerate(key.alpha) if k]
        for size in range(4):
            for slots in itertools.combinations_with_replacement(support, size):
                triple = slots + (point,) * (3 - size)
                points, mults, vec = shapes[triple]
                # Zero exactly when the triple does not apply to the key: a
                # slot taken more often than alpha holds it, or POINT at m=0.
                mult = multiplicity(key, points, mults)
                if mult:
                    entry = num * mult
                    n = length - size
                    gcds[n] = math.gcd(gcds.get(n, 0), entry)
                    counts[n] = counts.get(n, 0) + 1
                    by_order = orders.setdefault(triple, {})
                    by_order.setdefault(key.m, []).append((packed - vec, entry, n))
    maps = {triple: sorted(by_order.items()) for triple, by_order in orders.items()}
    labels = geom.labels
    for i, j in itertools.combinations_with_replacement(range(len(labels)), 2):
        value = unit_constant(geom, [UNIT, labels[i], labels[j]])
        if value:
            entry = cleared(value)
            gcds[0] = math.gcd(gcds.get(0, 0), entry)
            counts[0] = counts.get(0, 0) + 1
            maps[0, i, j] = [(0, [(0, entry, 0)])]

    c, rho = _length_scale(geom, lcm, gcds, counts)
    factors = {n: c * rho**n for n in gcds}
    for lists in maps.values():
        for _, items in lists:
            for i, (k, entry, n) in enumerate(items):
                scaled, rest = divmod(entry * factors[n], lcm)
                if rest:  # pragma: no cover - _length_scale covers every length
                    raise AssertionError("denominator not cleared")
                items[i] = (k, scaled)
    return (c, rho), layout, maps


def residual_scan(pot: Potential, m_max: int) -> ResidualReport:
    """Evaluate every WDVV equation of a sealed potential up to order m_max.

    Quads are canonicalised up to the symmetries a<->b, c<->d and
    (a,b)<->(c,d); quads containing the unit label are skipped (their
    equations vanish identically).  For chi > 0 the scan stops at
    floor(2/chi), as the reconstruction does, and reports that order.
    The scan is sequential.  It builds every derivative map in one integer
    pass over the store (_scan_maps) and cuts each into Euler-line fibers
    (V, S), one list per map sorted by order with the end of each order's
    fibers, so a block of a pair product is the left fibers of one order
    m1 against one right slice, of the orders <= m_max - m1.  A product
    is a dict of fiber key to [V, S], built by one multiply-add per pair
    of fibers, w * V1 * V2, with S1 * S2 ORed alongside; a square product
    (p1 == p2) takes the (sigma, tau) and (tau, sigma) terms of eta once,
    at twice the weight.  The equations are streamed one 4-label multiset
    at a time, holding only that multiset's products and comparisons.
    Equation (p1, p2) compares product(p1, p2) with the product of its
    right side, which is the same product exactly when p1[1] == p2[0]; an
    equation whose right side's right side is (p1, p2) reuses that
    comparison, its residuals negated.  A comparison counts the compared
    monomials per order, as the nonzero digits of the S of each fiber, and
    walks only unequal sides, reading their V difference digit by digit,
    each residual key's last field, alpha_fa, read back from the Euler
    constraint of the equation.
    The residuals are reported in quad order whatever order the multisets
    and their equations take.
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
    (c, rho), layout, maps = _scan_maps(pot, m_max)
    mmask, unpack = layout.mmask, layout.unpack

    labels = geom.labels
    index = geom.label_index
    eta_pairs = [(index[sigma], index[tau], w) for sigma, tau, w in geom.eta_inverse_pairs]
    # eta is symmetric, so in a square product the (sigma, tau) and
    # (tau, sigma) terms are the same convolution.
    square_pairs = [(s, t, w if s == t else 2 * w) for s, t, w in eta_pairs if s <= t]

    # fa, the last twisted field, has the smallest degree of its sector,
    # which divides that of fb, the second last; the keys of a map order,
    # and those of one side of an equation, share a weighted degree.  So
    # alpha_fb fixes alpha_fa among keys that agree below fb, and fiber
    # keys (the part below fb) add without a carry, like the keys they
    # stand for.  w * V1 * V2 holds at each alpha_fb, as a base-2**bits
    # digit, the sum of the entry products there; S1 * S2 holds a digit of
    # at most the shorter fiber's length at each alpha_fb reached.
    offb = layout.offsets[-2]
    below, fmask = (1 << offb) - 1, layout.fmask
    # At one key a product sums w * v1 * v2 over at most one entry pair per
    # eta term, order split and entry of the left map order, which holds
    # at most longest entries.  bits holds that sum, and the difference of
    # two, as a balanced digit in (-2**(bits-1), 2**(bits-1)), so V's are
    # equal exactly when their sums are, and a difference reads off digit
    # by digit.
    longest = max(len(items) for lists in maps.values() for _, items in lists)
    vmax = max(abs(v) for lists in maps.values() for _, items in lists for _, v in items)
    wmax = max(abs(w) for _, _, w in square_pairs + eta_pairs)
    top = layout.m_max
    bound = wmax * vmax * vmax * len(eta_pairs) * (top + 1) * longest
    bits = bound.bit_length() + 2
    # alpha_fb <= limit, so a fiber holds at most limit + 1 keys; an OR of
    # S products keeps each digit below half, and adding half - 1 to a
    # digit sets its top bit, in high, exactly when the digit is nonzero.
    sbits = (layout.limit + 1).bit_length() + 1
    digits = range(2 * layout.limit + 1)
    half = 1 << (sbits - 1)
    add = sum((half - 1) << (sbits * q) for q in digits)
    high = sum(half << (sbits * q) for q in digits)

    # Each map's fibers in one list sorted by order; ends[m] is the number
    # of fibers of order <= m, for every m <= top.
    fibered: dict[tuple[int, ...], tuple[list, list[int]]] = {}
    while maps:  # each entry list is dropped once it is fibered
        triple, lists = maps.popitem()
        flat: list[tuple[int, int, int]] = []
        ends: list[int] = []
        for m, items in lists:
            fibers: dict[int, list[int]] = {}
            for k, v in items:
                q = (k >> offb) & fmask
                fiber = fibers.get(k & below)
                if fiber is None:
                    fibers[k & below] = [v << (bits * q), 1 << (sbits * q)]
                else:
                    fiber[0] += v << (bits * q)
                    fiber[1] |= 1 << (sbits * q)
            ends += [len(flat)] * (m - len(ends))
            flat += [(f, vs, ss) for f, (vs, ss) in fibers.items()]
            ends.append(len(flat))
        ends += [len(flat)] * (top + 1 - len(ends))
        fibered[triple] = flat, ends

    series_labels = [k for k, lab in enumerate(labels) if lab is not UNIT]
    pairs = list(itertools.combinations_with_replacement(series_labels, 2))
    # table[pair][label]: the fibered map of the sorted triple pair + label,
    # or None.
    table = {
        pair: [fibered.get(tuple(sorted((*pair, k)))) for k in range(len(labels))]
        for pair in pairs
    }
    # reach[m1]: the highest right order m2 with m1 + m2 <= m_max.
    reach = [min(m_max - m1, top) for m1 in range(top + 1)]

    # Of the current multiset: (p1, p2) -> {fiber key: [V, S]}.
    products: dict[tuple, dict[int, list[int]]] = {}

    def product(p1: tuple[int, int], p2: tuple[int, int]) -> dict[int, list[int]]:
        # Every caller passes p1 <= p2, so the key is canonical.
        got = products.get((p1, p2))
        if got is not None:
            return got
        out: dict[int, list[int]] = {}
        get = out.get
        left, right = table[p1], table[p2]
        for sigma, tau, w in square_pairs if p1 == p2 else eta_pairs:
            if left[sigma] is None or right[tau] is None:
                continue
            (flat1, ends1), (flat2, ends2) = left[sigma], right[tau]
            start = 0
            for m1, end in enumerate(ends1):
                stop = ends2[reach[m1]]
                if start < end and stop:
                    # One block: the left fibers of order m1 against every
                    # right fiber of order <= reach[m1].
                    fibers2 = flat2[:stop]
                    for k1, v1, s1 in flat1[start:end]:
                        wv1 = w * v1
                        for k2, v2, s2 in fibers2:
                            k = k1 + k2
                            acc = get(k)
                            if acc is None:
                                out[k] = [wv1 * v2, s1 * s2]
                            else:
                                acc[0] += wv1 * v2
                                acc[1] |= s1 * s2
                start = end
        products[p1, p2] = out
        return out

    c2 = c * c
    offa, dega = layout.offsets[-1], geom.deg_scaled[-1]
    dmask = (1 << bits) - 1
    dhalf = 1 << (bits - 1)
    nothing = (0, 0)

    def compare(lhs: dict, rhs: dict, quad: tuple[int, ...]) -> tuple[list[int], list]:
        # (compared monomials per order, residuals of lhs - rhs).
        counts = [0] * (min(m_max, 2 * top) + 1)
        bad = []
        if lhs is rhs or lhs == rhs:
            for f, (_, s) in lhs.items():
                counts[f & mmask] += ((s + add) & high).bit_count()
            return counts, bad
        # Every key of the equation has this scaled degree, which gives
        # alpha_fa back from the rest of the key.
        degree = quad_degree_scaled(geom, (labels[k] for k in quad))
        for f in lhs.keys() | rhs.keys():
            lv, ls = lhs.get(f, nothing)
            rv, rs = rhs.get(f, nothing)
            counts[f & mmask] += (((ls | rs) + add) & high).bit_count()
            diff = lv - rv
            q = 0  # the digit's alpha_fb
            while diff:
                digit = ((diff + dhalf) & dmask) - dhalf
                if digit:
                    partial = f | q << offb
                    rest = degree - wdeg_scaled(geom, unpack(partial).alpha, f & mmask)
                    key = unpack(partial | rest // dega << offa)
                    bad.append((key, QQ(digit, c2 * rho ** sum(key.alpha))))
                diff = (diff - digit) >> bits
                q += 1
        return counts, bad

    # Both sides of an equation are products of two label pairs drawn from
    # the same 4-label multiset, and each product belongs to exactly one
    # multiset; so the equations are scanned one multiset at a time and
    # only that multiset's (at most three) products are held.
    groups: dict[tuple[int, ...], list] = {}
    for p1, p2 in itertools.combinations_with_replacement(pairs, 2):
        groups.setdefault(tuple(sorted(p1 + p2)), []).append((p1, p2))
        report.quads_checked += 1

    # Of the current multiset: (lhs pair, rhs pair) -> compare's result.
    compared: dict[tuple, tuple[list[int], list]] = {}
    target_counts: dict[int, int] = {m: 0 for m in range(m_max + 1)}
    found = []
    for equations in groups.values():
        products.clear()
        compared.clear()
        for p1, p2 in equations:
            # The right side, canonical since p1 <= p2; it is (p1, p2)
            # itself exactly when p1[1] == p2[0].
            other = (p1[0], p2[0]), tuple(sorted((p1[1], p2[1])))
            mirror = compared.get((other, (p1, p2)))
            if mirror is None:
                counts, bad = compared[(p1, p2), other] = compare(
                    product(p1, p2), product(*other), p1 + p2
                )
            else:
                # The mirror equation: same sides, swapped.
                counts, bad = mirror[0], [(key, -value) for key, value in mirror[1]]
            for m, n in enumerate(counts):
                target_counts[m] += n
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
