"""Sparse exact-rational coefficient store for the Frobenius potential.

The potential splits as F = F_triv + series, where

    F_triv = 1/2 t1^2 tmu + 1/2 t1 sum_i sum_j (1/a_i) t_{i,j} t_{i,a_i-j}

is the full t1-dependent part (its cubic coefficients are forced by the
pairing, so it is kept analytic and never stored) and the series part is

    sum c(alpha, m) t^alpha exp(m tmu)

over exponent vectors alpha on the twisted coordinates and exponential
orders m >= 0.  Every stored key satisfies the Euler constraint

    wdeg(alpha, m) := sum alpha_{i,j} (a_i - j)/a_i + m chi == 2

exactly; insertion asserts it.  The store holds nonzero values only: an
absent key is 0 unless the potential still counts it as unknown.

Exponent vectors are dense integer tuples in the canonical twisted-label
order of the geometry (sparse pairs only appear in serialisation, spelt by
geometry.format_label).  Keys are SeriesKey(alpha, m) named tuples, cheap
to hash and compare.  The solver's kernel and the residual scan read them
packed into single integers instead, all in the one format of KeyLayout
(Potential.packed holds the store so).

Every potential carries the SeedMode of its initial data, so the seeds
live here, ahead of Potential: the solver seeds from them, and the
checks and the file formats read them without loading the solver.  They
are one stream, seed_entries, of (key, value, family) entries in five
families: limit-cubic, sector-purity, degree-one, degree-one-support
and, in vanishing mode, quartic.  Every nonzero value is a derivative
constant over prod_s alpha_s!, the factor multiplicity gives along the
key's own exponents: 1/a_i for the limit cubics, the mode's value for
the degree-one key, -1/a_i^2 for the quartics and eta(sigma, tau) for
F_triv's terms in pairing_entries.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

from .geometry import MAX_KEYS, POINT, UNIT, Geometry, Twisted, format_label, partition_counts
from .rationals import QQ, format_rational, parse_rational


class SeriesKey(NamedTuple):
    """Index (alpha, m) of one series coefficient."""

    alpha: tuple[int, ...]
    m: int


# -- exponent vector helpers ------------------------------------------


def zero_alpha(geom: Geometry) -> tuple[int, ...]:
    return (0,) * geom.n_twisted


def alpha_from_pairs(geom: Geometry, pairs) -> tuple[int, ...]:
    """Build an exponent vector from ((sector, j), exponent) items."""
    vec = [0] * geom.n_twisted
    items = pairs.items() if hasattr(pairs, "items") else pairs
    for (sector, j), k in items:
        if k < 0:
            raise ValueError("exponents must be non-negative")
        vec[geom.slot[Twisted(sector, j)]] += int(k)
    return tuple(vec)


def alpha_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def alpha_sub(a: tuple[int, ...], b: tuple[int, ...]):
    """Componentwise difference, or None if it would go negative."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def support_sectors(geom: Geometry, alpha: tuple[int, ...]) -> set[int]:
    return {geom.twisted[s].sector for s, k in enumerate(alpha) if k}


def alpha_sort_key(alpha: tuple[int, ...]):
    """Canonical exponent order: by length, then leading sectors first."""
    return (sum(alpha), tuple(-k for k in alpha))


def key_sort_key(key: "SeriesKey"):
    """Canonical key order: (m, length, canonical exponent order)."""
    return (key.m, *alpha_sort_key(key.alpha))


def format_exponents(geom: Geometry, alpha: tuple[int, ...]) -> str:
    """Monomial part of a record: "(i,j)^k ..." or "1" when empty."""
    items = [(geom.twisted[s], k) for s, k in enumerate(alpha) if k]
    if not items:
        return "1"
    return " ".join(f"{format_label(lab)}^{k}" for lab, k in items)


def format_key(geom: Geometry, key: SeriesKey) -> str:
    return f"{format_exponents(geom, key.alpha)} | m={key.m}"


# -- grading -----------------------------------------------------------


def weighted_degree(geom: Geometry, key: SeriesKey):
    """wdeg(alpha, m) = sum alpha_{i,j} (a_i-j)/a_i + m chi, exact."""
    return QQ(wdeg_scaled(geom, key.alpha, key.m), geom.scale)


def wdeg_scaled(geom: Geometry, alpha: tuple[int, ...], m: int) -> int:
    total = m * geom.chi_scaled
    for k, d in zip(alpha, geom.deg_scaled):
        if k:
            total += k * d
    return total


def is_admissible(geom: Geometry, key: SeriesKey) -> bool:
    """Whether the key satisfies the Euler constraint wdeg == 2."""
    return wdeg_scaled(geom, key.alpha, key.m) == 2 * geom.scale


def effective_max_order(geom: Geometry, m_max: int) -> int:
    """Positive chi caps the order: beyond floor(2/chi) no key is admissible."""
    if geom.chi_scaled > 0:
        return min(m_max, (2 * geom.scale) // geom.chi_scaled)
    return m_max


def exponents_with_scaled_degree(geom: Geometry, target: int) -> tuple[tuple[int, ...], ...]:
    """All alpha >= 0 with sum alpha_s * deg_scaled[s] == target.

    Enumerated afresh on every call (a reconstruct asks for only a few
    degrees, mostly once each) and returned in the canonical order,
    alpha_sort_key.
    """
    if target < 0:
        return ()

    degs = geom.deg_scaled
    n = geom.n_twisted
    out: list[tuple[int, ...]] = []
    vec = [0] * n

    def walk(slot: int, remaining: int):
        if slot == n - 1:
            q, r = divmod(remaining, degs[slot])
            if r == 0:
                vec[slot] = q
                out.append(tuple(vec))
                vec[slot] = 0
            return
        d = degs[slot]
        for k in range(remaining // d + 1):
            vec[slot] = k
            walk(slot + 1, remaining - k * d)
        vec[slot] = 0

    if n:
        walk(0, target)
    elif target == 0:
        out.append(())
    return tuple(sorted(out, key=alpha_sort_key))


def admissible_keys(geom: Geometry, m: int) -> list[tuple[int, ...]]:
    """All exponent vectors alpha with wdeg(alpha, m) == 2, canonical order.

    Finite for every m since all twisted degrees are positive.  Empty when
    2 - m*chi is negative or has no representation.
    """
    if m < 0:
        raise ValueError("exponential order m must be >= 0")
    target = 2 * geom.scale - m * geom.chi_scaled
    return list(exponents_with_scaled_degree(geom, target))


def admissible_key_count(geom: Geometry, m_max: int) -> int:
    """How many admissible keys lie at orders <= m_max (effective), by a
    DP over the scaled degrees instead of listing them: ways[t] counts
    the alpha of degree t, and order m asks for 2 scale - m chi_scaled."""
    m_max = effective_max_order(geom, m_max)
    base, chi = 2 * geom.scale, geom.chi_scaled
    ways = partition_counts(geom.deg_scaled, base - min(chi, 0) * m_max)
    if chi == 0:
        return (m_max + 1) * ways[base]
    return sum(ways[base - m * chi] for m in range(m_max + 1))


def selection_key_count(geom: Geometry, m: int) -> int:
    """How many admissible keys of order m obey the selection rule
    (sum_j j alpha_{i,j} = m mod a_i in every sector i), counted without
    the lcm of the orders: at most the keys of order m, and all of them
    when the orders are pairwise coprime.  Such a key gives sector i the
    degree n_i - m/a_i for a whole n_i >= 0, the n_i sum to 2 + m (r - 2),
    and sector i then holds the partitions of n_i a_i - m into parts
    1..a_i-1.  As n_i >= ceil(m/a_i), only the spare sum past those least
    values is spread over the sectors (2 at m = 0, none at m = 1), so the
    cost is linear in r there: spread[k] counts the keys of the sectors
    so far whose n_i pass their least values by k in all."""
    least = [-(-m // a) for a in geom.orders]
    spare = 2 + m * (geom.r - 2) - sum(least)
    if spare < 0:
        return 0
    spread = [1] + [0] * spare
    for a, n in zip(geom.orders, least):
        ways = partition_counts(range(1, a), (n + spare) * a - m)
        own = ways[n * a - m :: a]
        spread = [sum(spread[j] * own[k - j] for j in range(k + 1)) for k in range(spare + 1)]
    return spread[spare]


def check_key_count(geom: Geometry, m_max: int) -> None:
    """ValueError above MAX_KEYS admissible keys up to m_max.  The keys
    of orders up to 1 that obey the selection rule come first, a count
    over tables of at most 2 a_i entries per sector (Geometry refuses an
    order above 30) instead of the DP's 2 lcm; then the whole count at
    doubling orders, so that a huge m_max stops where the count passes."""
    m = min(m_max, 1)
    bound = sum(selection_key_count(geom, k) for k in range(m + 1))
    if bound > MAX_KEYS:
        raise ValueError(
            f"{geom.multiplet} has more than {MAX_KEYS} admissible keys up to "
            f"order {m_max} (at least {bound} up to order {m})"
        )
    while True:
        count = admissible_key_count(geom, m)
        if count > MAX_KEYS:
            raise ValueError(
                f"{geom.multiplet} has more than {MAX_KEYS} admissible keys up to "
                f"order {m_max} ({count} up to order {m})"
            )
        if m >= m_max:
            return
        m = min(2 * m, m_max)


# -- derivative multiplicities ------------------------------------------


def s_factor(a: int, b: int, c: int) -> int:
    """Multiplicity factor of a triple of indices: 1 when pairwise distinct,
    6 when all equal, 2 otherwise.  Only the tests use it, as the reference
    for the limit-cubic seeds; the package computes factorials directly."""
    if a == b == c:
        return 6
    if a != b and b != c and a != c:
        return 1
    return 2


def derivative_profile(geom: Geometry, labels):
    """Split derivative labels into (unit count, point count, twisted multiset).

    The twisted multiset is returned as the indicator exponent vector and
    a list of (slot, multiplicity) pairs.  Raises ValueError on a label
    outside the geometry.
    """
    for lab in labels:
        geom.check_label(lab)
    return indexed_profile(geom, tuple(sorted(geom.label_index[lab] for lab in labels)))


@functools.cache
def indexed_profile(geom: Geometry, indices: tuple[int, ...]):
    """derivative_profile of the labels with these sorted label indices.

    Memoised: the quad plans of the WDVV kernel, the fallback's socket
    table and the derivative maps ask for the same few hundred triples.
    """
    units = 0
    points = 0
    mults: dict[int, int] = {}
    for k in indices:
        lab = geom.labels[k]
        if lab is UNIT:
            units += 1
        elif lab is POINT:
            points += 1
        else:
            slot = geom.slot[lab]
            mults[slot] = mults.get(slot, 0) + 1
    vec = [0] * geom.n_twisted
    for slot, k in mults.items():
        vec[slot] = k
    return units, points, tuple(vec), tuple(sorted(mults.items()))


def multiplicity(key: SeriesKey, points: int, mults) -> int:
    """Factor that c(key) picks up under a derivative profile: m per POINT
    derivative and a falling factorial per differentiated twisted slot."""
    mult = key.m ** points
    for slot, k in mults:
        mult *= math.perm(key.alpha[slot], k)
    return mult


def unit_constant(geom: Geometry, labels):
    """Third derivative of F_triv along labels containing UNIT.

    F_triv is quadratic in the other coordinates, so the derivative is the
    constant eta of the two labels left after dropping one UNIT.
    """
    rest = list(labels)
    rest.remove(UNIT)
    return geom.pairing(*rest)


# -- packed keys ---------------------------------------------------------


class KeyLayout:
    """One integer per key: the package's packed form of (alpha, m).

    m sits in the low bits (mmask), then each twisted slot s has a field
    at offsets[s], read with fmask, the fields back to back.  The widths
    hold the keys of orders up to 2 m_max whose weighted degree is at
    most 3: every admissible key of order <= m_max and every WDVV
    extraction monomial of order <= 2 m_max, each component at most limit,
    with room for 3 more per slot (a derivative's shift).  So the solver's
    sums of keys and shifts, and the residual scan's pair products, never
    carry across fields.  starts holds the lowest bit of each twisted field
    and the bit just above the last one: a carry out of a field, or a
    borrow into one, lands on a start bit.  So vec fits under a packed key
    exactly when not (packed ^ vec ^ (packed - vec)) & starts, a negative
    difference setting the top bit.  Build it with key_layout, which
    returns one layout per (geometry, m_max).
    """

    __slots__ = ("geometry", "m_max", "mmask", "limit", "fmask", "offsets", "starts")

    def __init__(self, geom: Geometry, m_max: int):
        self.geometry = geom
        self.m_max = m_max
        mbits = (2 * m_max).bit_length() or 1
        self.mmask = (1 << mbits) - 1
        growth = 2 * m_max * max(0, -geom.chi_scaled)
        self.limit = (3 * geom.scale + growth) // min(geom.deg_scaled)
        bits = (self.limit + 3).bit_length()
        self.fmask = (1 << bits) - 1
        n = geom.n_twisted
        self.offsets = tuple(mbits + s * bits for s in range(n))
        self.starts = sum(1 << off for off in self.offsets) | 1 << (mbits + n * bits)

    def pack(self, alpha: tuple[int, ...], m: int) -> int:
        """The packed key; ValueError for a component past its field."""
        if not 0 <= m <= self.mmask:
            raise ValueError(f"order {m} is outside 0..{self.mmask}")
        packed = m
        for off, k in zip(self.offsets, alpha):
            if k:
                if not 0 < k <= self.limit:
                    raise ValueError(f"exponent {k} is outside 0..{self.limit}")
                packed |= k << off
        return packed

    def unpack(self, packed: int) -> SeriesKey:
        fmask = self.fmask
        alpha = tuple((packed >> off) & fmask for off in self.offsets)
        return SeriesKey(alpha, packed & self.mmask)


key_layout = functools.cache(KeyLayout)


@functools.cache
def packed_profile(layout: KeyLayout, triple: tuple[int, ...]):
    """(points, packed shift, (field offset, multiplicity) pairs) of the
    derivative along the sorted label-index triple under layout.

    Memoised like indexed_profile: the quad plans and the fallback's
    socket table of a layout share them.
    """
    _, points, vec, mults = indexed_profile(layout.geometry, triple)
    return points, layout.pack(vec, 0), tuple((layout.offsets[s], k) for s, k in mults)


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


# -- the seeds ----------------------------------------------------------


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
        if sum(alpha) <= geom.r and alpha != product:
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


# -- the potential ------------------------------------------------------


class PackedStore(NamedTuple):
    """The solver's view of a potential under one KeyLayout: coeffs and
    unknown with every key packed (the values are the same objects)."""

    layout: KeyLayout
    coeffs: dict[int, object]
    unknown: set[int]


class Potential:
    """Geometry plus the exact coefficient map of the series part.

    seed_mode is the mode of the initial data, STANDARD unless given: the
    file header spells it, and the seeds check compares the store with
    its seeds.  coeffs holds nonzero values only.  While the solver builds
    it, unknown holds the admissible keys not determined yet and every key
    above max_order is unknown too; any other absent key is a known zero.
    Seal empties unknown (free keys read as 0); a sealed potential is
    immutable and safe for concurrent reads.

    The WDVV kernel reads the store through packed(), the same coeffs and
    unknown with packed-integer keys.  It is built on first use, again
    once max_order or the unknown set object differs from its own, and
    kept in step by set_coefficient and seal.  So write the store through
    those, not into the dict or set in place, once it has been probed.
    """

    def __init__(self, geometry: Geometry, seed_mode: SeedMode = STANDARD):
        self.geometry = geometry
        self.seed_mode = seed_mode
        self.coeffs: dict[SeriesKey, object] = {}
        self.unknown: set[SeriesKey] = set()
        self.max_order: int | None = None
        self.sealed = False
        # (max_order, unknown, view) of the last packed() view, or None.
        self._packed: tuple | None = None

    # -- store ----------------------------------------------------------

    def set_coefficient(self, key: SeriesKey, value) -> None:
        """Make key known with this value; a zero is known but not stored."""
        if self.sealed:
            raise ValueError("potential is sealed")
        if not is_admissible(self.geometry, key):
            raise ValueError(
                f"key {format_key(self.geometry, key)} violates the Euler "
                f"constraint: wdeg = {weighted_degree(self.geometry, key)} != 2"
            )
        self.unknown.discard(key)
        if value:
            value = self.coeffs[key] = QQ(value)
        else:
            self.coeffs.pop(key, None)
        if self._packed is None:
            return
        store = self._packed[2]
        if key.m > store.layout.m_max:  # past the layout: rebuilt on next use
            self._packed = None
            return
        packed = store.layout.pack(*key)
        store.unknown.discard(packed)
        if value:
            store.coeffs[packed] = value
        else:
            store.coeffs.pop(packed, None)

    def get_coefficient(self, key: SeriesKey):
        """Stored value or 0.  The t1-part lives in F_triv, never here."""
        return self.coeffs.get(key, QQ(0))

    def seal(self, max_order: int) -> None:
        self.sealed = True
        self.max_order = max_order
        self.unknown.clear()
        if self._packed is not None:
            self._packed[2].unknown.clear()

    def packed(self) -> PackedStore:
        """The store with packed keys, under the layout of the largest order
        among max_order and the keys held."""
        built = self._packed
        if built is not None and built[0] == self.max_order and built[1] is self.unknown:
            return built[2]
        top = max((key.m for key in (*self.coeffs, *self.unknown)), default=0)
        layout = key_layout(self.geometry, max(top, self.max_order or 0))
        pack = layout.pack
        store = PackedStore(
            layout,
            {pack(*key): value for key, value in self.coeffs.items()},
            {pack(*key) for key in self.unknown},
        )
        self._packed = (self.max_order, self.unknown, store)
        return store

    def items_sorted(self):
        """Stored (key, value) pairs in canonical (m, length, alpha) order."""
        return sorted(self.coeffs.items(), key=lambda kv: key_sort_key(kv[0]))

    # -- third derivatives ------------------------------------------------

    def third_derivative_coefficient(self, d1, d2, d3, target: SeriesKey):
        """Coefficient of t^alpha exp(m tmu) in the third derivative of F.

        Symmetric in the three labels.  F_triv contributes only through
        derivatives containing UNIT, and those are the constants eta of
        the remaining pair; the series contributes through keys shifted by
        the twisted indicators, with falling-factorial multiplicities and
        a factor m per POINT derivative.
        """
        geom = self.geometry
        labels = (d1, d2, d3)
        units, points, vec, mults = derivative_profile(geom, labels)
        if units:
            if target.m == 0 and not any(target.alpha):
                return unit_constant(geom, labels)
            return QQ(0)
        key = SeriesKey(alpha_add(target.alpha, vec), target.m)
        c = self.coeffs.get(key)
        if c is None:
            return QQ(0)
        return c * multiplicity(key, points, mults)

    def third_derivative_map(self, d1, d2, d3) -> dict[SeriesKey, object]:
        """Full coefficient map of one third derivative (0 entries absent).

        Computed fresh on every call; nothing is cached on the potential.
        Like third_derivative_coefficient, raises ValueError on a label
        outside the geometry.
        """
        geom = self.geometry
        labels = (d1, d2, d3)
        units, points, vec, mults = derivative_profile(geom, labels)
        out: dict[SeriesKey, object] = {}
        if units:
            value = unit_constant(geom, labels)
            if value:
                out[SeriesKey(zero_alpha(geom), 0)] = value
        else:
            for key, c in self.coeffs.items():
                if points and key.m == 0:
                    continue
                beta = alpha_sub(key.alpha, vec)
                if beta is None:
                    continue
                out[SeriesKey(beta, key.m)] = c * multiplicity(key, points, mults)
        return out

    def __repr__(self):
        state = "sealed" if self.sealed else "building"
        return (
            f"Potential({self.geometry.multiplet}, {len(self.coeffs)} coefficients, "
            f"{state})"
        )
