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
to hash and compare.
"""

from __future__ import annotations

import functools
import math
from operator import add
from typing import NamedTuple

from .geometry import POINT, UNIT, Geometry, Twisted, format_label
from .rationals import QQ


class SeriesKey(NamedTuple):
    """Index (alpha, m) of one series coefficient."""

    alpha: tuple[int, ...]
    m: int


# -- exponent vector helpers ------------------------------------------


def zero_alpha(geom: Geometry) -> tuple[int, ...]:
    return (0,) * geom.n_twisted


def basis_alpha(geom: Geometry, sector: int, j: int) -> tuple[int, ...]:
    """Indicator exponent vector of the twisted coordinate (sector, j)."""
    slot = geom.slot[Twisted(sector, j)]
    return tuple(1 if s == slot else 0 for s in range(geom.n_twisted))


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


def alpha_length(alpha: tuple[int, ...]) -> int:
    return sum(alpha)


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


# -- derivative multiplicities ------------------------------------------


def s_factor(a: int, b: int, c: int) -> int:
    """Multiplicity factor of a triple of indices: 1, 6 or 2.

    1 when pairwise distinct, 6 when all equal, 2 otherwise.  Only used to
    mirror triple-derivative multiplicities in tests and seed formulas;
    the generic code paths compute falling factorials directly.
    """
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


# -- the potential ------------------------------------------------------


class Potential:
    """Geometry plus the exact coefficient map of the series part.

    coeffs holds nonzero values only.  While the solver builds it, unknown
    holds the admissible keys not determined yet and every key above
    max_order is unknown too; any other absent key is a known zero.  Seal
    empties unknown (free keys read as 0); a sealed potential is immutable
    and safe for concurrent reads.
    """

    def __init__(self, geometry: Geometry, seed_mode=None):
        self.geometry = geometry
        self.seed_mode = seed_mode
        self.coeffs: dict[SeriesKey, object] = {}
        self.unknown: set[SeriesKey] = set()
        self.sealed = False
        self.max_order: int | None = None

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
            self.coeffs[key] = QQ(value)
        else:
            self.coeffs.pop(key, None)

    def get_coefficient(self, key: SeriesKey):
        """Stored value or 0.  The t1-part lives in F_triv, never here."""
        return self.coeffs.get(key, QQ(0))

    def seal(self, max_order: int) -> None:
        self.sealed = True
        self.max_order = max_order
        self.unknown.clear()

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
