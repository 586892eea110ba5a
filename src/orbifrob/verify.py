"""Post-hoc checks of the theorem-level properties on a sealed potential.

Each check is pure: it reads the store, never writes, and reports the
first counterexample in canonical key order, so failure messages are
deterministic.  The limit ring is built from its presentation (generators
x_i with x_i x_j = 0 and a_i x_i^{a_i} all identified), not from the
potential, so comparing it with the product computed from the seeds is a
genuine cross-validation of two independent encodings of the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Geometry, POINT, Twisted, UNIT, format_label
from .rationals import QQ, format_rational
from .series import (
    Potential,
    SeriesKey,
    format_key,
    is_admissible,
    key_sort_key,
    support_sectors,
    zero_alpha,
)


@dataclass
class CheckReport:
    """Outcome of one named check."""

    name: str
    passed: bool
    detail: str | None = None

    def line(self) -> str:
        if self.passed:
            return f"CHECK {self.name}: PASS"
        suffix = f" [{self.detail}]" if self.detail else ""
        return f"CHECK {self.name}: FAIL{suffix}"


def _first_failure(pot: Potential, name: str, fails) -> CheckReport:
    """Fail at the first stored key, in canonical order, where fails(key)."""
    geom = pot.geometry
    for key in sorted(pot.coeffs, key=key_sort_key):
        if fails(key):
            return CheckReport(name, False, format_key(geom, key))
    return CheckReport(name, True)


def check_euler(pot: Potential) -> CheckReport:
    """Every stored key satisfies wdeg == 2 (independent re-check of the
    insertion-time assertion)."""
    return _first_failure(pot, "euler", lambda key: not is_admissible(pot.geometry, key))


def check_separation(pot: Potential) -> CheckReport:
    """Every nonzero order-0 coefficient is supported in a single sector.

    A theorem-confirmation for general multiplets; for the others it
    confirms that the imposed sector-purity constraints survived solving.
    """
    geom = pot.geometry
    return _first_failure(
        pot,
        "separation",
        lambda key: key.m == 0 and len(support_sectors(geom, key.alpha)) > 1,
    )


def _swap_alpha(geom: Geometry, alpha, i1: int, i2: int):
    swapped = list(alpha)
    a = geom.order(i1)
    for j in range(1, a):
        s1 = geom.slot[Twisted(i1, j)]
        s2 = geom.slot[Twisted(i2, j)]
        swapped[s1], swapped[s2] = swapped[s2], swapped[s1]
    return tuple(swapped)


def check_symmetry(pot: Potential, i1: int, i2: int) -> CheckReport:
    """Invariance of the coefficient map under swapping two sectors of
    equal order, across all exponential orders."""
    geom = pot.geometry
    if geom.order(i1) != geom.order(i2):
        raise ValueError(
            f"sectors {i1} and {i2} have different orders "
            f"({geom.order(i1)} vs {geom.order(i2)})"
        )

    def fails(key):
        mirror = SeriesKey(_swap_alpha(geom, key.alpha, i1, i2), key.m)
        return pot.get_coefficient(key) != pot.get_coefficient(mirror)

    return _first_failure(pot, f"symmetry({i1},{i2})", fails)


def sector_restriction(pot: Potential, sector: int):
    """Nonzero order-0 coefficients supported purely in one sector.

    Returned as a map from the per-sector exponent profile (exponent of
    t_{sector,1}, ..., t_{sector,a-1}) to the coefficient, so profiles of
    equal-order sectors of different potentials are directly comparable.
    """
    geom = pot.geometry
    a = geom.order(sector)
    slots = [geom.slot[Twisted(sector, j)] for j in range(1, a)]
    out = {}
    for key, value in pot.coeffs.items():
        if key.m == 0 and support_sectors(geom, key.alpha) <= {sector}:
            out[tuple(key.alpha[s] for s in slots)] = value
    return out


def check_sector_universality(
    pot1: Potential, sector1: int, pot2: Potential, sector2: int
) -> CheckReport:
    """The order-0 sector potential depends only on the sector's order.

    Compares the two profiles entrywise under the index relabeling."""
    a1 = pot1.geometry.order(sector1)
    a2 = pot2.geometry.order(sector2)
    if a1 != a2:
        raise ValueError(f"sector orders differ ({a1} vs {a2})")
    name = f"sector-universality({pot1.geometry.multiplet}#{sector1},{pot2.geometry.multiplet}#{sector2})"
    prof1 = sector_restriction(pot1, sector1)
    prof2 = sector_restriction(pot2, sector2)
    for profile in sorted(set(prof1) | set(prof2), key=lambda p: (sum(p), p)):
        if prof1.get(profile, QQ(0)) != prof2.get(profile, QQ(0)):
            exps = " ".join(f"j={j + 1}^{k}" for j, k in enumerate(profile) if k)
            return CheckReport(name, False, exps or "1")
    return CheckReport(name, True)


def check_vanishing(pot: Potential) -> CheckReport:
    """No coefficient of positive exponential order is nonzero."""
    return _first_failure(pot, "vanishing", lambda key: key.m >= 1)


class LimitRing:
    """The algebra at the limit point, from its presentation.

    Basis: the unit, the classes x_i^j (one per twisted label) and the top
    class a_1 x_1^{a_1}, indexed by the coordinate labels UNIT,
    Twisted(i, j) and POINT.  All a_i x_i^{a_i} coincide, so normalising
    the top class against sector 1 is no loss.
    """

    def __init__(self, geom: Geometry):
        self.geometry = geom
        self.basis = geom.labels

    @property
    def dimension(self) -> int:
        return self.geometry.mu

    def product(self, u, v) -> dict:
        """Structure constants of u * v as a sparse basis vector."""
        geom = self.geometry
        geom.check_label(u)
        geom.check_label(v)
        if u is UNIT:
            return {v: QQ(1)}
        if v is UNIT:
            return {u: QQ(1)}
        if u is POINT or v is POINT:
            # The top class annihilates every positive-degree class.
            return {}
        if u.sector != v.sector:
            return {}
        a = geom.order(u.sector)
        j = u.j + v.j
        if j <= a - 1:
            return {Twisted(u.sector, j): QQ(1)}
        if j == a:
            return {POINT: QQ(1, a)}
        return {}

    def is_associative(self) -> bool:
        for u in self.basis:
            for v in self.basis:
                uv = self.product(u, v)
                for w in self.basis:
                    left: dict = {}
                    for lab, coeff in uv.items():
                        for lab2, c2 in self.product(lab, w).items():
                            left[lab2] = left.get(lab2, QQ(0)) + coeff * c2
                    vw = self.product(v, w)
                    right: dict = {}
                    for lab, coeff in vw.items():
                        for lab2, c2 in self.product(u, lab).items():
                            right[lab2] = right.get(lab2, QQ(0)) + coeff * c2
                    keys = set(left) | set(right)
                    if any(left.get(k, QQ(0)) != right.get(k, QQ(0)) for k in keys):
                        return False
        return True


def limit_product_from_potential(pot: Potential, u, v) -> dict:
    """The product u o v at the limit, computed from the potential.

    Uses only the analytic pairing part and the cubic (length-3, order-0)
    coefficients: o is raised from the third derivatives evaluated at the
    limit via the inverse pairing.
    """
    geom = pot.geometry
    origin = SeriesKey(zero_alpha(geom), 0)
    out = {}
    for sigma, tau, w in geom.eta_inverse_pairs:
        f = pot.third_derivative_coefficient(u, v, sigma, origin)
        if f:
            out[tau] = out.get(tau, QQ(0)) + f * w
    return {lab: c for lab, c in out.items() if c}


def check_limit_product(pot: Potential) -> CheckReport:
    """Structure constants from the seeds match the presented ring of the
    potential's multiplet."""
    geom = pot.geometry
    ring = LimitRing(geom)
    for u in geom.labels:
        for v in geom.labels:
            got = limit_product_from_potential(pot, u, v)
            want = {lab: c for lab, c in ring.product(u, v).items() if c}
            if got != want:
                def render(vec):
                    if not vec:
                        return "0"
                    return " + ".join(
                        f"{format_rational(c)}*{format_label(lab)}"
                        for lab, c in sorted(
                            vec.items(), key=lambda kv: geom.label_index[kv[0]]
                        )
                    )

                detail = (
                    f"{format_label(u)} o {format_label(v)}: "
                    f"potential gives {render(got)}, ring gives {render(want)}"
                )
                return CheckReport("limit-product", False, detail)
    return CheckReport("limit-product", True)
