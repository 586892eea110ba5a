"""Multiplets, flat coordinate labels, grading data and the flat pairing.

A multiplet A = (a_1 <= ... <= a_r), r >= 3, a_i >= 2, determines a
Frobenius structure of rank mu = 2 + sum(a_i - 1) and dimension one whose
flat coordinates carry three kinds of labels:

* ``UNIT``            the coordinate dual to the unit field (degree 1),
* ``Twisted(i, j)``   one coordinate per sector i = 1..r and 1 <= j < a_i,
                      of degree (a_i - j)/a_i,
* ``POINT``           the last coordinate.  It is not quasi-homogeneous
                      itself (the Euler field shifts it by the constant
                      chi), so it gets degree 0 by convention and the
                      series layer books the grading of its exponential as
                      chi per order.

UNIT and POINT are the two instances of one label class, each printed as
its name.  Every label pairs with exactly one other (UNIT with POINT,
(i, j) with (i, a_i - j)); methods taking labels raise ValueError, through
check_label, on a label outside the multiplet.

The tuple of deformation parameters attached to the r special points is
deliberately not part of this data: rank, grading, pairing and all
reconstruction formulas depend on the orders alone, so carrying the points
around would only suggest a dependence that does not exist.

There is one immutable Geometry per multiplet; build it with
build_geometry.  Tables derived from it are memoised by the functions
that compute them and never stored on it: the derivative profiles and
key layouts keyed by the geometry, the packed derivative shifts, the
solver's quad plans and the fallback's socket table keyed by a layout.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .rationals import QQ, parse_natural


class _Label:
    """Singleton label of an untwisted coordinate; its repr is its name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


UNIT = _Label("UNIT")
POINT = _Label("POINT")


@dataclass(frozen=True)
class Twisted:
    """Label of the j-th twisted coordinate of sector i (both 1-based)."""

    sector: int
    j: int

    def __repr__(self):
        return format_label(self)


def format_label(label) -> str:
    """Human/file form of a coordinate label: "t1", "(i,j)" or "tmu"."""
    if label is UNIT:
        return "t1"
    if label is POINT:
        return "tmu"
    return f"({label.sector},{label.j})"


@dataclass(frozen=True)
class Multiplet:
    """Orders (a_1, ..., a_r) with r >= 3, each a_i >= 2, non-decreasing."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(a) for a in self.orders)
        object.__setattr__(self, "orders", orders)
        if len(orders) < 3:
            raise ValueError(f"need at least 3 orders, got {orders}")
        if any(a < 2 for a in orders):
            raise ValueError(f"every order must be >= 2, got {orders}")
        if any(a > b for a, b in zip(orders, orders[1:])):
            raise ValueError(f"orders must be sorted non-decreasingly, got {orders}")

    @classmethod
    def parse(cls, text: str) -> "Multiplet":
        """Parse a comma separated list of ASCII numerals such as "2,3,7"."""
        what = f"order in multiplet {text!r}"
        return cls(tuple(parse_natural(part.strip(), what) for part in text.split(",")))

    @property
    def r(self) -> int:
        return len(self.orders)

    def __str__(self):
        return ",".join(str(a) for a in self.orders)


class MultipletClass(enum.Enum):
    GENERAL = "general"
    SEMI_GENERAL = "semi-general"
    NON_GENERAL = "non-general"


def classify(multiplet: Multiplet) -> MultipletClass:
    """Three-way classification by the number of leading orders equal to 2.

    general: a_2 >= 3; semi-general: a_1 = a_2 = 2 < a_3; non-general:
    a_1 = a_2 = a_3 = 2.  The three classes partition all valid multiplets.
    """
    a = multiplet.orders
    if a[1] >= 3:
        return MultipletClass.GENERAL
    if a[2] >= 3:
        return MultipletClass.SEMI_GENERAL
    return MultipletClass.NON_GENERAL


class Geometry:
    """Rank, Euler number, canonical label order, degrees and the pairing.

    Canonical label order is (UNIT, Twisted(1,1), ..., Twisted(1,a_1-1),
    ..., Twisted(r,a_r-1), POINT); every serialisation and matrix indexing
    in the package uses it, so outputs are deterministic.
    """

    def __init__(self, multiplet: Multiplet):
        self.multiplet = multiplet
        orders = multiplet.orders
        self.mu = 2 + sum(a - 1 for a in orders)
        self.chi = QQ(2) + sum(QQ(1, a) - 1 for a in orders)

        self.twisted: tuple[Twisted, ...] = tuple(
            Twisted(i, j)
            for i, a in enumerate(orders, start=1)
            for j in range(1, a)
        )
        self.labels: tuple = (UNIT,) + self.twisted + (POINT,)
        self.n_twisted = len(self.twisted)
        self.slot = {lab: s for s, lab in enumerate(self.twisted)}
        self.label_index = {lab: k for k, lab in enumerate(self.labels)}

        # Integer-scaled degrees (denominators cleared by lcm of the
        # orders) so that grading checks are pure integer arithmetic.
        self.scale = math.lcm(*orders)
        self.deg_scaled = tuple(
            (orders[lab.sector - 1] - lab.j) * self.scale // orders[lab.sector - 1]
            for lab in self.twisted
        )
        self.chi_scaled = int(self.chi * self.scale)

        # Each label sigma pairs with exactly one tau: the inverse pairing
        # has the integer entry eta^(sigma,tau) = w, and eta(sigma,tau) = 1/w.
        pairs = [(UNIT, POINT, 1), (POINT, UNIT, 1)]
        for lab in self.twisted:
            a = orders[lab.sector - 1]
            pairs.append((lab, Twisted(lab.sector, a - lab.j), a))
        self.eta_inverse_pairs: tuple = tuple(pairs)
        self.eta = {(sigma, tau): QQ(1, w) for sigma, tau, w in pairs}

    # -- basic data ----------------------------------------------------

    @property
    def orders(self) -> tuple[int, ...]:
        return self.multiplet.orders

    @property
    def r(self) -> int:
        return self.multiplet.r

    def order(self, sector: int) -> int:
        return self.multiplet.orders[sector - 1]

    def check_label(self, label) -> None:
        if label not in self.label_index:
            raise ValueError(f"label {label!r} is not valid for multiplet {self.multiplet}")

    def degree(self, label):
        """Quasi-homogeneous degree: 1 for UNIT, (a_i-j)/a_i, 0 for POINT."""
        self.check_label(label)
        return QQ(self.degree_scaled(label), self.scale)

    def degree_scaled(self, label) -> int:
        if label is UNIT:
            return self.scale
        if label is POINT:
            return 0
        return self.deg_scaled[self.slot[label]]

    # -- pairing -------------------------------------------------------

    def pairing(self, u, v):
        """The flat bilinear form eta: its entry in self.eta, else 0."""
        self.check_label(u)
        self.check_label(v)
        return self.eta.get((u, v), QQ(0))

    def __repr__(self):
        return f"Geometry({self.multiplet}, mu={self.mu}, chi={self.chi})"


_geometry = functools.cache(Geometry)


def build_geometry(multiplet) -> Geometry:
    """Validate the multiplet and return its one shared geometry."""
    if isinstance(multiplet, str):
        multiplet = Multiplet.parse(multiplet)
    elif not isinstance(multiplet, Multiplet):
        multiplet = Multiplet(tuple(multiplet))
    return _geometry(multiplet)
