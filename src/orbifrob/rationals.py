"""Exact rational arithmetic backend.

Every coefficient in this package is an exact rational; no floating point
enters the core anywhere.  gmpy2's mpq is used when available, with a
transparent fallback to fractions.Fraction.  The backend matters where QQ
arithmetic runs: in parsing, and in the probe kernel
(reconstruct.contract_at), which sums each term as integers per
denominator and builds one QQ per coefficient when it returns.  The
residual scan convolves Python integers, scaled per key length from the
cleared numerators of the store, so it meets QQ only when it reads the
store and when it reports a residual.  Both types normalise to lowest
terms with a positive denominator and print as "p/q" (or "p" for
integers), which is exactly the wire format of the potential files.
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ


def format_rational(value) -> str:
    """Render in lowest terms: "p/q" with q > 0, plain "p" for integers."""
    return str(QQ(value))


_NATURAL = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_natural(text: str, what: str) -> int:
    """Parse a non-negative integer written in ASCII digits (orders, counts,
    exponents); what names the field in the error message."""
    if not _NATURAL.fullmatch(text):
        raise ValueError(f"malformed {what}: {text!r}")
    return int(text)


def parse_rational(text: str):
    """Parse "p" or "p/q" in ASCII digits, q > 0; raises ValueError otherwise."""
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise ValueError(f"malformed rational {text!r}")
    num, den = match.groups()
    if den is None:
        return QQ(int(num))
    if int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return QQ(int(num), int(den))
