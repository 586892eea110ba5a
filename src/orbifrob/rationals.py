"""Exact rational arithmetic backend.

Every coefficient in this package is an exact rational; no floating point
enters the core anywhere.  gmpy2's mpq is used when available (it is
several times faster inside the convolution loops), with a transparent
fallback to fractions.Fraction.  Both types normalise to lowest terms with
a positive denominator and print as "p/q" (or "p" for integers), which is
exactly the wire format required by the potential files.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ


def format_rational(value) -> str:
    """Render in lowest terms: "p/q" with q > 0, plain "p" for integers."""
    return str(QQ(value))


def parse_rational(text: str):
    """Parse "p" or "p/q"; raises ValueError on malformed input."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational")
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return QQ(int(num), d)
    return QQ(int(text))
