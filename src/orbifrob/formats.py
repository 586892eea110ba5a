"""Canonical text formats: potential files, trace files, key queries.

The potential file is line oriented and fully deterministic (records
sorted by order, length, exponents; rationals in lowest terms; zero
coefficients omitted), so equal coefficient maps serialize to identical
bytes and golden files diff cleanly:

    frobenius-potential v1
    multiplet: 2,2,3
    mode: standard
    max-order: 3
    coefficients: 17
    (1,1)^1 (2,1)^1 (3,1)^1 | m=1 | 1
    ...
"""

from __future__ import annotations

import re
from pathlib import Path

from .geometry import Geometry, build_geometry
from .rationals import format_rational, parse_natural, parse_rational
from .reconstruct import ReconstructionTrace, SeedMode, STANDARD
from .series import (
    Potential,
    SeriesKey,
    alpha_from_pairs,
    format_key,
    key_sort_key,
    zero_alpha,
)

MAGIC = "frobenius-potential v1"

_EXPONENT = re.compile(r"\(([0-9]+),([0-9]+)\)(?:\^([0-9]+))?")


def parse_exponents(geom: Geometry, text: str) -> tuple[int, ...]:
    """Parse "(i,j)^k ..." (or "1" for the empty monomial)."""
    text = text.strip()
    if text == "1":
        return zero_alpha(geom)
    pairs = []
    for token in text.split():
        match = _EXPONENT.fullmatch(token)
        if not match:
            raise ValueError(f"malformed exponent token {token!r}")
        i, j, k = int(match.group(1)), int(match.group(2)), match.group(3)
        pairs.append(((i, j), 1 if k is None else int(k)))
    try:
        return alpha_from_pairs(geom, pairs)
    except KeyError as exc:
        raise ValueError(f"exponent out of range in {text!r}") from exc


def parse_key_query(geom: Geometry, text: str) -> SeriesKey:
    """Parse a coefficient query such as "(1,1)^4 m=0"."""
    tokens = text.strip().split()
    if not tokens or not tokens[-1].startswith("m="):
        raise ValueError(f"query {text!r} must end with m=<order>")
    m = parse_natural(tokens[-1][2:], f"order in query {text!r}")
    alpha = parse_exponents(geom, " ".join(tokens[:-1]) or "1")
    return SeriesKey(alpha, m)


def serialize_potential(pot: Potential) -> str:
    if not pot.sealed:
        raise ValueError("only sealed potentials are serialized")
    geom = pot.geometry
    mode = pot.seed_mode if pot.seed_mode is not None else STANDARD
    records = pot.items_sorted()
    lines = [
        MAGIC,
        f"multiplet: {geom.multiplet}",
        f"mode: {mode.token()}",
        f"max-order: {pot.max_order}",
        f"coefficients: {len(records)}",
    ]
    for key, value in records:
        lines.append(f"{format_key(geom, key)} | {format_rational(value)}")
    return "\n".join(lines) + "\n"


def parse_potential(text: str) -> Potential:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != MAGIC:
        raise ValueError(f"not a potential file (expected {MAGIC!r} header)")

    def header(idx: int, name: str) -> str:
        if idx >= len(lines) or not lines[idx].startswith(name + ":"):
            raise ValueError(f"missing {name!r} header line")
        return lines[idx].partition(":")[2].strip()

    geom = build_geometry(header(1, "multiplet"))
    mode = SeedMode.from_token(header(2, "mode"))
    max_order = parse_natural(header(3, "max-order"), "max-order")
    count = parse_natural(header(4, "coefficients"), "coefficient count")
    records = lines[5:]
    if len(records) != count:
        raise ValueError(
            f"coefficient count mismatch: header says {count}, found {len(records)}"
        )
    pot = Potential(geom, mode)
    seen: set[SeriesKey] = set()
    for line in records:
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 3 or not parts[1].startswith("m="):
            raise ValueError(f"malformed record {line!r}")
        alpha = parse_exponents(geom, parts[0])
        m = parse_natural(parts[1][2:], f"order in record {line!r}")
        if m > max_order:
            raise ValueError(f"record order m={m} is outside 0..max-order {max_order}")
        value = parse_rational(parts[2])
        key = SeriesKey(alpha, m)
        if key in seen:
            raise ValueError(f"duplicate record for {parts[0]} | m={m}")
        seen.add(key)
        pot.set_coefficient(key, value)
    pot.seal(max_order)
    return pot


def write_potential(pot: Potential, path) -> None:
    Path(path).write_text(serialize_potential(pot), encoding="utf-8")


def read_potential(path) -> Potential:
    return parse_potential(Path(path).read_text(encoding="utf-8"))


def write_trace(trace: ReconstructionTrace, path) -> None:
    Path(path).write_text(trace.to_text(), encoding="utf-8")


def diff_potentials(pot1: Potential, pot2: Potential):
    """First difference between two coefficient maps, or None.

    Returns (description, key) with keys compared in canonical order;
    absent coefficients count as 0.  Multiplets must match to compare.
    """
    g1, g2 = pot1.geometry, pot2.geometry
    if g1.multiplet != g2.multiplet:
        return (f"multiplets differ: {g1.multiplet} vs {g2.multiplet}", None)
    for key in sorted(pot1.coeffs.keys() | pot2.coeffs.keys(), key=key_sort_key):
        v1 = pot1.get_coefficient(key)
        v2 = pot2.get_coefficient(key)
        if v1 != v2:
            return (
                f"{format_key(g1, key)}: {format_rational(v1)} vs {format_rational(v2)}",
                key,
            )
    return None
