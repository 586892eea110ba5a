"""Canonical text formats: potential files, trace files, key queries.

Both files are line oriented and fully deterministic, and spell a
coefficient as one "key | value" record (format_record).  The potential
file sorts its records by order, length, exponents (rationals in lowest
terms; zero coefficients omitted), so equal coefficient maps serialize
to identical bytes and golden files diff cleanly:

    frobenius-potential v1
    multiplet: 2,2,3
    mode: standard
    max-order: 3
    coefficients: 17
    (1,1)^1 (2,1)^1 (3,1)^1 | m=1 | 1
    ...

The trace lists the pairing's cubic terms, the seeds of seed_entries, each
solved coefficient with its equation in solving order, and the free ones:

    reconstruction-trace: multiplet=2,2,3 mode=vanishing-no-quartic
    seed | t1^2 tmu^1 | 1/2 | pairing
    seed | (3,1)^3 | m=0 | 1/18 | limit-cubic
    solve | (3,1)^2 | m=2 | 0 | quad=((1,1),(1,1),tmu,tmu) | extract=(3,1)^2 | m=2 | slope=4
    free | (1,1)^4 | m=0
"""

from __future__ import annotations

import re
from pathlib import Path

from .geometry import UNIT, Geometry, build_geometry, format_label, format_quad
from .rationals import format_rational, parse_natural, parse_rational
from .series import (
    Potential,
    SeedMode,
    SeriesKey,
    alpha_from_pairs,
    format_key,
    key_sort_key,
    pairing_entries,
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


def format_record(geom: Geometry, key: SeriesKey, value) -> str:
    """One coefficient as "exponents | m=order | value"."""
    return f"{format_key(geom, key)} | {format_rational(value)}"


def serialize_potential(pot: Potential) -> str:
    if not pot.sealed:
        raise ValueError("only sealed potentials are serialized")
    geom = pot.geometry
    records = pot.items_sorted()
    lines = [
        MAGIC,
        f"multiplet: {geom.multiplet}",
        f"mode: {pot.seed_mode.token()}",
        f"max-order: {pot.max_order}",
        f"coefficients: {len(records)}",
    ]
    lines += (format_record(geom, key, value) for key, value in records)
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


def serialize_trace(trace) -> str:
    geom = trace.geometry
    lines = [f"reconstruction-trace: multiplet={geom.multiplet} mode={trace.mode.token()}"]
    for sigma, tau, value in pairing_entries(geom):
        # UNIT pairs with POINT only; t1 t_(i,j)^2 reads t1^1 (i,j)^1 (i,j)^1.
        head = "t1^2" if sigma is UNIT else f"t1^1 {format_label(sigma)}^1"
        lines.append(f"seed | {head} {format_label(tau)}^1 | {format_rational(value)} | pairing")
    for key, value, family in trace.seeds:
        lines.append(f"seed | {format_record(geom, key, value)} | {family}")
    for step in trace.steps:
        lines.append(
            f"solve | {format_record(geom, step.target, step.value)} | quad={format_quad(step.quad)}"
            f" | extract={format_key(geom, step.xkey)} | slope={format_rational(step.slope)}"
        )
    lines += (f"free | {format_key(geom, key)}" for key in trace.free)
    return "\n".join(lines) + "\n"


def write_trace(trace, path) -> None:
    Path(path).write_text(serialize_trace(trace), encoding="utf-8")


def diff_potentials(pot1: Potential, pot2: Potential):
    """First difference between two coefficient maps, or None.

    Returns (description, key) with keys compared in canonical order;
    absent coefficients count as 0.  Multiplets must match to compare.
    Only orders up to the smaller max_order are compared: a potential
    knows nothing above its own max_order.
    """
    g1, g2 = pot1.geometry, pot2.geometry
    if g1.multiplet != g2.multiplet:
        return (f"multiplets differ: {g1.multiplet} vs {g2.multiplet}", None)
    top = min(pot1.max_order, pot2.max_order)
    keys = [key for key in pot1.coeffs.keys() | pot2.coeffs.keys() if key.m <= top]
    for key in sorted(keys, key=key_sort_key):
        v1 = pot1.get_coefficient(key)
        v2 = pot2.get_coefficient(key)
        if v1 != v2:
            return (
                f"{format_key(g1, key)}: {format_rational(v1)} vs {format_rational(v2)}",
                key,
            )
    return None
