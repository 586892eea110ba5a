"""Output checks of one benchmark operation, in the benchmark's own code.

Nothing here imports orbifrob: the potential file is read as text and its
rationals with ``fractions.Fraction``, so a defect in the package's parser
or formatter cannot hide a wrong result from these checks.
"""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

# Seed 0 runs the standard seed mode.  Any other seed runs rescaled:p/q
# with p/q drawn from these small ratios; by rescaling covariance every
# order-m coefficient is then the standard one times (p/q)^m.  All have
# |p/q| = 2: the inputs differ between seeds but the size of the exact
# rationals does not (a ratio like 2/3 makes verify 1.5x slower at m=16).
_RATIOS = ((2, 1), (1, 2), (-2, 1), (-1, 2))


def seed_ratio(seed: int) -> Fraction:
    """Degree-one seed value for a workload seed: 1 at seed 0."""
    if seed == 0:
        return Fraction(1)
    p, q = random.Random(seed).choice(_RATIOS)
    return Fraction(p, q)


def mode_token(ratio: Fraction) -> str:
    return "standard" if ratio == 1 else f"rescaled:{ratio}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalize(text: str, ratio: Fraction) -> tuple[str, dict[tuple[str, int], Fraction]]:
    """Undo the rescaling of a potential file.

    Divides each order-m coefficient by ratio^m and rewrites the mode
    header as standard.  Returns the rewritten canonical text and its
    coefficient map keyed by (monomial text, m).
    """
    lines = text.splitlines()
    if len(lines) < 5 or not lines[2].startswith("mode: "):
        raise ValueError("potential file has no mode header")
    header = lines[:5]
    header[2] = "mode: standard"
    records = []
    coeffs: dict[tuple[str, int], Fraction] = {}
    for line in lines[5:]:
        mono, order, value = (part.strip() for part in line.split("|"))
        m = int(order.removeprefix("m="))
        c = Fraction(value) / ratio**m
        coeffs[(mono, m)] = c
        records.append(f"{mono} | m={m} | {c}")
    return "\n".join(header + records) + "\n", coeffs


def kronecker3(d: int) -> int:
    """The character (d/3): 0, 1 or -1 as d is 0, 1 or 2 mod 3."""
    return (0, 1, -1)[d % 3]


def elliptic_333_product(m: int) -> int:
    """Coefficient of t_{1,1} t_{2,1} t_{3,1} e^{m tmu} for A = (3,3,3).

    The divisor sum over d | m of (d/3) when m = 1 mod 3, else 0
    (Satake-Takahashi, arXiv:1103.0951).
    """
    if m % 3 != 1:
        return 0
    return sum(kronecker3(d) for d in range(1, m + 1) if m % d == 0)


_QUADS = re.compile(r"^quads-checked: (\d+)$", re.M)


def count_quads(verify_out: str) -> int:
    """The quad count verify printed, or -1 when it printed none."""
    found = _QUADS.search(verify_out)
    return int(found.group(1)) if found else -1


def size_counts(pot_text: str, trace_text: str, verify_out: str) -> dict[str, int]:
    """Deterministic sizes of one operation's outputs.

    stored counts every coefficient the solver stored (seeded or solved,
    zeros included), nonzero the records of the potential file.
    """
    trace = trace_text.splitlines()
    seeds = sum(1 for line in trace if line.startswith("seed |") and not line.endswith("| pairing"))
    solves = sum(1 for line in trace if line.startswith("solve |"))
    return {
        "stored": seeds + solves,
        "solve_steps": solves,
        "nonzero": int(pot_text.splitlines()[4].removeprefix("coefficients: ")),
        "scan_quads": count_quads(verify_out),
        "bytes": len(pot_text.encode("utf-8")),
    }


def check_op(case, ratio, out, golden):
    """Every failed check of one reconstruct+verify operation, as text.

    case is (multiplet, m, strategy); out holds the exit codes, verify's
    stdout and the written potential and trace texts; golden holds the seed-commit digest
    and size counts of the standard potential for (multiplet, m), which
    the exhaustive strategy must reproduce too.
    """
    multiplet, m_max, _strategy = case
    pot_text = out.pot_text
    problems = []
    if out.rc_rec != 0:
        problems.append(f"reconstruct exit code {out.rc_rec}")
    if out.rc_ver != 0:
        problems.append(f"verify exit code {out.rc_ver}")
    if "nonzero-residuals: 0" not in out.verify_out.splitlines():
        problems.append("verify did not print nonzero-residuals: 0")
    if problems:
        return problems

    counts = size_counts(pot_text, out.trace_text, out.verify_out)
    if ratio != 1:
        del counts["bytes"]  # longer rationals; the digest check below covers it
    elif sha256(pot_text) != golden["sha256"]:
        problems.append("potential file differs from the golden digest")
    for name, value in counts.items():
        if value != golden[name]:
            problems.append(f"{name} is {value}, golden {golden[name]}")

    normalized, coeffs = normalize(pot_text, ratio)
    if sha256(normalized) != golden["sha256"]:
        problems.append(f"rescaling covariance fails: file / ({ratio})^m != golden")
    if multiplet == "3,3,3":
        mono = "(1,1)^1 (2,1)^1 (3,1)^1"
        for m in range(1, m_max + 1):
            got = coeffs.get((mono, m), 0)
            if got != elliptic_333_product(m):
                problems.append(f"{mono} m={m} is {got}, closed form {elliptic_333_product(m)}")
    return problems
