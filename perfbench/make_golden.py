"""Record the golden digests and size counts in perfbench/golden.json.

    python3 perfbench/make_golden.py

Run from the root of a checkout.  Each case is reconstructed in standard
mode with the guided strategy and verified; the exhaustive workload is
checked against the same entry as its guided counterpart.  Regenerate
only when a change is meant to alter the potential files or these counts.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from checks import sha256, size_counts
from run import HERE, SMOKE, WORKLOADS, execute, git_commit, load_package


def record(cli, multiplet: str, m_max: int, tmp: Path) -> dict:
    out = execute(cli, (multiplet, m_max, "guided"), Fraction(1), tmp)
    if out.rc_rec or out.rc_ver or "nonzero-residuals: 0" not in out.verify_out.splitlines():
        raise SystemExit(f"{multiplet} -m {m_max}: reconstruct or verify failed")
    return {"sha256": sha256(out.pot_text), **size_counts(out.pot_text, out.trace_text, out.verify_out)}


def main() -> int:
    cli = load_package()
    cases = sorted({case[:2] for case in WORKLOADS.values()} | {SMOKE[:2]})
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        golden = {f"{mult} m={m}": record(cli, mult, m, Path(tmp)) for mult, m in cases}
    out = {"commit": git_commit(), "cases": golden}
    (HERE / "golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
