"""The benchmark's smoke mode runs from the repository root and passes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    # Runs 2,3,4 -m 3 through the untraced and traced passes and checks the
    # result schema against BENCHMARK.json; it writes only perfbench/out/.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "smoke: ok" in done.stdout.splitlines()
