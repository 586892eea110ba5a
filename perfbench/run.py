"""orbifrob benchmark: time to an exactly verified potential.

One operation is ``orbifrob reconstruct ... -o FILE --trace TRACE`` followed
by ``orbifrob verify FILE``, both driven in-process through
``orbifrob.cli.main``.  A single-threaded closed loop runs operations back
to back for ``--seconds`` seconds and checks every output (see checks.py).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # each in its own process
    python3 perfbench/run.py --smoke                      # tiny case, < 2 s

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the run's operations; sample counts are printed above it).
With ``--trace 1`` untraced and traced operations alternate and it reports
the per-layer metrics of tracing.py plus tracing_overhead_s.  Seed 0 runs
the standard seed mode; other seeds run rescaled:p/q (checks.seed_ratio).
Each run writes its metadata, per-operation records and (traced) spans
under perfbench/out/.  Run it from the root of a source checkout: it
imports the package from ./src and nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from checks import check_op, mode_token, seed_ratio, sha256
from tracing import Tracer, layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# name -> (multiplet, max order, strategy)
WORKLOADS = {
    "order0-444": ("4,4,4", 2, "guided"),
    "scan-237": ("2,3,7", 8, "guided"),
    "elliptic-333": ("3,3,3", 16, "guided"),
    "exhaustive-345": ("3,4,5", 3, "exhaustive"),
}
SMOKE = ("2,3,4", 3, "guided")
SETUP_SAMPLES = (4, 2)  # set-up samples before the first round, after each round

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import orbifrob.cli; "
    "from orbifrob.geometry import build_geometry; build_geometry(sys.argv[2])"
)


class Op:
    """Timings, output digest and failed checks of one operation."""

    def __init__(self, reconstruct_s, verify_s, digest, problems, traced):
        self.reconstruct_s = reconstruct_s
        self.verify_s = verify_s
        self.pipeline_s = reconstruct_s + verify_s
        self.digest = digest
        self.problems = problems
        self.traced = traced

    def record(self) -> dict:
        return dict(vars(self))


def load_package():
    """Import orbifrob from ./src of the checkout, or exit nonzero."""
    if not (SRC / "orbifrob" / "cli.py").is_file():
        sys.exit(f"error: {SRC}/orbifrob not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import orbifrob.cli

    if Path(orbifrob.cli.__file__).resolve().parent != (SRC / "orbifrob").resolve():
        sys.exit(f"error: imported orbifrob from {orbifrob.cli.__file__}, not {SRC}")
    return orbifrob.cli


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, seed, seconds, trace, ratio) -> dict:
    from orbifrob.rationals import QQ

    return {
        "workload": workload,
        "seed": seed,
        "mode": mode_token(ratio),
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "rational_backend": QQ.__module__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def measure_setup(multiplet: str, samples: int) -> list[float]:
    """Wall time of fresh interpreters importing orbifrob.cli and building
    the workload's geometry, the cost every CLI invocation pays."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), multiplet],
            cwd=ROOT,
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return times


class Outputs(NamedTuple):
    """What one reconstruct+verify operation returned, printed and wrote."""

    rc_rec: int
    rc_ver: int
    verify_out: str
    pot_text: str
    trace_text: str
    reconstruct_s: float
    verify_s: float


def execute(cli, case, ratio, workdir: Path) -> Outputs:
    """Run reconstruct then verify through the CLI, timing each step."""
    multiplet, m_max, strategy = case
    pot_path = workdir / "potential.txt"
    trace_path = workdir / "trace.txt"
    rec_args = [
        "reconstruct", "-A", multiplet, "-m", str(m_max), "--mode", mode_token(ratio),
        "--strategy", strategy, "-o", str(pot_path), "--trace", str(trace_path),
    ]
    rec_out, ver_out = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(rec_out):
        rc_rec = cli.main(rec_args)
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(ver_out):
        rc_ver = cli.main(["verify", str(pot_path)])
    t2 = time.perf_counter()
    pot_text = pot_path.read_text(encoding="utf-8") if pot_path.exists() else ""
    trace_text = trace_path.read_text(encoding="utf-8") if trace_path.exists() else ""
    return Outputs(rc_rec, rc_ver, ver_out.getvalue(), pot_text, trace_text, t1 - t0, t2 - t1)


def run_op(cli, case, ratio, golden, workdir: Path, traced: bool) -> Op:
    out = execute(cli, case, ratio, workdir)
    try:
        problems = check_op(case, ratio, out, golden)
    except (ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc}"]
    return Op(out.reconstruct_s, out.verify_s, sha256(out.pot_text), problems, traced)


def guarded_op(cli, case, ratio, golden, workdir, traced) -> Op:
    """run_op, with a crash inside the package counted as a failed op."""
    try:
        return run_op(cli, case, ratio, golden, workdir, traced)
    except Exception:  # the loop must go on and report the failure
        traceback.print_exc()
        return Op(0.0, 0.0, "", ["operation raised"], traced)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        gc.collect()


def run_loop(cli, case, ratio, golden, workdir, seconds, tracer, setup_samples):
    """Closed loop for `seconds`: untraced ops, or untraced/traced pairs.

    Untraced runs also take set-up samples: a few first, then some after
    each round, so that their median covers the same stretch of time as
    the operations.  A new round starts only when a typical (median) round
    so far still fits in the remaining time, so a run lasts about
    `seconds` and holds at least one round.  Returns the ops and set-up
    times.
    """
    ops: list[Op] = []
    first, per_round = (0, 0) if tracer is not None else setup_samples
    setup_times = measure_setup(case[0], first)
    rounds: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        ops.append(guarded_op(cli, case, ratio, golden, workdir, False))
        setup_times += measure_setup(case[0], per_round)
        if tracer is not None:
            tracer.op_id = len(ops)
            tracer.install()
            try:
                ops.append(guarded_op(cli, case, ratio, golden, workdir, True))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        rounds.append(now - t0)
        if now + statistics.median(rounds) > deadline:
            return ops, setup_times


def check_digests(ops: list[Op]) -> None:
    """All ops of a run (traced or not) must write the same potential."""
    reference = next((op.digest for op in ops if not op.problems), None)
    for op in ops:
        if not op.problems and op.digest != reference:
            op.problems.append("potential differs from the run's other operations")


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def end_to_end(ops: list[Op], setup_times: list[float]) -> dict:
    good = [op for op in ops if not op.problems] or ops
    return {
        "pipeline_s": median_metric([op.pipeline_s for op in good], "s"),
        "reconstruct_s": median_metric([op.reconstruct_s for op in good], "s"),
        "verify_s": median_metric([op.verify_s for op in good], "s"),
        "setup_s": median_metric(setup_times, "s"),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(ops: list[Op], tracer: Tracer) -> dict:
    traced_ids = [i for i, op in enumerate(ops) if op.traced and not op.problems]
    metrics, mismatched = layer_metrics(tracer, traced_ids)
    for i in mismatched:
        ops[i].problems.append("per-layer counts differ from the first traced op")
    plain = [op.pipeline_s for op in ops if not op.traced and not op.problems]
    traced = [op.pipeline_s for i, op in enumerate(ops) if i in traced_ids]
    if plain and traced:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def bench(cli, workload, case, seed, seconds, trace, golden, setup_samples=SETUP_SAMPLES) -> dict:
    ratio = seed_ratio(seed)
    meta = metadata(workload, seed, seconds, trace, ratio)
    print("meta:", json.dumps(meta))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        ops, setup_times = run_loop(
            cli, case, ratio, golden, workdir, seconds, tracer, setup_samples
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_digests(ops)
    metrics = per_layer(ops, tracer) if trace else end_to_end(ops, setup_times)
    failed = sum(1 for op in ops if op.problems)
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"FAILED op {i}: {problem}", file=sys.stderr)
    samples = {"setup_s": len(setup_times)}
    timed = sum(1 for op in ops if not op.traced and not op.problems)
    samples.update(pipeline_s=timed, reconstruct_s=timed, verify_s=timed)
    for name, metric in metrics.items():
        n = f" (median of {samples[name]})" if name in samples else ""
        print(f"{workload} {name}: {metric['value']:.6g} {metric['unit']}{n}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(
            {"meta": meta, "samples": samples, "ops": [op.record() for op in ops], **result},
            indent=1,
        )
    )
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{stem}.tsv"))
    return result


def smoke(cli, golden) -> int:
    """Both passes on a tiny case; checks gates and schema, not wall time."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(cli, "smoke", SMOKE, 0, 0, trace, golden["2,3,4 m=3"], (1, 0))
        want = {m["name"]: m["unit"] for m in declared[section]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        if got != want:
            problems.append(f"{section} metrics {sorted(got)} != declared {sorted(want)}")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: {result['failed']} of {result['attempted']} failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")

    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=True,
            )
        return 0
    cli = load_package()
    golden = json.loads((HERE / "golden.json").read_text())["cases"]
    if args.smoke:
        return smoke(cli, golden)
    case = WORKLOADS[args.workload]
    result = bench(
        cli, args.workload, case, args.seed, args.seconds, args.trace,
        golden[f"{case[0]} m={case[1]}"],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
