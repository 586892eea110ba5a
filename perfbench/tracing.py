"""Span tracing of the orbifrob layers, applied from outside the package.

The tracer rebinds public functions of the package to timing wrappers in
every ``orbifrob`` module namespace that holds them (a name imported with
``from .series import exponents_with_scaled_degree`` is a separate binding
in ``reconstruct`` and ``wdvv``), and restores the originals afterwards.
Nothing inside the package changes, so an untraced run executes exactly
the code a user runs.

Spans (name, start, end, parent, operation id) are kept in flat arrays in
memory and written out once, when the run ends.  A span's self time is
its duration minus the time covered by its child spans.  A probe point
whose target no longer exists (after a refactor) is reported as absent:
its metrics are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

# (span name, module, attribute path, kind).  kind "call" times a call,
# "gen" times each resume of a generator.  Span names are the layer
# prefixes of the per-layer metrics.
PROBES = (
    ("geometry.build", "orbifrob.geometry", "build_geometry", "call"),
    ("series.enum", "orbifrob.series", "exponents_with_scaled_degree", "call"),
    ("series.dmap", "orbifrob.series", "Potential.third_derivative_map", "call"),
    ("series.set", "orbifrob.series", "Potential.set_coefficient", "call"),
    ("reconstruct.probe", "orbifrob.reconstruct", "probe_candidate", "call"),
    ("reconstruct.fallback", "orbifrob.reconstruct", "exhaustive_candidates", "gen"),
    ("reconstruct.schedule", "orbifrob.reconstruct", "build_schedule", "call"),
    ("reconstruct.worklist", "orbifrob.reconstruct", "reconstruct", "call"),
    ("wdvv.scan", "orbifrob.wdvv", "residual_scan", "call"),
    ("wdvv.targets", "orbifrob.wdvv", "admissible_targets", "call"),
    ("formats.write", "orbifrob.formats", "write_potential", "call"),
    ("formats.write", "orbifrob.formats", "write_trace", "call"),
    ("formats.read", "orbifrob.formats", "read_potential", "call"),
    ("cli.main", "orbifrob.cli", "main", "call"),
)
# Every public check_* function of this module is traced as "verify.check".
CHECK_MODULE = "orbifrob.verify"

_BOUNDED = "series.enum_bounded"


class Tracer:
    """Span store plus the counters read from return values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.present: set[str] = set()
        self._restore: list = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.op_id][key] += n

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        """Rebind every probe target; missing targets are recorded absent."""
        for span, module_name, path, kind in PROBES:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            self.present.add(span)
            wrapper = self._wrap(span, attr, original, kind)
            if owner_name:
                self._rebind_attr(owner, attr, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)
        module = sys.modules.get(CHECK_MODULE)
        for attr, original in sorted(vars(module).items()) if module else ():
            if attr.startswith("check_") and callable(original):
                self.present.add("verify.check")
                self._rebind_everywhere(
                    original, self._wrap("verify.check", attr, original, "call")
                )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind_attr(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "orbifrob" and not mod_name.startswith("orbifrob."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebind_attr(module, attr, wrapper)

    def _wrap(self, span: str, attr: str, fn, kind: str):
        nid = self.intern(span)
        on_result = _RESULT_HOOKS.get(attr)
        tracer = self

        if kind == "gen":

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.count("reconstruct.fallback_candidates")
                    yield item

            return traced_gen

        if attr == "exponents_with_scaled_degree":
            bounded_nid = self.intern(_BOUNDED)

            @functools.wraps(fn)
            def traced_enum(*args, **kwargs):
                bound = args[2] if len(args) > 2 else kwargs.get("bound")
                idx = tracer.open(nid if bound is None else bounded_nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.count("series.enum_vectors", len(result))
                return result

            return traced_enum

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # -- reading the spans ---------------------------------------------------

    def op_times(self, op_id: int) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive time, self time and call count per span name for one op.

        Inclusive time counts only spans without an ancestor of the same
        name, so nested or recursive calls are not counted twice.
        """
        n = len(self.name)
        child = [0.0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0 and self.op[idx] == op_id:
                child[p] += self.end[idx] - self.start[idx]
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx in range(n):
            if self.op[idx] != op_id:
                continue
            nid = self.name[idx]
            name = self.names[nid]
            dur = self.end[idx] - self.start[idx]
            calls[name] += 1
            own[name] += dur - child[idx]
            p = self.parent[idx]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                inclusive[name] += dur
        return inclusive, own, calls

    def write(self, path: str) -> None:
        """Write the span-name table as one JSON line, then one tab-separated
        line per span: name id, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for idx in range(len(self.name)):
                out.write(
                    f"{self.name[idx]}\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}"
                    f"\t{self.parent[idx]}\t{self.op[idx]}\n"
                )


def _probe_status(tracer: Tracer, args, result) -> None:
    tracer.count(f"reconstruct.probe_{result.status}")


def _schedule_size(tracer: Tracer, args, result) -> None:
    tracer.count("reconstruct.schedule_entries", len(result))


def _scan_size(tracer: Tracer, args, result) -> None:
    tracer.count("wdvv.scan_quads", result.quads_checked)


def _written_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("formats.bytes", os.path.getsize(args[1]))


_RESULT_HOOKS = {
    "probe_candidate": _probe_status,
    "build_schedule": _schedule_size,
    "residual_scan": _scan_size,
    "write_potential": _written_bytes,
    "write_trace": _written_bytes,
}


# metric -> (unit, reading, source span, keys summed).  Readings: "calls"
# (spans opened), "inc" (inclusive seconds), "own" (self seconds) and
# "count" (counters read from return values).  A metric whose source span
# is absent is left out.
LAYER_METRICS = {
    "series.enum_calls": ("count", "calls", "series.enum", ("series.enum",)),
    "series.enum_bounded_calls": ("count", "calls", "series.enum", (_BOUNDED,)),
    "series.enum_vectors": ("count", "count", "series.enum", ("series.enum_vectors",)),
    "series.enum_s": ("s", "own", "series.enum", ("series.enum", _BOUNDED)),
    "reconstruct.probe_calls": ("count", "calls", "reconstruct.probe", ("reconstruct.probe",)),
    "reconstruct.probe_solved": (
        "count", "count", "reconstruct.probe", ("reconstruct.probe_solved",)),
    "reconstruct.probe_blocked": (
        "count", "count", "reconstruct.probe", ("reconstruct.probe_blocked",)),
    "reconstruct.probe_useless": (
        "count", "count", "reconstruct.probe", ("reconstruct.probe_useless",)),
    "reconstruct.probe_s": ("s", "own", "reconstruct.probe", ("reconstruct.probe",)),
    "reconstruct.fallback_candidates": (
        "count", "count", "reconstruct.fallback", ("reconstruct.fallback_candidates",)),
    "reconstruct.fallback_s": ("s", "inc", "reconstruct.fallback", ("reconstruct.fallback",)),
    "reconstruct.schedule_entries": (
        "count", "count", "reconstruct.schedule", ("reconstruct.schedule_entries",)),
    "reconstruct.schedule_s": ("s", "inc", "reconstruct.schedule", ("reconstruct.schedule",)),
    "reconstruct.worklist_s": ("s", "own", "reconstruct.worklist", ("reconstruct.worklist",)),
    "series.dmap_calls": ("count", "calls", "series.dmap", ("series.dmap",)),
    "series.dmap_s": ("s", "inc", "series.dmap", ("series.dmap",)),
    "wdvv.scan_quads": ("count", "count", "wdvv.scan", ("wdvv.scan_quads",)),
    "wdvv.scan_s": ("s", "own", "wdvv.scan", ("wdvv.scan",)),
    "wdvv.targets_calls": ("count", "calls", "wdvv.targets", ("wdvv.targets",)),
    "wdvv.targets_s": ("s", "inc", "wdvv.targets", ("wdvv.targets",)),
    "series.set_calls": ("count", "calls", "series.set", ("series.set",)),
    "geometry.build_calls": ("count", "calls", "geometry.build", ("geometry.build",)),
    "geometry.build_s": ("s", "inc", "geometry.build", ("geometry.build",)),
    "verify.checks_s": ("s", "inc", "verify.check", ("verify.check",)),
    "formats.write_s": ("s", "inc", "formats.write", ("formats.write",)),
    "formats.read_s": ("s", "inc", "formats.read", ("formats.read",)),
    "formats.bytes": ("B", "count", "formats.write", ("formats.bytes",)),
    "cli.self_s": ("s", "own", "cli.main", ("cli.main",)),
}


def layer_metrics(tracer: Tracer, op_ids: list[int]) -> tuple[dict, list[int]]:
    """Per-layer metrics over the traced ops: time medians, exact counts.

    Counts must repeat exactly; the second list holds the ops whose counts
    differ from the first traced op's, which the caller fails.
    """
    readings = {}
    for op_id in op_ids:
        inc, own, calls = tracer.op_times(op_id)
        readings[op_id] = {"inc": inc, "own": own, "calls": calls, "count": tracer.counts[op_id]}
    out: dict[str, dict] = {}
    mismatched: set[int] = set()
    for name, (unit, reading, source, keys) in LAYER_METRICS.items():
        if not op_ids or source not in tracer.present:
            continue
        values = {
            op_id: sum(tables[reading].get(key, 0) for key in keys)
            for op_id, tables in readings.items()
        }
        if unit == "s":
            value = statistics.median(values.values())
        else:
            value = values[op_ids[0]]
            mismatched.update(op_id for op_id, v in values.items() if v != value)
        out[name] = {"value": value, "unit": unit}
    if "reconstruct.probe_calls" in out:
        solved = out["reconstruct.probe_solved"]["value"]
        calls = out["reconstruct.probe_calls"]["value"]
        out["reconstruct.probe_yield"] = {"value": solved / max(calls, 1), "unit": "ratio"}
    return out, sorted(mismatched)
