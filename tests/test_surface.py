"""The package surface stays in use: every name defined in src has a caller
or a stated reason, README's library quick start runs, and the package
namespace gives each public name from the module that defines it."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orbifrob"

# Names no program path calls, each kept on purpose.
KEPT = {
    "_Package": "the package's own module class, used only in __init__, which this scan skips",
    "check_sector_universality": "a library check of the sector potentials that no CLI check runs",
    "s_factor": "the tests' reference for the limit-cubic seed values",
    "wdvv_coefficient": "the tests' way into the kernel on a complete store",
}


def _defined():
    """Each top-level function and class of src, and each non-dunder
    method of those classes, as a name or Class.method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}"


def _named(paths):
    """Every identifier an ast.Name or ast.Attribute spells in paths."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _probed():
    """Every part of the dotted strings in perfbench's PROBES table."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PROBES"]
    ]
    return {
        part
        for node in ast.walk(table)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }


def test_every_src_name_has_a_caller_or_a_reason():
    used = (
        _named(p for p in SRC.glob("*.py") if p.name != "__init__.py")
        | _named((ROOT / "perfbench").glob("*.py"))
        | _probed()
        | _named((ROOT / "demos").glob("*.py"))
    )
    unused = {name for name in _defined() if name.rpartition(".")[2] not in used}
    assert unused == set(KEPT)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["-1/96"]
    assert (tmp_path / "pot-234.txt").is_file()


# The package's public names by defining module, in the order of __all__.
EXPORTS = {
    "geometry": [
        "Geometry", "Multiplet", "MultipletClass", "POINT", "Twisted", "UNIT",
        "build_geometry", "classify", "format_label",
    ],
    "rationals": ["QQ", "format_rational", "parse_rational"],
    "series": [
        "Potential", "STANDARD", "SeedMode", "SeriesKey", "VANISHING", "VANISHING_NO_QUARTIC",
        "admissible_keys", "alpha_from_pairs", "format_exponents", "format_key",
        "is_admissible", "pairing_entries", "rescaled_mode", "s_factor", "seed_entries",
        "weighted_degree", "zero_alpha",
    ],
    "wdvv": ["ResidualReport", "WdvvQuad", "admissible_targets", "residual_scan"],
    "reconstruct": [
        "InconsistentSeed", "NoProgress", "ReconstructionError", "ReconstructionTrace",
        "SolverStuck", "build_schedule", "exhaustive_candidates", "guided_candidates",
        "probe_candidate", "reconstruct", "rescale_novikov", "seed", "wdvv_coefficient",
    ],
    "verify": [
        "CheckReport", "LimitRing", "check_euler", "check_limit_product",
        "check_sector_universality", "check_seeds", "check_selection", "check_separation",
        "check_symmetry", "check_vanishing", "sector_restriction",
    ],
    "formats": [
        "diff_potentials", "parse_key_query", "parse_potential", "read_potential",
        "serialize_potential", "write_potential", "write_trace",
    ],
}

# Loads the solver's submodule first, then prints what the package
# namespace resolves, as JSON.
_NAMESPACE = """
import importlib, json, sys
from orbifrob.reconstruct import contract_at
import orbifrob
import orbifrob.reconstruct as R
solver = sys.modules["orbifrob.reconstruct"].reconstruct
exports = json.loads(sys.argv[1])
try:
    from orbifrob import nope
    nope_error = None
except ImportError as exc:
    nope_error = type(exc).__name__
from orbifrob import wdvv
print(json.dumps({
    "solver": [orbifrob.reconstruct is solver, R is solver],
    "all": orbifrob.__all__,
    "foreign": [
        name for module, names in exports.items() for name in names
        if getattr(orbifrob, name) is not vars(importlib.import_module("orbifrob." + module))[name]
    ],
    "wdvv": wdvv is sys.modules["orbifrob.wdvv"],
    "nope": nope_error,
    "undir": sorted(set(orbifrob.__all__) - set(dir(orbifrob))),
}))
"""


def test_package_namespace_resolves_each_name_from_its_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NAMESPACE, json.dumps(EXPORTS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    facts = json.loads(done.stdout)
    assert facts["solver"] == [True, True]
    assert facts["all"] == [name for names in EXPORTS.values() for name in names]
    assert len(facts["all"]) == 64
    assert facts["foreign"] == []
    assert facts["wdvv"] is True
    assert facts["nope"] == "ImportError"
    assert facts["undir"] == []
