"""The package surface stays in use: every name defined in src has a caller
or a stated reason, and README's library quick start runs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orbifrob"

# Names no program path calls, each kept on purpose.
KEPT = {
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
