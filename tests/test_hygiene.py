"""No dead helpers: every top-level definition of the program is used.

A top-level ``def`` or ``class`` under ``src/macdonald`` must be referenced
by some program module (its own included), exported by ``__init__``, named
by a ``[project.scripts]`` entry, or hooked by the benchmark's tracer
(``perfbench/layers.py``, read here without importing it).  A helper that
only tests call is dead code: tests inline what it computed.  The source is
read with ``ast`` alone, so nothing is imported or run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "macdonald"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _referenced(trees: dict[str, ast.Module]) -> set[str]:
    """Names read, or imported by name, anywhere in a program module."""
    names = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _exported(init: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def _scripts() -> set[str]:
    """The functions that ``[project.scripts]`` entries of pyproject.toml name."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    if section is None:
        return set()
    return set(re.findall(r'"macdonald\.\w+:(\w+)"', section.group(1)))


def _hooked() -> set[str]:
    """The top-level names that ``Hook(module, path)`` entries wrap."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Hook" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value.split(".")[0])
    return names


def dead_definitions() -> list[str]:
    trees = _trees()
    used = (_referenced(trees) | _exported(trees["__init__"]) | _scripts()
            | _hooked())
    return [f"{module}.{node.name}"
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in used]


def test_every_top_level_definition_is_used():
    assert dead_definitions() == []


def test_the_sources_of_every_use_are_read():
    # guards against a check that passes because it read nothing
    assert {"cli", "qt", "ramyip", "__init__"} <= set(_trees())
    assert "entry" in _scripts()
    assert {"_walk_term_raw", "class_sum", "ContentAccumulator"} <= _hooked()
    assert {"ram_yip_sum", "verify_all_classes"} <= _exported(_trees()["__init__"])
