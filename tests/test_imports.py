"""Every name a module imports is used in that module.

The scan covers ``src/repro``, the top-level ``tests/*.py``, and
``scripts/``, ``examples/`` and ``benchmarks/``.  It is an ``ast``
scan, no import of the package: a module's imported names
(``import a.b`` binds ``a``; ``from m import x as y`` binds ``y``)
must each appear as a name somewhere in the module's code, string
annotations included.  ``__init__.py`` files are exempt (their imports
are the package's re-exports), as are ``__future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
MODULES = sorted(p for p in (
    *SRC.rglob("*.py"), *(ROOT / "tests").glob("*.py"),
    *(ROOT / "scripts").rglob("*.py"), *(ROOT / "examples").rglob("*.py"),
    *(ROOT / "benchmarks").rglob("*.py")) if p.name != "__init__.py")


def module_id(path: Path) -> str:
    """A module's path below ``src/repro``, else below the repo root."""
    return path.relative_to(SRC if SRC in path.parents else ROOT) \
        .as_posix()


def imported_names(tree: ast.AST) -> dict[str, int]:
    """``{bound name: line}`` of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` loads, including those inside string
    annotations (``-> "ScheduledDemand"``)."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            arguments = node.args
            annotations += [a.annotation for a in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg)
                if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{module_id(path)} imports unused {unused}"
