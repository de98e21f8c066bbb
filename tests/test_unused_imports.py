"""No module imports a name it never uses.

The check reads every non-``__init__`` module under ``src/repro``,
``tests/``, ``benchmarks/``, ``scripts/`` and ``examples/`` as an AST and
never imports anything.  ``perfbench/`` is left out: it is the benchmark
harness, which stays byte-stable between the commits it compares.  An
imported name counts as used when the module refers to it anywhere: as a
plain name, as the base of an attribute access, inside a quoted annotation
(``-> "Tensor"``) or in ``__all__``.
Package ``__init__`` files are left out, because their imports are the
re-exports that make up the package's surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
SCRIPT_DIRS = ("tests", "benchmarks", "scripts", "examples")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line, for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(annotation) -> set:
    """Names an annotation refers to, quoted parts parsed as expressions."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _referenced(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
        for annotation in annotations:
            if annotation is not None:
                names |= _annotation_names(annotation)
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` of every import ``source`` never refers to."""
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def _unused_in(paths) -> list:
    return [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text())
    ]


def test_library_modules_use_every_import():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 50
    unused = _unused_in(modules)
    assert unused == [], "imported but never used:\n" + "\n".join(unused)


def test_tests_and_programs_use_every_import():
    files = [
        path
        for directory in SCRIPT_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(files) > 100
    unused = _unused_in(files)
    assert unused == [], "imported but never used:\n" + "\n".join(unused)


def test_check_reads_quoted_annotations_and_flags_dead_imports():
    source = (
        "from typing import Optional, Tuple\n"
        "import numpy as np\n"
        "def f(x: 'Optional[int]') -> 'np.ndarray':\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(1, "Tuple")]
