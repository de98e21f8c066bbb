"""Every library module is reached by a program.

The programs are the ``python -m repro`` entry point and the files under
``benchmarks/``, ``scripts/`` and ``perfbench/``; tests and examples are
not programs.  The walk reads imports from source (ASTs, nested imports
included) and never imports anything.  ``from pkg import name`` reaches
the submodule that defines ``name``, found through the package
``__init__``'s own imports, so a package that re-exports a module does not
by itself keep it alive.  A module no program reaches is library code to
delete, not to keep for its tests.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT_DIRS = ("benchmarks", "scripts", "perfbench")


def _library() -> dict:
    """Dotted module name -> path, for every file under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _library()


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _absolute(node: ast.ImportFrom, importer: str | None) -> str:
    """The absolute module of a ``from ... import`` in ``importer``."""
    if not node.level:
        return node.module or ""
    package = importer.split(".") if _is_package(importer) else importer.split(".")[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _requests(node, importer: str | None):
    """``(module, name)`` pairs one import statement asks for.

    ``name`` is ``None`` when the statement binds the module object itself.
    """
    if isinstance(node, ast.Import):
        return [(alias.name, None) for alias in node.names]
    module = _absolute(node, importer)
    return [(module, alias.name) for alias in node.names]


class Walk:
    def __init__(self) -> None:
        self.reached: set = set()
        self._seen: set = set()

    def file(self, path: Path, importer: str | None) -> None:
        """Follow every import statement in ``path``."""
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for module, name in _requests(node, importer):
                    self.request(module, name)

    def request(self, module: str, name: str | None) -> None:
        if (module, name) in self._seen:
            return
        self._seen.add((module, name))
        if name is not None and f"{module}.{name}" in MODULES:
            self.module(f"{module}.{name}")
        elif module in MODULES:
            if name is not None and _is_package(module):
                self.package_name(module, name)
            else:
                self.module(module)

    def module(self, name: str) -> None:
        """A module object is in hand: everything it imports is reachable."""
        if name in self.reached:
            return
        self.reached.add(name)
        self.file(MODULES[name], name)

    def package_name(self, package: str, name: str) -> None:
        """Resolve ``from package import name`` through its ``__init__``."""
        tree = _tree(MODULES[package])
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias, (module, original) in zip(node.names, _requests(node, package)):
                    if (alias.asname or alias.name).split(".")[0] == name:
                        self.request(module, original)
                        return
        # Defined in the __init__ itself: follow the imports its own code uses.
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            nested = node not in tree.body
            for alias, (module, original) in zip(node.names, _requests(node, package)):
                if nested or (alias.asname or alias.name).split(".")[0] in used:
                    self.request(module, original)


def reached_modules() -> set:
    walk = Walk()
    walk.module("repro.__main__")
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            walk.file(path, None)
    return walk.reached


def test_every_library_module_is_reached_by_a_program():
    reached = reached_modules()
    unreached = sorted(
        name for name in MODULES if not _is_package(name) and name not in reached
    )
    assert unreached == [], f"no program imports {unreached}; delete them"


def test_walk_resolves_names_through_package_inits():
    walk = Walk()
    walk.request("repro.graph", "Graph")
    assert "repro.graph.graph" in walk.reached
    assert "repro.graph.minibatch" not in walk.reached


# Names a framework calls by convention, never spelled out in program code.
FRAMEWORK_HOOKS = frozenset({"do_GET", "log_message"})


def _program_identifiers() -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in program code.

    Import aliases and ``__all__`` strings are neither, so a re-export or a
    listing does not count as a use.
    """
    paths = list((SRC / "repro").rglob("*.py"))
    for directory in ROOT_DIRS:
        paths += (REPO / directory).rglob("*.py")
    identifiers = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                identifiers.add(node.attr)
    return identifiers


def _defined_names(path: Path):
    """``(qualified, name)`` of each top-level def/class and each method."""
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def test_every_library_name_is_used_by_a_program():
    used = _program_identifiers()
    unused = sorted(
        f"{module}:{qualified}"
        for module in reached_modules()
        for qualified, name in _defined_names(MODULES[module])
        if name not in used
        and name not in FRAMEWORK_HOOKS
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == [], f"no program uses {unused}; delete them"
