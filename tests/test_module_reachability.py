"""Every module and public symbol under ``src/repro`` is reachable from what users run.

The walk follows ``import`` statements with :mod:`ast`, starting from
:mod:`repro.cli` and every ``examples/*.py`` script.  A package ``__init__`` is
read as a list of re-exports: ``from repro.pkg import name`` reaches the module
that defines ``name``, not every module the package happens to import.  A
module nothing reaches is dead code; delete it or wire it to a command or an
example.  A package ``__init__`` that only re-exports is a namespace and is not
checked; one that defines a function or class is checked like a module, and is
reached only when something imports from the package itself.

The class gate goes one level down: every public class must be named
somewhere under ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``
outside its own body.  Functions and methods are judged by the call trace of
``tests/call_reachability.py`` instead, which sees a dead method whose name a
live one shares; the tests at the end check that gate's rules on a toy package.
No module may import a name it never uses either.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest
from call_reachability import recording_calls, uncalled_functions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "repro"


def _module_path(module: str) -> Optional[Path]:
    base = SRC.joinpath(*module.split("."))
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    return None


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


class _ImportWalker:
    def __init__(self) -> None:
        self.reached: Set[str] = set()
        self._trees: Dict[str, ast.Module] = {}
        self._exports_seen: Set[Tuple[str, str]] = set()

    def _tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            path = _module_path(module)
            self._trees[module] = ast.parse(path.read_text(), filename=str(path))
        return self._trees[module]

    def follow(self, node: ast.AST) -> None:
        """Follow every ``repro`` import anywhere under ``node``."""
        for child in ast.walk(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.split(".")[0] == PACKAGE:
                        self.reach(alias.name)
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and child.module:
                if child.module.split(".")[0] == PACKAGE:
                    for alias in child.names:
                        self.import_from(child.module, alias.name)

    def reach(self, module: str) -> None:
        """Mark ``module`` reached; walk a plain module."""
        if module in self.reached or _module_path(module) is None:
            return
        self.reached.add(module)
        if not _is_package(module):
            self.follow(self._tree(module))

    def import_from(self, module: str, name: str) -> None:
        if _module_path(f"{module}.{name}") is not None:
            self.reach(f"{module}.{name}")
        elif _is_package(module):
            self.reach(module)
            self.resolve_export(module, name)
        else:
            self.reach(module)

    def resolve_export(self, package: str, name: str) -> None:
        """Reach whatever module defines ``package.name``."""
        if (package, name) in self._exports_seen:
            return
        self._exports_seen.add((package, name))
        for node in self._tree(package).body:
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        if node.module.split(".")[0] == PACKAGE:
                            self.import_from(node.module, alias.name)
                        return
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                # Defined in the package itself: its body may use re-exports.
                self.follow(node)
                for used in ast.walk(node):
                    if isinstance(used, ast.Name):
                        self.resolve_export(package, used.id)
                return


def _defines_code(path: Path) -> bool:
    tree = ast.parse(path.read_text(), filename=str(path))
    return any(isinstance(node, (ast.FunctionDef, ast.ClassDef)) for node in tree.body)


def _checked_modules() -> Set[str]:
    """Plain modules plus the package ``__init__`` files that define code."""
    checked = set()
    for path in (SRC / PACKAGE).rglob("*.py"):
        if path.name != "__init__.py":
            checked.add(".".join(path.relative_to(SRC).with_suffix("").parts))
        elif _defines_code(path):
            checked.add(".".join(path.parent.relative_to(SRC).parts))
    return checked


def test_every_module_is_reached_from_the_cli_or_an_example():
    walker = _ImportWalker()
    walker.reach("repro.cli")
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert examples
    for script in examples:
        walker.follow(ast.parse(script.read_text(), filename=str(script)))
    unreached = sorted(_checked_modules() - walker.reached)
    assert unreached == [], f"modules no command or example imports: {unreached}"


# --- public classes ----------------------------------------------------------

#: Trees whose code counts as a use: what users run plus the benches.  Tests
#: do not count, so a class only tests name is dead.
SCANNED_ROOTS = ("src", "examples", "benchmarks", "perfbench")

_WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree: ast.AST) -> Set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _reexports(tree: ast.Module) -> Set[int]:
    """A package ``__init__``'s imports and ``__all__``: exporting is not using."""
    skipped = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        )
        if is_all or isinstance(node, ast.ImportFrom):
            skipped.update(id(child) for child in ast.walk(node))
    return skipped


def _mentions(node: ast.AST, skip: Set[int]) -> Counter:
    """How often ``node`` names each identifier: names, attributes, imports and
    the words of string literals (perfbench wraps entry points by name)."""
    counts: Counter = Counter()
    for child in ast.walk(node):
        if id(child) in skip:
            continue
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, ast.alias):
            counts[child.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            counts.update(_WORD.findall(child.value))
    return counts


def _classes(scope: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of each public class, nested ones included."""
    for node in scope.body:
        if isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield prefix + node.name, node
            yield from _classes(node, f"{prefix}{node.name}.")


def unused_symbols(root: Path, package: str = PACKAGE) -> List[str]:
    """Public classes of ``root/src/<package>`` that nothing under
    :data:`SCANNED_ROOTS` names outside the class's own body.

    The scan goes by name, so a class is judged by whether its name is used,
    not by whether it is constructed: a dataclass's or NamedTuple's
    constructor is not code in its own body, so a call trace cannot see it.
    """
    trees = {}
    for top in SCANNED_ROOTS:
        if (root / top).is_dir():
            for path in sorted((root / top).rglob("*.py")):
                trees[path] = ast.parse(path.read_text(), filename=str(path))
    total: Counter = Counter()
    docstrings = {path: _docstrings(tree) for path, tree in trees.items()}
    for path, tree in trees.items():
        skip = docstrings[path]
        if path.name == "__init__.py" and root / "src" in path.parents:
            skip = skip | _reexports(tree)
        total.update(_mentions(tree, skip))
    unused = []
    for path, tree in trees.items():
        if root / "src" / package not in path.parents:
            continue
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for qualname, node in _classes(tree):
            if total[node.name] == _mentions(node, docstrings[path])[node.name]:
                unused.append(f"{module}.{qualname}")
    return sorted(unused)


def test_every_public_symbol_is_used_outside_tests():
    dead = unused_symbols(ROOT)
    assert dead == [], f"public classes only tests (or nothing) use: {dead}"


def _write(root: Path, files: Dict[str, str]) -> None:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_symbol_scan_flags_test_only_code_and_counts_string_and_bench_uses(tmp_path):
    _write(tmp_path, {
        "src/demo/__init__.py": 'from demo.mod import Helper, Thing\n__all__ = ["Helper", "Thing"]\n',
        "src/demo/mod.py": (
            "class Thing:\n"
            "    class Unused:\n"
            '        """Names only itself."""\n'
            "        def copy(self):\n"
            "            return Thing.Unused()\n"
            "class ByName:\n"
            "    pass\n"
            "class ByBench:\n"
            "    pass\n"
            "class Helper:\n"
            "    def unused(self):\n"
            "        pass\n"
        ),
        "src/demo/cli.py": 'from demo.mod import Thing\nThing()\nHOOK = "ByName"\n',
        "perfbench/run.py": "from demo.mod import ByBench\nByBench()\n",
        "tests/test_mod.py": "from demo.mod import Helper, Thing\nHelper().unused()\nThing.Unused()\n",
    })
    assert unused_symbols(tmp_path, "demo") == ["demo.mod.Helper", "demo.mod.Thing.Unused"]


# --- imports --------------------------------------------------------------------


def _string_annotation_words(tree: ast.AST) -> Set[str]:
    """The words of string annotations (forward references) and of ``__all__``."""
    sources: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            sources.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            sources.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            sources.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            sources.append(node.value)
    words: Set[str] = set()
    for source in sources:
        for child in ast.walk(source):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                words.update(_WORD.findall(child.value))
    return words


def unused_imports(src: Path, package: str = PACKAGE) -> List[str]:
    """``module: name`` for each name a module of ``src/<package>`` imports and
    never reads, lists in ``__all__`` or writes in a string annotation."""
    unused = []
    for path in sorted((src / package).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: Dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _string_annotation_words(tree)
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        unused.extend(
            f"{module}:{line}: {name}" for name, line in imported.items() if name not in used
        )
    return sorted(unused)


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(SRC) == []


def test_import_scan_counts_reads_string_annotations_and_reexports(tmp_path):
    _write(tmp_path, {
        "src/demo/__init__.py": 'from demo.mod import run\n__all__ = ["run"]\n',
        "src/demo/mod.py": (
            "from __future__ import annotations\n"
            "import itertools\n"
            "import os.path\n"
            "from typing import Dict, List, TYPE_CHECKING\n"
            "import numpy as np\n"
            "if TYPE_CHECKING:\n"
            "    from demo.other import Plan\n"
            "def run(plan: 'Plan') -> Dict[str, int]:\n"
            "    return {'n': np.size(os.path.sep)}\n"
        ),
    })
    assert unused_imports(tmp_path / "src", "demo") == [
        "demo.mod:2: itertools", "demo.mod:4: List",
    ]


# --- the call-trace gate on a toy package -------------------------------------

TOY = {
    "src/toy/__init__.py": "",
    "src/toy/shapes.py": (
        "from typing import Protocol\n"
        "class Shape:\n"
        "    def area(self):\n"
        "        raise NotImplementedError\n"
        "class Square(Shape):\n"
        "    def area(self):\n"
        "        return 4\n"
        "class Catalog:\n"
        "    _size = 1\n"
        "    @property\n"
        "    def names(self):\n"
        "        return ['square']\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self._size\n"
        "    @size.setter\n"
        "    def size(self, value):\n"
        "        self._size = value\n"
        "class Registry:\n"
        "    def names(self):\n"
        "        return []\n"
        "class Router(Protocol):\n"
        "    def route(self, shape):\n"
        "        ...\n"
        "class Nearest:\n"
        "    def route(self, shape):\n"
        "        return shape\n"
    ),
    "src/toy/cli.py": (
        "import argparse\n"
        "from toy.shapes import Catalog, Nearest, Square\n"
        "def main(argv):\n"
        "    parser = argparse.ArgumentParser()\n"
        "    parser.add_argument('--verbose', action='store_true')\n"
        "    args = parser.parse_args(argv)\n"
        "    shape = Nearest().route(Square())\n"
        "    catalog = Catalog()\n"
        "    catalog.size = 2\n"
        "    if args.verbose:\n"
        "        report(shape, catalog)\n"
        "    return catalog.names\n"
        "def report(shape, catalog):\n"
        "    return shape.area() * catalog.size\n"
    ),
}


@pytest.fixture
def toy(tmp_path):
    """Run the toy CLI with the given arguments under the call trace; return
    the toy's uncalled public functions."""
    _write(tmp_path, TOY)
    sys.path.insert(0, str(tmp_path / "src"))
    try:
        from toy.cli import main

        def uncalled(*argv: str) -> List[str]:
            with recording_calls() as ran:
                main(list(argv))
            return uncalled_functions(tmp_path / "src", ran, "toy")

        yield uncalled
    finally:
        sys.path.remove(str(tmp_path / "src"))
        for name in [name for name in sys.modules if name.split(".")[0] == "toy"]:
            del sys.modules[name]


def test_trace_gate_flags_a_test_only_method_whose_name_a_live_one_shares(toy):
    # ``Catalog.names`` ran, so a scan by name would count ``Registry.names`` used.
    assert "toy.shapes.Registry.names" in toy("--verbose")
    assert "toy.shapes.Catalog.names" not in toy("--verbose")


def test_trace_gate_passes_a_base_method_whose_override_ran(toy):
    uncalled = toy("--verbose")
    assert "toy.shapes.Shape.area" not in uncalled
    assert "toy.shapes.Square.area" not in uncalled


def test_trace_gate_passes_a_function_reached_only_through_a_cli_flag(toy):
    assert toy() == ["toy.cli.report", "toy.shapes.Catalog.size", "toy.shapes.Registry.names",
                     "toy.shapes.Shape.area", "toy.shapes.Square.area"]
    assert toy("--verbose") == ["toy.shapes.Registry.names"]


def test_trace_gate_passes_a_protocol_method_an_implementation_ran(toy):
    # ``Router.route`` never runs itself; ``Nearest`` implements every method
    # ``Router`` declares, so its call keeps the protocol's method live.
    assert "toy.shapes.Router.route" not in toy()
    assert "toy.shapes.Nearest.route" not in toy()


def test_trace_gate_judges_a_property_setter_with_its_getter(toy):
    # The setter runs on every call; the getter only under ``--verbose``.
    assert toy().count("toy.shapes.Catalog.size") == 1
    assert "toy.shapes.Catalog.size" not in toy("--verbose")
