"""Every module and public symbol under ``src/repro`` is reachable from what users run.

The walk follows ``import`` statements with :mod:`ast`, starting from
:mod:`repro.cli` and every ``examples/*.py`` script.  A package ``__init__`` is
read as a list of re-exports: ``from repro.pkg import name`` reaches the module
that defines ``name``, not every module the package happens to import.  A
module nothing reaches is dead code; delete it or wire it to a command or an
example.  A package ``__init__`` that only re-exports is a namespace and is not
checked; one that defines a function or class is checked like a module, and is
reached only when something imports from the package itself.

The symbol gate goes one level down: every public function, class and method
must be named somewhere under ``src/``, ``examples/``, ``benchmarks/`` or
``perfbench/`` outside its own body.  A symbol only tests call is dead code;
delete it, or add it to the short commented allow-list with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

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


# --- public symbols ----------------------------------------------------------

#: Trees whose code counts as a use: what users run plus the benches.  Tests
#: do not count, so a symbol only tests call is dead.
SCANNED_ROOTS = ("src", "examples", "benchmarks", "perfbench")

#: Public symbols kept although only tests call them, each with its reason.
ALLOWED_UNUSED = {
    # The dynamic-broker parity oracle: per-slot shares that must match across modes.
    "repro.scenarios.runner.ScenarioResult.slot_routing_shares",
    # Whether a fault spec can fire at all: the spec's own summary predicate.
    "repro.faults.spec.FaultSpec.has_faults",
    # The bytes that define "same results": the registry record pins compare them.
    "repro.telemetry.record.RunRecord.canonical_bytes",
    # The paper's scalar Δ (Section IV-B1): the reference SlotDistanceIndex is tested against.
    "repro.core.distance.slot_edit_distance",
}

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


def _definitions(scope: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of each public function, class and method."""
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{prefix}{node.name}.")


def unused_symbols(root: Path, package: str = PACKAGE) -> List[str]:
    """Public symbols of ``root/src/<package>`` that nothing under
    :data:`SCANNED_ROOTS` names outside the symbol's own body.

    The scan goes by name, so a dead method that shares its name with a live
    one is not reported: the gate errs toward keeping code.
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
        for qualname, node in _definitions(tree):
            if total[node.name] == _mentions(node, docstrings[path])[node.name]:
                unused.append(f"{module}.{qualname}")
    return sorted(unused)


def test_every_public_symbol_is_used_outside_tests():
    unused = set(unused_symbols(ROOT))
    dead = sorted(unused - ALLOWED_UNUSED)
    assert dead == [], f"public symbols only tests (or nothing) use: {dead}"
    stale = sorted(ALLOWED_UNUSED - unused)
    assert stale == [], f"allow-listed symbols that are used or gone: {stale}"


def test_symbol_scan_flags_test_only_code_and_counts_string_and_bench_uses(tmp_path):
    files = {
        "src/demo/__init__.py": 'from demo.mod import Thing, helper\n__all__ = ["Thing", "helper"]\n',
        "src/demo/mod.py": (
            "class Thing:\n"
            "    def used(self):\n"
            "        pass\n"
            "    def unused(self):\n"
            '        """Calls only itself."""\n'
            "        return self.unused()\n"
            "    def by_name(self):\n"
            "        pass\n"
            "    def by_bench(self):\n"
            "        pass\n"
            "def helper():\n"
            "    pass\n"
        ),
        "src/demo/cli.py": 'from demo.mod import Thing\nThing().used()\nHOOK = "Thing.by_name"\n',
        "perfbench/run.py": "from demo.mod import Thing\nThing().by_bench()\n",
        "tests/test_mod.py": "from demo.mod import Thing, helper\nhelper()\nThing().unused()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unused_symbols(tmp_path, "demo") == ["demo.mod.Thing.unused", "demo.mod.helper"]
