"""Every module under ``src/repro`` that holds code is reachable from what users run.

The walk follows ``import`` statements with :mod:`ast`, starting from
:mod:`repro.cli` and every ``examples/*.py`` script.  A package ``__init__`` is
read as a list of re-exports: ``from repro.pkg import name`` reaches the module
that defines ``name``, not every module the package happens to import.  A
module nothing reaches is dead code; delete it or wire it to a command or an
example.  A package ``__init__`` that only re-exports is a namespace and is not
checked; one that defines a function or class is checked like a module, and is
reached only when something imports from the package itself.
"""

import ast
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

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
