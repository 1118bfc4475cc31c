"""Every public function and method under ``src/repro`` is called by something a user runs.

Run it from the repository root (about 30 s on two cores; pytest does not
collect it)::

    PYTHONPATH=src python tests/call_reachability.py

It runs, in this one process and under :func:`sys.settrace`, every CLI command
at a small size and every ``scenario run`` flag that selects code, ``report``
and ``diff`` (and a few bad inputs), the spec API on two bad inputs, every
registry scenario in both execution modes, one tiny run per spec choice no
registry scenario makes, each example's
``main()``, the ``benchmarks/`` suite and the perfbench workload specs.  The
hook records the code object of every frame started and returns ``None``, so
no line is traced.  It then exits 1 listing each public function or method
that never ran.

The rules:

* a module-level function is live when its code ran;
* a method is live when a method of the same name ran anywhere in its class
  hierarchy, so an abstract declaration is live through the override a run
  dispatched to.  Classes that implement every method of a ``Protocol`` count
  as its subclasses;
* a property is live when its getter ran.

Classes are judged by the name scan in ``tests/test_module_reachability.py``
instead: a dataclass, NamedTuple or exception is constructed by code that is
not in its own body.  A function only tests call is dead code; delete it, or
add it with a one-line reason to :data:`ALLOWED_UNCALLED`.  An entry that is
called or gone fails the run too.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "repro"

#: Public functions kept although no user-facing run calls them, each with its reason.
ALLOWED_UNCALLED = {
    # The dynamic-broker parity oracle: per-slot shares that must match across modes.
    "repro.scenarios.runner.ScenarioResult.slot_routing_shares",
    # Whether a fault spec can fire at all: the spec's own summary predicate.
    "repro.faults.spec.FaultSpec.has_faults",
    # The bytes that define "same results": the registry record pins compare them.
    "repro.telemetry.record.RunRecord.canonical_bytes",
    # The paper's scalar Δ (Section IV-B1): the reference SlotDistanceIndex is tested against.
    "repro.core.distance.slot_edit_distance",
    # The per-group term of that reference Δ.
    "repro.core.distance.group_edit_distance",
    # The Fig. 8b knee the saturation run is calibrated to; the summary does not read it yet.
    "repro.experiments.figure_saturation.SaturationResult.knee_rate_hz",
}

#: A function's identity in a trace: its file and the line it starts on.
CodeKey = Tuple[str, int]


@contextlib.contextmanager
def recording_calls() -> Iterator[Set[CodeKey]]:
    """Record the ``(file, first line)`` of every Python frame started in the block.

    The set is filled when the block exits.  The hook keeps each code object
    once and traces no line, which costs far less than a profile hook that
    also fires on every C call.
    """
    seen: Dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
        return None

    ran: Set[CodeKey] = set()
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        yield ran
    finally:
        sys.settrace(previous)
        ran.update(
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in seen.values()
        )


# --- definitions -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Definition:
    """One public function, method or property getter of the package."""

    name: str
    key: CodeKey
    owner: Optional[str]


def _first_line(node: ast.FunctionDef) -> int:
    """The line a function's code object starts on: its first decorator."""
    return min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])


def _is_accessor(node: ast.FunctionDef) -> bool:
    """A property's setter or deleter, judged with its getter."""
    return any(
        isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter")
        for decorator in node.decorator_list
    )


def _base_name(node: ast.expr) -> Optional[str]:
    """The simple name a base class is written with (``Generic[T]`` gives ``Generic``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scan(src: Path, package: str):
    """Each function of ``src/<package>`` and each class's bases and methods."""
    functions: List[Definition] = []
    methods: Dict[Tuple[str, str], List[CodeKey]] = {}
    bases: Dict[str, List[str]] = {}

    def walk(scope, module: str, path: str, prefix: str, owner: Optional[str]) -> None:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_accessor(node):
                    continue
                key = (path, _first_line(node))
                if owner is not None:
                    methods.setdefault((owner, node.name), []).append(key)
                if not node.name.startswith("_"):
                    functions.append(Definition(f"{module}.{prefix}{node.name}", key, owner))
            elif isinstance(node, ast.ClassDef):
                qualified = f"{module}.{prefix}{node.name}"
                bases[qualified] = [name for name in map(_base_name, node.bases) if name]
                walk(node, module, path, f"{prefix}{node.name}.", qualified)

    for path in sorted((src / package).rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))
        walk(tree, module, os.path.realpath(path), "", None)
    return functions, methods, bases


def _families(
    bases: Dict[str, List[str]], methods: Dict[Tuple[str, str], List[CodeKey]]
) -> Dict[str, Set[str]]:
    """Each class with every class joined to it, directly or not, by inheritance
    or by implementing each method a ``Protocol`` declares.

    A base is matched by its simple name, so two classes that share one both
    count: the rule errs toward keeping code.
    """
    declared: Dict[str, Set[str]] = {}
    for owner, attr in methods:
        declared.setdefault(owner, set()).add(attr)
    by_name: Dict[str, List[str]] = {}
    for qualified in bases:
        by_name.setdefault(qualified.rsplit(".", 1)[-1], []).append(qualified)
    joined: Dict[str, Set[str]] = {qualified: set() for qualified in bases}
    for qualified, names in bases.items():
        for parent in (parent for name in names for parent in by_name.get(name, [])):
            joined[qualified].add(parent)
            joined[parent].add(qualified)
        if "Protocol" in names and declared.get(qualified):
            for other in bases:
                if other != qualified and declared[qualified] <= declared.get(other, set()):
                    joined[qualified].add(other)
                    joined[other].add(qualified)
    families: Dict[str, Set[str]] = {}
    for start in bases:
        if start in families:
            continue
        family, todo = {start}, [start]
        while todo:
            for other in joined[todo.pop()] - family:
                family.add(other)
                todo.append(other)
        for member in family:
            families[member] = family
    return families


def uncalled_functions(src: Path, ran: Set[CodeKey], package: str = PACKAGE) -> List[str]:
    """Public functions and methods of ``src/<package>`` that are not live in ``ran``."""
    functions, methods, bases = _scan(src, package)
    families = _families(bases, methods)
    dead = []
    for definition in functions:
        if definition.owner is None:
            live = definition.key in ran
        else:
            attr = definition.name.rsplit(".", 1)[-1]
            live = any(
                key in ran
                for cls in families[definition.owner]
                for key in methods.get((cls, attr), ())
            )
        if not live:
            dead.append(definition.name)
    return sorted(dead)


# --- what users run ----------------------------------------------------------

SMALL_RUN = ["--users", "10", "--hours", "0.25", "--requests", "200"]

#: Spec choices no registry scenario makes, as (section, field, value).
UNUSED_CHOICES = (
    ("workload", "pattern", "fixed"),
    ("network", "profile", "constant"),
    ("policy", "routing", "round-robin"),
    ("policy", "promotion", "battery"),
)


def _cli(argv: Sequence[str], expect: int = 0) -> None:
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != expect:
        raise RuntimeError(
            f"repro-accel {' '.join(argv)} exited {code}, expected {expect}\n"
            f"{out.getvalue()}{err.getvalue()}"
        )


def _run_cli(work: Path) -> None:
    for argv in (
        ["fig4", "--samples", "20"],
        ["fig5", "--samples", "20"],
        ["fig6", "--samples", "20"],
        ["fig7"],
        ["fig8a"],
        ["fig8", "--step-seconds", "1"],
        ["fig10a"],
        ["fig11"],
        ["dynamic", "--users", "10", "--hours", "0.25", "--requests", "60"],
        ["export", "--samples", "20", "--output-dir", str(work / "export")],
        ["summary", "--samples", "20"],
        ["scenario", "list"],
    ):
        _cli(argv)
    records = work / "records"
    for name, flags in (
        ("paper-baseline", []),
        ("paper-baseline", ["--json"]),
        ("paper-baseline", ["--telemetry"]),
        ("hotspot-spillover", ["--telemetry", "--json"]),
        ("hotspot-spillover", ["--trace-out", str(work / "trace.json")]),
        ("stale-broker", ["--metrics-out", str(work / "metrics.json")]),
        ("spot-preemption-storm", ["--seed", "3", "--record-out", str(records / "a")]),
        ("spot-preemption-storm", ["--seed", "3", "--without-resilience",
                                   "--record-out", str(records / "b")]),
        ("edge-vs-core", ["--broker", "dynamic-load"]),
        ("mixed-fleet-miscount", ["--capacity-signal", "fleet"]),
        ("region-outage-failover", ["--execution", "batched"]),
    ):
        _cli(["scenario", "run", name, *SMALL_RUN, *flags])
    first, second = (
        str(records / side / "spot-preemption-storm-event-seed3.json") for side in "ab"
    )
    _cli(["report", first])
    _cli(["diff", first, first])
    _cli(["diff", first, second], expect=1)
    _cli(["diff", first, second, "--json"], expect=1)
    # Bad input exits 2; the error paths may call public code too.
    _cli(["report", str(work / "trace.json")], expect=2)
    _cli(["scenario", "run", "no-such-scenario"], expect=2)
    for execution in ("event", "batched"):
        _cli(["scenario", "campaign", "--workers", "1", "--execution", execution])
    _cli([
        "scenario", "campaign", "--workers", "2", "--only",
        "paper-baseline,hotspot-spillover,cold-history",
        "--csv", str(work / "campaign.csv"), "--record-out", str(work / "campaign"),
    ])
    _cli(["scenario", "campaign", "--workers", "1", "--telemetry",
          "--only", "load-chase,price-arbitrage", "--broker", "dynamic-load"])


def _run_unused_choices() -> None:
    from repro.scenarios import get_scenario, run_scenario

    base = get_scenario("paper-baseline").with_overrides(
        users=10, duration_hours=0.25, target_requests=200
    )
    for section, field, value in UNUSED_CHOICES:
        changed = dataclasses.replace(getattr(base, section), **{field: value})
        spec = dataclasses.replace(base, **{section: changed})
        for execution in ("event", "batched"):
            run_scenario(dataclasses.replace(spec, execution=execution), seed=0)


def _run_bad_specs() -> None:
    """The spec API's error paths: each bad input must raise ``ValueError``."""
    from repro.scenarios import CloudSpec, ScenarioSpec

    for label, build in (
        ("unknown instance type", lambda: CloudSpec(group_types={1: "no-such-type"})),
        ("malformed spec dict", lambda: ScenarioSpec(**{"name": "bad", "workload": "uniform"})),
    ):
        try:
            build()
        except ValueError:
            continue
        raise RuntimeError(f"{label}: no ValueError")


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        module = _load(path, f"example_{path.stem}")
        with contextlib.redirect_stdout(io.StringIO()):
            module.main()


def _run_benchmarks() -> None:
    import pytest

    # pytest-benchmark clears the trace hook around timed rounds unless disabled.
    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", "--benchmark-disable", str(ROOT / "benchmarks")]
    )
    if code != 0:
        raise RuntimeError(f"benchmarks/ failed with exit code {code}")


def _run_perfbench_specs() -> None:
    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    for workload in workloads.WORKLOADS:
        workloads.build_specs(workload)
    for workload, specs in (
        ("event-single", [workloads.single_site_spec("event-single", 400, "event")]),
        ("batched-single", [workloads.single_site_spec("batched-single", 2000, "batched")]),
        ("federation-dynamic", [workloads.federation_spec(1200)]),
    ):
        results = workloads.execute(workload, specs, seed=0)
        errors = workloads.invariant_errors(results)
        if errors:
            raise RuntimeError(f"perfbench {workload}: {errors}")
        workloads.result_digest(results)


def exercise(work: Path) -> None:
    """Run everything a user or a bench runs, small."""
    _run_cli(work)
    _run_bad_specs()
    _run_unused_choices()
    _run_examples()
    _run_benchmarks()
    _run_perfbench_specs()


def main() -> int:
    with tempfile.TemporaryDirectory() as work, recording_calls() as ran:
        exercise(Path(work))
    uncalled = set(uncalled_functions(ROOT / "src", ran))
    dead = sorted(uncalled - ALLOWED_UNCALLED)
    stale = sorted(ALLOWED_UNCALLED - uncalled)
    for name in dead:
        print(f"never called: {name}")
    for name in stale:
        print(f"allow-listed but called or gone: {name}")
    if dead or stale:
        return 1
    print("every public function and method was called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
