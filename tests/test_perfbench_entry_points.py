"""The benchmark's tracing contract with the event path.

``perfbench/tracing.py`` wraps entry points by qualified name; a traced run
whose wrapped entry point records no calls fails the benchmark's check.
These tests run small scenarios under the tracer and pin each per-request
entry point to the number of requests that must reach it, so flattening the
event path cannot bypass one unnoticed.

The tracer has no uninstall, so everything runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import tracing
from repro import scenarios

tracer = tracing.Tracer()
tracer.install()
runs = {}
for name, overrides in (
    ("paper-baseline", dict(users=10, duration_hours=0.5, target_requests=300)),
    ("hotspot-spillover", {}),
):
    spec = scenarios.get_scenario(name).with_overrides(**overrides)
    before = {qualname: tracer.calls(qualname) for qualname in tracer.stats}
    result = scenarios.run_scenario(spec, seed=0)
    runs[name] = {
        "calls": {q: tracer.calls(q) - n for q, n in before.items()},
        "requests": result.requests_total,
        "succeeded": result.requests_succeeded,
        "dropped": result.requests_dropped,
        "unrouted": result.requests_unrouted,
        "execution": spec.execution,
        "faults": spec.faults is not None,
    }
unresolved = [
    f"{entry.module}:{entry.qualname}"
    for entry in tracing.ENTRY_POINTS
    if not tracing._owners(entry.module, entry.qualname)
]
print(json.dumps({"runs": runs, "absent": tracer.absent, "unresolved": unresolved}))
"""


@pytest.fixture(scope="module")
def traced():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["paper-baseline", "hotspot-spillover"])
def test_per_request_entry_points_count_requests(traced, name):
    run = traced["runs"][name]
    # Fault-free event runs: every request that is not unrouted is offloaded.
    assert run["execution"] == "event" and not run["faults"]
    offloaded = run["requests"] - run["unrouted"]
    calls = run["calls"]
    assert offloaded > 0
    assert calls["SDNAccelerator.submit_planned"] == offloaded
    assert calls["BackendPool.dispatch"] == offloaded
    assert calls["CloudInstance.submit"] == offloaded
    assert calls["Moderator.observe"] == run["succeeded"]
    # The buffer drains at every submission (and at slot boundaries).
    assert calls["DeliveryBuffer.drain_until"] >= offloaded
    assert calls["SimulationEngine.run"] > 0


def test_drops_are_not_observed(traced):
    # The federation drops at admission, so ``observe`` and the submissions
    # really are counted apart.
    run = traced["runs"]["hotspot-spillover"]
    assert run["dropped"] > 0
    assert run["calls"]["Moderator.observe"] < run["calls"]["CloudInstance.submit"]


def test_every_entry_point_resolves(traced):
    assert traced["unresolved"] == []
    assert traced["absent"] == []
