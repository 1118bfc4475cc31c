"""The benchmark's own tests: output checks, tracing fidelity, sensitivity.

Run from the repository root (about four minutes on two cores)::

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection,
because most of these tests time real benchmark samples.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SENSITIVITY_WORKLOAD = "batched-single"
PAIRS = 10


def test_tampered_result_is_caught():
    workload = SENSITIVITY_WORKLOAD
    seed = workloads.PINNED_SEED
    results = workloads.execute(workload, workloads.build_specs(workload), seed)
    assert workloads.check_outputs(workload, results, seed) == []
    (result,) = results
    tampered = {
        "total != succeeded + dropped": dataclasses.replace(
            result, requests_dropped=result.requests_dropped + 1
        ),
        "p95 > p99": dataclasses.replace(
            result, p95_response_ms=result.p99_response_ms + 1.0
        ),
        "p50 > p95": dataclasses.replace(
            result, p50_response_ms=result.p95_response_ms + 1.0
        ),
        "digest only": dataclasses.replace(
            result, allocation_cost_usd=result.allocation_cost_usd + 1e-9
        ),
    }
    for what, bad in tampered.items():
        assert workloads.check_outputs(workload, [bad], seed), what


@pytest.mark.parametrize("seed", [workloads.PINNED_SEED, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_its_checks(workload, seed):
    record = bench.run_sample(workload, seed)
    assert record["errors"] == []
    assert record["requests"] > 0


def test_every_pinned_digest_is_set():
    assert set(workloads.PINNED_DIGESTS) == set(workloads.WORKLOADS)
    assert all(workloads.PINNED_DIGESTS.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_is_faithful_and_complete(workload, capsys):
    outcome = bench.trace(workload, workloads.PINNED_SEED, seconds=0)
    printed = capsys.readouterr().out
    # Traced and untraced samples share one digest, every entry point the
    # workload should exercise recorded calls, and nothing failed.
    assert outcome["failed"] == 0, printed
    assert outcome["correct"], printed
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in outcome["metrics"].items()
    }


def test_end_to_end_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert bench.WORKLOADS == workloads.WORKLOADS


def _paired_walls(candidate_mode):
    """``PAIRS`` back-to-back (plain, candidate) samples, alternating order."""
    base, cand = [], []
    for index in range(PAIRS):
        order = [("plain", base), (candidate_mode, cand)]
        for mode, sink in order if index % 2 == 0 else reversed(order):
            record = bench.run_sample(SENSITIVITY_WORKLOAD, workloads.PINNED_SEED, mode)
            assert record["errors"] == []
            sink.append(record["wall_ref"])
    return base, cand


def test_slower_serve_layer_is_flagged():
    base, cand = _paired_walls("slowed")
    assert bench.regression_flagged(base, cand), (base, cand)


def test_unslowed_rerun_is_not_flagged():
    base, cand = _paired_walls("plain")
    assert not bench.regression_flagged(base, cand), (base, cand)


def test_regression_rule():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert bench.regression_flagged(base, [value * 1.12 for value in base])
    assert not bench.regression_flagged(base, list(reversed(base)))
    assert not bench.regression_flagged(base, [value * 1.001 for value in base])


def test_tail_quantile_keeps_ten_samples_beyond_it():
    values = list(range(100))
    assert tracing.tail_quantile(values) == 89
    assert tracing.tail_quantile(values[:10]) == 9
    assert tracing.tail_quantile([]) == 0.0


def test_exits_without_result_when_the_program_is_missing():
    bare = ROOT / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "event-single",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
