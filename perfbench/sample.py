"""One benchmark sample: a fresh interpreter that sets up, runs and checks.

``run.py`` starts this script once per sample and reads the last line of
its standard output, a JSON object prefixed with ``SAMPLE_MARK``.  Modes:

* ``plain``: the timed run, nothing wrapped;
* ``traced``: every layer's entry points wrapped (campaign in-process);
* ``runner``: only the runner layer wrapped, campaign in-process; gives
  per-job times and the untraced in-process wall time;
* ``slowed``: ``serve_slot_requests`` made 50% slower, which makes
  ``batched-single`` (where it takes about half the wall time) about 25%
  slower; the self-test's known regression.

Exit code 3 means the program is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SAMPLE_MARK = "PERFBENCH-SAMPLE "
EXIT_NO_PROGRAM = 3
MODES = ("plain", "traced", "runner", "slowed")
SLOWDOWN_FRACTION = 0.5


def reference_s() -> float:
    """Host time of a fixed computation that belongs to the benchmark.

    It mixes the two kinds of work the simulator does, a heap-driven event
    loop in pure Python and vectorised NumPy passes, and uses nothing from
    ``repro``, so no change to the program can move it.  Each sample times
    it right before and right after its run and takes the mean.  The run's
    wall time divided by that is the run's cost in units of this
    computation, which cancels most of the drift in speed of a shared host.
    """
    import heapq
    import random

    import numpy as np

    start = time.perf_counter()
    rng = random.Random(12345)
    heap: list = []
    totals: dict = {}
    for index in range(200_000):
        heapq.heappush(heap, (rng.random(), index))
        if len(heap) > 64:
            when, key = heapq.heappop(heap)
            totals[key % 97] = totals.get(key % 97, 0.0) + when
    # Small arrays, so the reference adds next to nothing to peak memory.
    values = np.random.default_rng(1).random(250_000)
    for _ in range(12):
        ordered = np.sort(values)
        np.cumsum(ordered)
        np.searchsorted(ordered, values[:25_000])
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(here))

    started = time.perf_counter()
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    imported = time.perf_counter()
    specs = workloads.build_specs(args.workload)
    ready = time.perf_counter()
    ready_at = time.monotonic()

    tracer = None
    if args.mode in ("traced", "runner"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install(None if args.mode == "traced" else ("runner",))
    elif args.mode == "slowed":
        import tracing

        tracing.slow_down(
            "serve_slot_requests", "repro.scenarios.batched", SLOWDOWN_FRACTION
        )
    in_process = args.mode in ("traced", "runner")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "import_s": imported - started,
        "spec_s": ready - imported,
        "ready_at": ready_at,
        "errors": [],
    }
    reference_s()  # the first call pays one-time costs and is not used
    ref_before = reference_s()
    start = time.perf_counter()
    try:
        results = workloads.execute(
            args.workload, specs, args.seed, workers=1 if in_process else 0
        )
    except Exception:  # a raising run is a failed sample, reported not fatal
        record["wall_s"] = time.perf_counter() - start
        record["errors"].append(traceback.format_exc())
    else:
        wall = time.perf_counter() - start
        record["wall_s"] = wall
        record["requests"] = sum(result.requests_total for result in results)
        record["digest"] = workloads.result_digest(results)
        record["errors"] += workloads.check_outputs(args.workload, results, args.seed)
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer, results)
            record["shares"] = tracing.layer_shares(tracer, wall)
            record["coverage_errors"] = tracing.coverage_errors(args.workload, tracer)
            record["absent"] = tracer.absent
            record["job_s"] = tracer.durations("run_scenario")
    record["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "digest" in record:
        record["ref_s"] = (ref_before + reference_s()) / 2
    print(SAMPLE_MARK + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
