"""The run-record artifact: one serialisable flight-recorder file per run.

A :class:`RunRecord` bundles everything a later ``report`` or ``diff`` needs
to reconstruct a run without re-simulating it: the spec hash and seed that
pin *which* run it was, the folded registry (counters, gauges, histograms),
the per-slot series from the recorder, the headline :class:`ScenarioResult`
numbers, and the wall-clock phase rows from the tracer.

The file splits into a **canonical** part and a non-canonical envelope:

* canonical — schema id, scenario, execution, seed, spec hash, slot count,
  counters, gauges, histograms, series, result.  All simulated quantities:
  same seed, same bytes (:meth:`RunRecord.canonical_bytes` is the pinned
  contract, compared verbatim by the determinism suite).
* non-canonical — ``environment`` (git describe, interpreter, platform,
  creation time) and ``trace`` (phase self-times).  Wall clock and host
  facts legitimately vary between reruns; ``diff`` never reads them.

The on-disk format is a single JSON object with a ``schema`` field
(:data:`RECORD_SCHEMA`); loaders reject unknown majors so a future v2 can
change shape without silently mis-parsing v1 consumers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Versioned schema identifier written into every record file.
RECORD_SCHEMA = "repro.run-record/1"


def _plain(value):
    """Reduce a value to JSON-safe plain Python (NaN/Inf become ``None``)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if hasattr(value, "item"):  # numpy scalar
        return _plain(value.item())
    return value


def spec_hash(spec) -> str:
    """A stable content hash of a :class:`ScenarioSpec`.

    Hashes the sorted-keys JSON of ``spec.to_dict()`` so two specs hash
    equal exactly when every knob (including nested site/fault config)
    matches, independent of construction order.
    """
    payload = json.dumps(spec.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def git_describe(cwd: Optional[str] = None) -> str:
    """``git describe --always --dirty`` or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    described = out.stdout.strip()
    return described if out.returncode == 0 and described else "unknown"


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One run's flight-recorder artifact (see module docstring)."""

    schema: str
    scenario: str
    execution: str
    seed: int
    spec_hash: str
    slots: int
    result: Dict[str, object]
    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, object]
    series: Dict[str, List[float]]
    environment: Dict[str, object] = dataclasses.field(default_factory=dict)
    trace: Dict[str, object] = dataclasses.field(default_factory=dict)

    # -- canonical contract ---------------------------------------------------

    def canonical_dict(self) -> Dict[str, object]:
        """The deterministic part only — what same-seed reruns must repeat."""
        return {
            "schema": self.schema,
            "scenario": self.scenario,
            "execution": self.execution,
            "seed": self.seed,
            "spec_hash": self.spec_hash,
            "slots": self.slots,
            "result": self.result,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "series": self.series,
        }

    def canonical_bytes(self) -> bytes:
        """Byte-stable encoding of :meth:`canonical_dict` (the pinned contract)."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    # -- serialisation --------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        payload = self.canonical_dict()
        payload["environment"] = self.environment
        payload["trace"] = self.trace
        return payload

    def save(self, path) -> Path:
        """Write the record as pretty-printed JSON, creating parent dirs."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.execution}/seed{self.seed}"


def record_filename(record: RunRecord) -> str:
    """The conventional per-run file name inside a ``--record-out`` directory."""
    return f"{record.scenario}-{record.execution}-seed{record.seed}.json"


def build_run_record(spec, result, telemetry, *, environment=True) -> RunRecord:
    """Assemble a :class:`RunRecord` from a finished run.

    ``telemetry`` must be a live :class:`~repro.telemetry.facade.Telemetry`
    (the recorder and registry are read, never mutated).  Pass
    ``environment=False`` to omit the host envelope (useful in tests that
    compare full dicts).
    """
    if not telemetry.enabled:
        raise ValueError("building a run record requires live telemetry")
    metrics = telemetry.registry.as_dict()
    recorded = telemetry.recorder.as_dict()
    env: Dict[str, object] = {}
    if environment:
        env = {
            "git_describe": git_describe(),
            "python": platform.python_version(),
            "platform": sys.platform,
            "argv": list(sys.argv),
        }
    return RunRecord(
        schema=RECORD_SCHEMA,
        scenario=spec.name,
        execution=spec.execution,
        seed=int(result.seed),
        spec_hash=spec_hash(spec),
        slots=int(recorded["slots"]),
        result=_plain(dataclasses.asdict(result)),
        counters=_plain(metrics["counters"]),
        gauges=_plain(metrics["gauges"]),
        histograms=_plain(metrics["histograms"]),
        series=_plain(recorded["series"]),
        environment=env,
        trace={"phases": telemetry.tracer.phase_rows()},
    )


def load_run_record(path) -> RunRecord:
    """Read a record file back, validating the schema version.

    Every error names the file: an unreadable one raises ``OSError``, and
    one that is not a run record of this schema raises ``ValueError``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as error:
        raise ValueError(f"{path}: not a JSON file ({error})") from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if not isinstance(schema, str) or not schema.startswith("repro.run-record/"):
        raise ValueError(f"{path}: not a run-record file (schema={schema!r})")
    major = schema.rsplit("/", 1)[-1]
    if major != RECORD_SCHEMA.rsplit("/", 1)[-1]:
        raise ValueError(
            f"{path}: unsupported run-record schema {schema!r} "
            f"(this build reads {RECORD_SCHEMA!r})"
        )
    try:
        return RunRecord(
            schema=schema,
            scenario=payload["scenario"],
            execution=payload["execution"],
            seed=int(payload["seed"]),
            spec_hash=payload["spec_hash"],
            slots=int(payload["slots"]),
            result=payload.get("result", {}),
            counters=payload.get("counters", {}),
            gauges=payload.get("gauges", {}),
            histograms=payload.get("histograms", {}),
            series=payload.get("series", {}),
            environment=payload.get("environment", {}),
            trace=payload.get("trace", {}),
        )
    except KeyError as error:
        raise ValueError(f"{path}: run record has no {error.args[0]!r} field") from None
    except (TypeError, ValueError) as error:
        raise ValueError(f"{path}: malformed run record ({error})") from None
