"""Unit tests for the telemetry layer: registry, tracer and facade."""

import gc
import json
import time

import numpy as np
import pytest

from repro.telemetry import (
    DEFAULT_DEPTH_EDGES,
    DEFAULT_MS_EDGES,
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTelemetry,
    SpanTracer,
    Telemetry,
    resolve_telemetry,
)
from repro.telemetry.tracer import OFFCPU_MIN_S


class TestCounter:
    def test_inc_defaults_to_one(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g")
        gauge.set(4)
        gauge.set(2.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_bucket_placement_uses_edges_as_upper_bounds(self):
        histogram = Histogram("h", edges=(10.0, 20.0))
        # <= 10; == edge lands in its own bucket; <= 20; overflow
        histogram.observe_many([5.0, 10.0, 15.0, 999.0])
        assert histogram.counts.tolist() == [2, 1, 1]
        assert histogram.count == 4

    def test_observe_many_matches_scalar_observe(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(300.0, size=500)
        bulk = Histogram("bulk", DEFAULT_MS_EDGES)
        scalar = Histogram("scalar", DEFAULT_MS_EDGES)
        bulk.observe_many(values)
        for value in values:
            scalar.observe_many([float(value)])
        assert bulk.counts.tolist() == scalar.counts.tolist()
        assert bulk.count == scalar.count == 500
        assert bulk.total == pytest.approx(scalar.total)

    def test_observe_many_empty_is_noop(self):
        histogram = Histogram("h", DEFAULT_DEPTH_EDGES)
        histogram.observe_many(np.array([]))
        assert histogram.count == 0

    def test_mean_is_nan_when_empty(self):
        histogram = Histogram("h")
        assert histogram.mean != histogram.mean  # NaN

    def test_edges_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", edges=())

    def test_sleep_between_children_is_credited_to_offcpu(self):
        def gap_with(fill):
            tracer = SpanTracer()
            with tracer.span("root"):
                with tracer.span("first"):
                    pass
                fill()
                with tracer.span("second"):
                    pass
            return tracer

        def busy():
            deadline = time.perf_counter() + 0.05
            while time.perf_counter() < deadline:
                pass

        slept = gap_with(lambda: time.sleep(0.05))
        (offcpu,) = [span for span in slept.spans if span.name == "offcpu"]
        assert (offcpu.depth, offcpu.parent) == (1, 0)
        assert 0.045 <= offcpu.duration_s <= slept.spans[0].duration_s
        assert slept.coverage() > 0.9
        # A busy loop in the same gap stays the root's own time.  On a loaded
        # host part of it may be descheduled, but never most of it.
        spun = gap_with(busy)
        spun_off = sum(span.duration_s for span in spun.spans if span.name == "offcpu")
        assert spun_off < 0.025
        assert spun.coverage() < 0.5

    def test_leaf_spans_record_no_offcpu(self):
        tracer = SpanTracer()
        with tracer.span("leaf"):
            time.sleep(0.01)
        assert [span.name for span in tracer.spans] == ["leaf"]

    def test_as_dict_is_json_serializable(self):
        histogram = Histogram("h", edges=(1.0, 2.0))
        histogram.observe_many([1.5])
        payload = json.loads(json.dumps(histogram.as_dict()))
        assert payload["counts"] == [0, 1, 0]
        assert payload["count"] == 1


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3
        assert [row["metric"] for row in registry.rows()] == ["a", "b", "c"]

    def test_cross_kind_name_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_edge_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", edges=(1.0, 3.0))

    def test_rows_cover_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe_many([10.0])
        registry.histogram("empty")
        rows = {row["metric"]: row for row in registry.rows()}
        assert rows["c"]["value"] == 3.0
        assert rows["g"]["kind"] == "gauge"
        assert rows["h"]["value"] == "n=1 mean=10.0"
        assert rows["empty"]["value"] == "n=0"

    def test_as_dict_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        payload = registry.as_dict()
        assert payload["counters"] == {"c": 1.0}
        assert payload["gauges"] == {}
        assert payload["histograms"] == {}


class TestSpanTracer:
    def test_nesting_records_depth_and_parent(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner", slot=2):
                pass
        outer, inner = tracer.spans
        assert (outer.depth, outer.parent) == (0, -1)
        assert (inner.depth, inner.parent) == (1, 0)
        assert inner.slot == 2

    def test_self_time_excludes_children(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.spans[0]
        assert outer.children_s == pytest.approx(tracer.spans[1].duration_s)
        assert outer.self_s == pytest.approx(
            outer.duration_s - outer.children_s
        )

    def test_out_of_order_close_raises(self):
        tracer = SpanTracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer().span("")

    def test_coverage_zero_when_empty_and_capped_at_one(self):
        tracer = SpanTracer()
        assert tracer.coverage() == 0.0
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert 0.0 < tracer.coverage() <= 1.0

    def test_same_name_spans_aggregate_in_phase_totals(self):
        tracer = SpanTracer()
        for slot in range(3):
            with tracer.span("slot.serve", slot=slot):
                pass
        totals = tracer.phase_totals()
        assert totals["slot.serve"]["calls"] == 3.0

    def test_phase_rows_rank_by_self_time(self):
        tracer = SpanTracer()
        with tracer.span("root"):
            with tracer.span("busy"):
                x = 0
                for i in range(20_000):
                    x += i
            with tracer.span("idle"):
                pass
        rows = tracer.phase_rows()
        assert [row["phase"] for row in rows][0] == "busy"
        assert {"phase", "calls", "total_ms", "self_ms", "share_pct"} == set(
            rows[0]
        )

    def test_top_phases_limited_to_n(self):
        tracer = SpanTracer()
        with tracer.span("root"):
            for name in ("a", "b", "c", "d"):
                with tracer.span(name):
                    pass
        top = tracer.top_phases(3)
        assert len(top) == 3
        assert all(0.0 <= share <= 1.0 for _, share in top)

    def test_top_phases_empty_without_spans(self):
        assert SpanTracer().top_phases() == []

    def test_chrome_trace_format(self):
        tracer = SpanTracer()
        with tracer.span("root"):
            with tracer.span("child", slot=1):
                pass
        trace = json.loads(json.dumps(tracer.to_chrome_trace()))
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        child = next(e for e in events if e["name"] == "child")
        assert child["args"] == {"slot": 1}

    def test_gc_collection_becomes_a_gc_span_under_the_open_span(self):
        tracer = SpanTracer()
        hooks = len(gc.callbacks)
        with tracer.span("root"):
            with tracer.span("child"):
                gc.collect()
            assert len(gc.callbacks) == hooks + 1
        assert len(gc.callbacks) == hooks
        pauses = [span for span in tracer.spans if span.name == "gc"]
        assert pauses
        assert all((span.depth, span.parent) == (2, 1) for span in pauses)
        child = tracer.spans[1]
        assert child.children_s == pytest.approx(
            sum(span.duration_s for span in pauses)
        )
        # Outside any open span a collection is not recorded.
        gc.collect()
        assert [span.name for span in tracer.spans].count("gc") == len(pauses)

    def test_long_generation_0_collection_becomes_a_gc_span(self):
        # A generation-0 pass over many young objects takes far longer than
        # the recording threshold; automatic collection is held off while
        # they are built, so all of them are young when it runs.
        tracer = SpanTracer()
        gc.disable()
        try:
            young = [[index] for index in range(200_000)]
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
                gc.collect(0)
        finally:
            gc.enable()
        del young
        pauses = [span for span in tracer.spans if span.name == "gc"]
        assert len(pauses) == 1
        (pause,) = pauses
        assert pause.duration_s >= OFFCPU_MIN_S
        assert (pause.depth, pause.parent) == (1, 0)
        assert pause.start_s >= tracer.spans[1].start_s + tracer.spans[1].duration_s
        root = tracer.spans[0]
        assert root.children_s == pytest.approx(
            sum(span.duration_s for span in tracer.spans if span.parent == 0)
        )

    def test_as_dict_is_json_serializable(self):
        tracer = SpanTracer()
        with tracer.span("root"):
            pass
        payload = json.loads(json.dumps(tracer.as_dict()))
        assert payload["spans"][0]["name"] == "root"
        assert 0.0 <= payload["coverage"] <= 1.0


class TestFacade:
    def test_null_telemetry_is_fully_inert(self):
        null = NULL_TELEMETRY
        assert null.enabled is False
        with null.span("anything", slot=3):
            pass
        # Metrics are published through a live collector's registry only.
        assert not hasattr(null, "registry")
        assert null.recorder.enabled is False

    def test_null_telemetry_leaves_the_garbage_collector_alone(self):
        hooks = list(gc.callbacks)
        with NULL_TELEMETRY.span("scenario.run"):
            assert gc.callbacks == hooks
        assert gc.callbacks == hooks

    def test_null_spans_are_shared_singletons(self):
        null = NullTelemetry()
        assert null.span("a") is null.span("b", slot=2)
        assert null.span("a") is NULL_TELEMETRY.span("c")

    def test_live_telemetry_delegates_to_registry_and_tracer(self):
        telemetry = Telemetry()
        with telemetry.span("phase"):
            telemetry.registry.counter("c").inc()
        assert telemetry.registry.counter("c").value == 1.0
        assert telemetry.tracer.spans[0].name == "phase"
        payload = telemetry.as_dict()
        assert payload["enabled"] is True
        assert payload["metrics"]["counters"]["c"] == 1.0

    def test_summary_lines_name_top_phases_and_coverage(self):
        telemetry = Telemetry()
        with telemetry.span("root"):
            with telemetry.span("slot.serve"):
                pass
        lines = telemetry.summary_lines()
        assert len(lines) == 2
        assert lines[0].startswith("top phases by self time:")
        assert "covers" in lines[1]

    def test_summary_lines_empty_without_spans(self):
        assert Telemetry().summary_lines() == []

    def test_resolve_explicit_object_wins(self):
        explicit = Telemetry()
        assert resolve_telemetry(explicit, False) is explicit
        assert resolve_telemetry(NULL_TELEMETRY, True) is NULL_TELEMETRY

    def test_resolve_spec_knob_decides_default(self):
        assert resolve_telemetry(None, False) is NULL_TELEMETRY
        assert resolve_telemetry(None, True).enabled is True
