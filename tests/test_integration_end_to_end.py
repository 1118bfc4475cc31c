"""End-to-end integration tests across the whole stack.

These tests wire together the substrates the same way a user of the library
would — characterize a catalog, build the adaptive model from the resulting
groups, run workloads through the SDN front-end and let the autoscaler follow
the load — and check the cross-module invariants.
"""

import math

import numpy as np
import pytest

from repro.analysis.characterization import benchmark_catalog, measured_capacities
from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.provisioner import Provisioner
from repro.cloud.server import CloudInstance
from repro.core.acceleration import characterize_instances
from repro.core.allocation import AllocationProblem, IlpAllocator, build_options_from_catalog
from repro.core.model import AdaptiveModel
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.network.channel import CommunicationChannel
from repro.sdn.accelerator import RequestColumns, SDNAccelerator, draw_routing_overhead_ms
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.clock import MILLISECONDS_PER_HOUR
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams


class TestBenchmarkToAllocationPipeline:
    def test_characterization_feeds_a_feasible_allocation(self):
        """Benchmark -> acceleration groups -> capacities -> ILP plan."""
        streams = RandomStreams(0)
        types = ["t2.nano", "t2.large", "m4.4xlarge"]
        benchmarks = benchmark_catalog(
            DEFAULT_CATALOG, rng=streams.stream("bench"), samples_per_level=60, type_names=types
        )
        capacities = measured_capacities(benchmarks, response_threshold_ms=2000.0)
        characterization = characterize_instances(
            DEFAULT_CATALOG.subset(types), measured_capacities=capacities
        )
        level_map = characterization.as_level_map()
        options = build_options_from_catalog(
            DEFAULT_CATALOG.subset(types),
            work_units=DEFAULT_TASK_POOL.mean_work_units(),
            response_threshold_ms=2000.0,
            capacity_override=capacities,
        )
        # Re-express the options in the characterised groups and allocate for a
        # workload spread over them.
        relabelled = [
            type(option)(
                type_name=option.type_name,
                acceleration_group=level_map[option.type_name],
                cost_per_hour=option.cost_per_hour,
                capacity=option.capacity,
            )
            for option in options
        ]
        workloads = {level: 10 * (level + 1) for level in sorted(set(level_map.values()))}
        plan = IlpAllocator().allocate(
            AllocationProblem(options=tuple(relabelled), group_workloads=workloads)
        )
        assert plan.feasible
        assert plan.total_instances <= 20


class TestFullSystemSmallRun:
    def test_workload_flows_through_sdn_and_autoscaler(self):
        streams = RandomStreams(7)
        engine = SimulationEngine()
        catalog = DEFAULT_CATALOG
        task = DEFAULT_TASK_POOL.get("minimax")

        backend = BackendPool()
        provisioner = Provisioner(engine, catalog, instance_cap=10)
        backend.add_instance(provisioner.launch("t2.nano"), 1)
        backend.add_instance(provisioner.launch("t2.large"), 2)

        options = build_options_from_catalog(
            catalog.subset(["t2.nano", "t2.large"]),
            work_units=task.work_units,
            response_threshold_ms=5000.0,
        )
        model = AdaptiveModel(options, instance_cap=10)
        count = 200
        columns = RequestColumns(count)
        accelerator = SDNAccelerator(engine, backend, columns)
        autoscaler = Autoscaler(model, provisioner, backend, minimum_per_group=1)

        rng = streams.stream("workload")
        arrivals = rng.uniform(0, 2 * MILLISECONDS_PER_HOUR, size=count)
        work = task.sample_work_units_many(rng, count)
        channel = CommunicationChannel(rng=streams.stream("network"))
        hours_of_day = arrivals / MILLISECONDS_PER_HOUR
        t1 = channel.sample_t1_many(hours_of_day)
        t2 = channel.sample_t2_many(hours_of_day)
        routing = draw_routing_overhead_ms(streams.stream("sdn"), count)
        jitter = streams.stream("jitter").standard_normal(count)
        users = np.arange(count) % 40
        for index in range(count):
            group = 1 if index % 3 else 2

            def _submit(group=group, index=index):
                accelerator.submit_planned(
                    row=index,
                    acceleration_group=group,
                    work_units=float(work[index]),
                    t1_ms=float(t1[index]),
                    t2_ms=float(t2[index]),
                    routing_ms=float(routing[index]),
                    jitter_z=float(jitter[index]),
                )

            engine.schedule_at(float(arrivals[index]), _submit)

        seen = [0]  # rows already handed to a slot, as the event executor keeps

        def _period_end(hour):
            accelerator.delivery_buffer.drain_until(engine.now_ms)
            rows = np.asarray(accelerator.delivered[seen[0]:], dtype=np.int64)
            seen[0] = len(accelerator.delivered)
            autoscaler.run_slot(
                columns.served_group[rows],
                users[rows],
                arrivals[rows] >= (hour - 1) * MILLISECONDS_PER_HOUR,
                hour * MILLISECONDS_PER_HOUR,
            )

        for hour in (1, 2):
            engine.schedule_at(hour * MILLISECONDS_PER_HOUR, lambda hour=hour: _period_end(hour))
        horizon_ms = 2 * MILLISECONDS_PER_HOUR + 60_000.0
        engine.run(until_ms=horizon_ms)
        accelerator.delivery_buffer.flush(horizon_ms)

        # Every submitted request was processed and recorded.
        rows = np.asarray(accelerator.delivered, dtype=np.int64)
        assert sorted(rows.tolist()) == list(range(200))
        success = columns.success[rows]
        assert np.count_nonzero(success) / rows.size > 0.95
        # The autoscaler ran twice and the account cap was respected throughout.
        assert len(autoscaler.actions) == 2
        assert provisioner.running_count <= 10
        # The delivered rows slot into exactly the history the model consumed.
        assert len(model.history) == 2
        # Requests routed to group 2 ran faster on average than group 1.
        served = columns.served_group[rows][success]
        responses = columns.response_ms[rows][success]
        assert responses[served == 2].mean() < responses[served == 1].mean()

    def test_trace_log_round_trips_into_model_history(self):
        """Requests delivered by the front-end slot into the model's history."""
        engine = SimulationEngine()
        backend = BackendPool()
        backend.add_instance(CloudInstance(engine, DEFAULT_CATALOG.get("t2.nano")), 1)
        columns = RequestColumns(50)
        accelerator = SDNAccelerator(engine, backend, columns)
        for index in range(50):
            engine.schedule_at(
                index * 30_000.0,
                lambda index=index: accelerator.submit_planned(
                    row=index,
                    acceleration_group=1,
                    work_units=200.0,
                    t1_ms=40.0,
                    t2_ms=10.0,
                    routing_ms=150.0,
                    jitter_z=0.0,
                ),
            )
        engine.run()
        accelerator.delivery_buffer.flush(math.inf)
        model = AdaptiveModel(
            build_options_from_catalog(
                DEFAULT_CATALOG.subset(["t2.nano"]), work_units=200.0, response_threshold_ms=5000.0
            )
        )
        autoscaler = Autoscaler(model, Provisioner(engine, DEFAULT_CATALOG), backend)
        rows = np.asarray(accelerator.delivered, dtype=np.int64)
        autoscaler.run_slot(
            columns.served_group[rows], rows % 7, np.ones(rows.size, dtype=bool),
            MILLISECONDS_PER_HOUR,
        )
        assert len(model.history) == 1
        assert model.history.latest().workload(1) == 7
