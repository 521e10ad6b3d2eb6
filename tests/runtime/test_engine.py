"""Tests for the Algorithm 1 execution engine."""

import dataclasses
import gc

import numpy as np
import pytest

from repro.accel import (
    Accelerator,
    AcceleratorConfig,
    Aggregator,
    CPU_ISO_BW,
    DnnQueue,
    GraphPE,
)
from repro.graphs import citation_graph
from repro.models import GCN, PGNN
from repro.models.registry import benchmark_by_key, load_benchmark
from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    RuntimeEngine,
    SimulationFailure,
    TaskTable,
    compile_model,
    simulate,
)
from repro.runtime.serialize import report_to_dict
from repro.sim import SimulationError
from repro.sim.watchdog import WatchdogConfig


def tiny_config(clock=2.4) -> AcceleratorConfig:
    return CPU_ISO_BW.with_clock(clock)


def single_task_program(**task_fields) -> AcceleratorProgram:
    tasks = TaskTable.from_rows([{"vertex": 0, **task_fields}])
    return AcceleratorProgram(
        name="single", layers=[LayerProgram(name="layer", tasks=tasks)]
    )


def gcn_program(num_nodes: int, num_edges: int, seed: int):
    """A 4-layer GCN over a random citation graph with 8-wide features."""
    graph = citation_graph(num_nodes, num_edges, seed=seed)
    graph.node_features = np.zeros((num_nodes, 8), dtype=np.float32)
    return compile_model(GCN(8, 8, 4), graph)


@pytest.fixture
def small_graph():
    g = citation_graph(40, 90, seed=7)
    g.node_features = np.zeros((40, 12), dtype=np.float32)
    return g


class TestSingleTask:
    def test_pure_control_task(self):
        program = single_task_program(control_instructions=240)
        report = simulate(program, tiny_config())
        # 200 barrier cycles + (240+1) issue cycles at 2.4 GHz = ~184 ns.
        assert report.latency_ns == pytest.approx((241 + 1) / 2.4, rel=0.1)

    def test_block_load_extends_latency(self):
        plain = simulate(
            single_task_program(control_instructions=10), tiny_config()
        )
        loaded = simulate(
            single_task_program(control_instructions=10, block_load_bytes=6400),
            tiny_config(),
        )
        assert loaded.latency_ns > plain.latency_ns + 90  # ~94ns transfer

    def test_dna_task_runs_on_array(self):
        program = single_task_program(
            feature_bytes=256, dna_macs=182 * 240, output_bytes=64
        )
        report = simulate(program, tiny_config())
        assert report.latency_ns > 100.0  # 240 DNA cycles dominate barrier
        assert report.dna_utilization > 0

    def test_aggregation_task(self):
        program = single_task_program(
            gather_count=8, gather_bytes_each=64, output_bytes=64
        )
        report = simulate(program, tiny_config())
        assert report.latency_ns > 0
        assert report.dram_bytes >= 8 * 64

    def test_traversal_task_charges_visit_instructions(self):
        few = single_task_program(
            traversal=[{"count": 10, "bytes_each": 4}],
            local_contributions=10,
        )
        many = single_task_program(
            traversal=[{"count": 1000, "bytes_each": 4}],
            local_contributions=1000,
        )
        fast = simulate(few, tiny_config())
        slow = simulate(many, tiny_config())
        visit_cost = CPU_ISO_BW.tile.gpe_costs.instructions_per_visit
        assert slow.latency_ns - fast.latency_ns > 900 * visit_cost / 2.4 * 0.9


class TestLayerSemantics:
    def test_layers_execute_in_order_with_barriers(self):
        layer = LayerProgram(
            name="l", tasks=TaskTable(1, vertex=0, control_instructions=24)
        )
        program = AcceleratorProgram(name="p", layers=[layer, layer, layer])
        report = simulate(program, tiny_config())
        assert len(report.layers) == 3
        for previous, current in zip(report.layers, report.layers[1:]):
            assert current.start_ns > previous.end_ns

    def test_layer_reports_task_counts(self):
        tasks = TaskTable(7, vertex=np.arange(7), control_instructions=5)
        program = AcceleratorProgram(
            name="p", layers=[LayerProgram(name="l", tasks=tasks)]
        )
        report = simulate(program, tiny_config())
        assert report.layers[0].num_tasks == 7

    def test_many_tasks_throughput_bounded_by_gpe(self):
        # 100 control-only tasks serialize on the single GPE.
        tasks = TaskTable(100, vertex=np.arange(100),
                          control_instructions=239)
        program = AcceleratorProgram(
            name="p", layers=[LayerProgram(name="l", tasks=tasks)]
        )
        report = simulate(program, tiny_config())
        assert report.latency_ns >= 100 * 240 / 2.4

    def test_work_spreads_across_tiles(self, small_graph):
        from repro.accel import GPU_ISO_BW

        program = compile_model(GCN(12, 8, 4), small_graph)
        single = simulate(program, tiny_config())
        multi = simulate(program, GPU_ISO_BW)
        assert multi.latency_ns < single.latency_ns


class TestClockScaling:
    def test_gpe_bound_scales_with_clock(self):
        tasks = TaskTable(50, vertex=np.arange(50), control_instructions=500)
        program = AcceleratorProgram(
            name="p", layers=[LayerProgram(name="l", tasks=tasks)]
        )
        fast = simulate(program, tiny_config(clock=2.4))
        slow = simulate(program, tiny_config(clock=1.2))
        assert slow.latency_ns == pytest.approx(2 * fast.latency_ns, rel=0.05)

    def test_memory_bound_insensitive_to_clock(self):
        tasks = TaskTable(20, vertex=np.arange(20), feature_bytes=32 * 1024,
                          dna_macs=182, output_bytes=64)
        program = AcceleratorProgram(
            name="p", layers=[LayerProgram(name="l", tasks=tasks,
                                           dnq_entry_bytes=32 * 1024)]
        )
        fast = simulate(program, tiny_config(clock=2.4))
        slow = simulate(program, tiny_config(clock=1.2))
        assert slow.latency_ns < 1.3 * fast.latency_ns


class TestEndToEnd:
    def test_gcn_on_small_graph(self, small_graph):
        report = simulate(
            compile_model(GCN(12, 8, 4), small_graph), tiny_config()
        )
        assert report.latency_ms > 0
        assert report.dna_utilization > 0
        assert 0 < report.bandwidth_utilization <= 1
        assert report.dram_bytes > small_graph.num_nodes * 12 * 4

    def test_pgnn_is_gpe_bound(self):
        graph = citation_graph(60, 200, seed=9)
        graph.node_features = graph.degrees().astype(np.float32).reshape(-1, 1)
        report = simulate(compile_model(PGNN(), graph), tiny_config())
        assert report.gpe_utilization > 0.5
        assert report.dna_utilization < 0.05

    def test_determinism(self, small_graph):
        program = compile_model(GCN(12, 8, 4), small_graph)
        a = simulate(program, tiny_config())
        b = simulate(program, tiny_config())
        assert a.latency_ns == b.latency_ns
        assert a.dram_bytes == b.dram_bytes

    def test_report_metadata(self, small_graph):
        report = simulate(
            compile_model(GCN(12, 8, 4), small_graph),
            tiny_config(clock=1.2),
        )
        assert report.benchmark == "GCN"
        assert report.config_name == "CPU iso-BW"
        assert report.clock_ghz == 1.2


class TestTaskFeed:
    """A layer's tasks reach the thread pools on demand, not as a pile."""

    def test_large_layer_does_not_look_stalled(self):
        # Four layers of 3,000 tasks: offering them is one event, so a
        # tight forward-progress window sees no same-timestamp pile-up.
        program = gcn_program(3000, 7000, seed=2)
        default = simulate(program, tiny_config())
        strict = simulate(program, dataclasses.replace(
            tiny_config(), watchdog=WatchdogConfig(stall_events=2000)
        ))
        assert default.latency_ns == 241900.96509806052
        assert report_to_dict(strict) == report_to_dict(default)

    def test_live_heap_does_not_grow_with_task_count(self):
        # Per-task objects would pile up until the cyclic collector runs
        # (hundreds of young and a full collection on this program).
        program = gcn_program(5000, 10000, seed=3)
        engine = RuntimeEngine(Accelerator(tiny_config()))
        collections = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                collections[info["generation"]] += 1

        gc.collect()
        gc.callbacks.append(count)
        try:
            engine.run(program)
        finally:
            gc.callbacks.remove(count)
        assert collections[2] == 0
        assert collections[0] <= 5


class TestLayerConservation:
    """Every layer hands back all its threads, DNQ slots and AGG entries."""

    @pytest.mark.parametrize("unit,method,waiters,held", [
        pytest.param(GraphPE, "release_thread", "waiting_threads",
                     r"tile\(0, 0\)\.gpe: 15 of 16 threads free",
                     id="gpe-thread"),
        pytest.param(DnnQueue, "_release_slot", "waiting_reservations",
                     r"tile\(0, 0\)\.dnq: 1 slot", id="dnq-slot"),
    ])
    def test_lost_release_fails_the_layer(self, monkeypatch, unit, method,
                                          waiters, held):
        # The first release on a unit without waiters goes missing.
        original = getattr(unit, method)
        dropped = []

        def leaky(self, *args, **kwargs):
            if not dropped and not getattr(self, waiters):
                dropped.append(self.name)
                return None
            return original(self, *args, **kwargs)

        monkeypatch.setattr(unit, method, leaky)
        with pytest.raises(SimulationFailure, match=held) as exc:
            simulate(gcn_program(300, 700, seed=2), tiny_config())
        assert exc.value.layer == "gcn0.project"
        assert exc.value.tasks_remaining == 0

    def test_orphaned_agg_entry_fails_the_layer(self, monkeypatch):
        original = Aggregator.alloc
        orphaned = []

        def alloc(self, expected_inputs, on_grant):
            if not orphaned:
                # An entry whose requester never contributes to it.
                orphaned.append(self.name)
                original(self, 1, lambda grant_ns, agg_id: None)
            original(self, expected_inputs, on_grant)

        monkeypatch.setattr(Aggregator, "alloc", alloc)
        with pytest.raises(SimulationFailure,
                           match=r"tile\(0, 0\)\.agg: 1 aggregation"):
            simulate(gcn_program(300, 700, seed=2), tiny_config())

    def test_writeback_that_skips_the_controller_fails_the_layer(
        self, monkeypatch
    ):
        # Writebacks cross the NoC but never reach a memory controller,
        # so the controllers see fewer DRAM bytes than the tasks request.
        def memory_write(self, vertex, size_bytes, start_ns, src):
            _, mem_coord = self.memory_of(vertex)
            return self.noc.delivery_time(src, mem_coord, size_bytes,
                                          start_ns)

        program = gcn_program(300, 700, seed=2)
        layer = program.layers[0]
        written = int(layer.tasks.output_bytes.sum())
        assert written
        monkeypatch.setattr(Accelerator, "memory_write", memory_write)
        with pytest.raises(SimulationFailure) as exc:
            simulate(program, tiny_config())
        assert exc.value.layer == layer.name
        assert exc.value.status == "diverged"
        expected = layer.dram_bytes_requested
        assert (f"requested {expected} DRAM bytes but the memory "
                f"controllers saw {expected - written}") in str(exc.value)


class TestContinuations:
    """A vertex program waits by posting one engine method per wait."""

    def test_continuation_before_now_fails_the_run(self, monkeypatch):
        # Simulator.post_at is the only guard on continuation times: a
        # unit that answers with a time in the past fails the run instead
        # of being clamped to the present.
        original = Accelerator.memory_read

        def memory_read(self, vertex, size_bytes, start_ns, dest):
            original(self, vertex, size_bytes, start_ns, dest)
            return self.sim.now - 1.0

        monkeypatch.setattr(Accelerator, "memory_read", memory_read)
        with pytest.raises(SimulationError, match="cannot schedule") as exc:
            simulate(gcn_program(300, 700, seed=2), tiny_config())
        assert exc.value.status == "diverged"

    def test_watchdog_diagnosis_names_engine_methods(self):
        # A trip mid-layer finds DNA jobs waiting on their fill; the
        # diagnosis names the engine method, not a per-task closure.
        model, data = load_benchmark(benchmark_by_key("gcn-cora"))
        config = dataclasses.replace(
            tiny_config(), watchdog=WatchdogConfig(max_events=5000)
        )
        with pytest.raises(SimulationFailure) as exc:
            simulate(compile_model(model, data), config)
        owners = exc.value.diagnosis.pending_by_owner
        assert owners["RuntimeEngine._fill"] > 0
        assert not [owner for owner in owners if "<locals>" in owner]
