"""Observer wiring: registry contents, breakdowns, profiler."""

import json

import numpy as np
import pytest

from repro.accel import CPU_ISO_BW, Accelerator
from repro.graphs import citation_graph
from repro.models import GCN
from repro.obs import MetricsRegistry, Observer
from repro.runtime import compile_model
from repro.runtime.engine import RuntimeEngine
from repro.sim.stats import BusyTracker, StatSet


@pytest.fixture(scope="module")
def observed_run():
    graph = citation_graph(24, 50, seed=5)
    graph.node_features = np.zeros((24, 8), dtype=np.float32)
    program = compile_model(GCN(8, 8, 4), graph)
    observer = Observer()
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW), observer=observer)
    report = engine.run(program)
    return observer, report


class TestRegistryWiring:
    def test_every_unit_registered(self, observed_run):
        observer, _ = observed_run
        names = observer.registry.names()
        for unit in ("gpe", "dna", "agg", "dnq"):
            assert f"tile.0.0/{unit}" in names
        assert "noc" in names
        assert any(name.startswith("mem.") for name in names)
        assert any(name.startswith("noc/link/") for name in names)

    def test_names_unique(self, observed_run):
        observer, _ = observed_run
        names = observer.registry.names()
        assert len(names) == len(set(names))

    def test_snapshot_is_json_serializable(self, observed_run):
        observer, _ = observed_run
        snapshot = observer.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped.keys() == snapshot.keys()
        assert "sim/kernel" in snapshot

    def test_snapshot_utilizations_bounded(self, observed_run):
        observer, _ = observed_run
        for name, entry in observer.registry.snapshot(
            observer.elapsed_ns
        ).items():
            if "utilization" in entry:
                assert 0.0 <= entry["utilization"] <= 1.0, name

    def test_attach_is_idempotent_but_single_accel(self, observed_run):
        observer, _ = observed_run
        observer.attach(observer._accel)  # same accelerator: no-op
        with pytest.raises(RuntimeError):
            observer.attach(Accelerator(CPU_ISO_BW))


class TestRegistryErrors:
    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.register("tile.0.0/dna", stats=StatSet())
        with pytest.raises(ValueError):
            registry.register("tile.0.0/dna", tracker=BusyTracker())

    def test_empty_registration_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().register("tile.0.0/dna")

    def test_unknown_tracker_name(self):
        with pytest.raises(KeyError):
            MetricsRegistry().tracker("nope")


class TestUtilizationBreakdown:
    def test_agrees_with_report_fields(self, observed_run):
        """The profile CLI's DNA/GPE numbers must match Figure 10's
        source fields to 1e-9 (they use the identical arithmetic)."""
        observer, report = observed_run
        breakdown = observer.utilization_breakdown()
        assert breakdown["classes"]["dna"]["utilization"] == pytest.approx(
            report.dna_utilization, abs=1e-9
        )
        assert breakdown["classes"]["gpe"]["utilization"] == pytest.approx(
            report.gpe_utilization, abs=1e-9
        )
        assert breakdown["classes"]["agg"]["utilization"] == pytest.approx(
            report.agg_utilization, abs=1e-9
        )

    def test_module_entries_cover_every_tracked_unit(self, observed_run):
        observer, _ = observed_run
        breakdown = observer.utilization_breakdown()
        tracked = [
            name for name in observer.registry.names()
            if observer.registry.tracker(name) is not None
        ]
        assert sorted(breakdown["modules"]) == sorted(tracked)

    def test_accounting_identity_on_real_run(self, observed_run):
        observer, _ = observed_run
        elapsed = observer.elapsed_ns
        for name in observer.timeline.track_names():
            acc = observer.accounting(name)
            assert acc.busy_ns + acc.stalled_ns + acc.idle_ns == \
                pytest.approx(elapsed, rel=1e-9)
            assert 0.0 <= acc.utilization <= 1.0


@pytest.fixture(scope="module")
def kernel_profile():
    """gcn-cora runs long enough for the sampler to take dozens of samples
    (the 24-vertex fixture finishes within a few)."""
    from repro.eval.accelerator import _compiled_program
    from repro.runtime.engine import simulate

    observer = Observer()
    simulate(_compiled_program("gcn-cora"), CPU_ISO_BW, observer=observer)
    return observer.profiler.profile()


class TestKernelProfile:
    def test_events_counted(self, kernel_profile):
        profile = kernel_profile
        assert profile.events > 0
        assert profile.events_per_sec > 0
        assert profile.run_wall_s > 0
        assert profile.samples > 0
        assert 0 < profile.handler_wall_s

    def test_queue_depth_buckets_ascending(self, kernel_profile):
        rows = kernel_profile.queue_depth_buckets()
        assert rows
        assert sum(count for _, count in rows) == kernel_profile.samples

    def test_hottest_handlers_named(self, kernel_profile):
        hottest = kernel_profile.hottest_handlers(3)
        assert hottest
        for owner, wall_s, samples in hottest:
            assert isinstance(owner, str) and owner
            assert wall_s >= 0 and samples > 0
