"""Property-based tests for the tile units' queueing and cost contracts.

The DNQ, AGG, and GPE all implement the same pattern — a bounded
resource pool with a FIFO waitlist — and the engine's liveness depends on
three properties holding under arbitrary operation sequences: grants
never exceed capacity, waiters are served in order, and every release
eventually produces a grant.

Each unit also has one cost formula.  The engine applies it to scalars
(memoized traversal issues) and to numpy arrays (its per-layer duration
tables), so the array form must equal the scalar call element by
element, bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.accel.agg import Aggregator
from repro.accel.config import CPU_ISO_BW, GpeCostModel, TileConfig
from repro.accel.dna import DnaUnit
from repro.accel.dnq import DnnQueue
from repro.accel.gpe import GraphPE
from repro.accel.system import Accelerator
from repro.sim import Clock, Simulator

POOL = 4


@given(st.lists(st.booleans(), min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_gpe_thread_pool_invariants(ops):
    """True = acquire, False = release (when something is granted)."""
    gpe = GraphPE(
        Simulator(), "gpe", TileConfig(gpe_threads=POOL), Clock(1.0)
    )
    grants: list[int] = []
    requested = 0
    released = 0
    for is_acquire in ops:
        if is_acquire:
            ticket = requested
            requested += 1
            gpe.acquire_thread_at(lambda _, t=ticket: grants.append(t))
        elif len(grants) > released:
            gpe.release_thread(now=0.0)
            released += 1
        # Invariants hold after every step.
        assert grants == sorted(grants)  # FIFO service order
        assert len(grants) <= requested
        assert len(grants) <= released + POOL  # never over-granted
        assert len(grants) >= min(requested, released + POOL)  # work-conserving
    # Draining all granted work grants everything that was requested.
    while len(grants) > released:
        gpe.release_thread(now=0.0)
        released += 1
        if released > 10_000:
            raise AssertionError("release livelock")
    assert len(grants) == min(requested, released + POOL) or (
        len(grants) == requested
    )


@given(st.integers(1, 30), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_dnq_grants_bounded_by_capacity(num_reserves, entry_kb):
    sim = Simulator()
    config = TileConfig()
    clock = Clock(1.0)
    dna = DnaUnit(sim, "dna", config.dna, clock)
    dnq = DnnQueue(sim, "dnq", config, dna, clock)
    dnq.configure(entry_kb * 1024)
    granted = []
    for i in range(num_reserves):
        dnq.reserve(lambda i=i: granted.append(i))
    capacity = config.max_dnq_entries(entry_kb * 1024)
    assert len(granted) == min(num_reserves, capacity)
    assert granted == sorted(granted)  # FIFO

    # Filling every granted entry eventually grants every reservation.
    filled = 0
    while filled < len(granted):
        dnq.fill(0.0, dna.service_ns(1, 1.0), 1, on_complete=lambda t: None)
        filled += 1
        sim.run()
    assert len(granted) == num_reserves
    assert granted == sorted(granted)


@given(st.integers(1, 200), st.sampled_from([4, 16, 64, 256]))
@settings(max_examples=40, deadline=None)
def test_agg_pool_invariants(num_allocs, width):
    sim = Simulator()
    agg = Aggregator(sim, "agg", TileConfig(), Clock(1.0))
    agg.configure(width)
    granted = []
    for i in range(num_allocs):
        agg.alloc(1, lambda t, agg_id, i=i: granted.append((i, agg_id)))
    capacity = agg.capacity
    assert len(granted) == min(num_allocs, capacity)
    assert [i for i, _ in granted] == sorted(i for i, _ in granted)

    # Completing every granted aggregation eventually grants all, and
    # grant order stays FIFO.
    completed = 0
    while completed < len(granted):
        _, agg_id = granted[completed]
        agg.contribute_batch(agg_id, arrival_ns=0.0, count=1)
        completed += 1
    assert len(granted) == num_allocs
    assert [i for i, _ in granted] == list(range(num_allocs))
    assert agg.in_flight == 0


# -- one cost formula per unit ----------------------------------------------

clocks = st.floats(0.1, 5.0)


@given(st.lists(st.integers(0, 10**7), min_size=1, max_size=40), clocks,
       st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_gpe_cost_of_an_array_is_the_scalar_cost(counts, freq, switch):
    costs = GpeCostModel(context_switch_cycles=switch)
    gpe = GraphPE(Simulator(), "gpe", TileConfig(gpe_costs=costs),
                  Clock(freq))
    table = gpe.service_ns(np.array(counts, dtype=np.float64)).tolist()
    assert table == [gpe.service_ns(count) for count in counts]


@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=40), clocks,
       st.floats(1e-3, 1.0))
@settings(max_examples=100, deadline=None)
def test_dna_cost_of_an_array_is_the_scalar_cost(macs, freq, efficiency):
    dna = DnaUnit(Simulator(), "dna", TileConfig().dna, Clock(freq))
    table = dna.service_ns(np.array(macs, dtype=np.float64),
                           efficiency).tolist()
    assert table == [dna.service_ns(count, efficiency) for count in macs]


def test_layer_plan_tables_are_the_unit_costs():
    """Every duration the engine tabulates for a compiled gcn-cora layer
    is the unit's own cost call for that task."""
    from repro.eval.accelerator import program_for
    from repro.runtime.engine import RuntimeEngine, _LayerPlan

    engine = RuntimeEngine(Accelerator(CPU_ISO_BW.with_clock(1.2)))
    tile = engine.accel.tiles[0]
    gpe, dna = tile.gpe, tile.dna
    costs = gpe.costs
    ipl, ipa = costs.instructions_per_load, costs.instructions_per_alloc
    layers = program_for("gcn-cora").layers
    assert any(t.gather_count for layer in layers for t in layer.tasks)
    assert any(t.dna_macs for layer in layers for t in layer.tasks)
    for layer in layers:
        plan = _LayerPlan(engine, layer)
        assert plan.load_ns == gpe.service_ns(ipl)
        assert plan.dnq_issue_ns == gpe.service_ns(ipa)
        assert plan.ctrl_ns == [
            gpe.service_ns(t.control_instructions) for t in layer.tasks
        ]
        assert plan.agg_issue_ns == [
            gpe.service_ns(t.gather_count * ipl + ipa) for t in layer.tasks
        ]
        assert plan.dna_ns == [
            dna.service_ns(t.dna_macs, layer.dna_efficiency)
            for t in layer.tasks
        ]
