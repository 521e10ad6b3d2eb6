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
from repro.accel.config import (
    CPU_ISO_BW,
    GpeCostModel,
    MemoryConfig,
    TileConfig,
)
from repro.accel.dna import DnaUnit
from repro.accel.dnq import DnnQueue
from repro.accel.gpe import GraphPE
from repro.accel.memory import MemoryController
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
        dnq.fill(0.0, dna.service_ns(1, 1.0), 1)
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
    assert any(layer.tasks.gather_count.any() for layer in layers)
    assert any(layer.tasks.dna_macs.any() for layer in layers)
    for layer in layers:
        plan = _LayerPlan(engine, layer)
        tasks = layer.tasks
        assert plan.load_ns == gpe.service_ns(ipl)
        assert plan.dnq_issue_ns == gpe.service_ns(ipa)
        assert plan.ctrl_ns == [
            gpe.service_ns(count)
            for count in tasks.control_instructions.tolist()
        ]
        assert plan.agg_issue_ns == [
            gpe.service_ns(count * ipl + ipa)
            for count in tasks.gather_count.tolist()
        ]
        assert plan.dna_ns == [
            dna.service_ns(macs, layer.dna_efficiency)
            for macs in tasks.dna_macs.tolist()
        ]


# -- derived counters equal per-call accumulation ----------------------------
#
# The units count hot-path activity in integer tallies and derive their
# counters when read.  Each property drives random call sequences into a
# unit and keeps a reference dict that accumulates ``counters.get(name,
# 0.0) + amount`` per call; after every step the unit's counters equal
# it, key set and float type included, and reads in between (``get``,
# ``as_dict``, ``in``) and ``add("injected_faults")`` change nothing.


def _account(reference: dict, name: str, amount: float = 1.0) -> None:
    reference[name] = reference.get(name, 0.0) + amount


def _check(stats, reference: dict, snapshots: list, probe: str) -> None:
    counters = stats.as_dict()
    assert counters == reference
    assert all(type(value) is float for value in counters.values())
    assert stats.get(probe) == reference.get(probe, 0.0)
    assert (probe in stats) == (probe in reference)
    # A read mutates nothing: every earlier snapshot is still what the
    # reference was when it was taken.
    snapshots.append((counters, dict(reference)))
    for taken, expected in snapshots:
        assert taken == expected


def _fault(stats, reference: dict) -> None:
    stats.add("injected_faults")
    _account(reference, "injected_faults")


counter_names = st.sampled_from([
    "issues", "instructions", "thread_grants", "thread_stalls", "jobs",
    "macs", "reservations", "reservation_stalls", "entries",
    "queue_switches", "allocations", "alloc_stalls", "contributions",
    "values", "requests", "reads", "writes", "bytes_requested",
    "bytes_serviced", "bytes_wasted", "queue_stalls", "injected_faults",
])


@given(st.lists(st.tuples(
    st.sampled_from(["issue", "acquire", "release", "fault"]),
    st.integers(0, 10**6), counter_names,
), max_size=60))
@settings(max_examples=60, deadline=None)
def test_gpe_counters_equal_per_call_accumulation(ops):
    gpe = GraphPE(Simulator(), "gpe", TileConfig(gpe_threads=POOL),
                  Clock(1.0))
    reference: dict[str, float] = {}
    snapshots: list = []
    held = 0
    for op, amount, probe in ops:
        if op == "issue":
            gpe.issue_ns(gpe.service_ns(amount), amount, 0.0)
            _account(reference, "issues")
            _account(reference, "instructions", amount)
        elif op == "acquire":
            _account(reference, "thread_grants" if gpe.free_threads
                     else "thread_stalls")
            gpe.acquire_thread_at(lambda grant_ns: None)
            held += 1
        elif op == "release" and held > gpe.waiting_threads:
            if gpe.waiting_threads:
                _account(reference, "thread_grants")
            gpe.release_thread(now=0.0)
            held -= 1
        elif op == "fault":
            _fault(gpe.stats, reference)
        _check(gpe.stats, reference, snapshots, probe)


@given(st.lists(st.tuples(
    st.sampled_from(["execute", "reserve", "fill", "fault"]),
    st.integers(0, 10**6), st.integers(0, 1), counter_names,
), max_size=60), st.sampled_from([256, 31 * 1024, 62 * 1024]))
@settings(max_examples=60, deadline=None)
def test_dna_and_dnq_counters_equal_per_call_accumulation(ops, entry_bytes):
    sim = Simulator()
    config = TileConfig()
    dna = DnaUnit(sim, "dna", config.dna, Clock(1.0))
    dnq = DnnQueue(sim, "dnq", config, dna, Clock(1.0))
    dnq.configure(entry_bytes)
    dna_reference: dict[str, float] = {}
    dnq_reference: dict[str, float] = {}
    snapshots: list = []
    granted = [0]
    filled = [0]
    active = [0]

    def fill(macs, queue_id):
        if queue_id != active[0]:
            _account(dnq_reference, "queue_switches")
            active[0] = queue_id
        _account(dnq_reference, "entries")
        _account(dna_reference, "jobs")
        _account(dna_reference, "macs", macs)
        waiting = dnq.waiting_reservations
        dnq.fill(sim.now, dna.service_ns(macs, 1.0), macs, queue_id=queue_id)
        filled[0] += 1
        sim.run()  # the slot release hands over to the oldest waiter
        if waiting:
            _account(dnq_reference, "reservations")

    for op, macs, queue_id, probe in ops:
        if op == "execute":
            dna.execute_ns(dna.service_ns(macs, 1.0), macs, sim.now)
            _account(dna_reference, "jobs")
            _account(dna_reference, "macs", macs)
        elif op == "reserve":
            _account(dnq_reference, "reservations"
                     if dnq.slots_in_use < dnq.capacity
                     else "reservation_stalls")
            dnq.reserve(lambda: granted.__setitem__(0, granted[0] + 1))
        elif op == "fill" and granted[0] > filled[0]:
            fill(macs, queue_id)
        elif op == "fault":
            _fault(dnq.stats, dnq_reference)
        _check(dna.stats, dna_reference, snapshots, probe)
        _check(dnq.stats, dnq_reference, snapshots, probe)
    # Filling every granted entry serves every waiting reservation.
    while granted[0] > filled[0]:
        fill(1, 0)
        _check(dna.stats, dna_reference, snapshots, "reservations")
        _check(dnq.stats, dnq_reference, snapshots, "reservations")


widths = st.sampled_from([16, 4096, 15872])  # 128, 3 and 1 entries


@given(st.lists(st.tuples(
    st.sampled_from(["alloc", "alloc", "contribute", "configure", "fault"]),
    st.integers(1, 6), widths, counter_names,
), max_size=60), widths)
@settings(max_examples=60, deadline=None)
def test_agg_counters_equal_per_call_accumulation(ops, width):
    agg = Aggregator(Simulator(), "agg", TileConfig(), Clock(1.0))
    agg.configure(width)
    reference: dict[str, float] = {}
    snapshots: list = []
    width = [width]
    granted: dict[int, int] = {}  # agg id -> inputs still expected

    def on_grant(expected):
        return lambda grant_ns, agg_id: granted.__setitem__(agg_id, expected)

    def contribute(amount):
        agg_id, remaining = next(iter(granted.items()))
        count = min(amount, remaining)
        waiting = agg.waiting_allocs
        agg.contribute_batch(agg_id, 0.0, count)
        _account(reference, "contributions", count)
        _account(reference, "values", count * width[0])
        if count == remaining:
            del granted[agg_id]
            # The freed entry goes to waiting allocations, FIFO.
            for _ in range(waiting - agg.waiting_allocs):
                _account(reference, "allocations")
        else:
            granted[agg_id] = remaining - count

    for op, amount, new_width, probe in ops:
        if op == "alloc":
            if agg.in_flight + agg.waiting_allocs < agg.capacity:
                _account(reference, "allocations")
            else:
                _account(reference, "alloc_stalls")
            agg.alloc(amount, on_grant(amount))
        elif op == "contribute" and granted:
            contribute(amount)
        elif op == "configure" and not agg.in_flight:
            agg.configure(new_width)
            width[0] = new_width
        elif op == "fault":
            _fault(agg.stats, reference)
        _check(agg.stats, reference, snapshots, probe)
    # Completing every aggregation grants every waiting allocation.
    while granted:
        contribute(6)
        _check(agg.stats, reference, snapshots, "allocations")
    assert agg.in_flight == agg.waiting_allocs == 0


@given(st.lists(st.tuples(
    st.integers(0, 40), st.sampled_from([0, 1, 4, 63, 64, 100, 256, 1000]),
    st.floats(0, 500), st.booleans(), st.booleans(), counter_names,
), max_size=60), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_memory_counters_equal_per_call_accumulation(ops, depth):
    mem = MemoryController(Simulator(), "mem",
                           MemoryConfig(queue_depth=depth))
    reference: dict[str, float] = {}
    snapshots: list = []
    completions: list[float] = []
    now = 0.0
    for count, size, step, write, fault, probe in ops:
        if fault:
            _fault(mem.stats, reference)
        now += step
        completion = mem.request_scatter(count, size, now, write=write)
        if count:
            # The parent's per-call accounting, with its own view of the
            # in-order queue: a batch stalls behind the depth-th newest.
            if len(completions) >= depth and completions[-depth] > now:
                _account(reference, "queue_stalls")
            completions.append(completion)
            aligned = mem.aligned_size(size)
            _account(reference, "requests", count)
            _account(reference, "writes" if write else "reads", count)
            _account(reference, "bytes_requested", count * size)
            _account(reference, "bytes_serviced", count * aligned)
            _account(reference, "bytes_wasted", count * (aligned - size))
        _check(mem.stats, reference, snapshots, probe)
