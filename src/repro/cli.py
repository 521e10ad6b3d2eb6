"""Command-line interface: regenerate paper artifacts from the shell.

:func:`main` refuses every bad argument in one place: it resolves each
argument that names something before the command runs, and prints any
usage error as one ``repro <command>: <message>`` line on stderr and
exits 2.

Usage::

    python -m repro list                 # available artifacts
    python -m repro table2               # Section II latencies
    python -m repro figure8 --fast       # speedups without MPNN
    python -m repro simulate gcn-cora --config "GPU iso-BW" --clock 1.2
    python -m repro profile gcn-cora --trace trace.json  # observability
    python -m repro sweep --jobs 4       # Figure 8 grid, parallel + cached
    python -m repro noc-backends         # NoC fidelity models
    python -m repro sweep --noc-backend analytical   # fast, zero-contention
    python -m repro systems              # registered execution systems
    python -m repro simulate gcn-cora --system cpu   # baseline backends
    python -m repro compare gcn-cora     # cross-system speedup table
    python -m repro dse gcn-cora --driver random --points 200 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.accel.config import check_clock_ghz, resolve_config
from repro.dse import resolve_driver
from repro.eval import (
    baseline_tables,
    energy,
    section2,
    speedups,
    tables,
    utilization,
)
from repro.eval.report import format_table
from repro.models.registry import BENCHMARKS, resolve_benchmark_key
from repro.noc.backends import validate_backend
from repro.partition.methods import validate_method
from repro.space import resolve_space
from repro.systems import DEFAULT_SYSTEM, available_systems, validate_system

if TYPE_CHECKING:
    from repro.exp.runner import RetryPolicy

#: Every argument, by its parsed name, that names something or sets a
#: clock, in checking order, and its resolver; a plural argument holds a
#: list.  An unknown name raises a ``KeyError``
#: (:class:`repro.errors.UnknownNameError`, or the ambiguous-shorthand
#: error), a bad clock a ``ValueError``.
_RESOLVERS = {
    "benchmark": resolve_benchmark_key,
    "benchmarks": resolve_benchmark_key,
    "config": resolve_config,
    "configs": resolve_config,
    "system": validate_system,
    "systems": validate_system,
    "noc_backend": validate_backend,
    "method": validate_method,
    "space": resolve_space,
    "driver": resolve_driver,
    "clock": check_clock_ghz,
    "clocks": check_clock_ghz,
}


class _UsageError(Exception):
    """A bad command-line argument: :func:`main` prints it as one line
    and exits 2."""


def _resolve_arguments(args: argparse.Namespace) -> None:
    """Check every argument of ``args`` that :data:`_RESOLVERS` names.

    Runs before any simulation or worker spawn, so a typo fails in
    milliseconds listing the valid names.  Benchmark names are written
    back as canonical keys (dataset shorthands like ``qm9`` resolve,
    ambiguous ones are refused with their candidates), and an absent
    ``--system`` becomes :data:`repro.systems.DEFAULT_SYSTEM`.
    """
    if "system" in vars(args) and args.system is None:
        args.system = DEFAULT_SYSTEM
    for name, resolve in _RESOLVERS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        try:
            if isinstance(value, (list, tuple)):
                resolved = [resolve(item) for item in value]
            else:
                resolved = resolve(value)
        except KeyError as exc:
            raise _UsageError(exc.args[0]) from None
        except ValueError as exc:
            raise _UsageError(exc) from None
        if name in ("benchmark", "benchmarks"):
            setattr(args, name, resolved)


def _cmd_list(_args) -> None:
    from repro.accel.config import CONFIGURATIONS
    from repro.dse import driver_names
    from repro.models import ALL_BENCHMARKS
    from repro.noc.backends import backend_names
    from repro.partition import method_names
    from repro.space import space_names
    from repro.systems import system_names

    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    artifacts = [artifact.name for artifact in ARTIFACTS]
    commands = [name for name in subcommands
                if name != "list" and name not in artifacts]
    print(f"artifacts: {' '.join(artifacts)}")
    print(f"commands:  {' '.join(commands)}")
    print("           (flags: repro COMMAND --help)")
    print(f"benchmarks: {' '.join(b.key for b in ALL_BENCHMARKS)}")
    print(f"systems: {' '.join(system_names())}")
    print(f"noc backends: {' '.join(backend_names())}")
    print(f"partition methods: {' '.join(method_names())}")
    print(f"configurations: {' | '.join(c.name for c in CONFIGURATIONS)}")
    print(f"parameter spaces: {' '.join(space_names())}")
    print(f"dse drivers: {' '.join(driver_names())}")


def _print_registry(title: str, headers: list[str],
                    entries: Iterable[tuple[str, str]], default: str,
                    hint: str) -> None:
    """Print a registry's ``(name, note)`` entries, marking the default
    one, and then ``hint``: how to select an entry."""
    print(format_table(
        headers,
        [(name + (" (default)" if name == default else ""), note)
         for name, note in entries],
        title=title,
    ))
    print(hint)


def _cmd_noc_backends(_args) -> None:
    from repro.noc.backends import DEFAULT_BACKEND, available_backends

    _print_registry(
        "NoC backends", ["Backend", "Fidelity"],
        [(info.name, info.fidelity) for info in available_backends()],
        DEFAULT_BACKEND, "select with --noc-backend NAME or "
                         "AcceleratorConfig(noc_backend=...)",
    )


def _cmd_systems(_args) -> None:
    _print_registry(
        "Execution systems", ["System", "Model"],
        [(info.name, info.summary) for info in available_systems()],
        DEFAULT_SYSTEM, "select with --system NAME or run_system(NAME, ...)",
    )


def figure8_cells(fast: bool = False,
                  jobs: int = 1) -> list[speedups.Figure8Cell]:
    """The Figure 8 cells ``repro figure8`` prints: every benchmark, or
    every one but MPNN, the slowest to simulate, when ``fast`` is set.
    ``jobs`` changes only the wall time (:func:`repro.eval.figure8`)."""
    keys = tuple(b.key for b in BENCHMARKS
                 if not (fast and b.key == "mpnn-qm9_1000"))
    return speedups.figure8(benchmarks=keys, jobs=jobs)


def _print_figure8(args) -> None:
    cells = figure8_cells(args.fast)
    print(format_table(
        ["Config", "Benchmark", "Clock (GHz)", "Latency (ms)", "Speedup"],
        [(c.config, c.benchmark, c.clock_ghz, c.latency_ms,
          f"{c.speedup:.2f}x") for c in cells],
        title="Figure 8",
    ))
    for config, _ in speedups.FIGURE8_GROUPS:
        for clock in speedups.FIGURE8_CLOCKS:
            print(f"mean speedup {config} @ {clock:g} GHz: "
                  f"{speedups.mean_speedup(cells, config, clock):.2f}x")


def _print_figure9(_args) -> None:
    for name, rows in tables.figure9().items():
        print(f"{name}:")
        for row in rows:
            print(f"  {row}")


@dataclass(frozen=True)
class Artifact:
    """A paper artifact and its subcommand: ``repro NAME`` prints a table
    of ``row(r)`` for each ``r`` of ``driver()`` under ``headers`` and
    ``title``, or calls ``printer`` with the parsed arguments if set."""

    name: str
    help: str
    title: str = ""
    headers: tuple[str, ...] = ()
    driver: Callable[[], Iterable[Any]] = tuple
    row: Callable[[Any], Sequence[object]] = tuple
    printer: Callable[[argparse.Namespace], None] | None = None
    #: Whether the subcommand takes ``--fast``, which skips MPNN.
    fast: bool = False

    def show(self, args: argparse.Namespace) -> None:
        """Print the artifact as ``repro NAME`` does."""
        if self.printer is not None:
            self.printer(args)
        else:
            print(format_table(self.headers,
                               [self.row(r) for r in self.driver()],
                               title=self.title))


#: The paper's tables and figures in the paper's order, and the energy
#: extension: the only definition of their subcommands, of what each
#: prints, and of the order ``examples/reproduce_paper.py`` prints them.
ARTIFACTS: tuple[Artifact, ...] = (
    Artifact("table1", "print table1", "table1", ("Parameter", "Value"),
             tables.table1),
    Artifact(
        "table2", "Section II latencies", "Table II",
        ("Graph", "Unlimited (ms)", "paper", "68GBps (ms)", "paper"),
        section2.table2,
        lambda r: (r.graph, r.unlimited_ms,
                   section2.TABLE2_PAPER_MS[r.graph.lower()][0], r.limited_ms,
                   section2.TABLE2_PAPER_MS[r.graph.lower()][1]),
    ),
    Artifact(
        "figure2", "Section II waste analysis", "Figure 2",
        ("Graph", "BW (GB/s)", "Useful BW", "PE util", "Useful util",
         "Useful mem", "Useful compute"), section2.figure2,
        lambda r: (r.graph, r.required_bandwidth_gbps,
                   r.useful_bandwidth_gbps, r.pe_utilization,
                   r.useful_pe_utilization,
                   f"{r.useful_traffic_fraction:.1%}",
                   f"{r.useful_compute_fraction:.1%}"),
    ),
    Artifact("table3", "print table3", "table3", ("Parameter", "Value"),
             tables.table3),
    Artifact("table4", "print table4", "table4", ("Parameter", "Value"),
             tables.table4),
    Artifact(
        "table5", "print table5", "Table V",
        ("Dataset", "Graphs", "Nodes", "Edges", "V.F.", "E.F.", "O.F."),
        tables.table5,
    ),
    Artifact(
        "table6", "print table6", "Table VI",
        ("Configuration", "Tiles", "Mem", "ALUs", "BW (GB/s)"),
        tables.table6,
    ),
    Artifact(
        "table7", "baseline latencies", "Table VII (ms)",
        ("Benchmark", "Graph", "CPU model", "CPU meas", "GPU model",
         "GPU meas"), baseline_tables.table7,
        lambda r: (r.benchmark, r.input_graph, r.cpu_modeled_ms,
                   r.cpu_measured_ms, r.gpu_modeled_ms, r.gpu_measured_ms),
    ),
    Artifact("figure8", "speedup sweep (slow)", printer=_print_figure8,
             fast=True),
    Artifact("figure9", "mesh topologies", printer=_print_figure9),
    Artifact(
        "figure10", "utilizations", "Figure 10",
        ("Benchmark", "BW (GB/s)", "BW util", "DNA util", "GPE util"),
        utilization.figure10,
        lambda r: (r.benchmark, r.mean_bandwidth_gbps,
                   r.bandwidth_utilization, r.dna_utilization,
                   r.gpe_utilization),
    ),
    Artifact(
        "energy", "energy extension table", "Energy (extension)",
        ("Benchmark", "Accel (uJ)", "dominant", "vs CPU", "vs GPU"),
        energy.energy_table,
        lambda r: (r.benchmark, r.accel_uj, r.dominant, f"{r.vs_cpu:.0f}x",
                   f"{r.vs_gpu:.0f}x"),
    ),
)


def _cache_from_args(args) -> object:
    """The result store a command's cache flags select.

    ``--no-cache`` gives ``None``, ``--cache-dir`` its own store, and
    neither the process default, which honours ``$REPRO_CACHE_DIR`` and
    ``$REPRO_NO_CACHE``.
    """
    from repro.exp.cache import DEFAULT_CACHE, ResultCache

    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir is not None:
        return ResultCache(args.cache_dir)
    return DEFAULT_CACHE


def _retry_policy(args) -> RetryPolicy:
    """The sweep retry policy of ``--timeout`` and ``--retries``; a flag
    left unset keeps the :class:`~repro.exp.runner.RetryPolicy` default,
    and an invalid value is a usage error."""
    from repro.exp.runner import RetryPolicy

    flags = {"timeout_s": args.timeout, "retries": args.retries}
    try:
        return RetryPolicy(**{k: v for k, v in flags.items()
                              if v is not None})
    except ValueError as exc:
        raise _UsageError(exc) from None


def _jobs(args) -> int:
    """The worker count of ``--jobs``, or the host's core count when the
    flag is unset; a count below 1 is a usage error."""
    from repro.exp.runner import default_jobs

    if args.jobs is None:
        return default_jobs()
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    return args.jobs


def _sweep_point_label(point) -> str:
    if point.system != "accel":
        return f"{point.benchmark_key:16s} {point.system:14s}"
    config = point.resolved_config
    return (f"{point.benchmark_key:16s} {config.name:14s} "
            f"@{config.clock_ghz:g} GHz")


def _cmd_sweep(args) -> int:
    import time

    from repro.exp.runner import Point, figure8_points, run_sweep_detailed

    policy = _retry_policy(args)
    jobs = _jobs(args)
    cache = _cache_from_args(args)
    if args.system == "accel":
        points = figure8_points(
            benchmarks=tuple(args.benchmarks) or None,
            clocks=tuple(args.clocks),
            configs=tuple(args.configs) or None,
            noc_backend=args.noc_backend,
        )
    else:
        from repro.models import BENCHMARKS
        from repro.systems.accel import resolve_accel_config

        keys = tuple(args.benchmarks) or tuple(b.key for b in BENCHMARKS)
        # Multichip chips take the accelerator options; cpu, gpu and
        # eyeriss take none.
        config = (resolve_accel_config(noc_backend=args.noc_backend)
                  if args.system == "multichip" else None)
        points = [Point(key, config, system=args.system) for key in keys]
    hits = 0

    def progress(point, report, was_cached) -> None:
        nonlocal hits
        hits += was_cached
        source = "cache" if was_cached else f"sim x{jobs}"
        print(f"  [{source:>7s}] {_sweep_point_label(point)}: "
              f"{report.latency_ms:10.3f} ms")

    def util(report, name: str) -> str:
        if report is None:
            return "-"
        value = getattr(report, name, None)
        if value is None:
            value = getattr(report, "breakdown", {}).get(name)
        return f"{value:.0%}" if value is not None else "-"

    start = time.perf_counter()
    outcome = run_sweep_detailed(
        points, jobs=jobs, cache=cache, progress=progress, policy=policy
    )
    elapsed = time.perf_counter() - start
    rows = [
        (p.resolved_config.name if p.system == "accel" else p.system,
         p.benchmark_key,
         p.resolved_config.clock_ghz if p.system == "accel" else "-",
         r.latency_ms if r is not None else "FAILED",
         util(r, "bandwidth_utilization"),
         util(r, "dna_utilization"))
        for p, r in zip(points, outcome.reports)
    ]
    print(format_table(
        ["Config", "Benchmark", "Clock (GHz)", "Latency (ms)", "BW util",
         "DNA util"],
        rows, title="Sweep results",
    ))
    simulated = len({r.point.key for r in outcome.results
                     if r.status == "ok"})
    print(f"{len(points)} points ({hits} cached, {simulated} simulated) "
          f"in {elapsed:.2f} s with {jobs} job(s)")
    if not outcome.ok:
        print(f"repro sweep: {len(outcome.failures)} point(s) failed:",
              file=sys.stderr)
        for result in outcome.failures:
            print(f"  {result.describe()}", file=sys.stderr)
        return 1
    return 0


def _cmd_dse(args) -> int:
    import json
    import time

    from repro.dse import run_dse

    if args.points < 1:
        raise _UsageError("--points must be >= 1")
    policy = _retry_policy(args)
    jobs = _jobs(args)
    cache = _cache_from_args(args)

    def progress(evaluation) -> None:
        source = "cache" if evaluation.status == "cached" else "sim"
        latency = (f"{evaluation.latency_ms:10.3f} ms" if evaluation.ok
                   else evaluation.status.upper())
        print(f"  [{source:>5s}] {evaluation.point.describe()}: {latency}")

    start = time.perf_counter()
    result = run_dse(
        args.benchmark,
        space=resolve_space(args.space),
        driver=args.driver,
        points=args.points,
        seed=args.seed,
        jobs=jobs,
        cache=cache,
        noc_backend=args.noc_backend,
        policy=policy,
        progress=progress if not args.quiet else None,
    )
    elapsed = time.perf_counter() - start

    frontier = result.frontier()
    rows = [
        (e.point.config_name,
         e.config.num_tiles,
         e.config.num_memory_nodes,
         f"{e.config.clock_ghz:g}",
         f"{e.latency_ms:.3f}",
         e.config.total_alus,
         f"{e.config.total_bandwidth_gbps:g}")
        for e in frontier
    ]
    print(format_table(
        ["Point", "Tiles", "Mem", "Clock (GHz)", "Latency (ms)", "ALUs",
         "BW (GB/s)"],
        rows,
        title=f"Pareto frontier — {result.benchmark} "
              f"({result.driver}, seed {result.seed})",
    ))
    print(f"{len(result.evaluations)} points evaluated "
          f"({len(result.failures)} failed) over "
          f"{result.generations} generation(s) in {elapsed:.2f} s; "
          f"frontier {len(frontier)}, "
          f"hypervolume proxy {result.hypervolume():.4f}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(result.document(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0 if not result.failures else 1


def _run_on_system(args) -> int:
    """Execute one benchmark on a non-accel backend and print its report.

    The accelerator options go along: ``multichip`` simulates its chips
    on ``--config``/``--noc-backend``; cpu, gpu and eyeriss ignore them.
    """
    from repro.systems import UnsupportedWorkloadError, run_system

    try:
        report = run_system(
            args.system, args.benchmark, config_name=args.config,
            clock_ghz=args.clock, noc_backend=args.noc_backend,
        )
    except UnsupportedWorkloadError as exc:
        raise _UsageError(exc) from None
    print(f"{args.benchmark} on {args.system}: {report.latency_ms:.3f} ms")
    print(format_table(
        ["Term", "Value"],
        sorted(report.breakdown.items()),
        title=f"{args.system} breakdown",
    ))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs import Observer, write_chrome_trace

    if args.system != "accel":
        return _run_on_system(args)

    from repro.eval.accelerator import program_for
    from repro.runtime.engine import simulate
    from repro.systems.accel import resolve_accel_config

    # The observer watches this one simulation, which bypasses the
    # result cache: a profile always simulates and stores nothing.
    observer = Observer()
    report = simulate(
        program_for(args.benchmark),
        resolve_accel_config(args.config, args.clock, args.noc_backend),
        observer=observer,
    )
    print(f"{report.benchmark} on {report.config_name} @ "
          f"{report.clock_ghz} GHz: {report.latency_ms:.3f} ms")

    breakdown = observer.utilization_breakdown()
    print(format_table(
        ["Unit class", "Modules", "Busy (us)", "Mean util", "Peak util"],
        [
            (name, entry["modules"], entry["busy_ns"] / 1e3,
             f"{entry['utilization']:.1%}",
             f"{entry['peak_utilization']:.1%}")
            for name, entry in sorted(breakdown["classes"].items())
        ],
        title="Utilization by unit class",
    ))

    profile = observer.profiler.profile()
    print(f"kernel: {profile.events} events in {profile.run_wall_s:.2f} s "
          f"({profile.events_per_sec:,.0f} events/s, "
          f"{profile.handler_share:.0%} in handlers over "
          f"{profile.samples} samples)")
    if profile.queue_depth_hist:
        print("  queue depth (samples):")
        for label, count in profile.queue_depth_buckets():
            print(f"    {label:>12s}: {count}")
    hottest = profile.hottest_handlers()
    if hottest:
        print(f"  hottest handlers ({profile.samples} samples):")
        for owner, wall_s, samples in hottest:
            print(f"    {owner:32s} {wall_s * 1e3:8.1f} ms  "
                  f"({samples} samples)")

    if args.trace is not None:
        events = write_chrome_trace(args.trace, observer.timeline,
                                    observer.tracer)
        print(f"wrote {events} trace events to {args.trace} "
              f"(load in Perfetto / chrome://tracing)")
    return 0


def _cmd_simulate(args) -> int:
    if args.system != "accel":
        return _run_on_system(args)

    from repro.eval.accelerator import run_config
    from repro.systems.accel import resolve_accel_config

    report = run_config(
        args.benchmark,
        resolve_accel_config(args.config, args.clock, args.noc_backend),
    )
    print(f"{report.benchmark} on {report.config_name} @ "
          f"{report.clock_ghz} GHz")
    print(f"  latency: {report.latency_ms:.3f} ms")
    print(f"  DRAM traffic: {report.dram_bytes / 1e6:.1f} MB "
          f"({report.dram_wasted_bytes / max(report.dram_bytes, 1):.0%} "
          f"alignment waste)")
    print(f"  bandwidth utilization: {report.bandwidth_utilization:.0%}")
    print(f"  DNA utilization: {report.dna_utilization:.0%}")
    print(f"  GPE utilization: {report.gpe_utilization:.0%}")
    for layer in report.layers:
        print(f"    {layer.name:24s} {layer.latency_ns / 1e3:10.1f} us")
    return 0


def _cmd_compare(args) -> int:
    from repro.systems import (
        UnsupportedWorkloadError,
        run_system,
        system_names,
    )

    systems = tuple(args.systems) or system_names()
    reports = {}
    skipped = {}
    for name in systems:
        try:
            reports[name] = run_system(
                name, args.benchmark,
                config_name=args.config,
                clock_ghz=args.clock,
                noc_backend=args.noc_backend,
            )
        except UnsupportedWorkloadError as exc:
            skipped[name] = str(exc)

    accel_ms = (
        reports["accel"].latency_ms if "accel" in reports else None
    )

    def speedup(name: str) -> str:
        if accel_ms is None or name not in reports:
            return "-"
        return f"{reports[name].latency_ms / accel_ms:.2f}x"

    rows = [
        (name,
         f"{reports[name].latency_ms:.3f}" if name in reports
         else "unsupported",
         speedup(name))
        for name in systems
    ]
    table = format_table(
        ["System", "Latency (ms)", "Speedup vs accel"],
        rows,
        title=(f"{args.benchmark} @ {args.clock:g} GHz "
               f"({args.config} accel row)"),
    )
    print(table)
    for name, reason in skipped.items():
        print(f"  note: {name} skipped — {reason}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
        print(f"wrote comparison table to {args.output}")
    return 0


def _cmd_serve_sim(args) -> int:
    """Serve a seeded request stream on simulated instances: "Table VII
    as a service".  Deterministic for a given seed at any ``--jobs``."""
    import json

    from repro.obs import MetricsRegistry
    from repro.serve import (
        ArrivalSpec,
        ServePolicy,
        format_report,
        measure_service_times,
        parse_instance_fault,
        saturation_qps,
        simulate_serving,
        warm_service_cache,
    )
    from repro.systems import UnsupportedWorkloadError

    systems = tuple(args.systems) or ("accel",)
    keys = args.benchmarks
    _jobs(args)
    if args.instances < 1:
        raise _UsageError("--instances must be at least 1")
    try:
        faults = [parse_instance_fault(text) for text in args.fault]
        spec = ArrivalSpec(
            kind=args.arrival,
            rate_qps=args.rate,
            duration_ms=args.duration_ms,
            seed=args.seed,
        )
        policy = ServePolicy(
            slo_ms=args.slo_ms,
            queue_bound=args.queue_bound,
            max_batch=args.max_batch,
            timeout_ms=args.timeout_ms,
            max_retries=args.retries,
        )
    except ValueError as exc:
        raise _UsageError(exc) from None

    cache = _cache_from_args(args)
    if args.jobs is not None and args.jobs > 1:
        # Fill the per-(system, benchmark) service-time cache in
        # parallel; pricing below then hits the cache, so the report is
        # identical to a --jobs 1 run.
        warm_service_cache(systems, keys, jobs=args.jobs, cache=cache,
                           noc_backend=args.noc_backend)

    documents = {}
    exit_code = 0
    for system in systems:
        try:
            table = measure_service_times(
                system, keys, cache=cache, noc_backend=args.noc_backend
            )
        except UnsupportedWorkloadError as exc:
            print(f"  note: {system} skipped — {exc}")
            continue
        trace = spec.generate(keys)
        registry = MetricsRegistry()
        report = simulate_serving(
            trace, table, instances=args.instances, policy=policy,
            faults=faults, arrival=spec, registry=registry,
        )
        saturation = None
        if not args.no_saturation:
            saturation = saturation_qps(
                table, keys, spec, instances=args.instances, policy=policy
            )
        print(format_report(report, saturation))
        print()
        document = report.to_dict()
        document["saturation_qps"] = saturation
        document["metrics"] = registry.snapshot(report.duration_ms)
        documents[system] = document
        if not report.balanced:  # pragma: no cover - scheduler invariant
            exit_code = 1
    if not documents:
        print("repro serve-sim: no system could serve these benchmarks",
              file=sys.stderr)
        return 1
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"schema_version": 1, "reports": documents},
                      handle, indent=2, sort_keys=True)
        print(f"wrote serving report(s) to {args.output}")
    return exit_code


def _cmd_partition_sweep(args) -> int:
    """Multi-chip scaling curve: partition a benchmark across N chips and
    price compute (max shard) plus inter-chip communication per count."""
    import json

    from repro.eval.partition_sweep import (
        partition_scaling,
        scaling_document,
    )

    jobs = _jobs(args)
    cache = _cache_from_args(args)

    def progress(point, report, was_cached) -> None:
        source = "cache" if was_cached else "sim"
        print(f"  [{source:>5s}] {point.describe()}: "
              f"{report.latency_ms:10.3f} ms")

    try:
        curve = partition_scaling(
            args.benchmark,
            chip_counts=args.chips,
            method=args.method,
            seed=args.seed,
            config_name=args.config,
            clock_ghz=args.clock,
            noc_backend=args.noc_backend,
            link_bandwidth_gbps=args.link_bandwidth_gbps,
            link_latency_us=args.link_latency_us,
            jobs=jobs,
            cache=cache,
            progress=progress,
        )
    except ValueError as exc:
        raise _UsageError(exc) from None
    print(format_table(
        ["Chips", "Latency (ms)", "Speedup", "Compute (ms)", "Comm (ms)",
         "Comm (MB)", "Cut edges", "Halo nodes", "Balance"],
        [
            (p.chips, p.latency_ms, f"{p.speedup:.2f}x", p.compute_ms,
             p.communication_ms, p.communication_mb, p.cut_edges,
             p.halo_nodes, f"{p.balance:.2f}")
            for p in curve
        ],
        title=(f"{args.benchmark} scaling ({args.method}, "
               f"{args.config} @ {args.clock:g} GHz)"),
    ))
    if args.output is not None:
        document = scaling_document(
            args.benchmark, curve, args.method, args.seed, args.config,
            args.clock, args.noc_backend,
            link_bandwidth_gbps=args.link_bandwidth_gbps,
            link_latency_us=args.link_latency_us,
        )
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"wrote scaling curve to {args.output}")
    return 0


def _shared(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Hardware Acceleration of Graph Neural "
                    "Networks' (DAC 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list artifacts and benchmarks")
    for artifact in ARTIFACTS:
        command = sub.add_parser(artifact.name, help=artifact.help)
        if artifact.fast:
            command.add_argument("--fast", action="store_true",
                                 help="skip MPNN")
    sub.add_parser(
        "noc-backends",
        help="list registered NoC backends with fidelity notes",
    )
    sub.add_parser(
        "systems",
        help="list registered execution systems",
    )

    config = _shared(
        "--config", default="CPU iso-BW",
        help="Table VI row of the simulated accelerator, per chip on "
             "multichip (default: CPU iso-BW)",
    )
    clock = _shared(
        "--clock", type=float, default=2.4, metavar="GHZ",
        help="tile clock (default: 2.4)",
    )
    system = _shared(
        "--system", default=None, metavar="NAME",
        help="execution system: accel (default), cpu, gpu, eyeriss, "
             "multichip — see 'repro systems'; a system ignores "
             "accelerator options it has no use for",
    )
    noc_backend = _shared(
        "--noc-backend", default=None, metavar="NAME",
        help="NoC model of the accelerator simulations: packet "
             "(default), flit, analytical — see 'repro noc-backends'; "
             "part of the cache key (serve-sim's degraded mode always "
             "prices on analytical)",
    )
    jobs = _shared(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel worker processes; never changes a result, only "
             "wall time (default: all cores; serve-sim: serial)",
    )
    cache_dir = _shared(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent cache root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    no_cache = _shared(
        "--no-cache", action="store_true",
        help="skip the persistent result cache entirely",
    )
    timeout = _shared(
        "--timeout", type=float, default=None, metavar="S",
        help="wall-clock budget of each attempt at a point, in seconds, "
             "on any system; a late worker is killed (default: unlimited)",
    )
    retries = _shared(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts after a worker crash (default: 2)",
    )
    output = _shared(
        "--output", default=None, metavar="PATH",
        help="also write the report to PATH (JSON; compare writes its "
             "table)",
    )

    simulate = sub.add_parser(
        "simulate", help="simulate one benchmark",
        parents=[config, clock, system, noc_backend],
    )
    simulate.add_argument("benchmark", help="e.g. gcn-cora")
    profile = sub.add_parser(
        "profile",
        help="simulate one benchmark with full observability attached",
        parents=[clock, system, noc_backend],
    )
    profile.add_argument("benchmark", help="e.g. gcn-cora")
    profile.add_argument(
        "config", nargs="?", default="CPU iso-BW",
        help="Table VI configuration name (default: CPU iso-BW)",
    )
    profile.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON timeline to PATH",
    )
    sweep = sub.add_parser(
        "sweep",
        help="run a benchmark x config x clock grid, parallel and cached",
        parents=[jobs, cache_dir, no_cache, timeout, retries, noc_backend,
                 system],
    )
    sweep.add_argument(
        "--benchmarks", nargs="*", default=(), metavar="KEY",
        help="benchmark keys (default: all six)",
    )
    sweep.add_argument(
        "--configs", nargs="*", default=(), metavar="NAME",
        help="Table VI configuration names (default: all three)",
    )
    sweep.add_argument(
        "--clocks", nargs="*", type=float, default=(1.2, 2.4),
        metavar="GHZ", help="tile clocks (default: 1.2 2.4)",
    )
    dse = sub.add_parser(
        "dse",
        help="design-space search over a hardware parameter space, "
             "emitting a Pareto frontier (latency vs ALUs vs bandwidth)",
        parents=[jobs, noc_backend, timeout, retries, cache_dir, no_cache,
                 output],
    )
    dse.add_argument(
        "benchmark", help="benchmark key or dataset shorthand (e.g. "
                          "gcn-cora)",
    )
    dse.add_argument(
        "--space", default="default", metavar="NAME",
        help="parameter space to search (default: default)",
    )
    dse.add_argument(
        "--driver", default="random", metavar="NAME",
        help="search driver: grid, random (default), evolutionary",
    )
    dse.add_argument(
        "--points", type=int, default=64, metavar="N",
        help="evaluation budget (default: 64)",
    )
    dse.add_argument(
        "--seed", type=int, default=0,
        help="search seed; same (space, driver, points, seed) -> "
             "byte-identical report (default: 0)",
    )
    dse.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-point progress lines",
    )
    compare = sub.add_parser(
        "compare",
        help="one benchmark across execution systems, with speedups",
        parents=[config, clock, noc_backend, output],
    )
    compare.add_argument("benchmark", help="e.g. gcn-cora")
    compare.add_argument(
        "--systems", nargs="*", default=(), metavar="NAME",
        help="systems to compare (default: all registered)",
    )
    serve = sub.add_parser(
        "serve-sim",
        help="serve a seeded request stream on N simulated instances "
             "(Table VII as a service)",
        parents=[jobs, noc_backend, cache_dir, output],
    )
    serve.add_argument(
        "benchmarks", nargs="+", metavar="BENCHMARK",
        help="benchmark keys or dataset shorthands (e.g. qm9, gcn-cora)",
    )
    serve.add_argument(
        "--systems", nargs="*", default=(), metavar="NAME",
        help="execution systems to serve on (default: accel)",
    )
    serve.add_argument(
        "--instances", type=int, default=2, metavar="N",
        help="simulated serving instances per system (default: 2)",
    )
    serve.add_argument(
        "--arrival", choices=("poisson", "bursty"), default="poisson",
        help="arrival process (default: poisson; bursty = MMPP-2 at the "
             "same mean rate)",
    )
    serve.add_argument(
        "--rate", type=float, default=100.0, metavar="QPS",
        help="mean arrival rate in requests/s (default: 100)",
    )
    serve.add_argument(
        "--duration-ms", type=float, default=1_000.0, metavar="MS",
        help="arrival window in simulated ms (default: 1000)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="trace seed; same seed -> bit-identical report (default: 0)",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=50.0, metavar="MS",
        help="per-request latency objective (default: 50)",
    )
    serve.add_argument(
        "--queue-bound", type=int, default=64, metavar="N",
        help="admission-control bound; arrivals beyond it are shed "
             "(default: 64; degradation engages at half)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="requests per dispatched batch (default: 8)",
    )
    serve.add_argument(
        "--timeout-ms", type=float, default=None, metavar="MS",
        help="queue-wait budget before a request retries with backoff "
             "(default: no timeout)",
    )
    serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retry budget per request for timeouts and failovers "
             "(default: 1)",
    )
    serve.add_argument(
        "--fault", action="append", default=[], metavar="SPEC",
        help="inject an instance fault: KIND:INSTANCE@MS[+DURATION]"
             "[xFACTOR], e.g. crash:0@200 or degrade:1@100+500x6 "
             "(repeatable)",
    )
    serve.add_argument(
        "--no-saturation", action="store_true",
        help="skip the saturation-throughput search",
    )
    psweep = sub.add_parser(
        "partition-sweep",
        help="multi-chip scaling curve: speedup and communication volume "
             "vs chip count",
        parents=[config, clock, noc_backend, jobs, cache_dir, output],
    )
    psweep.add_argument(
        "benchmark", help="benchmark key or dataset shorthand (e.g. pubmed)",
    )
    psweep.add_argument(
        "--chips", nargs="*", type=int, default=(1, 2, 4, 8), metavar="N",
        help="chip counts to sweep (default: 1 2 4 8)",
    )
    psweep.add_argument(
        "--method", default="metis", metavar="NAME",
        help="partition method: metis (default) or bfs",
    )
    psweep.add_argument(
        "--seed", type=int, default=0,
        help="partition seed; part of every cache key (default: 0)",
    )
    psweep.add_argument(
        "--link-bandwidth-gbps", type=float, default=None, metavar="GBPS",
        help="inter-chip link bandwidth (default: 100)",
    )
    psweep.add_argument(
        "--link-latency-us", type=float, default=None, metavar="US",
        help="per-exchange-round link latency (default: 1)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "noc-backends": _cmd_noc_backends,
        "systems": _cmd_systems,
        "compare": _cmd_compare,
        "simulate": _cmd_simulate,
        "profile": _cmd_profile,
        "sweep": _cmd_sweep,
        "dse": _cmd_dse,
        "serve-sim": _cmd_serve_sim,
        "partition-sweep": _cmd_partition_sweep,
        **{artifact.name: artifact.show for artifact in ARTIFACTS},
    }
    try:
        _resolve_arguments(args)
        code = handlers[args.command](args)
    except _UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0 if code is None else code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
