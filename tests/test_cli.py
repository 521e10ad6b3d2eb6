"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Every subcommand's options (:func:`option_table`) as the CLI parses
#: them; an intentional CLI change updates this file in the same diff.
OPTIONS_GOLDEN = Path(__file__).with_name("cli_options_golden.json")


def option_table(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand: flags, dest, action, default, type, nargs, choices
    and required of every option — positionals first in declaration
    order, then optionals sorted by flag (help order is not parsing)."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sub in subparsers.choices.items():
        rows = []
        for index, action in enumerate(sub._actions):
            default = action.default
            if isinstance(default, tuple):
                default = list(default)
            rows.append({
                "_order": index if not action.option_strings else -1,
                "flags": list(action.option_strings),
                "dest": action.dest,
                "action": type(action).__name__,
                "default": default,
                "type": getattr(action.type, "__name__", action.type),
                "nargs": action.nargs,
                "choices": (None if action.choices is None
                            else list(action.choices)),
                "required": action.required,
            })
        rows.sort(key=lambda r: (r["flags"], r.pop("_order")))
        table[name] = rows
    return table


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_option_table_is_unchanged(self):
        """Shared options are defined once (argparse parents); every
        subcommand still parses exactly the options it always did."""
        golden = json.loads(OPTIONS_GOLDEN.read_text(encoding="utf-8"))
        assert option_table(build_parser()) == golden

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "gcn-cora", "--config", "GPU iso-BW",
             "--clock", "1.2"]
        )
        assert args.benchmark == "gcn-cora"
        assert args.config == "GPU iso-BW"
        assert args.clock == 1.2

    def test_figure8_fast_flag(self):
        args = build_parser().parse_args(["figure8", "--fast"])
        assert args.fast

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--benchmarks", "gcn-cora",
             "--configs", "CPU iso-BW", "--clocks", "1.2", "2.4",
             "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.benchmarks == ["gcn-cora"]
        assert args.configs == ["CPU iso-BW"]
        assert args.clocks == [1.2, 2.4]
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs is None  # resolved to the core count at run time
        assert list(args.clocks) == [1.2, 2.4]
        assert not args.no_cache
        assert args.timeout is None  # keeps the RetryPolicy default
        assert args.retries is None

    def test_sweep_retry_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--timeout", "30", "--retries", "1"]
        )
        assert args.timeout == 30.0
        assert args.retries == 1

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "gcn-cora"])
        assert args.benchmark == "gcn-cora"
        assert args.config == "CPU iso-BW"
        assert args.clock == 2.4
        assert args.trace is None

    def test_profile_arguments(self):
        args = build_parser().parse_args(
            ["profile", "gat-cora", "GPU iso-BW", "--clock", "1.2",
             "--trace", "/tmp/out.json"]
        )
        assert args.benchmark == "gat-cora"
        assert args.config == "GPU iso-BW"
        assert args.clock == 1.2
        assert args.trace == "/tmp/out.json"

    def test_noc_backend_flag_everywhere(self):
        parser = build_parser()
        for argv in (
            ["simulate", "gcn-cora", "--noc-backend", "flit"],
            ["profile", "gcn-cora", "--noc-backend", "flit"],
            ["sweep", "--noc-backend", "flit"],
        ):
            assert parser.parse_args(argv).noc_backend == "flit"

    def test_noc_backend_defaults_to_none(self):
        # None keeps the config's own backend.
        assert build_parser().parse_args(
            ["simulate", "gcn-cora"]
        ).noc_backend is None

    def test_system_flag_everywhere(self):
        parser = build_parser()
        for argv in (
            ["simulate", "gcn-cora", "--system", "cpu"],
            ["profile", "gcn-cora", "--system", "cpu"],
            ["sweep", "--system", "cpu"],
        ):
            assert parser.parse_args(argv).system == "cpu"

    def test_system_defaults_to_none(self):
        # None runs the registry's DEFAULT_SYSTEM.
        assert build_parser().parse_args(
            ["simulate", "gcn-cora"]
        ).system is None

    def test_compare_arguments(self):
        args = build_parser().parse_args(
            ["compare", "gcn-cora", "--systems", "cpu", "accel",
             "--clock", "1.2", "--output", "/tmp/cmp.txt"]
        )
        assert args.benchmark == "gcn-cora"
        assert args.systems == ["cpu", "accel"]
        assert args.clock == 1.2
        assert args.output == "/tmp/cmp.txt"

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "gcn-cora"])
        assert list(args.systems) == []  # resolved to all registered
        assert args.config == "CPU iso-BW"
        assert args.clock == 2.4
        assert args.output is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcn-cora" in out
        assert "table2" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "182" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "4 flits, 256B" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "19717" in out  # Pubmed nodes

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        assert "3168" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Pubmed" in out
        assert "22.129" in out  # paper reference value

    def test_figure9(self, capsys):
        assert main(["figure9"]) == 0
        assert "T M" in capsys.readouterr().out

    def test_table7(self, capsys):
        assert main(["table7"]) == 0
        assert "2716" in capsys.readouterr().out

    def test_simulate_fast_benchmark(self, capsys):
        assert main(["simulate", "pgnn-dblp_1"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "GPE utilization" in out

    def test_simulate_unknown_benchmark_exits_2(self, capsys):
        code = main(["simulate", "bert-wikipedia"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bert-wikipedia" in err
        assert "gcn-cora" in err  # lists valid names

    def test_profile_prints_breakdown_and_writes_trace(self, capsys,
                                                       tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["profile", "pgnn-dblp_1", "--system", "accel",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Utilization by unit class" in out
        assert "dna" in out
        assert "kernel:" in out and "events/s" in out
        document = json.loads(trace_path.read_text(encoding="utf-8"))
        assert document["traceEvents"]

    def test_profile_unknown_benchmark_exits_2(self, capsys):
        code = main(["profile", "bert-wikipedia"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bert-wikipedia" in err
        assert "gcn-cora" in err  # lists valid names

    def test_profile_unknown_config_exits_2(self, capsys):
        code = main(["profile", "gcn-cora", "TPU iso-BW"])
        assert code == 2
        err = capsys.readouterr().err
        assert "TPU iso-BW" in err
        assert "CPU iso-BW" in err

    def test_sweep_scoped_grid(self, capsys, tmp_path):
        from repro.exp.cache import clear_memo

        argv = ["sweep", "--jobs", "1", "--benchmarks", "pgnn-dblp_1",
                "--configs", "CPU iso-BW", "--clocks", "2.4",
                "--cache-dir", str(tmp_path)]
        clear_memo()  # other tests may have simulated this point already
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "1 points (0 cached, 1 simulated)" in first
        # A fresh "process" (memo dropped) is served from the persistent
        # cache, with identical latencies.
        clear_memo()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 points (1 cached, 0 simulated)" in second
        latency = [l for l in first.splitlines() if "pgnn" in l]
        assert latency and latency[-1] in second
        clear_memo()  # the memo now holds a non-default-cache entry

    def test_multichip_sweep_honours_noc_backend(self, capsys, tmp_path):
        """``--noc-backend`` reaches the chips of a multichip sweep, and a
        bare multichip sweep keeps its plan key."""
        from repro.exp.cache import ResultCache, clear_memo
        from repro.systems import system_plan

        def sweep(cache_dir, *options):
            clear_memo()  # every point must execute and store
            assert main(["sweep", "--system", "multichip", "--benchmarks",
                         "gcn-cora", "--jobs", "1", "--cache-dir",
                         str(cache_dir), *options]) == 0
            clear_memo()
            return ResultCache(cache_dir)

        def key(**options):
            return system_plan("multichip", "gcn-cora", **options).key

        cache = sweep(tmp_path / "analytical", "--noc-backend", "analytical")
        assert cache.get(key(noc_backend="analytical")) is not None
        assert cache.get(key(noc_backend="packet")) is None
        assert sweep(tmp_path / "bare").get(key()) is not None
        capsys.readouterr()

    def test_sweep_unknown_benchmark_exits_2(self, capsys):
        """Validation runs before any worker spawns: one line on stderr
        listing the valid names, exit code 2."""
        code = main(["sweep", "--benchmarks", "bert-wikipedia"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bert-wikipedia" in err
        assert "gcn-cora" in err  # lists valid names

    def test_sweep_unknown_config_exits_2(self, capsys):
        code = main(["sweep", "--configs", "TPU iso-BW"])
        assert code == 2
        err = capsys.readouterr().err
        assert "TPU iso-BW" in err
        assert "CPU iso-BW" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--retries", "-1"],
        ["sweep", "--timeout", "0"],
        ["dse", "gcn-cora", "--timeout", "0"],
    ], ids=["sweep-retries", "sweep-timeout", "dse-timeout"])
    def test_bad_retry_policy_exits_2(self, argv, capsys):
        """A bad --timeout or --retries is refused before any point runs:
        one line on stderr naming the option, exit code 2."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert argv[-2].lstrip("-") in captured.err

    def test_noc_backends_lists_fidelity_notes(self, capsys):
        assert main(["noc-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("packet", "flit", "analytical"):
            assert name in out
        assert "(default)" in out
        assert "zero-contention" in out  # a fidelity note, not just names

    @pytest.mark.parametrize("argv", [
        ["simulate", "gcn-cora", "--noc-backend", "booksim"],
        ["profile", "gcn-cora", "--noc-backend", "booksim"],
        ["sweep", "--noc-backend", "booksim"],
    ])
    def test_unknown_noc_backend_exits_2(self, argv, capsys):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, before any simulation
        assert "booksim" in err
        for name in ("packet", "flit", "analytical"):
            assert name in err  # lists the valid names

    def test_simulate_on_analytical_backend(self, capsys):
        assert main(["simulate", "pgnn-dblp_1", "--system", "accel",
                     "--noc-backend", "analytical"]) == 0
        assert "latency" in capsys.readouterr().out

    def test_profile_trace_works_on_any_backend(self, capsys, tmp_path):
        """Satellite contract: span-sink reporting rides the protocol, so
        --trace produces a NoC timeline for a non-default backend too."""
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["profile", "pgnn-dblp_1", "--system", "accel",
                     "--noc-backend", "analytical",
                     "--trace", str(trace_path)]) == 0
        assert "Utilization by unit class" in capsys.readouterr().out
        document = json.loads(trace_path.read_text(encoding="utf-8"))
        tracks = {
            (event.get("args") or {}).get("name")
            for event in document["traceEvents"]
            if event.get("ph") == "M"
        }
        assert any(str(track).startswith("noc/link/") for track in tracks)

    def test_systems_lists_backends(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in ("accel", "cpu", "gpu", "eyeriss", "multichip"):
            assert name in out
        assert "(default)" in out
        assert "Table VII" in out  # a fidelity note, not just names

    @pytest.mark.parametrize("argv", [
        ["simulate", "gcn-cora", "--config", "GPU iso-FLOPS"],
        ["profile", "gcn-cora", "GPU iso-FLOPS"],
    ], ids=["simulate", "profile"])
    def test_multichip_honours_config_and_noc_backend(self, argv, capsys):
        from repro.systems import run_system

        assert main(argv + ["--system", "multichip",
                            "--noc-backend", "analytical"]) == 0
        out = capsys.readouterr().out
        expected = run_system("multichip", "gcn-cora",
                              config_name="GPU iso-FLOPS",
                              noc_backend="analytical")
        assert f"gcn-cora on multichip: {expected.latency_ms:.3f} ms" in out
        default_row = run_system("multichip", "gcn-cora",
                                 noc_backend="analytical")
        assert f"{default_row.latency_ms:.3f}" != f"{expected.latency_ms:.3f}"

    def test_simulate_on_cpu_system(self, capsys):
        assert main(["simulate", "gcn-cora", "--system", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "gcn-cora on cpu: 3.500 ms" in out
        assert "measured_ms" in out  # breakdown table rides along

    def test_unknown_system_exits_2(self, capsys):
        code = main(["simulate", "gcn-cora", "--system", "tpu"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, before any execution
        assert "tpu" in err
        for name in ("accel", "cpu", "gpu", "eyeriss"):
            assert name in err  # lists the valid names

    def test_simulate_unsupported_workload_exits_2(self, capsys):
        code = main(["simulate", "pgnn-dblp_1", "--system", "eyeriss"])
        assert code == 2
        err = capsys.readouterr().err
        assert "pgnn0.combine" in err  # names the unmappable IR phases

    def test_profile_on_eyeriss_system(self, capsys):
        assert main(["profile", "gcn-cora", "--system", "eyeriss"]) == 0
        out = capsys.readouterr().out
        assert "gcn-cora on eyeriss" in out
        assert "eyeriss breakdown" in out
        assert "pe_utilization" in out

    def test_sweep_on_cpu_system(self, capsys):
        assert main(["sweep", "--system", "cpu", "--benchmarks",
                     "gcn-cora", "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "3.500" in out
        assert "cpu" in out

    def test_compare_prints_speedups(self, capsys):
        assert main(["compare", "pgnn-dblp_1",
                     "--systems", "accel", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "Speedup vs accel" in out
        assert "0.90x" in out  # Table VII: PGNN sees a CPU slowdown

    def test_compare_notes_unsupported_systems(self, capsys):
        assert main(["compare", "pgnn-dblp_1",
                     "--systems", "cpu", "eyeriss"]) == 0
        out = capsys.readouterr().out
        assert "unsupported" in out  # the table cell
        assert "note: eyeriss skipped" in out
        # No accel run requested: speedup column degrades gracefully.
        assert "-" in out

    def test_compare_writes_output_file(self, capsys, tmp_path):
        path = tmp_path / "comparison.txt"
        assert main(["compare", "pgnn-dblp_1", "--systems", "cpu",
                     "--output", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert "System" in text and "cpu" in text
        assert str(path) in capsys.readouterr().out

    def test_compare_unknown_benchmark_exits_2(self, capsys):
        code = main(["compare", "bert-wikipedia"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bert-wikipedia" in err
        assert "gcn-cora" in err

    def test_compare_unknown_system_exits_2(self, capsys):
        code = main(["compare", "gcn-cora", "--systems", "npu"])
        assert code == 2
        err = capsys.readouterr().err
        assert "npu" in err
        assert "eyeriss" in err

    def test_sweep_failure_exits_1(self, capsys, monkeypatch):
        """A sweep with failed points prints their summary and exits 1."""
        import repro.exp.runner as runner_mod
        from repro.exp.runner import PointResult, SweepOutcome

        def fake_detailed(points, jobs=1, cache=None, progress=None,
                          policy=None):
            results = [
                PointResult(p, "timeout", attempts=1, error="budget blown")
                for p in points
            ]
            return SweepOutcome(results)

        monkeypatch.setattr(runner_mod, "run_sweep_detailed", fake_detailed)
        code = main(["sweep", "--jobs", "1", "--benchmarks", "pgnn-dblp_1",
                     "--configs", "CPU iso-BW", "--clocks", "2.4",
                     "--no-cache"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out  # per-point table cell
        assert "TIMEOUT" in captured.err  # failure summary
        assert "budget blown" in captured.err

    def test_no_cache_env_reaches_sweep_and_dse(self, capsys, tmp_path,
                                                monkeypatch):
        """Without --no-cache or --cache-dir, ``$REPRO_NO_CACHE`` disables
        the persistent store: an empty ``$REPRO_CACHE_DIR`` stays empty."""
        from repro.exp import cache as result_cache

        session_default = result_cache.default_cache()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result_cache.reset_default_cache()
        result_cache.clear_memo()  # every point must execute and store
        try:
            assert main(["sweep", "--system", "cpu", "--benchmarks",
                         "gcn-cora", "--jobs", "1"]) == 0
            assert main(["dse", "gcn-cora", "--points", "1", "--jobs", "1",
                         "--noc-backend", "analytical", "--quiet"]) == 0
        finally:
            result_cache.clear_memo()
            result_cache.set_default_cache(session_default)
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestServeSimParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve-sim", "qm9"])
        assert args.benchmarks == ["qm9"]
        assert list(args.systems) == []  # resolved to ("accel",) at run time
        assert args.instances == 2
        assert args.arrival == "poisson"
        assert args.rate == 100.0
        assert args.seed == 0
        assert args.slo_ms == 50.0
        assert args.timeout_ms is None
        assert args.fault == []
        assert not args.no_saturation

    def test_full_argument_surface(self):
        args = build_parser().parse_args(
            ["serve-sim", "qm9", "gcn-cora", "--systems", "accel", "cpu",
             "--instances", "4", "--arrival", "bursty", "--rate", "250",
             "--duration-ms", "2000", "--seed", "7", "--slo-ms", "20",
             "--queue-bound", "128", "--max-batch", "16",
             "--timeout-ms", "80", "--retries", "2",
             "--fault", "crash:0@200", "--fault", "degrade:1@100+500x6",
             "--jobs", "4", "--noc-backend", "analytical",
             "--no-saturation", "--output", "/tmp/serve.json"]
        )
        assert args.benchmarks == ["qm9", "gcn-cora"]
        assert args.systems == ["accel", "cpu"]
        assert args.arrival == "bursty"
        assert args.fault == ["crash:0@200", "degrade:1@100+500x6"]
        assert args.no_saturation

    def test_unknown_arrival_kind_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "qm9",
                                       "--arrival", "pareto"])


class TestServeSimCommand:
    def test_serves_on_baselines_and_reports_tails(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        code = main(["serve-sim", "qm9", "--systems", "cpu", "gpu",
                     "--instances", "2", "--rate", "10", "--slo-ms", "5000",
                     "--duration-ms", "500", "--seed", "0",
                     "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving cpu x2 on mpnn-qm9_1000" in out  # shorthand resolved
        assert "serving gpu x2" in out
        for token in ("p50=", "p95=", "p99=", "attainment", "saturation"):
            assert token in out
        import json

        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert set(document["reports"]) == {"cpu", "gpu"}
        cpu = document["reports"]["cpu"]
        assert cpu["generated"] == cpu["completed"] + cpu["shed"] \
            + cpu["failed"]
        assert cpu["saturation_qps"] > 0
        assert "serve/scheduler" in cpu["metrics"]

    def test_seeded_run_is_bit_identical(self, capsys, tmp_path):
        argv = ["serve-sim", "gcn-cora", "--systems", "cpu", "--rate",
                "200", "--slo-ms", "100", "--seed", "3", "--no-saturation"]
        first_code = main(argv + ["--output", str(tmp_path / "a.json")])
        second_code = main(argv + ["--output", str(tmp_path / "b.json")])
        capsys.readouterr()
        assert first_code == second_code == 0
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_crash_fault_completes_with_failover(self, capsys):
        code = main(["serve-sim", "gcn-cora", "--systems", "cpu",
                     "--instances", "2", "--rate", "400",
                     "--slo-ms", "100", "--duration-ms", "300",
                     "--fault", "crash:0@50", "--no-saturation"])
        assert code == 0  # completed without hanging, accounting balanced
        out = capsys.readouterr().out
        assert "instance.0 [down]" in out

    def test_unsupported_workloads_are_noted_not_fatal(self, capsys):
        # eyeriss cannot serve PGNN's dependent traversal; the run must
        # say so and exit 1 only when *no* system could serve.
        code = main(["serve-sim", "pgnn-dblp_1", "--systems", "eyeriss"])
        assert code == 1
        captured = capsys.readouterr()
        assert "skipped" in captured.out
        assert "no system could serve" in captured.err

    def test_bad_fault_spec_exits_2(self, capsys):
        code = main(["serve-sim", "gcn-cora", "--fault", "meltdown:0@1"])
        assert code == 2
        assert "KIND:INSTANCE@MS" in capsys.readouterr().err

    def test_bad_policy_value_exits_2(self, capsys):
        code = main(["serve-sim", "gcn-cora", "--slo-ms", "0"])
        assert code == 2
        assert "slo_ms" in capsys.readouterr().err

    def test_ambiguous_shorthand_exits_2(self, capsys):
        code = main(["serve-sim", "cora", "--systems", "cpu"])
        assert code == 2
        err = capsys.readouterr().err
        assert "ambiguous" in err
        # Every colliding key is listed — the three-way "cora"
        # collision spans the GCN, GAT, and SAGE rows.
        assert "gcn-cora" in err and "gat-cora" in err
        assert "sage-cora" in err


class TestUnknownNameContract:
    """Satellite regression: every name-taking subcommand resolves
    through ``_resolve_names`` and exits 2 on an unknown name."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "bert-wikipedia"],
        ["profile", "bert-wikipedia"],
        ["compare", "bert-wikipedia"],
        ["sweep", "--benchmarks", "bert-wikipedia"],
        ["serve-sim", "bert-wikipedia"],
        ["partition-sweep", "bert-wikipedia"],
        ["dse", "bert-wikipedia"],
    ])
    def test_unknown_benchmark_exits_2_everywhere(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "bert-wikipedia" in err
        assert "gcn-cora" in err  # lists the valid names
        # The listing covers the registered extension rows too.
        assert "sage-cora" in err and "gin-citeseer" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "gcn-cora", "--system", "tpu"],
        ["profile", "gcn-cora", "--system", "tpu"],
        ["compare", "gcn-cora", "--systems", "tpu"],
        ["sweep", "--system", "tpu"],
        ["serve-sim", "gcn-cora", "--systems", "tpu"],
    ])
    def test_unknown_system_exits_2_everywhere(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "tpu" in err
        assert "eyeriss" in err  # lists the valid names

    @pytest.mark.parametrize("argv", [
        ["simulate", "gcn-cora", "--noc-backend", "booksim"],
        ["profile", "gcn-cora", "--noc-backend", "booksim"],
        ["compare", "gcn-cora", "--noc-backend", "booksim"],
        ["sweep", "--noc-backend", "booksim"],
        ["serve-sim", "gcn-cora", "--noc-backend", "booksim"],
        ["partition-sweep", "gcn-cora", "--noc-backend", "booksim"],
    ])
    def test_unknown_noc_backend_exits_2_everywhere(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "booksim" in err
        assert "analytical" in err  # lists the valid names

    def test_unknown_partition_method_exits_2(self, capsys):
        assert main(["partition-sweep", "gcn-cora", "--method", "kaffpa"]) == 2
        err = capsys.readouterr().err
        assert "kaffpa" in err
        assert "metis" in err  # lists the valid names

    @pytest.mark.parametrize("argv", [
        ["simulate", "gcn-cora", "--config", "TPU iso-BW"],
        ["compare", "gcn-cora", "--config", "TPU iso-BW"],
        ["partition-sweep", "gcn-cora", "--config", "TPU iso-BW"],
        ["sweep", "--configs", "TPU iso-BW"],
        ["sweep", "--configs", "CPU iso-BW", "TPU iso-BW"],
    ])
    def test_unknown_config_exits_2_everywhere(self, argv, capsys):
        # Config names resolve through repro.space.resolve_config — the
        # same single resolver — so the sweep's historical bespoke
        # validator and the one-config commands now share one message.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "TPU iso-BW" in err
        assert "CPU iso-BW" in err  # lists the valid names
        assert "GPU iso-FLOPS" in err

    def test_unknown_dse_space_exits_2(self, capsys):
        assert main(["dse", "gcn-cora", "--space", "hyper"]) == 2
        err = capsys.readouterr().err
        assert "hyper" in err
        assert "default" in err  # lists the valid names

    def test_unknown_dse_driver_exits_2(self, capsys):
        assert main(["dse", "gcn-cora", "--driver", "annealing"]) == 2
        err = capsys.readouterr().err
        assert "annealing" in err
        assert "evolutionary" in err  # lists the valid names

    def test_every_benchmark_taking_subcommand_is_covered(self, capsys):
        """Introspect the argparse tree so *future* subcommands inherit
        the contract automatically: every subcommand with a benchmark
        argument (positional or ``--benchmarks``) must route unknown
        names through ``_resolve_names`` and exit 2."""
        import argparse

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        covered = []
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest not in ("benchmark", "benchmarks"):
                    continue
                if action.option_strings:
                    argv = [name, action.option_strings[0], "bert-wikipedia"]
                else:
                    argv = [name, "bert-wikipedia"]
                assert main(argv) == 2, f"{name} must exit 2"
                err = capsys.readouterr().err
                assert "bert-wikipedia" in err, f"{name} must name the typo"
                assert "gcn-cora" in err, f"{name} must list valid names"
                assert "sage-pubmed" in err, (
                    f"{name} must list extension rows"
                )
                covered.append(name)
                break
        # The known name-taking subcommands must all have been walked.
        assert {"simulate", "profile", "compare", "sweep", "serve-sim",
                "partition-sweep", "dse"} <= set(covered)


class TestPartitionSweepCommand:
    def test_scaling_curve_and_json_output(self, tmp_path, capsys):
        import json

        out = tmp_path / "scaling.json"
        code = main(["partition-sweep", "gcn-cora", "--chips", "1", "2",
                     "--noc-backend", "analytical", "--jobs", "1",
                     "--output", str(out)])
        assert code == 0
        assert "gcn-cora scaling" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["benchmark"] == "gcn-cora"
        assert [p["chips"] for p in doc["points"]] == [1, 2]
        single, dual = doc["points"]
        assert single["speedup"] == 1.0
        assert single["communication_mb"] == 0.0
        assert dual["communication_mb"] > 0.0
        assert dual["cut_edges"] > 0
        assert dual["latency_ms"] == pytest.approx(
            dual["compute_ms"] + dual["communication_ms"]
        )

    def test_bad_chip_count_exits_2(self, capsys):
        assert main(["partition-sweep", "gcn-cora", "--chips", "0"]) == 2
        assert "chip" in capsys.readouterr().err

    def test_accepts_dataset_shorthand(self, capsys):
        # Resolution errors (ambiguous "cora") reuse the exit-2 path.
        assert main(["partition-sweep", "cora"]) == 2
        assert "ambiguous" in capsys.readouterr().err


class TestBenchmarkShorthands:
    def test_simulate_accepts_dataset_shorthand(self, capsys):
        assert main(["simulate", "qm9", "--system", "cpu"]) == 0
        # The canonical key, not the shorthand, names the run (and the
        # cache entry).
        assert "mpnn-qm9_1000 on cpu" in capsys.readouterr().out

    def test_sweep_accepts_dataset_shorthand(self, capsys):
        assert main(["sweep", "--system", "cpu", "--benchmarks", "dblp",
                     "--jobs", "1", "--no-cache"]) == 0
        assert "pgnn-dblp_1" in capsys.readouterr().out

    def test_compare_accepts_dataset_shorthand(self, capsys):
        assert main(["compare", "qm9", "--systems", "cpu"]) == 0
        assert "mpnn-qm9_1000" in capsys.readouterr().out

    def test_pubmed_shorthand_became_ambiguous(self, capsys):
        # The SAGE extension row made "pubmed" a two-way collision;
        # the error must list both candidates.
        assert main(["compare", "pubmed", "--systems", "cpu"]) == 2
        err = capsys.readouterr().err
        assert "ambiguous" in err
        assert "gcn-pubmed" in err and "sage-pubmed" in err

    def test_model_family_shorthand_resolves(self, capsys):
        # A model family name with exactly one row is a valid shorthand.
        assert main(["compare", "gin", "--systems", "cpu"]) == 0
        assert "gin-citeseer" in capsys.readouterr().out


class TestExtensionBenchmarks:
    """Satellite regression: the registered GraphSAGE/GIN rows are live
    end-to-end from every benchmark-taking subcommand."""

    def test_simulate_sage_cora(self, capsys):
        assert main(["simulate", "sage-cora", "--system", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "sage-cora on cpu" in out

    def test_sweep_gin_citeseer(self, capsys):
        assert main(["sweep", "--system", "cpu", "--benchmarks",
                     "gin-citeseer", "--jobs", "1", "--no-cache"]) == 0
        assert "gin-citeseer" in capsys.readouterr().out

    def test_compare_sage_cora_across_systems(self, capsys):
        # The CI ir-smoke invocation: an extension row priced on the
        # baseline, the dense mapper, and the simulated accelerator.
        assert main(["compare", "sage-cora", "--systems",
                     "cpu", "eyeriss", "accel",
                     "--noc-backend", "analytical"]) == 0
        out = capsys.readouterr().out
        assert "sage-cora" in out
        for system in ("cpu", "eyeriss", "accel"):
            assert system in out

    def test_partition_sweep_sage_cora(self, tmp_path, capsys):
        out_path = tmp_path / "scaling.json"
        assert main(["partition-sweep", "sage-cora", "--chips", "1", "2",
                     "--noc-backend", "analytical", "--jobs", "1",
                     "--output", str(out_path)]) == 0
        assert "sage-cora scaling" in capsys.readouterr().out

    def test_usage_lists_extension_rows(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("sage-cora", "sage-pubmed", "gin-citeseer"):
            assert key in out
