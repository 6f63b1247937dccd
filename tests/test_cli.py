"""Unit tests for the pplb command-line interface."""

import pytest

from repro.cli import ALGORITHMS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "mesh-hotspot"
        assert args.algorithm == "pplb"

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "µs" in out and "e_ij" in out
        assert "Table 1" in out

    def test_run_small(self, capsys):
        rc = main(["run", "--scenario", "mesh-hotspot", "--algorithm", "pplb",
                   "--rounds", "60", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pplb" in out
        assert "CoV" in out or "cov" in out

    def test_every_algorithm_constructs(self):
        for name, fn in ALGORITHMS.items():
            bal = fn()
            assert hasattr(bal, "step"), name


class TestRunGrid:
    GRID = ["run-grid", "--scenarios", "mesh-hotspot", "mesh-random",
            "--algorithms", "pplb", "diffusion", "--seeds", "2",
            "--rounds", "60", "--workers", "2"]

    def test_grid_defaults(self):
        args = build_parser().parse_args(["run-grid"])
        assert args.scenarios == ["mesh-hotspot"]
        assert args.algorithms == ["pplb"]
        assert args.workers == 1 and args.seeds == 4

    def test_rejects_unknown_grid_axis(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-grid", "--scenarios", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-grid", "--algorithms", "nope"])

    def test_grid_runs_and_then_serves_from_cache(self, capsys, tmp_path):
        argv = self.GRID + ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "8 specs: 8 executed, 0 from cache" in out
        assert "[8/8]" in out

        # Second invocation: everything replayed from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "8 specs: 0 executed, 8 from cache" in out

    def test_no_cache_flag(self, capsys, tmp_path):
        argv = ["run-grid", "--seeds", "2", "--rounds", "40", "--no-cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 from cache" not in out
        assert not (tmp_path / "cache").exists()


class TestEngineFlag:
    def test_engine_defaults_to_rounds(self):
        for cmd in (["run"], ["compare"], ["run-grid"]):
            assert build_parser().parse_args(cmd).engine == "rounds"

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", "warp"])

    def test_run_with_events_engine(self, capsys):
        rc = main(["run", "--scenario", "mesh-hotspot", "--algorithm", "pplb",
                   "--rounds", "60", "--seed", "1", "--engine", "events"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events engine" in out

    def test_grid_engines_do_not_share_cache_entries(self, capsys, tmp_path):
        base = ["run-grid", "--scenarios", "mesh-hotspot", "--algorithms",
                "diffusion", "--seeds", "1", "--rounds", "40",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(base + ["--engine", "rounds"]) == 0
        capsys.readouterr()
        # Same grid on the other engine must miss the cache.
        assert main(base + ["--engine", "events"]) == 0
        out = capsys.readouterr().out
        assert "1 specs: 1 executed, 0 from cache" in out

    def test_run_with_events_fast_engine(self, capsys):
        rc = main(["run", "--scenario", "torus-hotspot", "--algorithm", "pplb",
                   "--rounds", "40", "--seed", "1", "--engine", "events-fast"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events-fast engine" in out


class TestCacheStats:
    GRID = ["run-grid", "--scenarios", "mesh-hotspot", "--algorithms",
            "diffusion", "--seeds", "1", "--rounds", "30"]

    def test_stats_break_entries_down_by_engine(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.GRID + ["--engine", "events-fast",
                                 "--cache-dir", cache_dir]) == 0
        assert main(self.GRID + ["--engine", "rounds",
                                 "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 2" in out
        assert "events-fast: 1" in out
        assert "rounds     : 1" in out

    def test_stats_engine_filter(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.GRID + ["--engine", "events-fast",
                                 "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--engine", "events-fast"]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1 (events-fast)" in out

    def test_stats_unknown_engine_is_a_clean_error(self, capsys, tmp_path):
        # Pinned diagnostic: an unknown engine name must fail with the
        # runner's roster message, never a KeyError/traceback.
        rc = main(["cache", "stats", "--cache-dir", str(tmp_path / "cache"),
                   "--engine", "warp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert ("error: unknown engine 'warp'; available: "
                "['events', 'events-fast', 'fluid', 'rounds', 'rounds-fast']"
                ) in err


class TestRecorderFlag:
    def test_recorder_defaults_to_full(self):
        for cmd in (["run"], ["compare"], ["run-grid"]):
            assert build_parser().parse_args(cmd).recorder == "full"

    def test_run_with_summary_recorder_prints_totals(self, capsys):
        rc = main(["run", "--scenario", "mesh-hotspot", "--algorithm", "pplb",
                   "--rounds", "50", "--seed", "1", "--recorder", "summary"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no per-round history" in out
        assert "pplb" in out

    def test_bad_recorder_is_a_clean_error(self, capsys):
        rc = main(["run", "--recorder", "verbose"])
        assert rc == 1
        assert "recorder" in capsys.readouterr().err

    def test_grid_recorders_do_not_share_cache_entries(self, capsys, tmp_path):
        base = ["run-grid", "--scenarios", "mesh-hotspot", "--algorithms",
                "diffusion", "--seeds", "1", "--rounds", "40",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(base) == 0
        capsys.readouterr()
        # Same grid under a different recorder must miss the cache.
        assert main(base + ["--recorder", "summary"]) == 0
        out = capsys.readouterr().out
        assert "1 specs: 1 executed, 0 from cache" in out


class TestComposedScenarioFlag:
    def test_composed_string_accepted(self, capsys):
        rc = main(["run", "--scenario", "mesh:6x6+clustered+diurnal",
                   "--algorithm", "diffusion", "--rounds", "20"])
        assert rc == 0
        assert "mesh:6x6+clustered+diurnal" in capsys.readouterr().out

    def test_bad_composition_fails_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--scenario", "mesh:4+warp-drive"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--scenario", "mesh:4+stragglers:fraction=1"])

    def test_grid_mixes_names_and_compositions(self, capsys, tmp_path):
        rc = main(["run-grid", "--scenarios", "mesh-hotspot",
                   "torus:4+uniform+bursty", "--algorithms", "diffusion",
                   "--seeds", "1", "--rounds", "20",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "2 specs: 2 executed" in capsys.readouterr().out


class TestScenariosCommand:
    def test_lists_aliases_components_and_grammar(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "mesh-hotspot" in out and "mesh+hotspot" in out
        for kind in ("topology", "placement", "links", "heterogeneity",
                     "dynamics"):
            assert f"{kind} components" in out
        assert "stragglers" in out and "diurnal" in out
        assert "grammar" in out.lower()


class TestFluidEngineFlag:
    def test_run_with_fluid_engine(self, capsys):
        rc = main(["run", "--scenario", "mesh-hotspot",
                   "--algorithm", "fluid-diffusion", "--engine", "fluid",
                   "--rounds", "30"])
        assert rc == 0
        assert "fluid engine" in capsys.readouterr().out

    def test_fluid_algorithm_on_task_engine_is_a_clean_error(self, capsys):
        rc = main(["run", "--algorithm", "fluid-diffusion", "--rounds", "10"])
        assert rc == 1
        assert "fluid" in capsys.readouterr().err

    def test_compare_on_fluid_engine_uses_fluid_field(self, capsys, tmp_path):
        rc = main(["compare", "--scenario", "mesh-hotspot", "--rounds", "20",
                   "--engine", "fluid",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fluid-diffusion" in out and "fluid-sos" in out


class TestCompare:
    def test_compare_routes_through_runner_cache(self, capsys, tmp_path):
        argv = ["compare", "--scenario", "mesh-hotspot", "--rounds", "50",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 from cache" in out
        assert "pplb" in out and "diffusion" in out
        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out

    def test_compare_accepts_workers(self, capsys, tmp_path):
        argv = ["compare", "--scenario", "mesh-hotspot", "--rounds", "40",
                "--workers", "2", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "algorithm" in capsys.readouterr().out


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys, tmp_path):
        rc = main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")])
        assert rc == 0
        assert "does not exist" in capsys.readouterr().out

    def test_stats_and_clear_cycle(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run-grid", "--seeds", "1", "--rounds", "40",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert "mean entry" in out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1 cached result" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestProbeFlag:
    def test_probe_defaults_to_null(self):
        for argv in (["run"], ["compare"], ["run-grid"]):
            assert build_parser().parse_args(argv).probe == "null"

    def test_bad_probe_fails_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--probe", "nope"])

    def test_run_with_counters_probe_prints_breakdown(self, capsys):
        rc = main(["run", "--scenario", "mesh-hotspot", "--rounds", "40",
                   "--probe", "counters"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase wall time" in out
        assert "play_round" in out
        assert "balancer.hops" in out

    def test_run_without_probe_prints_no_telemetry(self, capsys):
        assert main(["run", "--scenario", "mesh-hotspot",
                     "--rounds", "40"]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall time" not in out
        assert "telemetry counters" not in out

    def test_probe_and_null_share_no_cache_entries(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        base = ["run-grid", "--seeds", "1", "--rounds", "40",
                "--cache-dir", cache_dir]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--probe", "counters"]) == 0
        out = capsys.readouterr().out
        # Different probe => different content hash => a fresh entry.
        assert "1 executed, 0 from cache" in out

    def test_grid_prints_runner_metrics(self, capsys, tmp_path):
        assert main(["run-grid", "--seeds", "2", "--rounds", "40",
                     "--no-cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "runner:" in out and "utilization" in out


class TestProfileCommand:
    def test_profile_runs_and_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(["profile", "mesh:8x8+hotspot", "--engine", "events-fast",
                   "--rounds", "40", "--trace-out", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile — pplb on mesh:8x8+hotspot" in out
        assert "per-phase wall time" in out
        assert "wake_wave" in out
        assert f"trace written to {trace}" in out

        import json as _json
        payload = _json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"play_round", "wake_wave"} <= {e["name"] for e in events}

    def test_profile_requires_a_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])

    def test_profile_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "nope"])


class TestLoggingFlags:
    def test_verbosity_flags_parse(self):
        assert build_parser().parse_args(["run"]).verbose == 0
        assert build_parser().parse_args(["-v", "run"]).verbose == 1
        assert build_parser().parse_args(["-vv", "run"]).verbose == 2
        args = build_parser().parse_args(["--log-level", "debug", "run"])
        assert args.log_level == "debug"

    def test_configure_logging_levels(self):
        import logging

        from repro.cli import configure_logging

        configure_logging()
        assert logging.getLogger().level == logging.WARNING
        configure_logging(verbosity=1)
        assert logging.getLogger().level == logging.INFO
        configure_logging(log_level="error", verbosity=2)
        assert logging.getLogger().level == logging.ERROR
        configure_logging()  # restore the default floor

    def test_fast_engine_scalar_fallback_warns(self, caplog):
        from repro.runner.registry import make_balancer
        from repro.sim import FastSimulator
        from repro.workloads import build_scenario

        scenario = build_scenario("mesh-hotspot", seed=3, side=5, n_tasks=100)
        balancer = make_balancer("pplb", friction_jitter=0.05)
        sim = FastSimulator(
            scenario.topology, scenario.system, balancer,
            links=scenario.links, dynamic=scenario.dynamic,
            node_speeds=scenario.node_speeds, seed=3,
        )
        with caplog.at_level("WARNING", logger="repro.core.balancer"):
            sim.run(max_rounds=20)
        fallbacks = [rec for rec in caplog.records
                     if "friction_jitter" in rec.message]
        assert len(fallbacks) == 1  # warned once, not per round


class TestTuneCommand:
    TINY = ["--scenarios", "mesh:4x4+hotspot", "--seed", "0",
            "--initial", "3", "--base-rounds", "8", "--full-rounds", "16",
            "--eval-seeds", "1", "--ga-generations", "1", "--ga-population", "2"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.scenarios == ["mesh-hotspot", "torus-hotspot"]
        assert args.algorithm == "pplb"
        assert args.engine == "rounds-fast"
        assert args.recorder == "summary"

    def test_rejects_non_pplb_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--algorithm", "diffusion"])

    def test_rejects_fluid_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--engine", "fluid"])

    def test_tune_writes_registry_and_reports(self, capsys, tmp_path):
        registry = tmp_path / "reg.json"
        rc = main(["tune", *self.TINY, "--registry", str(registry),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mesh:side=4+hotspot" in out
        assert "evals" in out and "registry written" in out
        assert registry.exists()

    def test_second_tune_replays_from_cache(self, capsys, tmp_path):
        argv = ["tune", *self.TINY, "--registry", str(tmp_path / "reg.json"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert " 0 from cache" in first
        assert " 0 executed" in second
        # identical winner table — only the cache split may differ
        assert first.splitlines()[:7] == second.splitlines()[:7]

    def test_tune_merges_into_existing_registry(self, capsys, tmp_path):
        registry = tmp_path / "reg.json"
        base = ["--registry", str(registry), "--cache-dir", str(tmp_path / "cache")]
        assert main(["tune", *self.TINY, *base]) == 0
        assert main(["tune", *self.TINY[2:], "--scenarios", "mesh:6x6+hotspot",
                     "--seed", "0", *base]) == 0
        out = capsys.readouterr().out
        assert "2 tuned scenario(s)" in out


class TestLeaderboardCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["leaderboard"])
        assert args.engines == ["rounds-fast"]
        assert args.seeds == 2

    def test_accepts_all_literal(self):
        args = build_parser().parse_args(["leaderboard", "--scenarios", "all"])
        assert args.scenarios == ["all"]

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["leaderboard", "--scenarios", "nope"])

    def test_leaderboard_without_registry_notes_defaults(self, capsys, tmp_path):
        rc = main(["leaderboard", "--scenarios", "mesh:4x4+hotspot",
                   "--seeds", "1", "--rounds", "16", "--recorder", "summary",
                   "--registry", str(tmp_path / "absent.json"),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no tuned configs" in out
        assert "pplb-tuned" in out and "tuned vs default" in out

    def test_leaderboard_json_is_deterministic(self, capsys, tmp_path):
        argv = ["leaderboard", "--scenarios", "mesh:4x4+hotspot",
                "--seeds", "1", "--rounds", "16", "--recorder", "summary",
                "--registry", str(tmp_path / "absent.json"),
                "--cache-dir", str(tmp_path / "cache")]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*argv, "--output", str(a)]) == 0
        assert main([*argv, "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
