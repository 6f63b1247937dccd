"""Command-line interface: run scenarios and print results.

Installed as ``pplb`` (see pyproject). Subcommands:

* ``pplb run --scenario mesh-hotspot --algorithm pplb`` — one simulation,
  printed summary + convergence curve.
* ``pplb compare --scenario mesh-hotspot`` — every algorithm on the same
  scenario through the parallel runner (``--workers``, cached), printed
  comparison table.
* ``pplb run-grid --scenarios … --algorithms … --seeds N --workers W`` —
  a (scenario × algorithm × seed) grid through the parallel runner with
  result caching (see :mod:`repro.runner`).
* ``pplb scenarios`` — the scenario catalogue: every registered name
  with its composed equivalent, plus the component registries and the
  composition grammar.
* ``pplb profile SCENARIO`` — run one scenario under the trace probe
  and print a per-phase wall-time breakdown; the Chrome trace-event
  JSON lands on disk for chrome://tracing / Perfetto.
* ``pplb tune --scenarios A B`` — search the PPLB parameter space per
  scenario family (successive halving + genetic refinement through the
  cached runner; see :mod:`repro.tuning`) and save the winners into the
  tuned-config registry (``--registry``, default ``tuned-configs.json``).
  Fully seeded: repeating an identical invocation replays every
  evaluation from the result cache and writes an identical registry.
* ``pplb leaderboard`` — tuned PPLB vs paper-default PPLB vs the
  baselines across a scenario × engine matrix; ``--scenarios all``
  sweeps every registered scenario, ``--output`` writes the
  deterministic JSON payload.
* ``pplb cache stats|clear|reindex`` — inspect, empty, or rebuild the
  metadata index of the on-disk result cache.
* ``pplb table1`` — regenerate the paper's Table 1 from the parameter
  registry.
* ``pplb report`` — stitch ``benchmarks/results/`` artifacts into one
  experiment report.

**Scenarios.** Anywhere a scenario is accepted — ``--scenario`` /
``--scenarios`` — both registered names (``pplb scenarios`` lists them)
and composed component strings work::

    pplb run --scenario "mesh:16x16+hotspot+stragglers:frac=0.1+diurnal"

See :mod:`repro.workloads.composition` for the grammar; strings are
validated at parse time (unknown components or parameters fail before
anything runs).

``run``, ``compare`` and ``run-grid`` all accept ``--engine
{rounds,events,fluid}``, one name per time model:
``rounds`` is the paper's synchronous protocol
(:class:`repro.sim.Simulator`), ``events`` the discrete-event
asynchronous engine (:class:`repro.sim.EventSimulator`) and ``fluid``
the divisible-load engine
(:class:`repro.sim.FluidSimulator`) over the scenario's initial
per-node loads — it requires one of the fluid algorithms
(``fluid-diffusion``, ``fluid-dimension-exchange``, ``fluid-sos``).
``run-grid``/``tune``/``leaderboard`` take ``--batch-replicates N`` to
run up to N seed replicates of one cell as one
:class:`repro.sim.BatchSimulator`: one shared topology build, each lane
the solo engine, bit-identical per seed with shared cache keys.
They also accept ``--recorder {full,thin:<k>,summary}`` — the recording
policy (see :mod:`repro.sim.recording`): ``full`` keeps every round,
``thin:<k>`` every k-th round plus the last with exact totals,
``summary`` streams O(1) running aggregates for very long runs — and
``--probe {null,counters,trace[:PATH]}`` — the telemetry probe (see
:mod:`repro.sim.telemetry`): ``null`` is off (the default, zero
overhead), ``counters`` aggregates per-phase wall times and structured
decision counters onto the result, ``trace`` additionally writes a
Chrome trace-event JSON per run. Probes observe, never steer: results
are bit-identical under every probe.

On ``compare``, ``run-grid``, ``tune`` and ``leaderboard``,
``--workers`` alone picks where execution happens: serial at width 1,
the persistent chunked worker pool otherwise. The pool is shared per
process, so consecutive grids in one invocation reuse warm workers.
The ``PPLB_WORKERS`` environment variable pins the resolved worker
count everywhere.

Global flags (before the subcommand): ``-v``/``-vv`` raise log
verbosity to INFO/DEBUG, ``--log-level LEVEL`` sets it exactly.
Warnings — e.g. a result-cache entry that ``cache reindex`` cannot
read — are always on.

Algorithm names come from :mod:`repro.runner.registry`, the registry
shared with the runner, so ``--algorithm`` choices and runner specs can
never disagree.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from repro.analysis import ascii_plot, format_table
from repro.core import PPLBConfig
from repro.exceptions import ReproError
from repro.runner import (
    ENGINES,
    FACTORIES,
    FLUID_FACTORIES,
    ResultCache,
    RunnerMetrics,
    RunSpec,
    execute_spec,
    expand_grid,
    grid_seeds,
    run_grid,
)
from repro.runner.spec import canonical_engine
from repro.sim.telemetry import DEFAULT_TRACE_PATH, probe_tag
from repro.tuning import (
    DEFAULT_BASELINES,
    DEFAULT_REGISTRY_PATH,
    TUNABLE_ENGINES,
    TuneBudget,
    TunedConfig,
    TunedConfigRegistry,
    build_leaderboard,
    leaderboard_rows,
    summary_rows,
    tune_scenario,
)

#: the CLI's historical name for the balancer registry (every factory
#: works as a zero-argument constructor with registry defaults).
ALGORITHMS = FACTORIES


def _scenario_arg(value: str) -> str:
    """Argparse type for scenario arguments: any registered name or
    composed component string; fails at parse time with the library's
    own diagnostics."""
    from repro.workloads import canonical_scenario_name

    try:
        canonical_scenario_name(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _kwargs_arg(value: str) -> dict:
    """Argparse type for a JSON object of keyword arguments."""
    import json

    try:
        kwargs = json.loads(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}")
    if not isinstance(kwargs, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {value!r}")
    return kwargs


def _probe_arg(value: str) -> str:
    """Argparse type for ``--probe``: canonicalises via the telemetry
    registry so unknown probe names fail at parse time."""
    try:
        return probe_tag(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def configure_logging(log_level: str | None = None, verbosity: int = 0) -> None:
    """Shared logging setup for every ``pplb`` entry point.

    ``log_level`` (an explicit name like ``"debug"``) wins over
    ``verbosity`` (the counted ``-v`` flags: 0 → WARNING, 1 → INFO,
    2+ → DEBUG). The floor is WARNING so diagnostics like the result
    cache's unreadable-entry warning are visible by default.
    """
    if log_level is not None:
        level = getattr(logging, log_level.upper())
    elif verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", force=True
    )


def _phase_rows(telemetry: dict) -> list[dict[str, object]]:
    """Per-phase breakdown rows (calls, total ms, mean µs, share %)."""
    phases: dict = telemetry.get("phases") or {}
    grand_total = sum(p["total_s"] for p in phases.values()) or 1.0
    rows = []
    for name, p in sorted(
        phases.items(), key=lambda kv: kv[1]["total_s"], reverse=True
    ):
        calls = int(p["calls"])
        total_s = float(p["total_s"])
        rows.append({
            "phase": name,
            "calls": calls,
            "total_ms": round(total_s * 1e3, 3),
            "mean_us": round(total_s / calls * 1e6, 2) if calls else 0.0,
            "share_%": round(100.0 * total_s / grand_total, 1),
        })
    return rows


def _print_telemetry(telemetry: dict | None) -> None:
    """Render a result's telemetry block (phases, counters, trace)."""
    if not telemetry:
        return
    rows = _phase_rows(telemetry)
    if rows:
        print()
        print(format_table(
            rows,
            columns=["phase", "calls", "total_ms", "mean_us", "share_%"],
            title=f"per-phase wall time ({telemetry.get('probe', '?')} probe)",
        ))
    counters: dict = telemetry.get("counters") or {}
    if counters:
        print()
        print(format_table(
            [{"counter": k, "count": counters[k]} for k in sorted(counters)],
            columns=["counter", "count"],
            title="telemetry counters",
        ))
    trace_path = telemetry.get("trace_path")
    if trace_path:
        print(f"\ntrace written to {trace_path} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")


def _run_one(scenario_name: str, algorithm: str, seed: int, rounds: int,
             engine: str = "rounds", recorder: str = "full",
             probe: str = "null"):
    spec = RunSpec(
        scenario=scenario_name, algorithm=algorithm, seed=seed,
        max_rounds=rounds, engine=engine, recorder=recorder, probe=probe,
    )
    return execute_spec(spec)


def _cache_from(args: argparse.Namespace) -> ResultCache | None:
    return None if args.no_cache else ResultCache(args.cache_dir)


def cmd_run(args: argparse.Namespace) -> int:
    result = _run_one(args.scenario, args.algorithm, args.seed, args.rounds,
                      engine=args.engine, recorder=args.recorder,
                      probe=args.probe)
    print(format_table(
        [result.summary_row()],
        title=f"{args.algorithm} on {args.scenario} "
              f"(seed {args.seed}, {args.engine} engine)",
    ))
    print()
    cov = result.series("cov")
    if cov.shape[0]:
        print(ascii_plot({"cov": cov},
                         title="Imbalance (CoV) vs round", logy=True, height=12))
    else:
        # The summary recorder keeps no per-round history — totals
        # only. (Use --recorder full or thin:<k> for a curve.)
        print("(no per-round history recorded — summary recorder)")
    _print_telemetry(result.telemetry)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    # The algorithm family follows the engine: task balancers on the
    # task engines, the divisible-load field under --engine fluid.
    names = FLUID_FACTORIES if args.engine == "fluid" else ALGORITHMS
    specs = [
        RunSpec(scenario=args.scenario, algorithm=name, seed=args.seed,
                max_rounds=args.rounds, engine=args.engine,
                recorder=args.recorder, probe=args.probe)
        for name in names
        if name != "none"
    ]
    outcomes = run_grid(specs, workers=args.workers, cache=_cache_from(args))
    rows = [o.row() for o in outcomes]
    print(format_table(
        rows,
        columns=["algorithm", "converged_round", "final_cov", "final_spread",
                 "migrations", "traffic", "cached"],
        title=f"All algorithms on {args.scenario} "
              f"(seed {args.seed}, {args.engine} engine)",
    ))
    hits = sum(1 for o in outcomes if o.cached)
    print(f"\n{len(specs)} runs: {len(specs) - hits} executed, {hits} from cache")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    text = write_report(args.results_dir, args.output)
    print(text)
    if args.output:
        print(f"\n(report written to {args.output})")
    return 0


def cmd_run_grid(args: argparse.Namespace) -> int:
    specs = expand_grid(
        args.scenarios,
        args.algorithms,
        grid_seeds(args.seeds, base_seed=args.base_seed),
        max_rounds=args.rounds,
        engine=args.engine,
        recorder=args.recorder,
        probe=args.probe,
    )
    cache = _cache_from(args)
    metrics = RunnerMetrics()

    def progress(outcome, done, total):
        res = outcome.result
        source = "cache" if outcome.cached else f"{res.wall_time_s:.2f}s"
        print(
            f"[{done}/{total}] {outcome.spec.label()}: "
            f"converged_round={res.converged_round} "
            f"final_cov={res.final_cov:.4f} ({source})"
        )

    started = time.perf_counter()
    outcomes = run_grid(specs, workers=args.workers, cache=cache,
                        progress=progress, metrics=metrics,
                        batch_replicates=args.batch_replicates)
    elapsed = time.perf_counter() - started

    rows = [o.row() for o in outcomes]
    print()
    print(format_table(
        rows,
        columns=["scenario", "algorithm", "seed", "converged_round",
                 "final_cov", "final_spread", "migrations", "traffic", "cached"],
        title=f"run-grid — {len(specs)} specs, {args.workers} worker(s)",
    ))
    hits = sum(1 for o in outcomes if o.cached)
    print(
        f"\n{len(specs)} specs: {len(specs) - hits} executed, {hits} from cache"
        + ("" if cache is None else f" ({cache.root})")
        + f"; wall {elapsed:.2f}s"
    )
    if metrics.cache_misses:
        print(
            f"runner: {metrics.backend} backend, {metrics.workers} worker(s) "
            f"({metrics.workers_spawned} spawned), "
            f"task time {metrics.task_s:.2f}s, "
            f"utilization {metrics.utilization():.0%}, "
            f"mean queue wait {metrics.mean_queue_wait_s():.2f}s"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    spec = RunSpec(
        scenario=args.scenario, algorithm=args.algorithm, seed=args.seed,
        max_rounds=args.rounds, engine=args.engine,
        probe=f"trace:{args.trace_out}", algorithm_kwargs=args.algorithm_kwargs,
    )
    started = time.perf_counter()
    result = execute_spec(spec)
    elapsed = time.perf_counter() - started
    print(format_table(
        [result.summary_row()],
        title=f"profile — {args.algorithm} on {args.scenario} "
              f"(seed {args.seed}, {args.engine} engine, "
              f"{elapsed * 1e3:.1f} ms wall)",
    ))
    _print_telemetry(result.telemetry)
    return 0


def _overrides_str(overrides: dict) -> str:
    """Compact ``k=v`` rendering of a tuned override dict."""
    if not overrides:
        return "(paper defaults)"
    return " ".join(f"{k}={overrides[k]}" for k in sorted(overrides))


def cmd_tune(args: argparse.Namespace) -> int:
    budget = TuneBudget(
        n_initial=args.initial,
        eta=args.eta,
        base_rounds=args.base_rounds,
        full_rounds=args.full_rounds,
        eval_seeds=args.eval_seeds,
        engine=args.engine,
        recorder=args.recorder,
        ga_generations=args.ga_generations,
        ga_population=args.ga_population,
    )
    cache = _cache_from(args)
    registry = TunedConfigRegistry.load(args.registry)

    rows = []
    total_specs = total_hits = total_evals = 0
    for scenario in args.scenarios:
        report = tune_scenario(
            scenario,
            algorithm=args.algorithm,
            seed=args.seed,
            budget=budget,
            workers=args.workers,
            cache=cache,
            batch_replicates=args.batch_replicates,
        )
        registry.put(report.scenario, TunedConfig(
            algorithm=report.algorithm,
            overrides=report.winner,
            score=report.score,
            default_score=report.default_score,
            n_evals=report.n_evals,
            seed=report.seed,
            budget=budget.to_dict(),
        ))
        total_specs += report.n_specs
        total_hits += report.cache_hits
        total_evals += report.n_evals
        rows.append({
            "scenario": report.scenario,
            "winner": _overrides_str(report.winner),
            "score": round(report.score, 6),
            "default": round(report.default_score, 6),
            "gain_%": round(100.0 * report.improvement(), 2),
            "evals": report.n_evals,
        })

    print(format_table(
        rows,
        columns=["scenario", "winner", "score", "default", "gain_%", "evals"],
        title=f"tune — {args.algorithm}, {budget.engine} engine, "
              f"rounds {budget.base_rounds}→{budget.full_rounds}, "
              f"seed {args.seed}",
    ))
    executed = total_specs - total_hits
    print(
        f"\n{total_evals} evals, {total_specs} specs: "
        f"{executed} executed, {total_hits} from cache"
        + ("" if cache is None else f" ({cache.root})")
    )
    registry.save(args.registry)
    print(f"registry written to {args.registry} "
          f"({len(registry)} tuned scenario(s))")
    return 0


def cmd_leaderboard(args: argparse.Namespace) -> int:
    from repro.workloads import SCENARIOS

    scenarios = list(args.scenarios)
    if scenarios == ["all"]:
        scenarios = sorted(SCENARIOS)
    registry = TunedConfigRegistry.load(args.registry)
    if len(registry) == 0:
        print(f"note: no tuned configs at {args.registry} — "
              "pplb-tuned runs the paper defaults (see `pplb tune`)")
    metrics = RunnerMetrics()
    payload = build_leaderboard(
        scenarios,
        engines=args.engines,
        registry=registry,
        baselines=tuple(args.baselines),
        n_seeds=args.seeds,
        base_seed=args.base_seed,
        max_rounds=args.rounds,
        recorder=args.recorder,
        workers=args.workers,
        cache=_cache_from(args),
        metrics=metrics,
        batch_replicates=args.batch_replicates,
    )
    print(format_table(
        leaderboard_rows(payload),
        columns=["scenario", "engine", "rank", "algorithm", "final_cov",
                 "rounds", "migrations", "traffic"],
        title=f"leaderboard — {len(scenarios)} scenario(s) × "
              f"{len(args.engines)} engine(s), {args.seeds} seed(s), "
              f"{args.rounds} rounds",
    ))
    print()
    print(format_table(
        summary_rows(payload),
        columns=["algorithm", "wins", "mean_rank"],
        title="wins per algorithm (rank 1 = lowest mean final CoV in a cell)",
    ))
    improved = sum(1 for r in payload["tuned_vs_default"] if r["improvement"] > 0)
    print(f"\ntuned vs default: better objective on {improved}/"
          f"{len(payload['tuned_vs_default'])} cells")
    print(f"{metrics.total} specs: {metrics.cache_misses} executed, "
          f"{metrics.cache_hits} from cache")
    if args.output:
        import json as _json

        with open(args.output, "w") as handle:
            _json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"leaderboard JSON written to {args.output}")
    return 0


def _human_bytes(n: int) -> str:
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{int(size)} B"  # pragma: no cover - unreachable


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        engine = canonical_engine(args.engine) if args.engine else None
        if engine is not None and engine not in ENGINES:
            # Plain argparse choices would also catch this, but the
            # filter deliberately shares the runner's diagnostic so an
            # unknown name fails identically everywhere (pinned by
            # tests/test_cli.py).
            print(
                f"error: unknown engine {engine!r}; available: {sorted(ENGINES)}",
                file=sys.stderr,
            )
            return 2
        stats = cache.stats()
        print(f"cache root : {stats['root']}")
        if not stats["exists"]:
            print("(cache directory does not exist yet — nothing cached)")
            return 0
        by_engine: dict = stats["by_engine"]
        if engine is not None:
            print(f"entries    : {by_engine.get(engine, 0)} ({engine})")
            return 0
        print(f"entries    : {stats['entries']}")
        print(f"disk usage : {_human_bytes(int(stats['total_bytes']))}")
        print(f"mean entry : {_human_bytes(int(stats['mean_bytes']))}")
        print(f"indexed    : {stats['indexed']}/{stats['entries']}"
              + ("" if stats["indexed"] >= stats["entries"]
                 else " (run `pplb cache reindex` for fast stats)"))
        for name in sorted(by_engine):
            print(f"  {name:<11}: {by_engine[name]}")
        return 0
    if args.cache_command == "reindex":
        count = cache.rebuild_index()
        print(f"indexed {count} cached result(s) at {cache.index_path}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def cmd_scenarios(_args: argparse.Namespace) -> int:
    from repro.workloads.composition import describe_aliases, describe_components

    print(format_table(
        describe_aliases(),
        columns=["scenario", "composition", "what"],
        title="Registered scenarios (aliases over composed specs)",
    ))
    print()
    print("Composition grammar: topology[+placement][+links][+heterogeneity]"
          "[+dynamics]")
    print("  component := name | name:k=v[,k=v...] | name:16x16 "
          "(topology shorthand)")
    print("  example   : mesh:16x16+hotspot+stragglers:frac=0.1+diurnal")
    print("  defaults  : placement=hotspot, links=unit; kinds are "
          "inferred from component names")
    for kind, rows in describe_components().items():
        print()
        print(format_table(
            rows,
            columns=["component", "parameters", "what"],
            title=f"{kind} components",
        ))
    return 0


def cmd_table1(_args: argparse.Namespace) -> int:
    rows = [
        {"parameter": p, "load-balancing equivalent": m, "implemented by": s}
        for p, m, s in PPLBConfig.table1_rows()
    ]
    print(format_table(rows, title="Paper Table 1 — physical parameters and their "
                                   "load-balancing equivalents"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pplb",
        description="Particle & Plane load balancing (IPPS 2006 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise log verbosity (-v = INFO, -vv = DEBUG); "
             "warnings are always shown",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="set the exact log level (overrides -v)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine(p: argparse.ArgumentParser) -> None:
        p.add_argument("--engine", choices=sorted(ENGINES), default="rounds",
                       help="execution model: synchronous rounds, the "
                            "asynchronous discrete-event engine, or the "
                            "divisible-load fluid engine (fluid-* "
                            "algorithms only)")
        p.add_argument("--recorder", default="full", metavar="POLICY",
                       help="recording policy: 'full' (every round), "
                            "'thin:<k>' (every k-th round + last, exact "
                            "totals), or 'summary' (O(1) running aggregates "
                            "for very long runs)")
        p.add_argument("--probe", type=_probe_arg, default="null",
                       metavar="PROBE",
                       help="telemetry probe: 'null' (off, the default — "
                            "zero overhead), 'counters' (per-phase wall "
                            "times + structured counters on the result), or "
                            "'trace[:PATH]' (Chrome trace-event JSON, "
                            "default path pplb-trace.json); results are "
                            "bit-identical under every probe")

    def add_cache_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=".pplb-cache",
                       help="result cache directory (re-runs are free)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")

    def add_batch_replicates(p: argparse.ArgumentParser) -> None:
        p.add_argument("--batch-replicates", type=int, default=None,
                       metavar="N",
                       help="run up to N seed replicates of one "
                            "(scenario, algorithm) cell on one shared "
                            "topology build (bit-identical per seed; "
                            "events specs run solo); default: off")

    all_algorithms = sorted(ALGORITHMS) + sorted(FLUID_FACTORIES)

    p_run = sub.add_parser("run", help="run one scenario with one algorithm")
    p_run.add_argument("--scenario", type=_scenario_arg, default="mesh-hotspot",
                       metavar="SCENARIO",
                       help="registered name (see `pplb scenarios`) or "
                            "composed string, e.g. "
                            "'mesh:16x16+hotspot+stragglers:frac=0.1'")
    p_run.add_argument("--algorithm", choices=all_algorithms, default="pplb")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--rounds", type=int, default=500)
    add_engine(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser(
        "compare",
        help="run every algorithm on a scenario (through the parallel "
             "runner, so --workers and the result cache apply)",
    )
    p_cmp.add_argument("--scenario", type=_scenario_arg, default="mesh-hotspot",
                       metavar="SCENARIO",
                       help="registered name or composed string")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--rounds", type=int, default=500)
    p_cmp.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial, 0 = one per core)")
    add_engine(p_cmp)
    add_cache_args(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_grid = sub.add_parser(
        "run-grid",
        help="run a (scenario × algorithm × seed) grid in parallel with "
             "result caching",
    )
    p_grid.add_argument("--scenarios", nargs="+", type=_scenario_arg,
                        default=["mesh-hotspot"], metavar="SCENARIO",
                        help="registered names and/or composed strings")
    p_grid.add_argument("--algorithms", nargs="+", choices=all_algorithms,
                        default=["pplb"], metavar="ALGO")
    p_grid.add_argument("--seeds", type=int, default=4,
                        help="repetitions per (scenario, algorithm) cell")
    p_grid.add_argument("--base-seed", type=int, default=0,
                        help="base for deterministic per-spec seed derivation")
    p_grid.add_argument("--rounds", type=int, default=500)
    p_grid.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial, 0 = one per core)")
    add_engine(p_grid)
    add_cache_args(p_grid)
    add_batch_replicates(p_grid)
    p_grid.set_defaults(fn=cmd_run_grid)

    p_prof = sub.add_parser(
        "profile",
        help="run one scenario under the trace probe and print the "
             "per-phase wall-time breakdown (Chrome trace JSON on disk)",
    )
    p_prof.add_argument("scenario", type=_scenario_arg, metavar="SCENARIO",
                        help="registered name or composed string, e.g. "
                             "'mesh:16x16+hotspot'")
    p_prof.add_argument("--algorithm", choices=all_algorithms, default="pplb")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--rounds", type=int, default=500)
    p_prof.add_argument("--engine", choices=sorted(ENGINES), default="rounds",
                        help="execution model to profile")
    p_prof.add_argument("--trace-out", default=DEFAULT_TRACE_PATH,
                        metavar="PATH",
                        help="where to write the Chrome trace-event JSON "
                             "(chrome://tracing / https://ui.perfetto.dev)")
    p_prof.add_argument("--algorithm-kwargs", type=_kwargs_arg, default="{}",
                        metavar="JSON",
                        help="keyword arguments for the algorithm, as a JSON "
                             "object, e.g. '{\"friction_jitter\": 0.1}'")
    p_prof.set_defaults(fn=cmd_profile)

    def scenario_or_all(value: str) -> str:
        return value if value == "all" else _scenario_arg(value)

    p_tune = sub.add_parser(
        "tune",
        help="search the PPLB parameter space per scenario family "
             "(successive halving + genetic refinement, cached) and "
             "save the winners into the tuned-config registry",
    )
    p_tune.add_argument("--scenarios", nargs="+", type=_scenario_arg,
                        default=["mesh-hotspot", "torus-hotspot"],
                        metavar="SCENARIO",
                        help="scenario families to tune (registered names "
                             "and/or composed strings)")
    p_tune.add_argument("--algorithm", choices=["pplb", "pplb-greedy"],
                        default="pplb",
                        help="which PPLBConfig-driven balancer to tune")
    p_tune.add_argument("--seed", type=int, default=0,
                        help="master tuning seed (candidates, GA and "
                             "evaluation seeds all derive from it)")
    p_tune.add_argument("--initial", type=int, default=8,
                        help="candidate pool size entering successive "
                             "halving (the paper default always rides "
                             "as candidate 0)")
    p_tune.add_argument("--eta", type=int, default=2,
                        help="halving rate: keep top 1/eta per rung, "
                             "multiply the round budget by eta")
    p_tune.add_argument("--base-rounds", type=int, default=50,
                        help="round budget of the cheapest rung")
    p_tune.add_argument("--full-rounds", type=int, default=200,
                        help="round budget survivors are promoted to")
    p_tune.add_argument("--eval-seeds", type=int, default=2,
                        help="repetitions per candidate evaluation")
    p_tune.add_argument("--ga-generations", type=int, default=4,
                        help="steady-state genetic refinement steps after "
                             "halving (0 disables)")
    p_tune.add_argument("--ga-population", type=int, default=4,
                        help="population size seeding the genetic search")
    p_tune.add_argument("--engine", choices=sorted(TUNABLE_ENGINES),
                        default="rounds",
                        help="engine candidate evaluations run on")
    p_tune.add_argument("--recorder", default="summary", metavar="POLICY",
                        help="recording policy for evaluations (summary "
                             "is cheapest and sufficient for the objective)")
    p_tune.add_argument("--workers", type=int, default=1,
                        help="worker processes per evaluation batch "
                             "(1 = serial, 0 = one per core)")
    p_tune.add_argument("--registry", default=DEFAULT_REGISTRY_PATH,
                        metavar="PATH",
                        help="tuned-config registry JSON to merge winners "
                             "into (created if missing)")
    add_cache_args(p_tune)
    add_batch_replicates(p_tune)
    p_tune.set_defaults(fn=cmd_tune)

    p_board = sub.add_parser(
        "leaderboard",
        help="tuned PPLB vs paper-default PPLB vs the baselines across "
             "a scenario × engine matrix (cached, deterministic JSON)",
    )
    p_board.add_argument("--scenarios", nargs="+", type=scenario_or_all,
                         default=["mesh-hotspot", "torus-hotspot"],
                         metavar="SCENARIO",
                         help="scenarios to rank on, or 'all' for every "
                              "registered scenario")
    p_board.add_argument("--engines", nargs="+",
                         choices=sorted(TUNABLE_ENGINES),
                         default=["rounds"],
                         help="task engines forming the matrix columns")
    p_board.add_argument("--baselines", nargs="+",
                         choices=sorted(ALGORITHMS),
                         default=list(DEFAULT_BASELINES),
                         help="baseline algorithms ranked alongside "
                              "tuned and default PPLB")
    p_board.add_argument("--seeds", type=int, default=2,
                         help="repetitions per (scenario, engine, algorithm)")
    p_board.add_argument("--base-seed", type=int, default=0)
    p_board.add_argument("--rounds", type=int, default=200)
    p_board.add_argument("--recorder", default="summary", metavar="POLICY",
                         help="recording policy for leaderboard runs")
    p_board.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial, 0 = one per core)")
    p_board.add_argument("--registry", default=DEFAULT_REGISTRY_PATH,
                         metavar="PATH",
                         help="tuned-config registry JSON to read "
                              "(missing = paper defaults for pplb-tuned)")
    p_board.add_argument("--output", default=None, metavar="PATH",
                         help="write the deterministic leaderboard JSON here")
    add_cache_args(p_board)
    add_batch_replicates(p_board)
    p_board.set_defaults(fn=cmd_leaderboard)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk result cache, or rebuild "
             "its metadata index",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, blurb in (("stats", "entry count and disk usage"),
                        ("clear", "delete every cached result"),
                        ("reindex", "rebuild the metadata index "
                                    "(index.jsonl) from the entries")):
        p_cache_cmd = cache_sub.add_parser(name, help=blurb)
        p_cache_cmd.add_argument("--cache-dir", default=".pplb-cache",
                                 help="result cache directory")
        if name == "stats":
            # Deliberately not argparse `choices`: the filter validates
            # against the runner's engine roster at run time so the
            # diagnostic matches the runner's own (and stays in sync
            # as engines are added).
            p_cache_cmd.add_argument(
                "--engine", default=None, metavar="ENGINE",
                help="only count entries produced by this engine "
                     f"({', '.join(sorted(ENGINES))})")
        p_cache_cmd.set_defaults(fn=cmd_cache)

    p_sc = sub.add_parser(
        "scenarios",
        help="list registered scenarios, the component registries and "
             "the composition grammar",
    )
    p_sc.set_defaults(fn=cmd_scenarios)

    p_t1 = sub.add_parser("table1", help="print the paper's Table 1 mapping")
    p_t1.set_defaults(fn=cmd_table1)

    p_rep = sub.add_parser(
        "report", help="aggregate benchmarks/results/ into one experiment report"
    )
    p_rep.add_argument("--results-dir", default="benchmarks/results")
    p_rep.add_argument("--output", default=None)
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(log_level=args.log_level, verbosity=args.verbose)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
