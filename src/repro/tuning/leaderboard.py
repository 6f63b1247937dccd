"""The leaderboard: tuned PPLB vs paper-default PPLB vs the baselines,
as one deterministic, cacheable grid.

:func:`build_leaderboard` expands a (scenario × engine × algorithm ×
seed) grid — the tuned entrant reads its overrides from a
:class:`~repro.tuning.registry.TunedConfigRegistry`, everything else
runs registry defaults — executes it through the cached parallel
runner, and aggregates per (scenario, engine) cell: mean final CoV,
mean rounds-used, migrations, traffic, and a rank per cell (1 = best
CoV). The payload is pure plain data with **no wall times and no
environment fields**, so two identical invocations produce
byte-identical JSON — the determinism the ``tune-smoke`` CI job pins —
and a repeated invocation is served entirely from the result cache.
"""

from __future__ import annotations

from os import PathLike
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.runner import ResultCache, RunnerMetrics, RunSpec, grid_seeds, run_grid
from repro.runner.spec import canonical_engine
from repro.tuning.optimizer import TUNABLE_ENGINES, score_result
from repro.tuning.registry import TunedConfigRegistry

#: the standard non-PPLB entrants (the three baseline families the
#: paper positions itself against: local averaging, dimension order,
#: and randomized pulling).
DEFAULT_BASELINES = ("diffusion", "dimension-exchange", "work-stealing")

#: display name of the registry-configured entrant.
TUNED_NAME = "pplb-tuned"


def build_leaderboard(
    scenarios: Sequence[str],
    engines: Sequence[str] = ("rounds",),
    registry: TunedConfigRegistry | None = None,
    baselines: Sequence[str] = DEFAULT_BASELINES,
    n_seeds: int = 2,
    base_seed: int = 0,
    max_rounds: int = 200,
    recorder: str = "summary",
    workers: int = 1,
    cache: ResultCache | str | PathLike | None = None,
    metrics: RunnerMetrics | None = None,
    batch_replicates: int | None = None,
) -> dict:
    """Run the comparison matrix and return the leaderboard payload.

    Returns a JSON-ready dict::

        {"format": 1, "max_rounds": …, "seeds": …,
         "scenarios": […], "engines": […], "algorithms": […],
         "rows": [{scenario, engine, algorithm, tuned, overrides,
                   mean_final_cov, mean_score, mean_rounds_used,
                   mean_migrations, mean_traffic, converged, rank}, …],
         "summary": {algorithm: {"wins": …, "mean_rank": …}},
         "tuned_vs_default": [{scenario, engine, tuned_cov, default_cov,
                               improvement}, …]}

    Execution-side numbers (cache split, wall time) deliberately stay
    *out* of the payload — pass a :class:`~repro.runner.RunnerMetrics`
    as ``metrics`` to observe them — so identical invocations emit
    byte-identical JSON whether or not the cache was warm.

    Rows are sorted (scenario, engine, rank); ranks order by mean final
    CoV, then mean objective score, then the entrant roster order
    (tuned, default, baselines) as the deterministic tie-break — so on
    an untuned family, where tuned and default PPLB are the *same
    spec*, the exact tie resolves in roster order rather than
    penalising the tuned entrant alphabetically.
    """
    if not scenarios:
        raise ConfigurationError("leaderboard needs at least one scenario")
    # One column per engine: a legacy spelling joins its base name's.
    engines = list(dict.fromkeys(canonical_engine(e) for e in engines))
    for engine in engines:
        if engine not in TUNABLE_ENGINES:
            raise ConfigurationError(
                f"leaderboard engine {engine!r} must be a task engine; "
                f"available: {sorted(TUNABLE_ENGINES)}"
            )
    registry = registry if registry is not None else TunedConfigRegistry()
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    entrants: list[tuple[str, str, dict]] = [
        # (display name, registry algorithm, overrides)
        (TUNED_NAME, "pplb", {}),  # overrides filled per scenario below
        ("pplb", "pplb", {}),
        *[(name, name, {}) for name in baselines],
    ]
    seeds = grid_seeds(n_seeds, base_seed=base_seed)

    specs: list[RunSpec] = []
    coords: list[tuple[str, str, str, dict]] = []
    for scenario in scenarios:
        tuned_entry = registry.get(scenario)
        for engine in engines:
            for display, algorithm, _ in entrants:
                if display == TUNED_NAME:
                    algorithm = (tuned_entry.algorithm if tuned_entry is not None
                                 else "pplb")
                    overrides = registry.overrides_for(scenario)
                else:
                    overrides = {}
                for seed in seeds:
                    spec = RunSpec(
                        scenario=scenario,
                        algorithm=algorithm,
                        seed=seed,
                        max_rounds=max_rounds,
                        algorithm_kwargs=dict(overrides),
                        engine=engine,
                        recorder=recorder,
                    )
                    specs.append(spec)
                    coords.append((spec.scenario, engine, display, overrides))

    # batch_replicates groups each entrant's seed axis into one
    # replicate batch (events cells run solo). Bit-identical per seed,
    # so every row, rank and the full payload are byte-identical to the
    # unbatched build.
    outcomes = run_grid(specs, workers=workers, cache=cache, metrics=metrics,
                        batch_replicates=batch_replicates)

    # ------------------------- aggregation -------------------------- #
    cells: dict[tuple[str, str, str], dict] = {}
    for (scenario, engine, display, overrides), outcome in zip(coords, outcomes):
        agg = cells.setdefault((scenario, engine, display), {
            "overrides": overrides, "cov": [], "score": [], "rounds": [],
            "migrations": [], "traffic": [], "converged": 0,
        })
        res = outcome.result
        agg["cov"].append(float(res.final_cov))
        agg["score"].append(score_result(res, max_rounds))
        agg["rounds"].append(
            res.converged_round if res.converged_round is not None else max_rounds
        )
        agg["migrations"].append(res.total_migrations)
        agg["traffic"].append(res.total_traffic)
        agg["converged"] += int(res.converged_round is not None)

    def mean(values: list) -> float:
        return round(sum(values) / len(values), 6)

    rows: list[dict] = []
    # Canonical spellings from the executed specs, original order kept.
    seen_scenarios = list(dict.fromkeys(s for s, _, _, _ in coords))
    for scenario in seen_scenarios:
        for engine in engines:
            cell_rows = []
            for order, (display, _, _) in enumerate(entrants):
                agg = cells[(scenario, engine, display)]
                cell_rows.append({
                    "_order": order,
                    "scenario": scenario,
                    "engine": engine,
                    "algorithm": display,
                    "tuned": display == TUNED_NAME,
                    "overrides": dict(agg["overrides"]),
                    "mean_final_cov": mean(agg["cov"]),
                    "mean_score": mean(agg["score"]),
                    "mean_rounds_used": mean(agg["rounds"]),
                    "mean_migrations": mean(agg["migrations"]),
                    "mean_traffic": mean(agg["traffic"]),
                    "converged": agg["converged"],
                })
            cell_rows.sort(
                key=lambda r: (r["mean_final_cov"], r["mean_score"], r["_order"])
            )
            for rank, row in enumerate(cell_rows, start=1):
                row["rank"] = rank
                del row["_order"]
            rows.extend(cell_rows)

    names = [display for display, _, _ in entrants]
    summary = {
        name: {
            "wins": sum(1 for r in rows if r["algorithm"] == name and r["rank"] == 1),
            "mean_rank": mean([r["rank"] for r in rows if r["algorithm"] == name]),
        }
        for name in names
    }

    tuned_vs_default = []
    by_key = {(r["scenario"], r["engine"], r["algorithm"]): r for r in rows}
    for scenario in seen_scenarios:
        for engine in engines:
            tuned = by_key[(scenario, engine, TUNED_NAME)]
            default = by_key[(scenario, engine, "pplb")]
            tuned_vs_default.append({
                "scenario": scenario,
                "engine": engine,
                "tuned_cov": tuned["mean_final_cov"],
                "default_cov": default["mean_final_cov"],
                "tuned_score": tuned["mean_score"],
                "default_score": default["mean_score"],
                "improvement": round(
                    default["mean_score"] - tuned["mean_score"], 6
                ),
            })

    return {
        "format": 1,
        "max_rounds": max_rounds,
        "seeds": len(seeds),
        "base_seed": base_seed,
        "recorder": recorder,
        "scenarios": seen_scenarios,
        "engines": engines,
        "algorithms": names,
        "rows": rows,
        "summary": summary,
        "tuned_vs_default": tuned_vs_default,
    }


def leaderboard_rows(payload: Mapping) -> list[dict]:
    """Flat display rows (for ``repro.analysis.format_table``)."""
    out = []
    for row in payload["rows"]:
        out.append({
            "scenario": row["scenario"],
            "engine": row["engine"],
            "rank": row["rank"],
            "algorithm": row["algorithm"],
            "final_cov": row["mean_final_cov"],
            "rounds": row["mean_rounds_used"],
            "migrations": row["mean_migrations"],
            "traffic": round(row["mean_traffic"], 2),
        })
    return out


def summary_rows(payload: Mapping) -> list[dict]:
    """Per-algorithm aggregate rows (wins, mean rank), best first."""
    summary = payload["summary"]
    rows = [
        {"algorithm": name, "wins": stats["wins"], "mean_rank": stats["mean_rank"]}
        for name, stats in summary.items()
    ]
    rows.sort(key=lambda r: (r["mean_rank"], r["algorithm"]))
    return rows
