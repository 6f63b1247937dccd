"""E19 — the self-tuning leaderboard: tuned PPLB vs defaults vs baselines.

Paper claim (conclusion): the framework's parameters can be "easily
… fine-tun[ed]" per system. E19 operationalises that as an experiment:
the optimizer harness (:mod:`repro.tuning`) searches the physics
parameter space per scenario family — successive halving over cheap
``rounds``/``summary`` evaluations, survivors promoted to the full
budget, then a small genetic refinement — and the winners enter a
leaderboard against paper-default PPLB and the three baselines across
the full 18-scenario × {rounds, events} matrix.

Expected shape: on every family it was tuned for, tuned PPLB's
objective is no worse than paper-default PPLB's (the optimizer re-scores
the default at the full budget, so this is a guarantee on the tuning
engine, and the tuned families carry no clock heterogeneity, so it
holds bit-for-bit on the events engine too); across the whole matrix
the tuned entrant's mean rank is no worse than default PPLB's.

The whole experiment is deterministic and cache-addressed: with
``PPLB_BENCH_CACHE`` set, a second invocation replays every one of the
~400 underlying runs from the result cache.
"""

from repro.analysis import format_table
from repro.tuning import (
    TUNED_NAME,
    TuneBudget,
    TunedConfig,
    TunedConfigRegistry,
    build_leaderboard,
    leaderboard_rows,
    summary_rows,
    tune_scenario,
)
from repro.workloads import SCENARIOS

from _harness import emit, once

#: the families the optimizer tunes (static, clock-homogeneous —
#: so the tuned-beats-default guarantee transfers to the event engine).
TUNE_FAMILIES = ["mesh-hotspot", "torus-hotspot", "power-law"]
BUDGET = TuneBudget(
    n_initial=6, eta=2, base_rounds=40, full_rounds=160, eval_seeds=2,
    engine="rounds", recorder="summary", ga_generations=2, ga_population=3,
)
ENGINES = ["rounds", "events"]
SEED = 0


def _run(cache):
    registry = TunedConfigRegistry()
    reports = {}
    for family in TUNE_FAMILIES:
        report = tune_scenario(family, seed=SEED, budget=BUDGET, cache=cache)
        reports[report.scenario] = report
        registry.put(report.scenario, TunedConfig(
            algorithm=report.algorithm, overrides=report.winner,
            score=report.score, default_score=report.default_score,
            n_evals=report.n_evals, seed=SEED, budget=BUDGET.to_dict(),
        ))
    payload = build_leaderboard(
        sorted(SCENARIOS),
        engines=ENGINES,
        registry=registry,
        n_seeds=BUDGET.eval_seeds,
        base_seed=SEED,
        max_rounds=BUDGET.full_rounds,
        recorder=BUDGET.recorder,
        cache=cache,
    )
    return reports, registry, payload


def test_e19_leaderboard(benchmark):
    import os

    cache = os.environ.get("PPLB_BENCH_CACHE") or None
    reports, registry, payload = once(benchmark, lambda: _run(cache))

    # -------- the tuning sessions delivered what they promise -------- #
    for family, report in reports.items():
        # the default is always re-scored at the full budget, so the
        # winner can never lose to it on the tuning objective.
        assert report.score <= report.default_score, family
        assert report.winner == registry.get(family).overrides

    # ------------------- matrix shape and ranking -------------------- #
    n_cells = len(SCENARIOS) * len(ENGINES)
    assert len(payload["rows"]) == n_cells * 5  # tuned + default + 3 baselines
    by_cell: dict = {}
    for row in payload["rows"]:
        by_cell.setdefault((row["scenario"], row["engine"]), []).append(row)
    for cell, rows in by_cell.items():
        assert sorted(r["rank"] for r in rows) == [1, 2, 3, 4, 5], cell

    # ------- tuned >= default on every family it was tuned for ------- #
    # Exact on the tuning engine (same budget, same seeds — the scores
    # are the tuning scores); the tuned families are static and
    # clock-homogeneous, so events reproduces rounds and the
    # guarantee transfers. The 1e-5 slack absorbs the payload's
    # 6-decimal rounding only.
    tuned_families = {r.scenario for r in reports.values()}
    for row in payload["tuned_vs_default"]:
        if row["scenario"] in tuned_families:
            assert row["tuned_score"] <= row["default_score"] + 1e-5, row

    # Across the whole matrix: untuned families run the identical spec
    # (exact tie, resolved in roster order), tuned families are no
    # worse by construction — so the tuned entrant's mean rank can
    # never trail default PPLB's.
    summary = payload["summary"]
    mean_rank_gap = summary[TUNED_NAME]["mean_rank"] - summary["pplb"]["mean_rank"]
    assert mean_rank_gap <= 0.0, summary

    # ------------------------- the artifact -------------------------- #
    lines = [
        "E19 — self-tuning leaderboard "
        f"({len(TUNE_FAMILIES)} tuned families, "
        f"{len(SCENARIOS)} scenarios x {len(ENGINES)} engines, "
        f"{BUDGET.eval_seeds} seeds, {BUDGET.full_rounds} rounds)",
        "",
        format_table(
            [{
                "family": family,
                "winner": ", ".join(f"{k}={v}" for k, v in
                                    sorted(report.winner.items())) or "defaults",
                "score": round(report.score, 4),
                "default": round(report.default_score, 4),
                "gain_%": round(100.0 * report.improvement(), 1),
                "evals": report.n_evals,
            } for family, report in sorted(reports.items())],
            title="tuned configurations (successive halving + GA, "
                  f"{BUDGET.base_rounds}->{BUDGET.full_rounds} rounds)",
        ),
        "",
        format_table(
            summary_rows(payload),
            columns=["algorithm", "wins", "mean_rank"],
            title="leaderboard summary (wins = rank-1 cells of "
                  f"{n_cells})",
        ),
        "",
        format_table(
            [r for r in leaderboard_rows(payload)
             if r["scenario"] in tuned_families],
            columns=["scenario", "engine", "rank", "algorithm",
                     "final_cov", "rounds", "migrations"],
            title="tuned families, full ranking",
        ),
    ]
    emit("E19_leaderboard", "\n".join(lines))
