"""Unit tests for the leaderboard payload (determinism, ranking, shape)."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import ResultCache, RunnerMetrics
from repro.tuning import (
    TUNED_NAME,
    TunedConfig,
    TunedConfigRegistry,
    build_leaderboard,
    leaderboard_rows,
    summary_rows,
)

SCENARIOS = ["mesh:4x4+hotspot", "mesh:6x6+hotspot"]
KW = dict(engines=["rounds"], n_seeds=1, max_rounds=16, recorder="summary")


def small_board(registry=None, **overrides):
    return build_leaderboard(SCENARIOS, registry=registry, **{**KW, **overrides})


class TestValidation:
    def test_needs_scenarios(self):
        with pytest.raises(ConfigurationError, match="at least one scenario"):
            build_leaderboard([], **KW)

    def test_rejects_fluid_engine(self):
        with pytest.raises(ConfigurationError, match="fluid"):
            build_leaderboard(SCENARIOS, engines=["fluid"])

    def test_legacy_engine_spelling_joins_its_base_column(self):
        # One column per behaviour: "rounds-fast" is the rounds engine.
        payload = small_board(engines=["rounds", "rounds-fast"])
        assert payload == small_board()
        assert payload["engines"] == ["rounds"]


class TestPayloadShape:
    def test_five_entrants_ranked_per_cell(self):
        payload = small_board()
        assert payload["algorithms"][:2] == [TUNED_NAME, "pplb"]
        cells = {}
        for row in payload["rows"]:
            cells.setdefault((row["scenario"], row["engine"]), []).append(row["rank"])
        assert len(cells) == len(SCENARIOS)
        for ranks in cells.values():
            assert sorted(ranks) == [1, 2, 3, 4, 5]

    def test_scenarios_canonicalised(self):
        payload = small_board()
        assert payload["scenarios"] == ["mesh:side=4+hotspot", "mesh:side=6+hotspot"]

    def test_untuned_cells_tie_resolves_in_roster_order(self):
        # tuned and default PPLB run the identical spec on untuned
        # families: the exact tie must rank the tuned entrant first,
        # never penalise it alphabetically.
        payload = small_board()
        by_key = {(r["scenario"], r["engine"], r["algorithm"]): r
                  for r in payload["rows"]}
        for scenario in payload["scenarios"]:
            tuned = by_key[(scenario, "rounds", TUNED_NAME)]
            default = by_key[(scenario, "rounds", "pplb")]
            assert tuned["mean_final_cov"] == default["mean_final_cov"]
            assert tuned["rank"] < default["rank"]

    def test_tuned_rows_carry_overrides(self):
        registry = TunedConfigRegistry()
        registry.put(SCENARIOS[0], TunedConfig(overrides={"mu_s_base": 2.0}))
        payload = small_board(registry=registry)
        tuned = [r for r in payload["rows"] if r["tuned"]]
        assert all(r["algorithm"] == TUNED_NAME for r in tuned)
        by_scenario = {r["scenario"]: r["overrides"] for r in tuned}
        assert by_scenario["mesh:side=4+hotspot"] == {"mu_s_base": 2.0}
        assert by_scenario["mesh:side=6+hotspot"] == {}

    def test_tuned_vs_default_row_per_cell(self):
        payload = small_board()
        assert len(payload["tuned_vs_default"]) == len(SCENARIOS)
        for row in payload["tuned_vs_default"]:
            assert row["improvement"] == pytest.approx(
                row["default_score"] - row["tuned_score"], abs=1e-6
            )

    def test_summary_counts_wins_over_all_cells(self):
        payload = small_board()
        total_wins = sum(s["wins"] for s in payload["summary"].values())
        assert total_wins == len(SCENARIOS)  # one rank-1 per cell


class TestDeterminism:
    def test_identical_invocations_emit_identical_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = build_leaderboard(SCENARIOS, cache=cache, **KW)
        warm = build_leaderboard(SCENARIOS, cache=cache, **KW)
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)

    def test_metrics_report_cache_split_outside_payload(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold_metrics = RunnerMetrics()
        build_leaderboard(SCENARIOS, cache=cache, metrics=cold_metrics, **KW)
        warm_metrics = RunnerMetrics()
        build_leaderboard(SCENARIOS, cache=cache, metrics=warm_metrics, **KW)
        # Cold run: the tuned entrant shares the default PPLB spec on
        # untuned families, so even a cold cache replays those twins.
        assert cold_metrics.cache_misses > 0
        assert warm_metrics.cache_misses == 0
        assert warm_metrics.cache_hits == warm_metrics.total == cold_metrics.total


class TestDisplayRows:
    def test_leaderboard_rows_flatten_for_tables(self):
        payload = small_board()
        rows = leaderboard_rows(payload)
        assert len(rows) == len(payload["rows"])
        assert {"scenario", "engine", "rank", "algorithm",
                "final_cov"} <= set(rows[0])

    def test_summary_rows_sorted_best_first(self):
        payload = small_board()
        rows = summary_rows(payload)
        assert [r["algorithm"] for r in rows][0] in (TUNED_NAME, "pplb")
        assert rows == sorted(rows, key=lambda r: (r["mean_rank"], r["algorithm"]))
