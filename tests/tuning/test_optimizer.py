"""Unit tests for the optimizer harness (successive halving + GA)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import ResultCache
from repro.tuning import TuneBudget, score_result, tune_scenario, tune_scenarios

#: tiny but complete: 3 candidates, two rungs (8 -> 16), one GA child.
TINY = dict(
    n_initial=3, eta=2, base_rounds=8, full_rounds=16, eval_seeds=1,
    engine="rounds", recorder="summary", ga_generations=1, ga_population=2,
)
SCENARIO = "mesh:4x4+hotspot"


def tiny_budget(**overrides):
    return TuneBudget(**{**TINY, **overrides})


class TestTuneBudget:
    def test_rungs_double_and_cap_at_full(self):
        budget = TuneBudget(n_initial=4, eta=2, base_rounds=50, full_rounds=180)
        assert budget.rungs() == [50, 100, 180]

    def test_single_rung_when_base_equals_full(self):
        assert tiny_budget(base_rounds=16, full_rounds=16).rungs() == [16]

    @pytest.mark.parametrize("bad", [
        dict(n_initial=0),
        dict(eta=1),
        dict(base_rounds=0),
        dict(base_rounds=32, full_rounds=16),
        dict(eval_seeds=0),
        dict(ga_generations=-1),
        dict(ga_population=0),
        dict(engine="fluid"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            tiny_budget(**bad)

    def test_to_dict_round_trips(self):
        budget = tiny_budget()
        assert TuneBudget(**budget.to_dict()) == budget

    @pytest.mark.parametrize("legacy, engine", [("rounds-fast", "rounds"),
                                                ("events-fast", "events")])
    def test_legacy_engine_spelling_is_the_base_engine(self, legacy, engine):
        assert tiny_budget(engine=legacy) == tiny_budget(engine=engine)


class TestScoreResult:
    def test_cov_dominates_rounds_tiebreak(self):
        class R:
            final_cov = 0.5
            converged_round = 10

        assert score_result(R(), max_rounds=100) == pytest.approx(0.5 + 0.01 * 0.1)

    def test_unconverged_charges_full_budget(self):
        class R:
            final_cov = 0.5
            converged_round = None

        assert score_result(R(), max_rounds=100) == pytest.approx(0.51)


class TestTuneScenario:
    def test_rejects_non_pplb_algorithm(self):
        with pytest.raises(ConfigurationError, match="pplb"):
            tune_scenario(SCENARIO, algorithm="diffusion", budget=tiny_budget())

    def test_winner_never_loses_to_default(self):
        report = tune_scenario(SCENARIO, seed=0, budget=tiny_budget())
        assert report.score <= report.default_score
        assert report.winner == {} or report.score < report.default_score

    def test_deterministic_under_fixed_seed(self):
        a = tune_scenario(SCENARIO, seed=3, budget=tiny_budget())
        b = tune_scenario(SCENARIO, seed=3, budget=tiny_budget())
        assert a.winner == b.winner
        assert a.score == b.score
        assert a.n_evals == b.n_evals
        assert a.history == b.history

    def test_different_seeds_propose_different_candidates(self):
        a = tune_scenario(SCENARIO, seed=0, budget=tiny_budget())
        b = tune_scenario(SCENARIO, seed=1, budget=tiny_budget())
        overrides = lambda r: [h["overrides"] for h in r.history]  # noqa: E731
        assert overrides(a) != overrides(b)

    def test_second_run_replays_entirely_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = tune_scenario(SCENARIO, seed=0, budget=tiny_budget(), cache=cache)
        warm = tune_scenario(SCENARIO, seed=0, budget=tiny_budget(), cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.n_specs  # 100% replay
        assert warm.winner == cold.winner
        assert warm.score == cold.score
        assert warm.n_evals == cold.n_evals

    def test_scenario_name_is_canonicalised(self):
        report = tune_scenario(SCENARIO, seed=0, budget=tiny_budget())
        assert report.scenario == "mesh:side=4+hotspot"

    def test_history_records_every_eval_with_stages(self):
        report = tune_scenario(SCENARIO, seed=0, budget=tiny_budget())
        assert len(report.history) == report.n_evals
        stages = {h["stage"] for h in report.history}
        assert any(s.startswith("halving:") for s in stages)
        assert "final" in stages or "ga" in stages

    def test_default_rescored_at_full_budget(self):
        # Even when halving drops the default early, a final full-budget
        # eval of {} must exist so score <= default_score is exact.
        report = tune_scenario(SCENARIO, seed=0, budget=tiny_budget())
        full = [h for h in report.history
                if h["overrides"] == {} and h["rounds"] == 16]
        assert full, report.history

    def test_winner_overrides_are_canonical(self):
        from repro.tuning import default_pplb_space

        report = tune_scenario(SCENARIO, seed=1, budget=tiny_budget())
        space = default_pplb_space()
        assert space.canonical(report.winner) == report.winner


class TestTuneScenarios:
    def test_reports_keyed_by_canonical_name(self):
        out = tune_scenarios([SCENARIO, "mesh:6x6+hotspot"],
                             seed=0, budget=tiny_budget())
        assert list(out) == ["mesh:side=4+hotspot", "mesh:side=6+hotspot"]
        for scenario, report in out.items():
            assert report.scenario == scenario
