"""Tuning through the persistent pool backend: identical reports to
serial, and one worker spawn per pool slot for a whole ~64-eval
session (the reuse the shared pool exists for)."""

from repro.runner import ResultCache, resolve_backend
from repro.tuning import TuneBudget, build_leaderboard, tune_scenario

SCENARIO = "mesh:4x4+hotspot"


def session_budget():
    """~64-eval session: 32 initial candidates through rungs
    [10, 20, 40] (32 + 16 + 8 halving evals) + 8 GA children + the
    final default re-score."""
    return TuneBudget(
        n_initial=32, eta=2, base_rounds=10, full_rounds=40, eval_seeds=1,
        engine="rounds", recorder="summary",
        ga_generations=8, ga_population=4,
    )


def small_budget():
    return TuneBudget(
        n_initial=4, eta=2, base_rounds=8, full_rounds=16, eval_seeds=1,
        engine="rounds", recorder="summary",
        ga_generations=1, ga_population=2,
    )


def report_fingerprint(report):
    return (
        report.winner, round(report.score, 12),
        round(report.default_score, 12), report.n_evals, report.history,
    )


class TestTunePoolEquivalence:
    def test_pool_report_identical_to_serial(self, tmp_path):
        serial = tune_scenario(SCENARIO, seed=3, budget=small_budget(),
                               cache=ResultCache(tmp_path / "a"))
        pooled = tune_scenario(SCENARIO, seed=3, budget=small_budget(),
                               cache=ResultCache(tmp_path / "b"), workers=2)
        assert report_fingerprint(serial) == report_fingerprint(pooled)

    def test_cached_rerun_reproduces_report(self, tmp_path):
        """A tune session re-run against its own cache (through the
        persistent pool both times) reproduces the identical report."""
        cache = ResultCache(tmp_path / "cache")
        first = tune_scenario(SCENARIO, seed=3, budget=small_budget(),
                              cache=cache, workers=2)
        second = tune_scenario(SCENARIO, seed=3, budget=small_budget(),
                               cache=cache, workers=2)
        assert report_fingerprint(first) == report_fingerprint(second)
        assert second.cache_hits == second.n_specs


class TestPersistentPoolSpawns:
    def test_64_eval_session_spawns_once_per_worker(self, tmp_path):
        """Acceptance: a 64-eval tune session through the persistent
        pool creates at most `workers` processes total — the pool is
        reused across every halving rung and GA generation instead of
        respawning per evaluation batch."""
        pool = resolve_backend(None, workers=2)  # the one tuning uses
        map_calls = pool.stats()["map_calls"]
        report = tune_scenario(
            SCENARIO, seed=5, budget=session_budget(),
            cache=ResultCache(tmp_path / "cache"), workers=2,
        )
        stats = pool.stats()
        assert report.n_evals >= 64
        # Dozens of evaluation batches (map calls), two spawns total.
        assert stats["map_calls"] - map_calls >= 10
        assert stats["workers_spawned"] <= 2


class TestLeaderboardBackend:
    def test_leaderboard_identical_through_pool(self, tmp_path):
        kwargs = dict(
            scenarios=[SCENARIO], engines=("rounds",),
            n_seeds=1, max_rounds=20,
        )
        serial = build_leaderboard(cache=ResultCache(tmp_path / "a"), **kwargs)
        # Width 2 runs on the shared persistent pool.
        pooled = build_leaderboard(
            cache=ResultCache(tmp_path / "b"), workers=2, **kwargs
        )
        assert serial == pooled
