"""Runner-side telemetry: metrics collection, probe plumbing, cache fix.

Three properties. *Key stability*: the ``probe`` spec field is omitted
from the canonical encoding when it is the ``"null"`` default, so every
cache key computed before the telemetry layer existed stays valid.
*Passive metrics*: ``RunnerMetrics`` describes an execution pass
without changing which specs run or what they return. *Robust stats*:
a stray non-JSON (even binary) file inside the cache tree downgrades to
a warning instead of crashing ``pplb cache stats``.
"""

import json

import pytest

from repro.runner import (
    ResultCache,
    RunnerMetrics,
    RunSpec,
    expand_grid,
    SerialBackend,
    grid_seeds,
    metrics_to_rows,
    run_grid,
)

SMALL = {"scenario": "mesh-hotspot", "algorithm": "pplb", "max_rounds": 40}


class TestProbeInSpec:
    def test_null_probe_is_omitted_from_the_key(self):
        plain = RunSpec(seed=1, **SMALL)
        nulled = RunSpec(seed=1, probe="null", **SMALL)
        assert plain.key() == nulled.key()
        assert "probe" not in nulled.to_dict()

    def test_non_null_probe_changes_the_key(self):
        plain = RunSpec(seed=1, **SMALL)
        counted = RunSpec(seed=1, probe="counters", **SMALL)
        assert plain.key() != counted.key()
        assert counted.to_dict()["probe"] == "counters"
        assert RunSpec.from_dict(counted.to_dict()).probe == "counters"

    def test_probe_shows_in_label_only_when_enabled(self):
        assert "[counters]" in RunSpec(seed=1, probe="counters", **SMALL).label()
        assert "[" not in RunSpec(seed=1, **SMALL).label()

    def test_expand_grid_threads_the_probe(self):
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(2),
                            max_rounds=40, probe="counters")
        assert all(spec.probe == "counters" for spec in specs)

    def test_probed_results_carry_telemetry_through_the_cache(self, tmp_path):
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(2),
                            max_rounds=40, probe="counters")
        cache = ResultCache(tmp_path / "cache")
        fresh = run_grid(specs, cache=cache)
        replay = run_grid(specs, cache=cache)
        assert all(outcome.cached for outcome in replay)
        for a, b in zip(fresh, replay):
            assert a.result.telemetry is not None
            assert a.result.telemetry == b.result.telemetry


class TestRunnerMetrics:
    def test_execution_pass_is_measured(self, tmp_path):
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(2),
                            max_rounds=40)
        metrics = RunnerMetrics()
        run_grid(specs, cache=ResultCache(tmp_path / "c"), metrics=metrics)
        assert metrics.total == 2
        assert metrics.cache_misses == 2 and metrics.cache_hits == 0
        assert metrics.task_s > 0 and metrics.wall_s >= 0
        assert 0 < metrics.utilization() <= 1.0
        assert len(metrics.spec_rows) == 2
        assert all(row["task_s"] > 0 for row in metrics.spec_rows)

    def test_all_hits_means_zero_work(self, tmp_path):
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(2),
                            max_rounds=40)
        cache = ResultCache(tmp_path / "c")
        run_grid(specs, cache=cache)
        metrics = RunnerMetrics()
        run_grid(specs, cache=cache, metrics=metrics)
        assert metrics.cache_hits == 2 and metrics.cache_misses == 0
        assert metrics.task_s == 0.0 and metrics.wall_s == 0.0
        assert metrics.utilization() == 0.0
        assert metrics.mean_queue_wait_s() == 0.0
        assert all(row["cached"] for row in metrics.spec_rows)

    def test_metrics_do_not_change_results(self, tmp_path):
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(2),
                            max_rounds=40)
        bare = run_grid(specs)
        measured = run_grid(specs, metrics=RunnerMetrics())

        def normalised(outcomes):
            payloads = [o.result.to_dict() for o in outcomes]
            for payload in payloads:
                payload["wall_time_s"] = 0.0  # the one run-varying field
            return payloads

        assert normalised(bare) == normalised(measured)

    def test_summary_and_rows_are_table_ready(self, tmp_path):
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(2),
                            max_rounds=40)
        metrics = RunnerMetrics()
        run_grid(specs, metrics=metrics)
        summary = metrics.summary()
        assert summary["specs"] == 2 and summary["workers"] == 1
        rows = metrics_to_rows(metrics)
        assert len(rows) == 2
        assert set(rows[0]) == {"label", "cached", "task_s"}
        rows[0]["label"] = "mutated"  # rows are copies, not views
        assert metrics.spec_rows[0]["label"] != "mutated"

    def test_parallel_pass_keeps_spec_order(self, tmp_path):
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(3),
                            max_rounds=40)
        metrics = RunnerMetrics()
        outcomes = run_grid(specs, workers=2, metrics=metrics)
        assert metrics.workers == 2 and metrics.cache_misses == 3
        assert [o.spec.seed for o in outcomes] == [s.seed for s in specs]
        assert [row["label"] for row in metrics.spec_rows] == \
               [s.label() for s in specs]


class TestSerialMapTimed:
    def test_serial_returns_results_and_times(self):
        results, seconds = SerialBackend().map_timed(abs, [-3, -2, 1])
        assert results == [3, 2, 1]
        assert len(seconds) == 3 and all(s >= 0 for s in seconds)

    def test_callback_receives_task_seconds(self):
        seen = []
        SerialBackend().map_timed(
            abs, [-1, -2], on_result=lambda i, r, s: seen.append((i, r, s))
        )
        assert [(i, r) for i, r, _ in seen] == [(0, 1), (1, 2)]
        assert all(s >= 0 for _, _, s in seen)

    def test_empty_input(self):
        assert SerialBackend().map_timed(abs, []) == ([], [])


class TestCacheStrayFiles:
    def _seeded_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = expand_grid(["mesh-hotspot"], ["pplb"], grid_seeds(1),
                            max_rounds=30)
        run_grid(specs, cache=cache)
        return cache

    def test_stats_survives_binary_stray_file(self, tmp_path, caplog):
        cache = self._seeded_cache(tmp_path)
        shard = cache.root / "zz"
        shard.mkdir()
        (shard / "stray.json").write_bytes(b"\xff\xfe\x00not json at all")
        stats = cache.stats()  # must not raise
        assert stats["by_engine"]["(unreadable)"] == 1
        assert stats["by_engine"]["rounds"] == 1
        assert any("unreadable cache entry" in rec.message
                   for rec in caplog.records)

    def test_stats_survives_textual_garbage(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        shard = cache.root / "zz"
        shard.mkdir()
        (shard / "stray.json").write_text("definitely { not json")
        assert cache.stats()["by_engine"]["(unreadable)"] == 1

    def test_get_treats_binary_entry_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff\xfe\x00binary")
        assert cache.get(key) is None
        assert cache.misses == 1
