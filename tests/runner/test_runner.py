"""Integration tests for the grid runner: parallel/serial equivalence,
cache replay, and table rows."""

import json

import pytest

import repro.runner.runner as runner_mod
from repro.analysis import summarize_runs
from repro.runner import (
    PoolBackend,
    ResultCache,
    RunnerMetrics,
    RunSpec,
    SerialBackend,
    expand_grid,
    run_grid,
)
from repro.runner.worker import execute_spec


def small_grid():
    """8 fast specs: 2 scenarios × 2 algorithms × 2 seeds on a 4x4 mesh."""
    return expand_grid(
        ["mesh-hotspot", "mesh-random"],
        ["pplb", "diffusion"],
        [11, 22],
        max_rounds=80,
        scenario_kwargs={"side": 4, "n_tasks": 64},
    )


def deterministic_payloads(outcomes):
    """Result payloads stripped of the only nondeterministic field."""
    out = []
    for o in outcomes:
        payload = o.result.to_dict()
        payload.pop("wall_time_s")
        out.append(payload)
    return out


class TestSerialParallelEquivalence:
    def test_parallel_results_identical_to_serial(self):
        specs = small_grid()
        serial = run_grid(specs, workers=1)
        parallel = run_grid(specs, workers=2)
        assert json.dumps(deterministic_payloads(serial)) == json.dumps(
            deterministic_payloads(parallel)
        )
        assert all(not o.cached for o in serial + parallel)

    def test_runner_matches_direct_execution(self):
        spec = small_grid()[0]
        direct = execute_spec(spec)
        [outcome] = run_grid([spec])
        a, b = direct.to_dict(), outcome.result.to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_outcomes_in_spec_order(self):
        specs = small_grid()
        outcomes = run_grid(specs, workers=2)
        assert [o.spec for o in outcomes] == specs


class TestCache:
    def test_second_run_served_from_cache(self, tmp_path):
        specs = small_grid()
        cache = ResultCache(tmp_path)
        first = run_grid(specs, cache=cache)
        assert all(not o.cached for o in first)
        assert len(cache) == len(specs)

        second = run_grid(specs, cache=cache)
        assert all(o.cached for o in second)
        assert json.dumps(deterministic_payloads(first)) == json.dumps(
            deterministic_payloads(second)
        )

    def test_cache_hit_skips_simulation(self, tmp_path, monkeypatch):
        specs = small_grid()[:2]
        run_grid(specs, cache=tmp_path)

        def boom(spec_dict):
            raise AssertionError(f"re-simulated a cached spec: {spec_dict}")

        monkeypatch.setattr(runner_mod, "execute_payload", boom)
        outcomes = run_grid(specs, cache=tmp_path)
        assert all(o.cached for o in outcomes)

    def test_cache_accepts_path_argument(self, tmp_path):
        specs = small_grid()[:1]
        run_grid(specs, cache=tmp_path / "c")
        [outcome] = run_grid(specs, cache=str(tmp_path / "c"))
        assert outcome.cached

    def test_changed_spec_misses_cache(self, tmp_path):
        spec = small_grid()[0]
        run_grid([spec], cache=tmp_path)
        changed = RunSpec.from_dict({**spec.to_dict(), "seed": spec.seed + 1})
        [outcome] = run_grid([changed], cache=tmp_path)
        assert not outcome.cached

    def test_progress_reports_every_spec(self, tmp_path):
        specs = small_grid()[:3]
        seen = []
        run_grid(specs, cache=tmp_path,
                 progress=lambda o, done, total: seen.append((done, total, o.cached)))
        assert [s[:2] for s in seen] == [(1, 3), (2, 3), (3, 3)]
        assert all(not cached for _, _, cached in seen)


class TestRows:
    def test_rows_include_spec_coordinates(self):
        [outcome] = run_grid(small_grid()[:1])
        row = outcome.row()
        assert row["scenario"] == "mesh-hotspot"
        assert row["seed"] == 11
        assert row["cached"] is False
        assert "final_cov" in row

    def test_row_algorithm_is_registry_key_not_display_name(self):
        # pplb-greedy's balancer reports itself as "pplb"; the row must
        # keep the registry key so grid output stays unambiguous.
        spec = RunSpec("mesh-hotspot", "pplb-greedy", seed=1, max_rounds=40,
                       scenario_kwargs={"side": 4, "n_tasks": 32})
        [outcome] = run_grid([spec])
        row = outcome.row()
        assert row["algorithm"] == "pplb-greedy"
        assert row["balancer"] == "pplb"

    def test_outcomes_feed_summarize_runs(self):
        specs = expand_grid(
            ["mesh-hotspot"], ["pplb", "diffusion"], [1, 2, 3],
            max_rounds=80, scenario_kwargs={"side": 4, "n_tasks": 64},
        )
        outcomes = run_grid(specs)
        by_algorithm = {}
        for o in outcomes:
            by_algorithm.setdefault(o.spec.algorithm, []).append(o.result)
        assert list(by_algorithm) == ["pplb", "diffusion"]
        rows = [summarize_runs(runs) for runs in by_algorithm.values()]
        assert [r["n_runs"] for r in rows] == [3, 3]
        # The row names each group by its balancer's display name.
        assert [r["algorithm"] for r in rows] == [
            runs[0].balancer_name for runs in by_algorithm.values()
        ]
        assert all(r["converged"].endswith("/3") for r in rows)


class TestGridWorkers:
    def test_pplb_workers_sends_grid_to_pool_identically(self, monkeypatch):
        """One environment variable sets the width: with PPLB_WORKERS=2
        a plain ``run_grid(specs)`` runs on the pool and matches the
        serial pass."""
        specs = small_grid()
        serial_metrics, pool_metrics = RunnerMetrics(), RunnerMetrics()
        monkeypatch.delenv("PPLB_WORKERS", raising=False)
        serial = run_grid(specs, metrics=serial_metrics)
        monkeypatch.setenv("PPLB_WORKERS", "2")
        pooled = run_grid(specs, metrics=pool_metrics)
        assert serial_metrics.backend == "serial"
        assert (pool_metrics.backend, pool_metrics.workers) == ("pool", 2)
        assert json.dumps(deterministic_payloads(serial)) == json.dumps(
            deterministic_payloads(pooled)
        )


def _touch_or_fail(job):
    """Pool task: records its execution on disk; the poison item raises."""
    out_dir, index = job
    import pathlib
    import time

    if index == 0:
        raise RuntimeError("poison task")
    time.sleep(0.02)
    pathlib.Path(out_dir, f"{index}.done").touch()
    return index


class TestPoolFailFast:
    def test_worker_exception_cancels_queued_tasks(self, tmp_path):
        jobs = [(str(tmp_path), i) for i in range(40)]
        backend = PoolBackend(workers=2)
        try:
            with pytest.raises(RuntimeError, match="poison"):
                backend.map_timed(_touch_or_fail, jobs)
        finally:
            backend.close()
        # The poison task fails almost immediately; queued tasks must be
        # cancelled rather than all 39 running to completion first.
        executed = len(list(tmp_path.glob("*.done")))
        assert executed < 39, f"{executed} tasks ran after the failure"

    def test_serial_exception_propagates_immediately(self, tmp_path):
        jobs = [(str(tmp_path), i) for i in [0, 1, 2]]
        with pytest.raises(RuntimeError, match="poison"):
            SerialBackend().map_timed(_touch_or_fail, jobs)
        assert not list(tmp_path.glob("*.done"))

