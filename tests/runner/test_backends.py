"""Execution backends: serial/pool/cached differential equivalence,
persistent-pool reuse, chunking, the env override, and fail-fast."""

import json
import os

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import (
    PoolBackend,
    ResultCache,
    RunnerMetrics,
    SerialBackend,
    expand_grid,
    resolve_backend,
    resolve_workers,
    run_grid,
)
from repro.runner.backends import _shared, shutdown_backends


def composed_grid():
    """8 fast specs on a *composed* scenario (dynamics + stragglers),
    so the differential covers the component pipeline, not just the
    registered aliases."""
    return expand_grid(
        ["mesh:4x4+hotspot+stragglers:frac=0.2", "mesh:4x4+uniform+churn"],
        ["pplb", "diffusion"],
        [11, 22],
        max_rounds=60,
        scenario_kwargs={"n_tasks": 64},
    )


def deterministic_payloads(outcomes):
    out = []
    for o in outcomes:
        payload = o.result.to_dict()
        payload.pop("wall_time_s")
        out.append(payload)
    return out


def _square(x):
    return x * x


def _boom(x):
    if x == 5:
        raise ValueError("task 5 exploded")
    return x


class TestBackendEquivalence:
    def test_serial_pool_cached_identical(self, tmp_path):
        """The tentpole differential: serial ≡ pool ≡ cached replay,
        bit-identical result payloads on a composed grid."""
        specs = composed_grid()
        cache = ResultCache(tmp_path)
        serial = run_grid(specs, backend=SerialBackend())
        pool_backend = PoolBackend(workers=2)
        try:
            pooled = run_grid(specs, backend=pool_backend, cache=cache)
        finally:
            pool_backend.close()
        cached = run_grid(specs, cache=cache)
        assert all(not o.cached for o in serial)
        assert all(not o.cached for o in pooled)
        assert all(o.cached for o in cached)
        reference = json.dumps(deterministic_payloads(serial))
        assert reference == json.dumps(deterministic_payloads(pooled))
        assert reference == json.dumps(deterministic_payloads(cached))

    def test_explicit_instance_matches_default_path(self):
        specs = composed_grid()[:2]
        by_instance = run_grid(specs, backend=SerialBackend())
        by_default = run_grid(specs)
        assert json.dumps(deterministic_payloads(by_instance)) == json.dumps(
            deterministic_payloads(by_default)
        )


class TestPoolPersistence:
    def test_pool_reused_across_run_grid_calls(self):
        specs = composed_grid()
        backend = PoolBackend(workers=2)
        try:
            first = RunnerMetrics()
            run_grid(specs[:4], backend=backend, metrics=first)
            assert 1 <= first.workers_spawned <= 2
            second = RunnerMetrics()
            run_grid(specs[4:], backend=backend, metrics=second)
            # The second grid reuses the warm workers: zero new spawns.
            assert second.workers_spawned == 0
            assert second.backend == "pool"
            assert backend.stats()["map_calls"] == 2
        finally:
            backend.close()

    def test_shared_instance_per_width(self):
        a = resolve_backend(None, workers=1)
        b = resolve_backend(None, workers=1)
        assert a is b
        assert a.name == "serial"

    def test_default_upgrades_to_pool_for_parallel_widths(self):
        backend = resolve_backend(None, workers=2)
        assert backend.name == "pool"
        assert backend.workers() == 2
        assert resolve_backend(None, workers=2) is backend
        assert _shared[2] is backend

    def test_shutdown_then_resolve_makes_fresh_instances(self):
        before = resolve_backend(None, workers=2)
        shutdown_backends()
        assert not _shared
        after = resolve_backend(None, workers=2)
        assert after is not before
        assert after.name == "pool" and after.workers() == 2

    def test_close_is_idempotent(self):
        backend = PoolBackend(workers=2)
        backend.map_timed(_square, [1, 2, 3])
        backend.close()
        backend.close()
        # A closed pool respawns lazily on the next call.
        results, _ = backend.map_timed(_square, [4])
        assert results == [16]
        backend.close()


class TestChunking:
    def test_chunked_map_preserves_order(self):
        backend = PoolBackend(workers=2)
        try:
            results, seconds = backend.map_timed(_square, list(range(30)))
        finally:
            backend.close()
        assert results == [x * x for x in range(30)]
        assert len(seconds) == 30
        assert all(s >= 0.0 for s in seconds)
        # 30 items at width 2 -> chunks of ceil(30/8) = 4 -> 8 submissions.
        assert backend.stats()["chunks"] == 8

    def test_default_chunking_covers_all_items(self):
        backend = PoolBackend(workers=2)
        try:
            results, _ = backend.map_timed(_square, list(range(23)))
        finally:
            backend.close()
        assert results == [x * x for x in range(23)]

    def test_on_result_fires_once_per_item(self):
        landed = {}
        backend = PoolBackend(workers=2)
        try:
            backend.map_timed(
                _square, list(range(20)),
                on_result=lambda i, r, s: landed.__setitem__(i, r),
            )
        finally:
            backend.close()
        assert landed == {i: i * i for i in range(20)}
        assert backend.stats()["chunks"] > 1


    @pytest.mark.parametrize("n, expected_chunks", [
        (1, 1),     # ceil(1/8) = 1 -> one chunk of one item
        (8, 8),     # chunks of 1
        (9, 5),     # chunks of ceil(9/8) = 2, the last holds one item
        (100, 8),   # chunks of ceil(100/8) = 13, the last holds nine
    ])
    def test_chunk_bounds_partition_input(self, n, expected_chunks):
        bounds = PoolBackend(workers=2)._chunk_bounds(n)
        size = -(-n // 8)
        assert len(bounds) == expected_chunks
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        # Contiguous, in order, every chunk but the last full-size.
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert all(stop - start == size for start, stop in bounds[:-1])
        assert 0 < bounds[-1][1] - bounds[-1][0] <= size

    def test_empty_map_spawns_nothing(self):
        backend = PoolBackend(workers=2)
        try:
            assert backend.map_timed(_square, []) == ([], [])
            stats = backend.stats()
        finally:
            backend.close()
        assert stats["chunks"] == 0 and stats["tasks"] == 0
        assert stats["workers_spawned"] == 0
        assert backend._executor is None


class TestRoster:
    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_backend_name_rejected(self):
        # The worker count picks serial or pool; a name is no longer
        # an accepted backend.
        with pytest.raises(ConfigurationError, match="ExecutionBackend"):
            resolve_backend("pool")
        with pytest.raises(ConfigurationError, match="ExecutionBackend"):
            run_grid(composed_grid()[:1], backend="serial")


class TestEnvOverride:
    def test_pplb_workers_pins_width(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "3")
        assert resolve_workers(1) == 3
        assert resolve_workers(None) == 3
        backend = resolve_backend(None, workers=1)
        assert backend.name == "pool"
        assert backend.workers() == 3

    def test_pplb_workers_zero_means_per_core(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "0")
        assert resolve_workers(1) == max(os.cpu_count() or 1, 1)

    def test_pplb_workers_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="PPLB_WORKERS"):
            resolve_workers(1)

    def test_empty_env_ignored(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "")
        assert resolve_workers(1) == 1


class TestFailFast:
    def test_worker_exception_propagates_and_pool_survives(self):
        backend = PoolBackend(workers=2)
        try:
            with pytest.raises(ValueError, match="task 5 exploded"):
                backend.map_timed(_boom, list(range(40)))
            # 40 items at width 2 -> chunks of 5: the failure is one
            # chunk among several.
            assert backend.stats()["chunks"] > 1
            # The pool is still healthy after the failure: the same
            # instance serves the next call, and every observed PID
            # belongs to the original spawn (≤ pool width — a worker
            # whose chunks were all cancelled is first *observed* here,
            # but no new process is created).
            results, _ = backend.map_timed(_square, [1, 2, 3])
            assert results == [1, 4, 9]
            assert backend.stats()["workers_spawned"] <= 2
        finally:
            backend.close()

    def test_serial_stops_at_first_error(self):
        backend = SerialBackend()
        landed = []
        with pytest.raises(ValueError):
            backend.map_timed(
                _boom, [1, 2, 5, 7],
                on_result=lambda i, r, s: landed.append(i),
            )
        assert landed == [0, 1]  # nothing after the failing task ran
