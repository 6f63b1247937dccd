"""The cache's metadata index sidecar: fast stats, metric-level reads,
rebuild, torn-line tolerance, and concurrent multi-process writers."""

import json
import subprocess
import sys

import pytest

from repro.runner import ResultCache, default_metrics, expand_grid, run_grid
from repro.runner.cache import INDEX_NAME
from repro.sim import SimulationResult


def tiny_grid():
    return expand_grid(
        ["mesh-hotspot", "mesh-random"],
        ["pplb", "diffusion"],
        [11, 22],
        max_rounds=40,
        scenario_kwargs={"side": 4, "n_tasks": 64},
        engine="rounds",
        recorder="summary",
    )


@pytest.fixture()
def warm_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    outcomes = run_grid(tiny_grid(), cache=cache)
    return cache, outcomes


class TestIndexWrites:
    def test_put_appends_index_line(self, warm_cache):
        cache, outcomes = warm_cache
        assert cache.index_path.exists()
        lines = cache.index_path.read_text().splitlines()
        assert len(lines) == len(outcomes)
        keys = {json.loads(line)["key"] for line in lines}
        assert keys == {o.key for o in outcomes}

    def test_index_invisible_to_entry_scan(self, warm_cache):
        cache, outcomes = warm_cache
        # The sidecar lives at the root, outside the shard dirs, so
        # len() (a */*.json scan) never counts it as an entry.
        assert len(cache) == len(outcomes)
        assert cache.index_path.name == INDEX_NAME

    def test_index_carries_metrics(self, warm_cache):
        cache, outcomes = warm_cache
        for outcome in outcomes:
            indexed = cache.metrics_for(outcome.key)
            assert indexed == default_metrics(outcome.result)

    def test_metrics_for_stat_checks_entry(self, warm_cache):
        cache, outcomes = warm_cache
        victim = outcomes[0].key
        cache.path_for(victim).unlink()
        # Index line still present, entry gone: never fabricate a hit.
        assert cache.metrics_for(victim) is None


class TestStatsFastPath:
    def test_stats_match_legacy_scan(self, warm_cache):
        cache, outcomes = warm_cache
        fast = cache.stats()
        assert fast["indexed"] == len(outcomes)
        cache.index_path.unlink()
        cache.invalidate_index()
        legacy = cache.stats()
        assert legacy["indexed"] == 0
        for field in ("entries", "total_bytes", "mean_bytes", "by_engine"):
            assert fast[field] == legacy[field]
        assert fast["by_engine"] == {"rounds": len(outcomes)}

    def test_rebuild_index_restores_fast_path(self, warm_cache):
        cache, outcomes = warm_cache
        before = cache.index_path.read_text()
        cache.index_path.unlink()
        cache.invalidate_index()
        count = cache.rebuild_index()
        assert count == len(outcomes)
        assert cache.stats()["indexed"] == len(outcomes)
        # Rebuilt metrics equal the put-time metrics line for line.
        rebuilt = {
            json.loads(line)["key"]: json.loads(line)["metrics"]
            for line in cache.index_path.read_text().splitlines()
        }
        original = {
            json.loads(line)["key"]: json.loads(line)["metrics"]
            for line in before.splitlines()
        }
        assert rebuilt == original

    def test_clear_removes_index(self, warm_cache):
        cache, _ = warm_cache
        cache.clear()
        assert not cache.index_path.exists()
        assert not any(cache.root.iterdir())


class TestTornLines:
    def test_torn_and_foreign_lines_skipped(self, warm_cache):
        cache, outcomes = warm_cache
        with open(cache.index_path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "deadbeef", "engine"')  # torn, no newline
        cache.invalidate_index()
        index = cache.load_index()
        assert len(index) == len(outcomes)
        assert "deadbeef" not in index

    def test_last_write_wins_per_key(self, warm_cache):
        cache, outcomes = warm_cache
        key = outcomes[0].key
        newer = {"key": key, "engine": "events", "seed": 99}
        with open(cache.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(newer) + "\n")
        cache.invalidate_index()
        assert cache.load_index()[key]["engine"] == "events"

    def test_missing_sidecar_is_empty_index(self, tmp_path):
        cache = ResultCache(tmp_path / "never-written")
        assert cache.load_index() == {}
        assert cache.metrics_for("0" * 64) is None


_WRITER_SNIPPET = """
import sys
from repro.runner import ResultCache, expand_grid, run_grid

root, base_seed = sys.argv[1], int(sys.argv[2])
specs = expand_grid(
    ["mesh-hotspot"], ["pplb", "diffusion"],
    [7, int(base_seed)],  # seed 7 overlaps between both writers
    max_rounds=30,
    scenario_kwargs={"side": 4, "n_tasks": 64},
    engine="rounds", recorder="summary",
)
run_grid(specs, cache=ResultCache(root))
"""


class TestConcurrentWriters:
    def test_two_process_pools_overlapping_keys(self, tmp_path):
        """Satellite 3: two writer processes put/get overlapping keys
        simultaneously — no torn reads, no duplicate entries, index
        consistent with the store afterwards."""
        root = tmp_path / "shared-cache"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SNIPPET,
                 str(root), str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for seed in (101, 202)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()

        cache = ResultCache(root)
        # 2 algorithms × 3 distinct seeds (7 shared, 101, 202).
        assert len(cache) == 6
        # Every entry parses whole (no torn JSON payloads).
        for path in sorted(root.glob("*/*.json")):
            entry = json.loads(path.read_text())
            assert entry["key"] == path.stem
        # The index covers the store exactly: every key resolvable,
        # every line whole, overlapping keys deduped last-write-wins.
        index = cache.load_index()
        store_keys = {p.stem for p in root.glob("*/*.json")}
        assert set(index) == store_keys
        assert cache.stats()["indexed"] == 6
        for key in store_keys:
            assert cache.metrics_for(key) is not None

    def test_crash_simulated_partial_write(self, tmp_path):
        """A writer dying mid-append leaves a torn trailing line; the
        index still serves every whole line and a rebuild resyncs it
        with the store."""
        cache = ResultCache(tmp_path / "cache")
        outcomes = run_grid(tiny_grid()[:4], cache=cache)
        whole = cache.index_path.read_text()
        # Simulate a crash: half of a new line makes it to disk.
        cache.index_path.write_text(
            whole + '{"key": "cafe', encoding="utf-8"
        )
        fresh = ResultCache(cache.root)
        assert set(fresh.load_index()) == {o.key for o in outcomes}
        assert fresh.rebuild_index() == 4
        assert set(fresh.load_index()) == {o.key for o in outcomes}
        # The rebuilt sidecar ends with a clean newline again.
        assert fresh.index_path.read_text().endswith("\n")
