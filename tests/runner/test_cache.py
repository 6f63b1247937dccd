"""Unit tests for the content-addressed result cache."""

import json

from repro.runner import ResultCache

KEY = "ab" + "0" * 62
PAYLOAD = {"records": [], "converged_round": 3, "final_summary": {"cov": 0.125}}


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get(KEY) is None
        cache.put(KEY, {"scenario": "mesh-hotspot"}, PAYLOAD)
        assert cache.get(KEY) == PAYLOAD
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    def test_entries_are_sharded_by_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, {}, PAYLOAD)
        assert path.parent.name == KEY[:2]
        assert path.name == f"{KEY}.json"

    def test_entry_records_spec_and_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, {"scenario": "mesh-hotspot", "seed": 5}, PAYLOAD)
        entry = json.loads(path.read_text())
        assert entry["spec"] == {"scenario": "mesh-hotspot", "seed": 5}
        assert entry["key"] == KEY
        assert entry["version"] == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, {}, PAYLOAD)
        path.write_text("{not json")
        assert cache.get(KEY) is None

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, {}, PAYLOAD)
        path.write_text(json.dumps(["not", "a", "dict"]))
        assert cache.get(KEY) is None

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, {}, PAYLOAD)
        entry = json.loads(path.read_text())
        entry["version"] = 0  # a stale format
        path.write_text(json.dumps(entry))
        assert cache.get(KEY) is None

    def test_float_payload_roundtrips_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"cov": 0.1 + 0.2, "spread": 1e-17, "neg": -0.0}
        cache.put(KEY, {}, payload)
        got = cache.get(KEY)
        assert got["cov"] == payload["cov"]
        assert got["spread"] == payload["spread"]

    def test_len_of_empty_root(self, tmp_path):
        assert len(ResultCache(tmp_path / "never-created")) == 0


class TestStatsAndClear:
    def test_stats_on_missing_root(self, tmp_path):
        stats = ResultCache(tmp_path / "nope").stats()
        assert stats["exists"] is False
        assert stats["entries"] == 0
        assert stats["total_bytes"] == 0
        assert stats["mean_bytes"] == 0.0

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {}, PAYLOAD)
        cache.put("cd" + "0" * 62, {}, PAYLOAD)
        stats = cache.stats()
        assert stats["exists"] is True
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["mean_bytes"] == stats["total_bytes"] / 2
        assert stats["root"] == str(cache.root)

    def test_mean_entry_size_reflects_recorder_payloads(self, tmp_path):
        # The columnar/summary shrink must be visible on disk: a
        # summary-recorded entry is far smaller than a full one.
        from repro.runner import RunSpec, run_grid

        base = dict(scenario="mesh-hotspot", algorithm="diffusion", seed=1,
                    max_rounds=60, scenario_kwargs={"side": 5, "n_tasks": 75})
        full_cache = ResultCache(tmp_path / "full")
        summary_cache = ResultCache(tmp_path / "summary")
        run_grid([RunSpec(**base)], cache=full_cache)
        run_grid([RunSpec(**base, recorder="summary")], cache=summary_cache)
        full_mean = full_cache.stats()["mean_bytes"]
        summary_mean = summary_cache.stats()["mean_bytes"]
        # The entry shares the spec dict and summaries; the per-round
        # columns are what the summary recorder removes entirely.
        assert summary_mean < full_mean / 2

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {}, PAYLOAD)
        cache.put("cd" + "0" * 62, {}, PAYLOAD)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(KEY) is None
        # Shard directories are pruned; the root itself survives.
        assert cache.root.is_dir()
        assert not any(cache.root.iterdir())

    def test_clear_on_missing_root_is_a_noop(self, tmp_path):
        assert ResultCache(tmp_path / "nope").clear() == 0


class TestLegacyFormatReplay:
    """Cache entries written before the columnar wire format must keep
    replaying: same key (the default recorder is omitted from the
    canonical spec encoding) and a readable record-list payload."""

    def test_default_spec_key_has_no_recorder_field(self):
        from repro.runner import RunSpec

        spec = RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=3)
        assert "recorder" not in spec.to_dict()
        explicit = RunSpec.from_dict({**spec.to_dict(), "recorder": "full"})
        assert explicit.key() == spec.key()  # canonical forms agree

    def test_legacy_record_list_entry_is_replayed(self, tmp_path):
        from dataclasses import asdict

        from repro.runner import RunSpec, execute_spec, run_grid

        spec = RunSpec(scenario="mesh-hotspot", algorithm="diffusion",
                       seed=2, max_rounds=30,
                       scenario_kwargs={"side": 4, "n_tasks": 32})
        fresh = execute_spec(spec)

        # Write the entry exactly as the pre-columnar code would have.
        legacy_payload = {
            "records": [asdict(r) for r in fresh.records],
            "converged_round": fresh.converged_round,
            "initial_summary": dict(fresh.initial_summary),
            "final_summary": dict(fresh.final_summary),
            "balancer_name": fresh.balancer_name,
            "wall_time_s": fresh.wall_time_s,
        }
        cache = ResultCache(tmp_path / "c")
        cache.put(spec.key(), spec.to_dict(), legacy_payload)

        [outcome] = run_grid([spec], cache=cache)
        assert outcome.cached  # served from the legacy entry, no re-run
        assert outcome.result == fresh
        assert list(outcome.result.records) == list(fresh.records)
