"""The streaming columnar sink and the metric-level (keep_results=False)
fast path: spec-order reads, JSONL durability, and bit-identical
aggregation against the full-result path."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runner import (
    METRIC_FIELDS,
    ColumnarResultLog,
    PoolBackend,
    ResultCache,
    default_metrics,
    expand_grid,
    run_grid,
)


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


class TestSinkCollection:
    def test_rows_match_outcomes_in_spec_order(self):
        specs = tiny_grid()
        sink = ColumnarResultLog()
        outcomes = run_grid(specs, sink=sink)
        assert len(sink) == len(specs)
        rows = sink.rows()
        for i, (row, outcome) in enumerate(zip(rows, outcomes)):
            assert row["index"] == i
            assert row["scenario"] == outcome.spec.scenario
            assert row["algorithm"] == outcome.spec.algorithm
            assert row["seed"] == outcome.spec.seed
            assert row["key"] == outcome.key
            expected = default_metrics(outcome.result)
            for name in METRIC_FIELDS:
                assert row[name] == expected[name]

    def test_spec_order_restored_after_parallel_completion(self):
        specs = tiny_grid()
        sink = ColumnarResultLog()
        backend = PoolBackend(workers=2)
        try:
            outcomes = run_grid(specs, backend=backend, sink=sink)
        finally:
            backend.close()
        cov = sink.column("final_cov")
        expected = np.array(
            [default_metrics(o.result)["final_cov"] for o in outcomes]
        )
        np.testing.assert_array_equal(cov, expected)

    def test_column_unknown_name_rejected(self):
        sink = ColumnarResultLog()
        with pytest.raises(ConfigurationError, match="unknown sink column"):
            sink.column("latency")

    def test_growth_beyond_min_capacity(self):
        from repro.runner.spec import RunSpec

        sink = ColumnarResultLog()
        spec = RunSpec(scenario="mesh-hotspot", algorithm="pplb")
        metrics = {name: 1.0 for name in METRIC_FIELDS}
        for i in range(200):
            sink.append(index=i, spec=spec, key=f"k{i}", cached=False,
                        metrics=metrics)
        assert len(sink) == 200
        assert sink.column("rounds").shape == (200,)

    def test_missing_metric_fields_rejected(self):
        from repro.runner.spec import RunSpec

        sink = ColumnarResultLog()
        spec = RunSpec(scenario="mesh-hotspot", algorithm="pplb")
        with pytest.raises(ConfigurationError, match="missing fields"):
            sink.append(index=0, spec=spec, key="k", cached=False,
                        metrics={"final_cov": 1.0})


class TestSinkStreaming:
    def test_jsonl_round_trip(self, tmp_path):
        specs = tiny_grid()
        log_path = tmp_path / "results.jsonl"
        with ColumnarResultLog(log_path) as sink:
            run_grid(specs, sink=sink)
        lines = log_path.read_text().splitlines()
        assert len(lines) == len(specs)
        assert all(json.loads(line)["key"] for line in lines)

        loaded = ColumnarResultLog.load(log_path)
        assert loaded.rows() == sink.rows()

    def test_load_skips_torn_trailing_line(self, tmp_path):
        specs = tiny_grid()[:3]
        log_path = tmp_path / "results.jsonl"
        with ColumnarResultLog(log_path) as sink:
            run_grid(specs, sink=sink)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write('{"index": 99, "scenario"')  # killed mid-write
        loaded = ColumnarResultLog.load(log_path)
        assert len(loaded) == 3

    def test_cached_replay_also_streams(self, tmp_path):
        specs = tiny_grid()
        cache = ResultCache(tmp_path / "cache")
        run_grid(specs, cache=cache)
        sink = ColumnarResultLog(tmp_path / "replay.jsonl")
        with sink:
            outcomes = run_grid(specs, cache=cache, sink=sink)
        assert all(o.cached for o in outcomes)
        assert len(sink) == len(specs)
        assert all(row["cached"] for row in sink.rows())


class TestSlimOutcomes:
    def test_keep_results_false_matches_full_metrics(self, tmp_path):
        specs = tiny_grid()
        cache = ResultCache(tmp_path / "cache")
        full = run_grid(specs, cache=cache)
        slim = run_grid(specs, cache=cache, keep_results=False)
        assert all(o.result is None for o in slim)
        assert all(o.cached for o in slim)
        for full_o, slim_o in zip(full, slim):
            assert slim_o.metrics == default_metrics(full_o.result)

    def test_fresh_run_keep_results_false(self):
        specs = tiny_grid()[:2]
        slim = run_grid(specs, keep_results=False)
        assert all(o.result is None and not o.cached for o in slim)
        assert all(set(o.metrics) == set(METRIC_FIELDS) for o in slim)

    def test_sweep_bit_identical_full_vs_slim(self, tmp_path):
        """The acceptance differential: slim outcomes carry metrics
        bit-identical to ``default_metrics`` of the full results."""
        specs = tiny_grid()
        cache = ResultCache(tmp_path / "cache")
        full = run_grid(specs, cache=cache)
        slim = run_grid(specs, cache=cache, keep_results=False)
        from_full = [default_metrics(o.result) for o in full]
        from_slim = [o.metrics for o in slim]
        assert from_full == from_slim
        assert json.dumps(from_full, sort_keys=True) == json.dumps(
            from_slim, sort_keys=True
        )

    def test_unindexed_hits_fall_back_to_payload(self, tmp_path):
        specs = tiny_grid()[:4]
        cache = ResultCache(tmp_path / "cache")
        run_grid(specs, cache=cache)
        cache.index_path.unlink()  # pre-index cache from an older run
        fresh = ResultCache(cache.root)
        slim = run_grid(specs, cache=fresh, keep_results=False)
        assert all(o.cached and o.metrics is not None for o in slim)

    def test_row_rejected_on_slim_outcome(self):
        specs = tiny_grid()[:1]
        [slim] = run_grid(specs, keep_results=False)
        with pytest.raises(ConfigurationError, match="keep_results"):
            slim.row()
