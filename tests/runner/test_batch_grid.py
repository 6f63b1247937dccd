"""Replicate batching through the runner: transparent seed grouping.

``run_grid(..., batch_replicates=N)`` — the one batching switch — must
be *invisible* in every output the runner produces: per-spec outcomes
in input order, cache entries byte-identical to serial execution
(modulo the measured ``wall_time_s`` and phase seconds inside the
payload — the execution-varying fields), index sidecar lines that
answer metric-level replays, and cache keys shared with solo runs so
batched and solo caches interoperate. Any spec family identical up to
``seed`` batches, under any probe; ``events`` specs still run solo.
"""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import (
    ResultCache,
    RunSpec,
    SerialBackend,
    expand_grid,
    grid_seeds,
    run_grid,
)
from repro.runner.runner import _replicate_tasks

SIZE = {"side": 5, "n_tasks": 100}


def _specs(seeds=4, engine="rounds", scenarios=("mesh-hotspot",),
           algorithms=("pplb",), probe="null"):
    return expand_grid(
        list(scenarios), list(algorithms), grid_seeds(seeds),
        max_rounds=40, scenario_kwargs=dict(SIZE), engine=engine, probe=probe,
    )


class _SpyBackend(SerialBackend):
    """Serial execution that records the task items it was handed."""

    def __init__(self):
        super().__init__()
        self.items = []

    def map_timed(self, fn, items, on_result=None):
        items = list(items)
        self.items.extend(items)
        return super().map_timed(fn, items, on_result=on_result)


def _normalised_entries(cache: ResultCache) -> dict[str, str]:
    """Every cache entry as canonical JSON, its result as ``get`` returns
    it, with wall_time_s and the measured phase seconds removed."""
    out = {}
    for shard in sorted(cache.root.iterdir()):
        if not shard.is_dir():
            continue
        for path in sorted(shard.iterdir()):
            entry = json.loads(path.read_text())
            result = cache.get(path.stem)
            result.pop("wall_time_s", None)
            for phase in (result.get("telemetry") or {}).get("phases", {}).values():
                phase.pop("total_s")
            entry["result"] = result
            out[path.name] = json.dumps(entry, sort_keys=True)
    return out


class TestBatchedGrid:
    def test_outcomes_match_serial_in_order(self):
        specs = _specs(seeds=5)
        serial = run_grid(specs)
        batched = run_grid(specs, batch_replicates=5)
        for s, b in zip(serial, batched):
            assert s.spec is b.spec and s.key == b.key
            ds, db = s.result.to_dict(), b.result.to_dict()
            ds.pop("wall_time_s")
            db.pop("wall_time_s")
            assert ds == db

    def test_cache_entries_byte_identical_to_serial(self, tmp_path):
        specs = _specs(seeds=4, scenarios=("mesh-hotspot", "torus-hotspot"))
        serial_cache = ResultCache(tmp_path / "serial")
        batch_cache = ResultCache(tmp_path / "batched")
        run_grid(specs, cache=serial_cache)
        run_grid(specs, cache=batch_cache, batch_replicates=4)
        assert _normalised_entries(serial_cache) == _normalised_entries(
            batch_cache
        )

    def test_batched_cache_replays_under_scalar_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _specs(seeds=3)
        fresh = run_grid(specs, cache=cache, batch_replicates=3)
        assert not any(o.cached for o in fresh)
        # Same specs, no batching: every entry must replay.
        replay = run_grid(specs, cache=cache)
        assert all(o.cached for o in replay)
        # ... including at metric level from the index sidecar.
        slim = run_grid(specs, cache=cache, keep_results=False)
        assert all(o.cached and o.metrics is not None for o in slim)

    def test_grouping_caps_and_keys(self):
        specs = _specs(seeds=5, scenarios=("mesh-hotspot", "torus-hotspot"))
        tasks = _replicate_tasks(specs, range(len(specs)), 3)
        # Per (scenario) cell: 5 replicates chunked as 3 + 2.
        assert [len(t) for t in tasks] == [3, 2, 3, 2]
        # Grouping never crosses spec families.
        for task in tasks:
            assert len({specs[i].scenario for i in task}) == 1

    def test_only_eligible_specs_group(self):
        mixed = (
            _specs(seeds=2)
            + _specs(seeds=2, engine="events")  # runs solo
            + _specs(seeds=2, probe="counters")  # its own family
            + _specs(seeds=2, engine="fluid", algorithms=("fluid-diffusion",))
        )
        tasks = _replicate_tasks(mixed, range(len(mixed)), 4)
        assert [len(t) for t in tasks] == [2, 1, 1, 2, 2]

    @pytest.mark.parametrize("engine, algorithm, probe", [
        ("rounds", "pplb", "counters"),
        ("events", "pplb", "null"),
        ("events", "pplb", "counters"),
        ("fluid", "fluid-diffusion", "null"),
        ("fluid", "fluid-diffusion", "counters"),
    ])
    def test_every_engine_and_probe_keeps_cache_entries(self, tmp_path, engine,
                                                        algorithm, probe):
        specs = _specs(seeds=3, engine=engine, algorithms=(algorithm,),
                       probe=probe)
        solo_cache = ResultCache(tmp_path / "solo")
        batch_cache = ResultCache(tmp_path / "batched")
        run_grid(specs, cache=solo_cache)
        run_grid(specs, cache=batch_cache, batch_replicates=3)
        entries = _normalised_entries(batch_cache)
        assert len(entries) == 3
        assert entries == _normalised_entries(solo_cache)

    @pytest.mark.parametrize("engine", ["rounds", "rounds-fast"])
    def test_batch_replicates_batches_whole_cell(self, engine):
        specs = _specs(seeds=3, engine=engine)
        spy = _SpyBackend()
        batched = run_grid(specs, backend=spy, batch_replicates=3)
        assert len(spy.items) == 1 and spy.items[0].get("__batch__")
        solo = run_grid(specs)
        for b, s in zip(batched, solo):
            db, ds = b.result.to_dict(), s.result.to_dict()
            db.pop("wall_time_s")
            ds.pop("wall_time_s")
            assert db == ds

    @pytest.mark.parametrize("batch_replicates", [None, 0, 1])
    def test_batch_replicates_off_keeps_every_spec_solo(self, batch_replicates):
        specs = _specs(seeds=3)
        tasks = _replicate_tasks(specs, range(len(specs)), batch_replicates)
        assert tasks == [[0], [1], [2]]

    def test_negative_batch_replicates_rejected(self):
        spy = _SpyBackend()
        with pytest.raises(ConfigurationError, match="batch_replicates"):
            run_grid(_specs(seeds=2), backend=spy, batch_replicates=-2)
        assert spy.items == []

    def test_no_batching_without_request(self):
        specs = _specs(seeds=3)
        spy = _SpyBackend()
        run_grid(specs, backend=spy)
        assert len(spy.items) == 3
        assert not any(item.get("__batch__") for item in spy.items)

    def test_mixed_grid_executes_batched_and_solo_tasks(self):
        specs = (
            _specs(seeds=2)
            + _specs(seeds=2, probe="counters")
            + _specs(seeds=2, engine="events")
            + _specs(seeds=1, scenarios=("torus-hotspot",))
        )
        spy = _SpyBackend()
        outcomes = run_grid(specs, backend=spy, batch_replicates=2)
        assert [bool(item.get("__batch__")) for item in spy.items] == [
            True, True, False, False, False,
        ]
        assert all(o.result is not None for o in outcomes)


class TestBatchingIsNotAnEngine:
    def test_rounds_batch_engine_name_rejected(self):
        # Batching is requested per grid (batch_replicates), never per
        # spec: the retired alias fails like any unknown engine.
        with pytest.raises(ConfigurationError, match="unknown engine"):
            RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=2,
                    max_rounds=50, engine="rounds-batch")
