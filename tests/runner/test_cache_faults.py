"""A corrupt cache entry is a miss: the grid re-executes the spec, returns
the clean run's result and rewrites the entry whole."""

import json

from repro.runner import ResultCache, expand_grid, run_grid


def _grid():
    return expand_grid(
        ["mesh-hotspot"], ["pplb", "diffusion"], [1, 2, 3],
        max_rounds=30, scenario_kwargs={"side": 4, "n_tasks": 32},
    )


def _entry(path) -> dict:
    return json.loads(path.read_text())


def _with_result(result):
    def corrupt(path):
        entry = _entry(path)
        entry["result"] = result(entry["result"])
        path.write_text(json.dumps(entry))
    return corrupt


def _with_block(packed):
    def corrupt(path):
        entry = _entry(path)
        entry["result"]["columns"] = packed(entry["result"]["columns"])
        path.write_text(json.dumps(entry))
    return corrupt


def _missing_fields(result):
    return {**result, "columns": {"round_index": [0], "cov": [0.5]}}


def _truncated(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


CORRUPTIONS = [
    _with_result(lambda result: 5),
    _with_result(lambda result: {"foo": 1}),
    _with_result(_missing_fields),
    _truncated,
    _with_block(lambda packed: {**packed, "b64": "#not base64#"}),
    _with_block(lambda packed: {**packed, "rounds": packed["rounds"] + 1}),
]


def _comparable(outcome) -> str:
    payload = outcome.result.to_dict()
    payload.pop("wall_time_s")
    return json.dumps(payload)


def test_corrupt_entries_are_misses_that_re_execute(tmp_path):
    specs = _grid()
    assert len(specs) == len(CORRUPTIONS)
    root = tmp_path / "cache"
    clean = run_grid(specs, cache=root)

    seed_cache = ResultCache(root)
    for spec, corrupt in zip(specs, CORRUPTIONS):
        corrupt(seed_cache.path_for(spec.key()))

    cache = ResultCache(root)
    replayed = run_grid(specs, cache=cache, keep_results=True)
    assert [o.cached for o in replayed] == [False] * len(specs)
    assert [_comparable(o) for o in replayed] == [_comparable(o) for o in clean]
    assert cache.misses == len(specs) and cache.hits == 0

    # Each re-execution rewrote its entry whole: the next pass replays.
    again = ResultCache(root)
    replayed = run_grid(specs, cache=again, keep_results=True)
    assert all(o.cached for o in replayed)
    assert [_comparable(o) for o in replayed] == [_comparable(o) for o in clean]
    assert again.hits == len(specs) and again.misses == 0
