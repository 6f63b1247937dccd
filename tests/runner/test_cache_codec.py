"""Entry format 2: the packed round-column block replays byte-identically.

``ResultCache.put`` stores a columnar result's twelve round lists as one
base64 block; ``get`` must hand back exactly the payload
``SimulationResult.to_dict`` produced, down to ``json.dumps`` bytes.
"""

import json
import math

import pytest

from repro.runner import ResultCache, RunSpec, default_metrics, execute_spec
from repro.runner.cache import CACHE_FORMAT_VERSION
from repro.sim import RoundLog, SimulationResult

BASE = dict(scenario="mesh-hotspot", algorithm="diffusion", seed=4,
            max_rounds=40, scenario_kwargs={"side": 4, "n_tasks": 48})


def _spec(**overrides) -> RunSpec:
    return RunSpec(**{**BASE, **overrides})


def _stored(tmp_path, payload, key="ab" + "0" * 62):
    cache = ResultCache(tmp_path / "cache")
    path = cache.put(key, {"scenario": "hand-built"}, payload)
    return cache, key, path


def _extreme_result() -> SimulationResult:
    log = RoundLog()
    big = 2**62 + 12345
    log.append_row(0, big, math.nan, math.inf, -math.inf, -0.0, 5e-324,
                   1.7976931348623157e308, -big, 0, 2**62, -1)
    log.append_row(1, 0, 0.1 + 0.2, -0.0, math.nan, math.inf, 0.0, -1e-300,
                   2**63 - 1, -(2**63), 7, 3)
    return SimulationResult(
        log=log, converged_round=None,
        initial_summary={"cov": 1.5, "spread": math.inf},
        final_summary={"cov": math.nan, "spread": -0.0},
        balancer_name="hand-built", wall_time_s=0.25,
    )


def _zero_round_result() -> SimulationResult:
    return SimulationResult(
        log=RoundLog(), converged_round=0,
        initial_summary={"cov": 0.0, "spread": 0.0},
        final_summary={"cov": 0.0, "spread": 0.0},
        balancer_name="none", wall_time_s=0.0,
    )


RESULTS = {
    "full": lambda: execute_spec(_spec()),
    "thin:3": lambda: execute_spec(_spec(recorder="thin:3")),
    "summary": lambda: execute_spec(_spec(recorder="summary")),
    "counters": lambda: execute_spec(_spec(probe="counters")),
    "zero-round": _zero_round_result,
    "extreme": _extreme_result,
}


@pytest.mark.parametrize("name", list(RESULTS))
def test_get_returns_the_put_payload_byte_for_byte(tmp_path, name):
    result = RESULTS[name]()
    payload = result.to_dict()
    cache, key, path = _stored(tmp_path, payload)
    entry = json.loads(path.read_text())
    assert entry["version"] == CACHE_FORMAT_VERSION == 2
    assert set(entry["result"]["columns"]) == {"rounds", "b64"}
    assert entry["result"]["columns"]["rounds"] == len(result.log)
    got = cache.get(key)
    assert json.dumps(got) == json.dumps(result.to_dict())
    assert list(got) == list(payload)  # key order too
    assert cache.hits == 1 and cache.misses == 0
    assert ("telemetry" in got) == (name == "counters")


def test_extreme_values_keep_their_types_and_bits(tmp_path):
    result = _extreme_result()
    cache, key, _ = _stored(tmp_path, result.to_dict())
    columns = cache.get(key)["columns"]
    assert columns["n_migrations"][0] == 2**62 + 12345
    assert columns["blocked"][1] == -(2**63)
    assert all(type(v) is int for v in columns["in_flight"])
    assert all(type(v) is float for v in columns["heat"])
    assert math.copysign(1.0, columns["spread"][0]) == -1.0
    rebuilt = SimulationResult.from_dict(cache.get(key))
    assert json.dumps(rebuilt.to_dict()) == json.dumps(result.to_dict())


def test_non_columnar_payloads_stay_plain_json(tmp_path):
    ragged = execute_spec(_spec()).to_dict()
    ragged["columns"]["heat"] = ragged["columns"]["heat"][:-1]
    huge = execute_spec(_spec()).to_dict()
    huge["columns"]["blocked"][0] = 2**64
    for payload in ({"records": [], "converged_round": 3},
                    {"columns": {"cov": [0.5]}}, ragged, huge):
        cache, key, path = _stored(tmp_path, payload)
        assert json.loads(path.read_text())["result"] == payload
        assert json.dumps(cache.get(key)) == json.dumps(payload)


def test_hand_built_columns_rebuild_into_the_same_result(tmp_path):
    # Values to_dict never writes (ints in a float column, a float in an
    # int column) are packed with the conversion from_dict applies.
    payload = execute_spec(_spec()).to_dict()
    payload["columns"]["cov"] = [1] * len(payload["columns"]["cov"])
    payload["columns"]["n_tasks"][0] = 48.0
    cache, key, _ = _stored(tmp_path, payload)
    got = cache.get(key)
    assert got["columns"]["cov"][0] == 1.0 and got["columns"]["n_tasks"][0] == 48
    assert (SimulationResult.from_dict(got).to_dict()
            == SimulationResult.from_dict(payload).to_dict())


def test_version_1_list_entry_replays_as_a_hit(tmp_path):
    result = execute_spec(_spec())
    cache, key, path = _stored(tmp_path, result.to_dict())
    path.write_text(json.dumps({"version": 1, "key": key, "spec": {},
                                "result": result.to_dict()}))
    got = cache.get(key)
    assert cache.hits == 1
    assert json.dumps(got) == json.dumps(result.to_dict())
    assert SimulationResult.from_dict(got) == result


@pytest.mark.parametrize("version", [0, 3, "2", None])
def test_unknown_version_is_a_miss(tmp_path, version):
    cache, key, path = _stored(tmp_path, execute_spec(_spec()).to_dict())
    entry = json.loads(path.read_text())
    entry["version"] = version
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.misses == 1 and cache.hits == 0


MALFORMED_BLOCKS = {
    "not-base64": lambda p: {**p, "b64": "!!not base64!!"},
    "one-char-swapped": lambda p: {**p, "b64": "#" + p["b64"][1:]},
    "char-inserted": lambda p: {**p, "b64": p["b64"][:8] + "#" + p["b64"][8:]},
    "short": lambda p: {**p, "b64": p["b64"][:-4]},
    "rounds-too-many": lambda p: {**p, "rounds": p["rounds"] + 1},
    "negative-rounds": lambda p: {"rounds": -1, "b64": ""},
    "float-rounds": lambda p: {**p, "rounds": float(p["rounds"])},
    "bool-rounds": lambda p: {"rounds": True, "b64": "A" * 128},
    "b64-not-str": lambda p: {**p, "b64": 5},
    "non-ascii": lambda p: {**p, "b64": "é" * len(p["b64"])},
}


@pytest.mark.parametrize("name", list(MALFORMED_BLOCKS))
def test_malformed_block_is_a_miss(tmp_path, name):
    cache, key, path = _stored(tmp_path, execute_spec(_spec()).to_dict())
    entry = json.loads(path.read_text())
    entry["result"]["columns"] = MALFORMED_BLOCKS[name](entry["result"]["columns"])
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.misses == 1 and cache.hits == 0


def test_rebuild_index_reads_version_1_and_2_entries(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    stored = {}
    for seed in range(4):
        spec = _spec(seed=seed)
        result = execute_spec(spec)
        metrics = default_metrics(result)
        path = cache.put(spec.key(), spec.to_dict(), result.to_dict(), metrics)
        if seed % 2:
            path.write_text(json.dumps({
                "version": 1, "key": spec.key(), "spec": spec.to_dict(),
                "result": result.to_dict(),
            }))
        stored[spec.key()] = metrics
    cache.index_path.unlink()
    assert cache.rebuild_index() == 4
    for key, metrics in stored.items():
        assert cache.metrics_for(key) == metrics
