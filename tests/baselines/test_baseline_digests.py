"""Frozen result digests of the §2 baselines.

Every baseline trajectory on a churning (``diurnal``) and a faulting
(``fault-storm``) 8×8 scenario is pinned by the sha256 of its result
payload. The digests were frozen before the baselines' per-candidate
loops moved from NumPy scalars to plain Python values, so any change to
a decision, its order or its RNG draws shows up here. Both task engines
must reproduce them.

The desynchronised-clock table pins the event engines where a partial
wake wave applies orders: jittered clocks with size-proportional
latency split almost every epoch into several waves, so the asleep
rule, the per-epoch link budget and the in-flight arrivals all shape
the payload. That table runs both event drivers by class: the heap-driven
:class:`~tests.heap_events.HeapEventSimulator` oracle and the columnar
:class:`~repro.sim.EventSimulator` the ``events`` engine builds.
"""

import hashlib
import json

import pytest

from repro.runner.spec import RunSpec
from repro.runner.worker import execute_spec
from repro.sim import EventSimulator
from tests.conftest import run_on
from tests.heap_events import HeapEventSimulator

#: sha256 of ``to_dict()`` minus ``wall_time_s``: side=8, 40 rounds, seed 0.
BASELINE_DIGESTS = {
    ("fault-storm", "diffusion"):
        "3d195685638f0d6594d35755caf7a1d44900a9c3ff62aee1cf674da11c0d274c",
    ("fault-storm", "dimension-exchange"):
        "c464fc68cb1d16f60cd24bec00ffc7d495874a529710c7909c10099fe6473cb0",
    ("fault-storm", "gradient-model"):
        "75c30f6f8dba3cb6170e671e11ae52a3ddb70508bba9945cbf21f203aaed23eb",
    ("fault-storm", "cwn"):
        "485ec8c22cec9e4df7c52be8e83b27cbcbd4ae5727312c3c223ae0f0db2f3b9d",
    ("fault-storm", "work-stealing"):
        "36af4be069f0957b693d0125b0bd436e601741d28f653c9ae4861e3fa18a533d",
    ("fault-storm", "sender-initiated"):
        "57f8bef1811baa65d6459274ee40462d23cdb553c6b4cd07e35d730cc3208bd0",
    ("diurnal", "diffusion"):
        "ea50663d6aac68d61a2d4d8aa1f68adcb8f32006cca8c28bbc446e86f493c92d",
    ("diurnal", "dimension-exchange"):
        "8dc3dae728aa24b844cfffb08793d92b7978bcfcbb9e51f15aef48ec263406ed",
    ("diurnal", "gradient-model"):
        "d16c70086ae6ebbfab5ebd1501a0c8a0024391a7e37e13cdf20297b871aea563",
    ("diurnal", "cwn"):
        "674f9e248b2fe61371fd34af3c9358a9640f4c6614a75333adf7b94226a53d90",
    ("diurnal", "work-stealing"):
        "100679c2dc5139432fca1ba589afff8230c777248be047136326e323f943497e",
    ("diurnal", "sender-initiated"):
        "dfe0f6abfbd55ccdc2c70cc0a2349f344ca6144616de245f1e7d5cc8e06926f0",
}

#: Same digest recipe on the event engines with desynchronised clocks.
DESYNC_KWARGS = {"wake_jitter": 0.3, "transfer_latency": "size"}
DESYNC_DIGESTS = {
    ("mesh-hotspot", "pplb"):
        "0258db40230681cbfe3afcc4e9ab70fad3497357a8cd29c1cfca803766da4d55",
    ("mesh-hotspot", "diffusion"):
        "b57ed88c87e248d194b8d8fef6f59667b058c776ccaacfa9599a22280fd38553",
}


def _spec(scenario, algorithm, engine="rounds", sim_kwargs=None):
    return RunSpec(
        scenario=scenario,
        algorithm=algorithm,
        seed=0,
        max_rounds=40,
        engine=engine,
        scenario_kwargs={"side": 8},
        sim_kwargs=sim_kwargs or {},
    )


def _digest(result):
    payload = result.to_dict()
    del payload["wall_time_s"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestBaselineDigests:
    """Baseline trajectories stay byte-identical on both task engines."""

    @pytest.mark.parametrize("engine", ["rounds", "events"])
    @pytest.mark.parametrize("scenario,algorithm", list(BASELINE_DIGESTS))
    def test_result_digest_is_frozen(self, scenario, algorithm, engine):
        result = execute_spec(_spec(scenario, algorithm, engine))
        assert _digest(result) == BASELINE_DIGESTS[scenario, algorithm]

    @pytest.mark.parametrize("engine_cls", [HeapEventSimulator, EventSimulator],
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("scenario,algorithm", list(DESYNC_DIGESTS))
    def test_desync_digest_is_frozen(self, scenario, algorithm, engine_cls):
        result = run_on(engine_cls, _spec(scenario, algorithm, "events",
                                          DESYNC_KWARGS))
        assert _digest(result) == DESYNC_DIGESTS[scenario, algorithm]

    @pytest.mark.parametrize("scenario,algorithm", list(BASELINE_DIGESTS))
    def test_runs_migrate_tasks(self, scenario, algorithm):
        # A digest of a run that never moves a task would pin nothing of
        # the baseline's decisions.
        result = execute_spec(_spec(scenario, algorithm))
        assert sum(r.n_migrations for r in result.records) > 0
