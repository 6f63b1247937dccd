"""Unit and differential tests for the probe-based telemetry layer.

The probe contract has two halves. *Passivity*: no probe may change a
simulation — records, RNG consumption and the wire payload are
bit-identical whether a run carries the null probe, the counters probe
or the trace probe, and a probe-less payload has no ``telemetry`` key
at all (byte-identical to the pre-telemetry wire format). *Fidelity*:
the counters a probe reports describe the decisions actually taken, so
the decision-invariant subset must agree exactly between PPLB pinned to
the reference Phase-B sweep and plain PPLB, which screens (on
:class:`~repro.sim.Simulator`, and from the heap-driven
:class:`~tests.heap_events.HeapEventSimulator` to the ``events`` engine's
:class:`~repro.sim.EventSimulator`), while the
screen-effectiveness counters (``balancer.phase_b_nodes``,
``screen.*``) are exactly the ones allowed to differ.
"""

import dataclasses
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.runner.registry import make_balancer
from repro.sim import (
    CountersProbe,
    EventSimulator,
    NullProbe,
    Probe,
    SimulationResult,
    Simulator,
    TraceProbe,
    make_probe,
    probe_tag,
)
from repro.sim.telemetry import DEFAULT_TRACE_PATH, NULL_PROBE
from repro.workloads import build_scenario
from tests.conftest import reference_balancer
from tests.heap_events import HeapEventSimulator

SIZE = {"side": 6, "n_tasks": 180}

#: counters that must agree between the reference and screened sweeps:
#: everything describing a *decision* (what moved, what the RNG fed).
DECISION_INVARIANT = [
    "balancer.initiated",
    "balancer.settled",
    "balancer.hops",
    "balancer.arbiter_choices",
    "balancer.rng_draws",
    "balancer.phase_a_decisions",
    "engine.transfers_applied",
    "engine.transfers_blocked",
]


def _run(engine_cls, scenario="mesh-hotspot", seed=11, rounds=60,
         algorithm="pplb", probe="null", reference=False, **bal_kwargs):
    sc = build_scenario(scenario, seed=seed, **SIZE)
    bal = (reference_balancer if reference else make_balancer)(
        algorithm, **bal_kwargs
    )
    sim = engine_cls(
        sc.topology, sc.system, bal,
        links=sc.links, dynamic=sc.dynamic, node_speeds=sc.node_speeds,
        seed=seed, probe=probe,
    )
    return sim.run(max_rounds=rounds)


def _records(result):
    return [dataclasses.asdict(r) for r in result.records]


class TestProbeFactory:
    def test_null_is_the_shared_singleton(self):
        assert make_probe("null") is NULL_PROBE
        assert isinstance(NULL_PROBE, NullProbe)
        assert NULL_PROBE.enabled is False

    def test_counters_and_trace_specs(self):
        assert isinstance(make_probe("counters"), CountersProbe)
        trace = make_probe("trace")
        assert isinstance(trace, TraceProbe)
        assert trace.path == DEFAULT_TRACE_PATH
        assert make_probe("trace:/tmp/t.json").path == "/tmp/t.json"

    def test_probe_instance_passes_through(self):
        probe = CountersProbe()
        assert make_probe(probe) is probe

    def test_tags_round_trip(self):
        assert probe_tag("null") == "null"
        assert probe_tag("counters") == "counters"
        assert probe_tag("trace:/x.json") == "trace:/x.json"

    def test_unknown_spec_is_a_clean_error(self):
        with pytest.raises(ConfigurationError, match="probe"):
            make_probe("wat")

    def test_empty_trace_path_is_a_clean_error(self):
        with pytest.raises(ConfigurationError):
            make_probe("trace:")

    def test_base_probe_is_inert(self):
        probe = Probe()
        probe.start()
        probe.incr("x")
        probe.span("y", 0.0, 1.0)
        assert probe.enabled is False and probe.tag() == "null"


class TestNullProbePassivity:
    """The default probe provably changes nothing."""

    @pytest.mark.parametrize("engine_cls", [
        Simulator, HeapEventSimulator, EventSimulator,
    ])
    def test_counters_probe_changes_no_records(self, engine_cls):
        base = _run(engine_cls)
        probed = _run(engine_cls, probe="counters")
        assert _records(base) == _records(probed)
        assert base.final_summary == probed.final_summary
        assert base.converged_round == probed.converged_round

    def test_trace_probe_changes_no_records(self, tmp_path):
        base = _run(Simulator)
        probed = _run(Simulator, probe=f"trace:{tmp_path / 't.json'}")
        assert _records(base) == _records(probed)

    def test_null_run_payload_has_no_telemetry_key(self):
        result = _run(Simulator, rounds=20)
        assert result.telemetry is None
        payload = result.to_dict()
        assert "telemetry" not in payload
        # Byte-identical to the pre-telemetry wire format.
        rebuilt = SimulationResult.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.telemetry is None

    def test_payload_bytes_identical_modulo_wall_time(self):
        a = _run(Simulator, rounds=20).to_dict()
        b = _run(Simulator, rounds=20, probe="counters").to_dict()
        b.pop("telemetry")
        a["wall_time_s"] = b["wall_time_s"] = 0.0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCountersProbe:
    def test_phases_cover_every_round(self):
        result = _run(Simulator, rounds=40, probe="counters")
        phases = result.telemetry["phases"]
        for name in ("play_round", "observe", "record", "converge"):
            assert phases[name]["calls"] == result.n_rounds
            assert phases[name]["total_s"] >= 0.0

    def test_counters_describe_the_run(self):
        result = _run(Simulator, rounds=60, probe="counters")
        counters = result.telemetry["counters"]
        assert counters["engine.transfers_applied"] == result.total_migrations
        assert counters["balancer.hops"] == result.total_migrations
        assert counters["balancer.arbiter_choices"] > 0
        assert counters["balancer.rng_draws"] > 0

    def test_greedy_arbiter_draws_no_rng(self):
        result = _run(Simulator, rounds=60, algorithm="pplb-greedy",
                      probe="counters")
        counters = result.telemetry["counters"]
        # The greedy arbiter is deterministic; only friction jitter
        # could draw, and the registry default is jitter-free.
        assert counters.get("balancer.rng_draws", 0) == 0
        assert counters["balancer.arbiter_choices"] > 0

    def test_telemetry_round_trips_the_wire(self):
        result = _run(Simulator, rounds=30, probe="counters")
        rebuilt = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.telemetry == result.telemetry

    def test_legacy_payload_without_telemetry_loads(self):
        payload = _run(Simulator, rounds=20).to_dict()
        assert "telemetry" not in payload  # pre-telemetry shape
        assert SimulationResult.from_dict(payload).telemetry is None


class TestDifferentialCounters:
    """The probes report the same decisions from both Phase-B sweeps."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_reference_vs_screened_sweep(self, seed):
        scalar = _run(Simulator, seed=seed, probe="counters", reference=True)
        fast = _run(Simulator, seed=seed, probe="counters")
        assert _records(scalar) == _records(fast)
        cs, cf = (r.telemetry["counters"] for r in (scalar, fast))
        for name in DECISION_INVARIANT:
            assert cs.get(name, 0) == cf.get(name, 0), name
        # The screened sweep exists to *skip* Phase-B work; the screen
        # counters must show it actually did.
        assert cf["balancer.phase_b_nodes"] < cs["balancer.phase_b_nodes"]
        assert "screen.waves" in cf and "screen.waves" not in cs

    @pytest.mark.parametrize("seed", [3, 11])
    def test_events_vs_events_fast(self, seed):
        heap = _run(HeapEventSimulator, seed=seed, probe="counters", reference=True)
        fast = _run(EventSimulator, seed=seed, probe="counters")
        assert _records(heap) == _records(fast)
        ch, cf = (r.telemetry["counters"] for r in (heap, fast))
        for name in DECISION_INVARIANT:
            assert ch.get(name, 0) == cf.get(name, 0), name
        # Same event stream, different carrier: every heap pop has a
        # columnar-buffer counterpart.
        assert ch["engine.heap_pops"] == cf["engine.buffer_pops"]
        assert ch["engine.waves"] == cf["engine.waves"]
        assert ch["engine.wake_nodes"] == cf["engine.wake_nodes"]


class TestTraceProbe:
    def test_writes_valid_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        result = _run(Simulator, rounds=30, probe=f"trace:{path}")
        assert result.telemetry["trace_path"] == str(path)
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events and trace["displayTimeUnit"] == "ms"
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        names = {event["name"] for event in events}
        assert {"play_round", "observe", "record", "converge"} <= names
        # The counters ride along for context.
        assert trace["otherData"]["counters"]["balancer.hops"] > 0

    def test_wake_wave_spans_on_event_engines(self, tmp_path):
        path = tmp_path / "trace.json"
        _run(EventSimulator, rounds=30, probe=f"trace:{path}")
        names = {e["name"] for e in json.loads(path.read_text())["traceEvents"]}
        assert "wake_wave" in names

    def test_timestamps_are_monotone_per_phase(self, tmp_path):
        path = tmp_path / "trace.json"
        _run(Simulator, rounds=30, probe=f"trace:{path}")
        events = json.loads(path.read_text())["traceEvents"]
        per_phase: dict = {}
        for event in events:
            per_phase.setdefault(event["name"], []).append(event["ts"])
        for name, stamps in per_phase.items():
            assert stamps == sorted(stamps), name
