"""The engine surface: one class per time model, and an oracle that is
really a different driver.

The runner builds exactly :class:`Simulator`, :class:`EventSimulator`
and :class:`FluidSimulator`, one per engine name; the packages export one
event class. The heap oracle (``tests/heap_events.py``) must override the
driver, or every heap ≡ columnar pairing would compare the engine with
itself and pass for nothing.
"""

import repro
import repro.sim
from repro.runner import ENGINES
from repro.runner.registry import make_balancer
from repro.runner.worker import _ENGINE_CLASSES
from repro.sim import EventSimulator, FluidSimulator, Simulator
from repro.workloads import build_scenario
from tests.heap_events import HeapEventSimulator


def test_engine_classes_are_one_per_time_model():
    assert set(_ENGINE_CLASSES) == ENGINES
    assert _ENGINE_CLASSES["rounds"] is Simulator
    assert _ENGINE_CLASSES["events"] is EventSimulator
    assert _ENGINE_CLASSES["fluid"] is FluidSimulator


def test_packages_export_one_event_class():
    assert "EventSimulator" in repro.sim.__all__
    assert "EventFastSimulator" not in repro.sim.__all__
    assert "EventSimulator" in repro.__all__
    assert "EventFastSimulator" not in repro.__all__


def test_oracle_overrides_the_driver():
    assert HeapEventSimulator.play_round is not EventSimulator.play_round
    assert HeapEventSimulator._reset_queues is not EventSimulator._reset_queues
    assert HeapEventSimulator._send is not EventSimulator._send


def _pop_counters(engine_cls):
    scenario = build_scenario("torus-hotspot", seed=2, side=4, n_tasks=48)
    sim = engine_cls(
        scenario.topology, scenario.system, make_balancer("pplb"),
        links=scenario.links, seed=2, wake_jitter=0.2, probe="counters",
    )
    return sim.run(max_rounds=5).telemetry["counters"]


def test_each_driver_counts_its_own_pops():
    heap = _pop_counters(HeapEventSimulator)
    columnar = _pop_counters(EventSimulator)
    assert heap["engine.heap_pops"] > 0 and "engine.buffer_pops" not in heap
    assert columnar["engine.buffer_pops"] > 0 and "engine.heap_pops" not in columnar
    assert heap["engine.heap_pops"] == columnar["engine.buffer_pops"]
