"""Unit tests for repro.workloads.traces."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.tasks import TaskSystem
from repro.workloads import DynamicWorkload, TraceReplay, WorkloadTrace, record_trace
from repro.workloads.traces import ArrivalEvent, CompletionEvent


class TestTraceConstruction:
    def test_from_events(self):
        tr = WorkloadTrace.from_events(
            arrivals=[(0, 3, 1.0), (2, 5, 2.0)],
            completions=[(4, 0)],
        )
        assert tr.n_arrivals == 2
        assert tr.horizon == 4

    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalEvent(-1, 0, 1.0)
        with pytest.raises(ConfigurationError):
            ArrivalEvent(0, 0, 0.0)
        for size in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ArrivalEvent(0, 0, size)
        with pytest.raises(ConfigurationError):
            ArrivalEvent(0, -1, 1.0)
        with pytest.raises(ConfigurationError):
            CompletionEvent(0, -1)

    def test_completion_must_reference_existing_arrival(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace.from_events([(0, 0, 1.0)], [(1, 5)])

    def test_completion_must_follow_arrival(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace.from_events([(3, 0, 1.0)], [(3, 0)])

    def test_json_round_trip(self):
        tr = WorkloadTrace.from_events([(0, 3, 1.5), (2, 5, 2.0)], [(4, 0)])
        again = WorkloadTrace.from_json(tr.to_json())
        assert again.n_arrivals == 2
        assert again.completions[0].arrival_index == 0
        assert again.arrivals[0].size == 1.5

    def test_bad_json(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace.from_json('{"nope": []}')
        # Python's json accepts these non-standard literals.
        for size in ("NaN", "Infinity"):
            with pytest.raises(ConfigurationError):
                WorkloadTrace.from_json('{"arrivals": [[0, 0, %s]]}' % size)
        with pytest.raises(ConfigurationError):
            WorkloadTrace.from_json('{"arrivals": [[0, -1, 1.0]]}')


class TestReplay:
    def test_replays_events_at_right_rounds(self, mesh4):
        tr = WorkloadTrace.from_events(
            arrivals=[(0, 1, 1.0), (1, 2, 2.0)],
            completions=[(2, 0)],
        )
        system = TaskSystem(mesh4)
        replay = TraceReplay(tr)

        created, removed = replay.step(system)  # round 0
        assert len(created) == 1 and removed == []
        assert system.node_loads[1] == 1.0

        created, removed = replay.step(system)  # round 1
        assert len(created) == 1
        assert system.node_loads[2] == 2.0

        created, removed = replay.step(system)  # round 2
        assert created == [] and len(removed) == 1
        assert system.node_loads[1] == 0.0

    def test_replay_is_workload_compatible_with_engine(self, mesh4):
        from repro.baselines import NoBalancer
        from repro.sim import Simulator

        tr = WorkloadTrace.from_events([(0, 0, 1.0), (3, 5, 2.0)])
        system = TaskSystem(mesh4)
        sim = Simulator(mesh4, system, NoBalancer(), dynamic=TraceReplay(tr))
        sim.run(max_rounds=5)
        assert system.n_tasks == 2


class TestRecordTrace:
    def test_recorded_trace_reproduces_loads(self, mesh4):
        wl = DynamicWorkload(arrival_rate=3.0, completion_prob=0.1, rng=7)
        live = TaskSystem(mesh4)
        trace = record_trace(wl, live, rounds=25)

        replayed = TaskSystem(mesh4)
        replay = TraceReplay(trace)
        for _ in range(25):
            replay.step(replayed)

        np.testing.assert_allclose(replayed.node_loads, live.node_loads)
        assert replayed.n_tasks == live.n_tasks

    def test_two_replays_identical(self, mesh4):
        wl = DynamicWorkload(arrival_rate=2.0, completion_prob=0.05, rng=1)
        trace = record_trace(wl, TaskSystem(mesh4), rounds=20)

        def run():
            s = TaskSystem(mesh4)
            r = TraceReplay(trace)
            for _ in range(20):
                r.step(s)
            return s.node_loads.copy()

        np.testing.assert_allclose(run(), run())

    def test_validation(self, mesh4):
        wl = DynamicWorkload(rng=0)
        with pytest.raises(ConfigurationError):
            record_trace(wl, TaskSystem(mesh4), rounds=0)
