"""Simulation engines (synchronous rounds and asynchronous events).

The synchronous engine realises the paper's implicit machine model:
time advances in synchronous rounds; in each round every link carries
at most a fixed number of loads (default 1 — "at each time unit only a
single load is transferred over a link"); faults are realised at round
start; balancers observe the state and order one-hop migrations.

* :class:`Simulator` — task-granular synchronous simulation (the
  paper's setting; ``engine="rounds"``). PPLB picks its own Phase-B
  sweep (the screened one whenever it is sound), so no engine carries
  a fast-path switch.
* :class:`EventSimulator` — discrete-event *asynchronous* simulation in
  continuous time (``engine="events"``): per-node clocks (heterogeneous
  speeds, jitter, stragglers), latency-delayed transfers, results
  sampled at epoch boundaries, pending wakes in a columnar
  :class:`WakeSchedule`. Degenerates exactly to :class:`Simulator`
  under unit clocks / zero latency / uniform cadence; a heap-driven
  test oracle pins its schedule on every clock model.
* :class:`FluidSimulator` — divisible-load simulation for the diffusion-
  family theory checks.
* :class:`BatchSimulator` — S independent seed replicates of one
  scenario on one shared topology build (``batch_replicates=N``
  through the runner), any engine: each lane runs the solo engine, so
  its records, final loads and terminal RNG state are bit-identical to
  a solo run of that seed.
* :mod:`kernel <repro.sim.kernel>` — the shared
  :class:`SimulationLoop`: every engine above is a thin driver
  supplying its round body, the kernel owns the lifecycle (observe,
  record, convergence). The two task engines also share its
  :class:`~repro.sim.kernel.TaskStateMixin`: one order path and one
  ``(when, seq)`` wire that a migrating task waits on until it lands,
  so they differ only in their time model.
* :mod:`recording <repro.sim.recording>` — pluggable recorders over a
  columnar :class:`RoundLog`: ``full`` (every round), ``thin:k``
  (every k-th + last, exact totals), ``summary`` (O(1) running
  aggregates for million-round runs).
* :mod:`telemetry <repro.sim.telemetry>` — pluggable probes: ``null``
  (off, zero overhead), ``counters`` (aggregate per-phase times and
  structured counters on ``result.telemetry``), ``trace[:path]``
  (Chrome trace-event JSON per run).
* :mod:`metrics <repro.sim.metrics>` — imbalance and traffic metrics.
* :class:`SimulationResult` — columnar per-round history + summary.
"""

from repro.sim.batch import BatchSimulator
from repro.sim.engine import FluidSimulator, Simulator
from repro.sim.event_buffers import WakeSchedule
from repro.sim.events import EventSimulator
from repro.sim.kernel import RoundDriver, RoundStats, SimulationLoop
from repro.sim.metrics import (
    coefficient_of_variation,
    imbalance_summary,
    max_min_spread,
    normalized_spread,
)
from repro.sim.recording import (
    FullRecorder,
    Recorder,
    SummaryRecorder,
    ThinningRecorder,
    make_recorder,
    recorder_tag,
)
from repro.sim.results import RoundLog, RoundRecord, SimulationResult
from repro.sim.telemetry import (
    CountersProbe,
    NullProbe,
    Probe,
    TraceProbe,
    make_probe,
    probe_tag,
)

__all__ = [
    "Simulator",
    "EventSimulator",
    "FluidSimulator",
    "BatchSimulator",
    "WakeSchedule",
    "SimulationLoop",
    "RoundDriver",
    "RoundStats",
    "SimulationResult",
    "RoundRecord",
    "RoundLog",
    "Recorder",
    "FullRecorder",
    "ThinningRecorder",
    "SummaryRecorder",
    "make_recorder",
    "recorder_tag",
    "Probe",
    "NullProbe",
    "CountersProbe",
    "TraceProbe",
    "make_probe",
    "probe_tag",
    "coefficient_of_variation",
    "max_min_spread",
    "normalized_spread",
    "imbalance_summary",
]
