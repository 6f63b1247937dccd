"""Workload traces: recorded arrival schedules, replayable exactly.

A :class:`WorkloadTrace` is an explicit list of arrival events
``(round, node, size)`` plus optional completion events
``(round, task_index)`` — the bridge between synthetic generators and
"replay what production saw" studies. Traces can be

* built programmatically (:meth:`WorkloadTrace.from_events`),
* synthesised from any stochastic process and then *frozen*
  (:func:`record_trace`), so two algorithms face byte-identical churn,
* serialised to/from plain JSON for sharing.

:class:`TraceReplay` adapts a trace to the engine's ``dynamic`` hook
(the same slot :class:`~repro.workloads.dynamic.DynamicWorkload` uses).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.tasks.task import TaskSystem
from repro.workloads.dynamic import DynamicWorkload


@dataclass(frozen=True)
class ArrivalEvent:
    """A task arriving at *round* on *node* with the given *size*."""

    round_index: int
    node: int
    size: float

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ConfigurationError(f"round must be >= 0, got {self.round_index}")
        if self.node < 0:
            raise ConfigurationError(f"node must be >= 0, got {self.node}")
        if not 0 < self.size < math.inf:  # also rejects NaN
            raise ConfigurationError(
                f"size must be positive and finite, got {self.size}"
            )


@dataclass(frozen=True)
class CompletionEvent:
    """The *arrival_index*-th arrived task completing at *round*."""

    round_index: int
    arrival_index: int

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ConfigurationError(f"round must be >= 0, got {self.round_index}")
        if self.arrival_index < 0:
            raise ConfigurationError(
                f"arrival_index must be >= 0, got {self.arrival_index}"
            )


@dataclass
class WorkloadTrace:
    """An immutable-ish schedule of arrivals and completions."""

    arrivals: list[ArrivalEvent] = field(default_factory=list)
    completions: list[CompletionEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # completions must reference arrivals that exist and happen later
        n = len(self.arrivals)
        for c in self.completions:
            if c.arrival_index >= n:
                raise ConfigurationError(
                    f"completion references arrival {c.arrival_index} of {n}"
                )
            if c.round_index <= self.arrivals[c.arrival_index].round_index:
                raise ConfigurationError(
                    f"task {c.arrival_index} completes at round {c.round_index} "
                    f"but arrives at {self.arrivals[c.arrival_index].round_index}"
                )

    @property
    def n_arrivals(self) -> int:
        return len(self.arrivals)

    @property
    def horizon(self) -> int:
        """Last round touched by any event (+1 = rounds needed to replay)."""
        last = -1
        for a in self.arrivals:
            last = max(last, a.round_index)
        for c in self.completions:
            last = max(last, c.round_index)
        return last

    @classmethod
    def from_events(
        cls,
        arrivals: list[tuple[int, int, float]],
        completions: list[tuple[int, int]] | None = None,
    ) -> "WorkloadTrace":
        """Build from plain tuples ``(round, node, size)`` / ``(round, idx)``."""
        return cls(
            arrivals=[ArrivalEvent(*a) for a in arrivals],
            completions=[CompletionEvent(*c) for c in (completions or [])],
        )

    # ------------------------------- JSON ------------------------------ #

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(
            {
                "arrivals": [[a.round_index, a.node, a.size] for a in self.arrivals],
                "completions": [
                    [c.round_index, c.arrival_index] for c in self.completions
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        """Parse a trace serialised by :meth:`to_json`."""
        try:
            raw = json.loads(text)
            return cls.from_events(
                [(int(r), int(n), float(s)) for r, n, s in raw["arrivals"]],
                [(int(r), int(i)) for r, i in raw.get("completions", [])],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed trace JSON: {exc}") from exc


class TraceReplay:
    """Engine `dynamic` adapter replaying a :class:`WorkloadTrace`.

    Drop-in for :class:`~repro.workloads.dynamic.DynamicWorkload`: call
    :meth:`step` once per round in order. Task ids are assigned by the
    target system; the trace's arrival indices map onto them in order.
    """

    def __init__(self, trace: WorkloadTrace):
        self.trace = trace
        self._by_round_arrivals: dict[int, list[int]] = {}
        for idx, a in enumerate(trace.arrivals):
            self._by_round_arrivals.setdefault(a.round_index, []).append(idx)
        self._by_round_completions: dict[int, list[int]] = {}
        for c in trace.completions:
            self._by_round_completions.setdefault(c.round_index, []).append(
                c.arrival_index
            )
        self._task_of_arrival: dict[int, int] = {}
        self._round = -1

    def step(self, system: TaskSystem) -> tuple[list[int], list[int]]:
        """Apply the next round's events; returns (created, removed) ids."""
        self._round += 1
        r = self._round
        removed: list[int] = []
        for arrival_idx in self._by_round_completions.get(r, []):
            tid = self._task_of_arrival.get(arrival_idx)
            if tid is not None and system.is_alive(tid):
                system.remove_task(tid)
                removed.append(tid)
        created: list[int] = []
        for arrival_idx in self._by_round_arrivals.get(r, []):
            a = self.trace.arrivals[arrival_idx]
            tid = system.add_task(a.size, a.node)
            self._task_of_arrival[arrival_idx] = tid
            created.append(tid)
        return created, removed


def record_trace(
    workload: DynamicWorkload,
    system: TaskSystem,
    rounds: int,
) -> WorkloadTrace:
    """Run *workload* against *system* for *rounds*, freezing its events.

    The system is mutated (the workload really runs); the returned trace
    replays the identical event sequence against any fresh system — the
    tool for algorithm comparisons under identical churn.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    arrivals: list[tuple[int, int, float]] = []
    completions: list[tuple[int, int]] = []
    id_to_arrival: dict[int, int] = {}
    for r in range(rounds):
        created, removed = workload.step(system)
        for tid in removed:
            if tid in id_to_arrival:
                completions.append((r, id_to_arrival[tid]))
        for tid in created:
            id_to_arrival[tid] = len(arrivals)
            arrivals.append((r, system.location_of(tid), system.load_of(tid)))
    return WorkloadTrace.from_events(arrivals, completions)
