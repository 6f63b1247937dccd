"""Span tracing from outside the program: wrap public callables, record
spans in memory, restore everything afterwards.

A :class:`Tracer` records one span per call into each wrapped callable:
its name, start, end, parent span and a trace id shared by every span
of one spec. :func:`traced` installs the wrappers for the length of a
``with`` block and puts the original objects back on exit, even when
the block raises. Nothing under ``src/`` knows it is being traced.

Targets are data (:data:`TARGETS`): an owner (a module, or a class
inside one), an attribute and the layer name the spans carry. A module
function is replaced at *every* binding in a loaded ``repro`` module
(``from x import f`` copies the reference, so the runner's own
``execute_payload`` global is the one that matters); a class attribute
is replaced on the class itself, which every instance and subclass
resolves through.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

Ident = Callable[["Tracer", tuple, dict], "str | None"]
After = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``. ``ident`` maps the
    call's arguments to a trace id (None inherits the parent's);
    ``after`` reads counts off the arguments and return value once the
    call has returned.
    """

    owner: str
    attr: str
    name: str
    ident: Ident | None = None
    after: After | None = None


class Tracer:
    """In-memory span store plus named counters.

    Spans live in parallel lists (index = span id) so that a traced
    pass with hundreds of thousands of short calls stays cheap.
    """

    def __init__(self, spec_ids: dict | None = None):
        #: maps spec coordinates / cache keys to a trace id (see
        #: :func:`spec_id_map`); unknown arguments inherit the parent id.
        self.spec_ids = spec_ids or {}
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list[str | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A timed stand-in for *fn* that records one span per call."""
        name, ident, after = target.name, target.ident, target.after
        names, starts, ends = self.names, self.starts, self.ends
        parents, ids, stack = self.parents, self.ids, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = len(names)
            parent = stack[-1] if stack else -1
            sid = ident(self, args, kwargs) if ident is not None else None
            if sid is None and parent >= 0:
                sid = ids[parent]
            names.append(name)
            parents.append(parent)
            ids.append(sid)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            if after is not None:
                after(self, args, out)
            return out

        return traced_call

    # ------------------------------ reading ----------------------------- #

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[span] - self.starts[span]
        return own

    def layers(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over every span."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, own in zip(
            self.names, self.starts, self.ends, self.self_times()
        ):
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def chrome_trace(self, other: dict | None = None) -> dict:
        """Chrome trace-event JSON, the document ``pplb profile`` writes."""
        t0 = min(self.starts) if self.starts else 0.0
        events = []
        for span, (name, start, end, parent, sid) in enumerate(
            zip(self.names, self.starts, self.ends, self.parents, self.ids)
        ):
            events.append({
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": span, "parent": parent, "id": sid},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"counts": dict(self.counts), **(other or {})},
        }

    def write_chrome_trace(self, path, other: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(other), fh)


# ------------------------- ids and count hooks ------------------------- #


def spec_coords(spec) -> tuple:
    """The coordinates that tell apart the specs of one workload."""
    return (spec.scenario, spec.algorithm, spec.seed, spec.engine)


def spec_id_map(specs) -> dict:
    """Trace ids for a pass: by spec coordinates and by cache key.

    Call with specs whose keys may be memoised (set-up copies), never
    with the objects the traced pass runs.
    """
    ids: dict = {}
    for i, spec in enumerate(specs):
        sid = f"spec{i}"
        ids[spec_coords(spec)] = sid
        ids[spec.key()] = sid
    return ids


def _by_self_spec(tracer, args, kwargs):
    return tracer.spec_ids.get(spec_coords(args[0]))


def _by_key(tracer, args, kwargs):
    key = args[1] if len(args) > 1 else kwargs.get("key")
    return tracer.spec_ids.get(key)


def _by_spec_dict(tracer, args, kwargs):
    d = args[0]
    return tracer.spec_ids.get(
        (d["scenario"], d["algorithm"], d["seed"], d["engine"])
    )


def _by_batch(tracer, args, kwargs):
    first = args[0]["specs"][0]
    sid = _by_spec_dict(tracer, (first,), {})
    return None if sid is None else f"batch:{sid}"


def _by_sink_index(tracer, args, kwargs):
    return f"spec{kwargs['index']}" if "index" in kwargs else None


def _count_events(tracer, args, out):
    tracer.counts["sim.events.events_processed"] += args[0].events_processed


def _count_lanes(tracer, args, out):
    tracer.counts["sim.batch.lanes"] += len(args[0].sims)


def _count_migrations(tracer, args, out):
    tracer.counts["core.balancer.migrations"] += len(out)


#: every callable the traced pass wraps, by layer (module) name.
TARGETS: tuple[Target, ...] = (
    Target("repro.runner.runner", "run_grid", "runner.run_grid"),
    Target("repro.runner.sink", "default_metrics", "runner.default_metrics"),
    Target("repro.runner.spec:RunSpec", "key", "runner.spec.key", _by_self_spec),
    Target("repro.runner.worker", "execute_payload", "runner.worker.execute",
           _by_spec_dict),
    Target("repro.runner.worker", "execute_batch_payload",
           "runner.worker.execute", _by_batch),
    Target("repro.runner.cache:ResultCache", "get", "runner.cache.get", _by_key),
    Target("repro.runner.cache:ResultCache", "put", "runner.cache.put", _by_key),
    Target("repro.runner.cache:ResultCache", "metrics_for",
           "runner.cache.metrics_for", _by_key),
    Target("repro.runner.cache:ResultCache", "load_index",
           "runner.cache.load_index"),
    Target("repro.runner.sink:ColumnarResultLog", "append", "runner.sink.append",
           _by_sink_index),
    Target("repro.workloads.scenarios", "build_scenario",
           "workloads.build_scenario"),
    Target("repro.network.topology:Topology", "__init__", "network.topology_init"),
    Target("repro.tasks.task:TaskSystem", "add_task", "tasks.add_task"),
    Target("repro.sim.engine:Simulator", "__init__", "sim.engine.init"),
    Target("repro.sim.events:EventSimulator", "__init__", "sim.engine.init"),
    Target("repro.sim.engine:Simulator", "play_round", "sim.engine.play_round"),
    Target("repro.sim.events:EventSimulator", "play_round",
           "sim.engine.play_round"),
    Target("repro.sim.events:EventFastSimulator", "play_round",
           "sim.engine.play_round"),
    Target("repro.sim.engine:Simulator", "round_apply", "sim.engine.round_apply"),
    Target("repro.sim.kernel:SimulationLoop", "run", "sim.kernel.run"),
    Target("repro.sim.kernel:SimulationLoop", "observe_round",
           "sim.kernel.observe_round"),
    Target("repro.sim.events:EventSimulator", "run", "sim.events.run",
           after=_count_events),
    Target("repro.sim.batch:BatchSimulator", "run", "sim.batch.run",
           after=_count_lanes),
    Target("repro.sim.results:SimulationResult", "to_dict", "sim.results.to_dict"),
    Target("repro.sim.results:SimulationResult", "from_dict",
           "sim.results.from_dict"),
    Target("repro.core.balancer:ParticlePlaneBalancer", "step",
           "core.balancer.step", after=_count_migrations),
    Target("repro.baselines.diffusion:TaskDiffusion", "step",
           "baselines.diffusion.step"),
)


# ------------------------------ patching ------------------------------- #


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


def bindings(targets=TARGETS) -> list[tuple[object, str, object]]:
    """Every ``(owner, attribute, original)`` the targets would replace.

    Class attributes are read from the class ``__dict__`` (so a
    classmethod is its descriptor); a module function is listed once
    per loaded ``repro`` module that binds the same object.
    """
    out = []
    for target in targets:
        owner = _resolve_owner(target.owner)
        if isinstance(owner, type):
            out.append((owner, target.attr, owner.__dict__[target.attr]))
            continue
        original = getattr(owner, target.attr)
        for mod_name, module in sorted(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    out.append((module, attr, original))
    return out


@contextlib.contextmanager
def traced(tracer: Tracer, targets=TARGETS) -> Iterator[Tracer]:
    """Install span-recording wrappers for the block; restore on exit."""
    installed: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            owner = _resolve_owner(target.owner)
            if isinstance(owner, type):
                original = owner.__dict__[target.attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(tracer.wrap(original.__func__, target))
                else:
                    wrapper = tracer.wrap(original, target)
                installed.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapper)
                continue
            original = getattr(owner, target.attr)
            wrapper = tracer.wrap(original, target)
            for module, attr, _ in bindings([target]):
                installed.append((module, attr, original))
                setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
