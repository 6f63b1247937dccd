"""The benchmark's workloads: spec mixes, set-up and one timed pass each.

Every workload drives the public :func:`repro.runner.runner.run_grid`
API. A *pass* is the unit the harness times and repeats; its result
carries one metric digest per spec outcome so the harness can check
outputs spec by spec.

* ``grid-cold`` — a mixed 12x12 grid (five scenarios with churn and
  faulty links, PPLB and diffusion, rounds-fast and events-fast) run
  into an empty cache through the persistent pool, replicate batching
  on. Set-up spawns the pool.
* ``large-n-cold`` — a few 4096-node rounds-fast specs, cold, on the
  serial backend: scenario build and the PPLB step dominate.
* ``warm-replay`` — repeated replays of a cache filled during set-up,
  alternating full replays with metric-level replays into a columnar
  sink, each through a freshly opened ``ResultCache``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import repro.runner.runner as runner_mod
from repro.rng import seed_for
from repro.runner.backends import ExecutionBackend, PoolBackend, SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.pool import resolve_workers
from repro.runner.runner import RunnerMetrics
from repro.runner.sink import ColumnarResultLog, default_metrics
from repro.runner.spec import RunSpec

from perfbench import checks, tracing

#: the five scenario shapes of the mixed 12x12 grid: hotspot, two
#: placement shapes, storm-prone links, and diurnal churn.
GRID_SCENARIOS = (
    ("mesh-hotspot", {"side": 12}),
    ("torus:12x12+clustered", {}),
    ("mesh:12x12+power-law", {}),
    ("fault-storm", {"side": 12}),
    ("diurnal", {"side": 12}),
)

#: 4096-node scenarios, one spec each, in pass order: a cheap uniform
#: build, a clustered placement whose build takes ~2 s and whose
#: balancing runs the full round budget, and a heavy-tailed placement.
LARGE_SCENARIOS = (
    "mesh-4096",
    "mesh:64x64+clustered",
    "mesh:64x64+power-law",
)

#: a tiny mixed grid run once at set-up so lazy imports and first-call
#: costs land outside the timed passes.
WARMUP_SPECS = tuple(
    dict(scenario="mesh-hotspot", algorithm=alg, seed=seed, max_rounds=5,
         scenario_kwargs={"side": 4}, engine=engine)
    for alg in ("pplb", "diffusion")
    for engine in ("rounds-fast", "events-fast")
    for seed in (0, 1)
)


@dataclass
class Context:
    """What set-up leaves for the timed passes."""

    spec_dicts: list[dict]
    workdir: pathlib.Path
    backend: ExecutionBackend
    #: per-spec digests every pass must reproduce (None: the first
    #: pass of the run sets them).
    reference: list[str | None] | None = None
    #: warm-replay: the cache filled at set-up.
    cache_root: pathlib.Path | None = None
    #: outcomes checked during set-up, and how many of them failed.
    setup_attempted: int = 0
    setup_failed: int = 0


@dataclass
class Pass:
    """One timed pass."""

    wall_s: float
    digests: list[str | None]
    rounds: int
    #: the untraced baseline a traced pass is compared with.
    task_s: float = 0.0
    runner_metrics: list[RunnerMetrics] = field(default_factory=list)
    backend_delta: dict[str, int] = field(default_factory=dict)
    backend_stats: dict[str, object] = field(default_factory=dict)
    caches: list[ResultCache] = field(default_factory=list)
    results: list = field(default_factory=list)
    #: traced passes only: sizes read off the pass's cache afterwards.
    cache_sizes: dict[str, float] = field(default_factory=dict)

    @property
    def specs(self) -> int:
        return len(self.digests)


def _fresh_specs(spec_dicts) -> list[RunSpec]:
    """New spec objects, so no pass inherits another's memoised keys."""
    return [RunSpec.from_dict(d) for d in spec_dicts]


def _metrics_of(outcome) -> dict | None:
    if outcome is None:
        return None
    if outcome.metrics is not None:
        return outcome.metrics
    return default_metrics(outcome.result)


def run_grid_checked(specs, **kwargs) -> tuple[float, list]:
    """``run_grid`` that never aborts the benchmark.

    ``run_grid`` fails fast, so on an exception the grid is re-run one
    spec at a time and only the specs that raise again come back as
    None (their tracebacks go to stderr). Returns the wall time and one
    outcome (or None) per spec.
    """
    t0 = time.perf_counter()
    try:
        outcomes = runner_mod.run_grid(specs, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcomes = []
        for spec in specs:
            try:
                outcomes.extend(runner_mod.run_grid([spec], **kwargs))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcomes.append(None)
    return time.perf_counter() - t0, outcomes


def _digests(outcomes) -> tuple[list[str | None], int]:
    digests, rounds = [], 0
    for outcome in outcomes:
        metrics = _metrics_of(outcome)
        digests.append(checks.spec_digest(metrics))
        if metrics is not None:
            rounds += int(metrics["rounds"])
    return digests, rounds


def cache_sizes(root: pathlib.Path, spec_dicts) -> dict[str, float]:
    """Mean entry bytes on disk and mean serialized result payload bytes."""
    cache = ResultCache(root)
    payload_bytes = []
    for spec in _fresh_specs(spec_dicts):
        payload = cache.get(spec.key())
        if payload is not None:
            payload_bytes.append(len(json.dumps(payload)))
    return {
        "entry_bytes_mean": float(cache.stats()["mean_bytes"]),
        "payload_bytes": (
            sum(payload_bytes) / len(payload_bytes) if payload_bytes else 0.0
        ),
    }


def _traced_block(tracer):
    return tracing.traced(tracer) if tracer is not None else contextlib.nullcontext()


def _warm_up(backend: ExecutionBackend) -> None:
    runner_mod.run_grid(
        [RunSpec(**d) for d in WARMUP_SPECS], backend=backend, batch_replicates=2
    )


class Workload:
    """Base: a named spec mix with set-up, a timed pass and tear-down."""

    name = ""
    why = ""
    #: untimed passes run after set-up, before the first timed pass.
    warmup_passes = 0

    def spec_dicts(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: pathlib.Path) -> Context:
        raise NotImplementedError

    def run_pass(self, ctx: Context, tracer: tracing.Tracer | None = None) -> Pass:
        raise NotImplementedError

    def traced_pass(self, ctx: Context, tracer: tracing.Tracer) -> Pass:
        """The per-layer pass: in-process, so the wrappers see every call."""
        return self.run_pass(ctx, tracer)

    def traced_spec_dicts(self, ctx: Context) -> list[dict]:
        return ctx.spec_dicts

    def close(self, ctx: Context) -> None:
        ctx.backend.close()
        shutil.rmtree(ctx.workdir, ignore_errors=True)


class _ColdGrid(Workload):
    """A grid executed into an empty cache on every pass."""

    batch_replicates: int | None = None

    def _cold_pass(self, ctx, backend, spec_dicts, tracer=None) -> Pass:
        cache_dir = pathlib.Path(tempfile.mkdtemp(dir=ctx.workdir))
        specs = _fresh_specs(spec_dicts)
        cache = ResultCache(cache_dir)
        metrics = RunnerMetrics()
        before = backend.stats()
        with _traced_block(tracer):
            wall, outcomes = run_grid_checked(
                specs, backend=backend, cache=cache,
                batch_replicates=self.batch_replicates, metrics=metrics,
            )
        after = backend.stats()
        digests, rounds = _digests(outcomes)
        done = Pass(
            wall_s=wall, digests=digests, rounds=rounds, task_s=metrics.task_s,
            runner_metrics=[metrics],
            backend_delta={k: int(after[k]) - int(before[k])
                           for k in ("tasks", "chunks")},
            backend_stats=after,
            caches=[cache],
            results=[o.result for o in outcomes if o is not None],
        )
        if tracer is not None:
            done.cache_sizes = cache_sizes(cache_dir, spec_dicts)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return done

    def run_pass(self, ctx, tracer=None):
        return self._cold_pass(ctx, ctx.backend, ctx.spec_dicts, tracer)


class GridCold(_ColdGrid):
    name = "grid-cold"
    why = ("mixed 12x12 grid with churn and faulty links, cold cache, pool at "
           "width nproc, replicate batching: every engine family on the hot path")
    seeds_per_cell = 4
    max_rounds = 50
    batch_replicates = 4

    def spec_dicts(self, seed):
        return [
            RunSpec(scenario=scenario, algorithm=algorithm,
                    seed=seed_for(seed, rep), max_rounds=self.max_rounds,
                    scenario_kwargs=dict(kwargs), engine=engine).to_dict()
            for scenario, kwargs in GRID_SCENARIOS
            for algorithm in ("pplb", "diffusion")
            for engine in ("rounds-fast", "events-fast")
            for rep in range(self.seeds_per_cell)
        ]

    def setup(self, seed, workdir):
        spec_dicts = self.spec_dicts(seed)
        backend = PoolBackend(workers=resolve_workers(0))
        _warm_up(backend)
        return Context(spec_dicts=spec_dicts, workdir=workdir, backend=backend)

    def traced_pass(self, ctx, tracer):
        # Same grid, same batching, but serial so every call is seen.
        return self._cold_pass(ctx, SerialBackend(), ctx.spec_dicts, tracer)


class LargeNCold(_ColdGrid):
    name = "large-n-cold"
    why = ("4096-node rounds-fast specs, cold, serial in one process: "
           "scenario build and the PPLB step dominate")
    max_rounds = 50

    def spec_dicts(self, seed):
        return [
            RunSpec(scenario=scenario, algorithm="pplb", seed=seed_for(seed, i),
                    max_rounds=self.max_rounds, engine="rounds-fast").to_dict()
            for i, scenario in enumerate(LARGE_SCENARIOS)
        ]

    def setup(self, seed, workdir):
        backend = SerialBackend()
        _warm_up(backend)
        return Context(spec_dicts=self.spec_dicts(seed), workdir=workdir,
                       backend=backend)

    def traced_spec_dicts(self, ctx):
        # The counters probe yields exact Phase-A/B decision counts.
        # Nothing here is batched, so it changes no execution path.
        return [dict(d, probe="counters") for d in ctx.spec_dicts]

    def traced_pass(self, ctx, tracer):
        return self._cold_pass(ctx, ctx.backend, self.traced_spec_dicts(ctx),
                               tracer)


class WarmReplay(Workload):
    name = "warm-replay"
    why = ("replays of a cache filled at set-up, full and metric-level into a "
           "columnar sink: the read side of the cache, no kernel work")
    seeds_per_cell = 8
    max_rounds = 100
    #: (full replay, metric-level replay) pairs per timed pass.
    replays_per_pass = 16
    warmup_passes = 2

    def spec_dicts(self, seed):
        # The grid-cold scenario shapes on the cheap rounds-fast engine:
        # full-budget churn records beside short converged ones.
        return [
            RunSpec(scenario=scenario, algorithm=algorithm,
                    seed=seed_for(seed, rep), max_rounds=self.max_rounds,
                    scenario_kwargs=dict(kwargs), engine="rounds-fast").to_dict()
            for scenario, kwargs in GRID_SCENARIOS
            for algorithm in ("pplb", "diffusion")
            for rep in range(self.seeds_per_cell)
        ]

    def setup(self, seed, workdir):
        spec_dicts = self.spec_dicts(seed)
        cache_root = pathlib.Path(tempfile.mkdtemp(dir=workdir))
        pool = PoolBackend(workers=resolve_workers(0))
        try:
            _, outcomes = run_grid_checked(
                _fresh_specs(spec_dicts), backend=pool,
                cache=ResultCache(cache_root),
                batch_replicates=self.seeds_per_cell,
            )
        finally:
            pool.close()
        cold, _ = _digests(outcomes)
        ctx = Context(spec_dicts=spec_dicts, workdir=workdir,
                      backend=SerialBackend(), reference=cold,
                      cache_root=cache_root)
        frozen = checks.load_reference(self.name, seed)
        ctx.setup_attempted = len(cold)
        ctx.setup_failed = (
            sum(d is None for d in cold) if frozen is None
            else checks.count_mismatches(cold, frozen)
        )
        return ctx

    def run_pass(self, ctx, tracer=None):
        n = self.replays_per_pass
        spec_lists = [_fresh_specs(ctx.spec_dicts) for _ in range(2 * n)]
        caches = [ResultCache(ctx.cache_root) for _ in range(2 * n)]
        sinks = [ColumnarResultLog() for _ in range(n)]
        metrics = [RunnerMetrics() for _ in range(2 * n)]
        walls, outcomes = [], []
        with _traced_block(tracer):
            for i in range(n):
                wall, full = run_grid_checked(
                    spec_lists[2 * i], cache=caches[2 * i], backend=ctx.backend,
                    keep_results=True, metrics=metrics[2 * i],
                )
                walls.append(wall)
                wall, slim = run_grid_checked(
                    spec_lists[2 * i + 1], cache=caches[2 * i + 1],
                    backend=ctx.backend, keep_results=False, sink=sinks[i],
                    metrics=metrics[2 * i + 1],
                )
                walls.append(wall)
                outcomes.extend(full)
                outcomes.extend(slim)
        digests, rounds = _digests(outcomes)
        done = Pass(wall_s=sum(walls), digests=digests, rounds=rounds,
                    runner_metrics=metrics, backend_stats=ctx.backend.stats(),
                    caches=caches)
        if tracer is not None:
            done.cache_sizes = cache_sizes(ctx.cache_root, ctx.spec_dicts)
        return done


def reference_digests(workload: Workload, seed: int) -> list[str | None]:
    """Per-spec digests from the reference path: serial, unbatched, no
    cache (for ``warm-replay``, the digests its cold fill must match)."""
    _, outcomes = run_grid_checked(
        _fresh_specs(workload.spec_dicts(seed)), backend=SerialBackend()
    )
    return _digests(outcomes)[0]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (GridCold(), LargeNCold(), WarmReplay())
}
