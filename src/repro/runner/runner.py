"""The grid runner: specs in, (optionally cached, optionally parallel)
results out.

:func:`run_grid` is the orchestrator the tentpole experiments use: it
resolves every spec against the result cache, fans the remaining work
across an :class:`~repro.runner.backends.ExecutionBackend` (serial
in-process loop, or the persistent chunked worker pool), stores fresh
results back, and returns :class:`RunOutcome` objects in spec order.

Determinism: cached, serial and parallel paths all normalise results
through the same JSON payload (:meth:`SimulationResult.to_dict` →
``from_dict``), so for identical specs the three paths return
*identical* results — the only field that varies between executions is
the measured ``wall_time_s`` inside a freshly-run result.

Two scaling levers ride on top of the backend seam:

* ``sink=`` streams finished specs into a
  :class:`~repro.runner.sink.ColumnarResultLog` as they land —
  columnar in memory, optionally JSONL on disk — so a huge sweep's
  consumers read columns instead of holding every result object.
* ``keep_results=False`` turns cached replays into *metric-level*
  reads: hits are answered from the cache's index sidecar (seven
  scalars per spec, no payload parse, no result rebuild) and the
  outcomes carry ``metrics`` instead of ``result``. This is the
  fully-cached-grid fast path ``bench_perf.py`` tracks as
  ``grid_dispatch_rps``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from os import PathLike
from typing import Callable, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.runner.backends import ExecutionBackend, resolve_backend
from repro.runner.cache import ResultCache
from repro.runner.sink import ColumnarResultLog, default_metrics
from repro.runner.spec import RunSpec
from repro.runner.worker import execute_batch_payload, execute_payload
from repro.sim import SimulationResult

#: what rebuilding a cached payload that parsed as JSON but is no
#: result raises (a scalar, a foreign dict, columns missing fields).
_MALFORMED_PAYLOAD = (
    ConfigurationError, KeyError, TypeError, ValueError, OverflowError,
)

#: progress callback signature: (outcome, completed count, total count)
ProgressFn = Callable[["RunOutcome", int, int], None]


def _execute_task(item: dict) -> dict:
    """Dispatch one backend task: a plain spec dict or a batch bundle.

    Module-level (picklable for the pool backend) and resolved through
    this module's globals, so tests that monkeypatch
    ``runner.execute_payload`` keep intercepting serial execution.
    """
    if item.get("__batch__"):
        return execute_batch_payload(item)
    return execute_payload(item)


@dataclass
class RunnerMetrics:
    """Execution-side telemetry for one :func:`run_grid` call.

    Filled in place when passed as ``run_grid(..., metrics=...)``; the
    simulation results are unaffected (this measures the *runner*, the
    probes inside :mod:`repro.sim.telemetry` measure the simulation).

    Attributes
    ----------
    workers:
        Resolved worker count used for the execution pass.
    backend:
        Name of the execution backend the pass ran on.
    workers_spawned:
        Worker processes actually *created* during this call — 0 when
        a persistent pool served the pass with already-warm workers
        (the reuse the tuning loop is built on).
    total, cache_hits, cache_misses:
        Grid size and how it split between replayed and executed specs.
    wall_s:
        Wall-clock seconds of the execution pass (0 when every spec was
        a cache hit).
    task_s:
        Summed in-worker seconds across executed specs — the work
        itself, excluding pool queueing and transport.
    queue_wait_s:
        Summed seconds executed specs spent between the start of the
        execution pass and the start of their own work (queueing behind
        other specs plus pool overhead).
    spec_rows:
        One dict per spec, in spec order: ``label``, ``cached`` and
        (for executed specs) ``task_s``.
    """

    workers: int = 1
    backend: str = "serial"
    workers_spawned: int = 0
    total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    task_s: float = 0.0
    queue_wait_s: float = 0.0
    spec_rows: list[dict] = field(default_factory=list)

    def utilization(self) -> float:
        """Fraction of worker capacity spent executing (0 when idle).

        ``task_s / (wall_s * workers)`` — 1.0 means every worker was
        busy for the whole execution pass; low values under
        ``workers > 1`` mean the grid was too small or too skewed to
        keep the pool fed.
        """
        denom = self.wall_s * max(self.workers, 1)
        return self.task_s / denom if denom > 0 else 0.0

    def mean_queue_wait_s(self) -> float:
        """Mean per-executed-spec queue wait (0 when all specs hit)."""
        return self.queue_wait_s / self.cache_misses if self.cache_misses else 0.0

    def summary(self) -> dict[str, object]:
        """Flat aggregate dict (one ``format_table`` row)."""
        return {
            "specs": self.total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 6),
            "task_s": round(self.task_s, 6),
            "utilization": round(self.utilization(), 4),
            "mean_queue_wait_s": round(self.mean_queue_wait_s(), 6),
        }


@dataclass
class RunOutcome:
    """One executed (or replayed) spec.

    Attributes
    ----------
    spec, key:
        The spec and its content hash (the cache address).
    result:
        The simulation result, rebuilt from the canonical JSON payload.
        ``None`` under ``run_grid(..., keep_results=False)``, where
        cached replays are answered at metric level — use ``metrics``.
    cached:
        True when the result was replayed from the cache.
    duration_s:
        Wall-clock seconds from the start of the execution pass until
        this result landed (0 for cache hits). The simulation's own
        loop time is ``result.wall_time_s``.
    task_s:
        In-worker seconds this spec's execution took (0 for cache
        hits) — per-spec wall time, excluding pool queueing.
    metrics:
        The spec's :func:`~repro.runner.sink.default_metrics` scalars.
        Always present for slim (``keep_results=False``) outcomes and
        for freshly-executed specs; may be ``None`` on plain cached
        replays (derive from ``result`` instead).
    """

    spec: RunSpec
    key: str
    result: SimulationResult | None
    cached: bool
    duration_s: float = 0.0
    task_s: float = 0.0
    metrics: dict | None = None

    def row(self) -> dict[str, object]:
        """Flat summary row: spec coordinates + result summary.

        ``algorithm`` is the spec's registry key (what the user asked
        for — distinguishes e.g. ``pplb`` from ``pplb-greedy``); the
        balancer's self-reported display name is kept as ``balancer``.
        """
        if self.result is None:
            raise ConfigurationError(
                "cannot build a summary row from a metric-level outcome "
                "(run_grid(..., keep_results=False)); re-run with "
                "keep_results=True or read outcome.metrics"
            )
        row: dict[str, object] = {
            "scenario": self.spec.scenario,
            "seed": self.spec.seed,
        }
        row.update(self.result.summary_row())
        row["balancer"] = row["algorithm"]
        row["algorithm"] = self.spec.algorithm
        row["cached"] = self.cached
        return row


def _replicate_tasks(
    specs: Sequence[RunSpec],
    pending: Sequence[int],
    batch_replicates: int | None,
) -> list[list[int]]:
    """Partition pending spec indices into execution tasks.

    With ``batch_replicates > 1``, specs that are identical up to
    ``seed`` (equal :meth:`~repro.runner.spec.RunSpec.replicate_key`,
    under any probe) are grouped into one batched task of at most
    ``batch_replicates`` replicates. ``events`` specs stay singleton
    tasks for now (see ``ROADMAP.md``, item 3), as does every spec
    without a replicate. Group membership follows pending order, so
    tasks — and therefore batches — are deterministic for a given grid.
    """
    if not batch_replicates or batch_replicates <= 1:
        return [[i] for i in pending]
    tasks: list[list[int]] = []
    open_group: dict[str, list[int]] = {}
    for i in pending:
        spec = specs[i]
        if spec.engine == "events":
            tasks.append([i])
            continue
        key = spec.replicate_key()
        group = open_group.get(key)
        if group is None:
            group = []
            open_group[key] = group
            tasks.append(group)
        group.append(i)
        if len(group) >= batch_replicates:
            del open_group[key]
    return tasks


def run_grid(
    specs: Sequence[RunSpec],
    workers: int = 1,
    cache: ResultCache | str | PathLike | None = None,
    progress: Optional[ProgressFn] = None,
    metrics: RunnerMetrics | None = None,
    backend: ExecutionBackend | None = None,
    sink: ColumnarResultLog | None = None,
    keep_results: bool = True,
    batch_replicates: int | None = None,
) -> list[RunOutcome]:
    """Execute every spec, replaying cached results and fanning out the rest.

    Parameters
    ----------
    specs:
        The grid (e.g. from :func:`~repro.runner.spec.expand_grid`).
    workers:
        ``1`` (the default) is serial — bit-identical to running each
        spec by hand; ``N > 1`` fans out across that many worker
        processes (through the shared persistent pool backend);
        ``0`` one per core. ``PPLB_WORKERS`` in the environment pins
        the resolved width.
    cache:
        A :class:`ResultCache`, a directory path for one, or None to
        disable caching.
    progress:
        Optional callback fired once per completed spec with
        ``(outcome, completed, total)``; cache hits fire first.
    metrics:
        Optional :class:`RunnerMetrics` instance filled in place with
        execution-side telemetry (cache split, per-spec task times,
        worker utilization, queue wait, backend spawns). Collection is
        passive — it never changes which specs run or what they return.
    backend:
        An :class:`~repro.runner.backends.ExecutionBackend` instance
        the caller owns, used instead of (and ignoring) ``workers``;
        None (the default) picks from the resolved width: serial at 1,
        the shared persistent pool otherwise. Shared backends survive
        across calls, so consecutive grids reuse warm workers.
    sink:
        Optional :class:`~repro.runner.sink.ColumnarResultLog`:
        every finished spec is appended (and streamed to the sink's
        JSONL path, if it has one) the moment it lands.
    keep_results:
        ``False`` returns *slim* outcomes: cached specs replay at
        metric level straight from the cache's index sidecar (no
        payload parse, no :class:`SimulationResult` rebuild) and
        ``outcome.result`` is None throughout — ``outcome.metrics``
        carries the :func:`default_metrics` scalars. The metric values
        are bit-identical to the full path (they were computed by the
        same function at store time and round-trip exactly through
        JSON).
    batch_replicates:
        ``N > 1`` groups cache-missing specs that are identical up to
        ``seed`` into batched tasks of up to N replicates, each one
        :class:`~repro.sim.BatchSimulator`: one topology build shared
        by lanes that each run the solo engine. Transparent: every
        replicate's result is bit-identical to its solo execution, so
        per-spec outcomes, cache entries, index lines and sink rows are
        exactly what the unbatched path produces — batched and solo
        runs share cache keys and interoperate freely. This is the one
        switch for replicate batching; ``None`` (the default), ``0`` or
        ``1`` runs every spec solo, and a negative N raises
        :class:`~repro.exceptions.ConfigurationError`.

    Returns
    -------
    list[RunOutcome]
        One outcome per spec, in input order.
    """
    if batch_replicates is not None and batch_replicates < 0:
        raise ConfigurationError(
            f"batch_replicates must be >= 0, got {batch_replicates}"
        )
    specs = list(specs)
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    exec_backend = resolve_backend(backend, workers)

    outcomes: dict[int, RunOutcome] = {}
    total = len(specs)
    done = 0
    want_metrics = (not keep_results) or sink is not None

    def emit(i: int, outcome: RunOutcome) -> None:
        nonlocal done
        done += 1
        outcomes[i] = outcome
        if sink is not None and outcome.metrics is not None:
            sink.append(
                index=i,
                spec=outcome.spec,
                key=outcome.key,
                cached=outcome.cached,
                metrics=outcome.metrics,
            )
        if progress is not None:
            progress(outcome, done, total)

    # Pass 1: resolve cache hits (and pre-compute keys exactly once).
    pending: list[int] = []
    keys = [spec.key() for spec in specs]
    for i, spec in enumerate(specs):
        if cache is None:
            pending.append(i)
            continue
        if not keep_results:
            # Metric-level fast path: answer the hit from the index
            # sidecar (seven floats, no payload parse). Entries the
            # index cannot answer fall back to the payload below.
            indexed = cache.metrics_for(keys[i])
            if indexed is not None:
                emit(i, RunOutcome(
                    spec=spec, key=keys[i], result=None, cached=True,
                    metrics=indexed,
                ))
                continue
        payload = cache.get(keys[i])
        if payload is not None:
            try:
                result = SimulationResult.from_dict(payload)
                spec_metrics = default_metrics(result) if want_metrics else None
            except _MALFORMED_PAYLOAD:
                # Parseable JSON but no result: a miss, not a crash.
                cache.reject()
                pending.append(i)
                continue
            emit(i, RunOutcome(
                spec=spec,
                key=keys[i],
                result=None if not keep_results else result,
                cached=True,
                metrics=spec_metrics,
            ))
        else:
            pending.append(i)

    # Pass 2: execute the misses through the backend. Seed replicates
    # of one spec family may ride together as one batched task; each
    # replicate still lands as its own outcome/cache entry/sink row,
    # bit-identical to a solo execution.
    spawned_before = exec_backend.workers_spawned()
    if pending:
        started = time.perf_counter()
        tasks = _replicate_tasks(specs, pending, batch_replicates)

        def collect_one(i: int, payload: dict, task_s: float) -> None:
            result = SimulationResult.from_dict(payload)
            # Metrics are computed for every fresh result: the cache
            # indexes them, so a later keep_results=False replay of
            # this grid never reopens the payloads.
            spec_metrics = default_metrics(result)
            outcome = RunOutcome(
                spec=specs[i],
                key=keys[i],
                result=result if keep_results else None,
                cached=False,
                duration_s=time.perf_counter() - started,
                task_s=task_s,
                metrics=spec_metrics,
            )
            if cache is not None:
                cache.put(keys[i], specs[i].to_dict(), payload,
                          metrics=spec_metrics)
            emit(i, outcome)

        def collect(rank: int, payload: dict, task_s: float) -> None:
            group = tasks[rank]
            if len(group) == 1:
                collect_one(group[0], payload, task_s)
                return
            # One batched task: split its payload back into per-spec
            # results (spec order), sharing the in-worker seconds
            # evenly — the lanes ran back to back in one task.
            share = task_s / len(group)
            for i, result_payload in zip(group, payload["results"]):
                collect_one(i, result_payload, share)

        items: list[dict] = []
        for group in tasks:
            if len(group) == 1:
                items.append(specs[group[0]].to_dict())
            else:
                items.append({
                    "__batch__": True,
                    "specs": [specs[i].to_dict() for i in group],
                })
        exec_backend.map_timed(
            _execute_task,
            items,
            on_result=collect,
        )

    if metrics is not None:
        metrics.workers = exec_backend.workers()
        metrics.backend = exec_backend.name
        metrics.workers_spawned = exec_backend.workers_spawned() - spawned_before
        metrics.total = total
        metrics.cache_hits = total - len(pending)
        metrics.cache_misses = len(pending)
        for i in range(total):
            outcome = outcomes[i]
            row: dict[str, object] = {
                "label": outcome.spec.label(),
                "cached": outcome.cached,
                "task_s": round(outcome.task_s, 6),
            }
            metrics.spec_rows.append(row)
            if not outcome.cached:
                metrics.task_s += outcome.task_s
                # Landing time minus the task's own work = time spent
                # queued behind other specs plus pool overhead.
                metrics.queue_wait_s += max(
                    outcome.duration_s - outcome.task_s, 0.0
                )
                metrics.wall_s = max(metrics.wall_s, outcome.duration_s)

    return [outcomes[i] for i in range(total)]
