"""Pluggable execution backends: where grid tasks actually run.

The one place process-pool mechanics live. Every fan-out in the repo —
:func:`~repro.runner.runner.run_grid`, the tuning loop and the generic
sweep harness (:func:`repro.analysis.sweep.run_sweep`) — resolves a
backend here and calls :meth:`ExecutionBackend.map_timed`, so a
tuning session's hundreds of small evaluation batches share one set of
warm workers instead of re-paying worker spawn (cold interpreter + full
``repro`` import per process) per batch. The seam:

* :class:`SerialBackend` — the in-process loop, bit-identical to the
  historical ``workers <= 1`` path. The reference implementation.
* :class:`PoolBackend` — a **persistent** worker pool. The executor
  spawns lazily on first use and survives across calls (and therefore
  across ``run_grid``/``tune_scenario`` invocations), and tasks are
  submitted in contiguous **chunks** so a 200-spec grid costs ~tens of
  pickles, not hundreds. Spawns are observable: every chunk reports
  the worker PID that ran it, so :meth:`PoolBackend.stats` (and
  :class:`~repro.runner.runner.RunnerMetrics.workers_spawned`) count
  real process creations, not submissions.

The contract every backend obeys: :meth:`ExecutionBackend.map_timed`
returns ``(results, task_seconds)`` in **input order**, re-raises
worker exceptions (cancelling not-yet-started work), and times each
task inside the executing process. Because results cross the seam as
the same JSON payloads the cache stores, *every* backend produces
bit-identical results for identical specs — the differential tests in
``tests/runner/test_backends.py`` pin this.

A future distributed backend (SSH / work queue, following psim's
``sweep_base.py`` worker-farm pattern) plugs in here: implement
``map_timed`` over the remote transport, register it in
:data:`_BACKENDS`, and the runner, the tuner and the CLI pick it up
unchanged — nothing above this seam knows how tasks travel.

Module-level helpers (:class:`_ChunkCall`) are picklable by reference,
as the pool transport requires; task functions handed to a pool must be
module-level too. This module must stay import-light — it is imported
inside worker processes and by :mod:`repro.analysis.sweep`.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

#: result-collection callback: (input index, result, in-task seconds).
OnResult = Callable[[int, R, float], None]


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker count (None/0 -> all cores, floor 1).

    A non-empty ``PPLB_WORKERS`` environment variable *pins* the width
    for every entry point that resolves through here (the runner, the
    sweep harness, the execution backends, tuning) — so CI and the
    smoke scripts can fix parallelism without threading a flag through
    every call site. Semantics match the argument: ``0`` means one per
    core, anything else is used directly (floor 1).
    """
    env = os.environ.get("PPLB_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(
                f"PPLB_WORKERS must be an integer (0 = one per core), "
                f"got {env!r}"
            ) from None
    if workers is None or workers == 0:
        return max(os.cpu_count() or 1, 1)
    return max(int(workers), 1)


class _ChunkCall:
    """Picklable chunk task: run *fn* over a slice of items, timed.

    Returns ``(worker_pid, [(result, task_seconds), ...])`` — the PID
    is how the parent counts *actual* process spawns (a reused worker
    keeps its PID), and the per-item clock runs inside the worker, so
    the timings exclude queueing and transport.
    """

    __slots__ = ("fn", "items")

    def __init__(self, fn: Callable[[T], R], items: Sequence[T]):
        self.fn = fn
        self.items = list(items)

    def __call__(self) -> tuple[int, list[tuple[R, float]]]:
        out = []
        for item in self.items:
            t0 = time.perf_counter()
            result = self.fn(item)
            out.append((result, time.perf_counter() - t0))
        return os.getpid(), out


class ExecutionBackend:
    """The execution seam: ordered, timed, fail-fast parallel map.

    Subclasses implement :meth:`map_timed` (counting into the
    ``_map_calls``/``_tasks``/``_chunks`` counters :meth:`stats`
    reports); everything else has safe defaults. Backends are
    long-lived — one instance may serve many ``run_grid`` calls — and
    :meth:`close` must be idempotent.
    """

    #: registry name (what ``--backend`` selects).
    name = "abstract"

    def __init__(self) -> None:
        self._map_calls = 0
        self._tasks = 0
        self._chunks = 0

    def workers(self) -> int:
        """Parallel width this backend executes with (>= 1)."""
        return 1

    def workers_spawned(self) -> int:
        """Worker processes created so far (0 for in-process backends)."""
        return 0

    def map_timed(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_result: OnResult | None = None,
    ) -> tuple[list[R], list[float]]:
        """Apply *fn* to every item; results and in-task seconds in
        input order. ``on_result(index, result, seconds)`` fires as
        each task lands (completion order); worker exceptions re-raise
        after pending work is cancelled."""
        raise NotImplementedError

    def stats(self) -> dict[str, object]:
        """Cumulative execution counters (spawns, calls, tasks)."""
        return {
            "backend": self.name,
            "workers": self.workers(),
            "workers_spawned": self.workers_spawned(),
            "map_calls": self._map_calls,
            "tasks": self._tasks,
            "chunks": self._chunks,
        }

    def close(self) -> None:
        """Release held resources (idempotent; serial holds none)."""


class SerialBackend(ExecutionBackend):
    """In-process execution — the reference the others must match.

    Bit-identical to the historical ``workers <= 1`` loop: tasks run in
    input order, in this process, with no pickling; the first exception
    propagates immediately (nothing after it runs).
    """

    name = "serial"

    def map_timed(self, fn, items, on_result=None):
        items = list(items)
        self._map_calls += 1
        self._tasks += len(items)
        results: list = []
        seconds: list[float] = []
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            result = fn(item)
            elapsed = time.perf_counter() - t0
            if on_result is not None:
                on_result(i, result, elapsed)
            results.append(result)
            seconds.append(elapsed)
        return results, seconds


class PoolBackend(ExecutionBackend):
    """Persistent process pool with chunked task submission.

    Parameters
    ----------
    workers:
        Pool width (``0``/``None`` = one per core, via
        :func:`resolve_workers`, so the
        ``PPLB_WORKERS`` env override applies here too).
    chunk_size:
        Items per submitted chunk; default splits each call into
        ``~4 × workers`` chunks (enough slack for load balancing,
        few enough pickles to amortise IPC on large grids).

    The executor spawns lazily on the first :meth:`map_timed` and is
    *reused* by every later call until :meth:`close` — a tuning
    session's dozens of evaluation batches share one set of workers
    instead of respawning per batch. A :class:`BrokenProcessPool`
    (worker killed mid-task) discards the executor so the next call
    starts a fresh one.
    """

    name = "pool"

    def __init__(self, workers: int | None = None, chunk_size: int | None = None):
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        super().__init__()
        self._workers = resolve_workers(workers)
        self._chunk_size = chunk_size
        self._executor: ProcessPoolExecutor | None = None
        self._pids_seen: set[int] = set()

    def workers(self) -> int:
        return self._workers

    def workers_spawned(self) -> int:
        # A reused worker keeps its PID, so distinct PIDs are spawns.
        return len(self._pids_seen)

    def _chunk_bounds(self, n: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` slices covering ``range(n)``."""
        if self._chunk_size is not None:
            size = self._chunk_size
        else:
            size = max(1, -(-n // (self._workers * 4)))  # ceil division
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        return self._executor

    def map_timed(self, fn, items, on_result=None):
        items = list(items)
        self._map_calls += 1
        self._tasks += len(items)
        results: list = [None] * len(items)
        seconds: list[float] = [0.0] * len(items)
        if not items:
            return results, seconds

        bounds = self._chunk_bounds(len(items))
        self._chunks += len(bounds)
        executor = self._ensure_executor()
        futures = {
            executor.submit(_ChunkCall(fn, items[start:stop])): (start, stop)
            for start, stop in bounds
        }
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for future in done:
                    start, _stop = futures[future]
                    pid, pairs = future.result()  # re-raises worker errors
                    self._pids_seen.add(pid)
                    for offset, (result, elapsed) in enumerate(pairs):
                        i = start + offset
                        results[i] = result
                        seconds[i] = elapsed
                        if on_result is not None:
                            on_result(i, result, elapsed)
        except BrokenProcessPool:
            # The pool lost a worker mid-task; it cannot be reused.
            # Drop it so the next call spawns a fresh one.
            self._executor = None
            raise
        except BaseException:
            # Fail fast, but keep the (healthy) pool alive for the next
            # call: cancel queued chunks rather than shutting down.
            for future in pending:
                future.cancel()
            raise
        return results, seconds

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None


#: registry of constructible backends (``--backend`` choices). A
#: distributed (SSH / work-queue) backend registers here when it lands.
_BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    PoolBackend.name: PoolBackend,
}

BACKENDS = frozenset(_BACKENDS)

#: shared long-lived instances, keyed by (name, resolved width) — the
#: persistence that lets consecutive run_grid calls reuse one pool.
_shared: dict[tuple[str, int], ExecutionBackend] = {}


def make_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """A *fresh* backend instance by registry name (owned by the caller)."""
    cls = _BACKENDS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        )
    return cls() if cls is SerialBackend else cls(workers=workers)


def resolve_backend(
    backend: ExecutionBackend | str | None,
    workers: int | None = 1,
) -> ExecutionBackend:
    """The backend a runner call should execute on.

    * an :class:`ExecutionBackend` instance passes through unchanged
      (the caller owns its lifecycle);
    * a registry name returns the *shared* instance of that backend at
      the resolved worker width (created on first use, reused after);
    * ``None`` keeps the historical behaviour: serial for a resolved
      width of 1, the shared pool otherwise — so ``run_grid(...,
      workers=4)`` transparently upgrades to the persistent pool.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    width = resolve_workers(workers)
    if backend is None:
        backend = SerialBackend.name if width <= 1 else PoolBackend.name
    if backend == SerialBackend.name:
        width = 1
    key = (backend, width)
    instance = _shared.get(key)
    if instance is None:
        instance = make_backend(backend, workers=width)
        _shared[key] = instance
    return instance


def shutdown_backends() -> None:
    """Close every shared backend (idempotent; re-resolving respawns)."""
    while _shared:
        _, instance = _shared.popitem()
        instance.close()


atexit.register(shutdown_backends)
