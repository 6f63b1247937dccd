"""Parallel experiment runner with content-addressed result caching.

The orchestration layer that fans a grid of (scenario × algorithm ×
seed) simulation specs across worker processes and replays previously
computed results from an on-disk cache:

* :mod:`spec <repro.runner.spec>` — :class:`RunSpec` (plain-data run
  description, content-hashable) and grid expansion helpers.
* :mod:`registry <repro.runner.registry>` — balancer-by-name factories
  shared with the CLI.
* :mod:`worker <repro.runner.worker>` — spec execution (the pure
  function spec → result that runs inside workers).
* :mod:`backends <repro.runner.backends>` — pluggable execution
  backends behind one :class:`ExecutionBackend` contract: ``serial``
  (in-process reference loop) and ``pool`` (persistent, chunked
  worker pool reused across grids, tune sessions and
  :func:`repro.analysis.sweep.run_sweep`), plus
  :func:`resolve_workers`.
* :mod:`cache <repro.runner.cache>` — content-addressed JSON result
  store with an append-only ``index.jsonl`` sidecar (O(entries)
  metadata: fast stats, per-engine filters, metric-level replays);
  re-running a computed grid is free.
* :mod:`sink <repro.runner.sink>` — :class:`ColumnarResultLog`,
  the streaming columnar sink ``run_grid(..., sink=...)`` appends
  finished specs to as they land.
* :mod:`runner <repro.runner.runner>` — :func:`run_grid`, the
  orchestrator tying the above together; pass a
  :class:`RunnerMetrics` to measure the execution pass itself
  (cache split, per-spec task time, worker utilization, queue wait,
  backend worker spawns).
* :mod:`merge <repro.runner.merge>` — adapters into the existing
  analysis structures (``SweepResult``, table rows, runner-metric
  rows).

Typical use (also exposed as ``pplb run-grid``)::

    from repro.runner import expand_grid, grid_seeds, run_grid

    specs = expand_grid(["mesh-hotspot", "torus-hotspot"],
                        ["pplb", "diffusion"], grid_seeds(4),
                        max_rounds=300)
    outcomes = run_grid(specs, workers=4, cache=".pplb-cache")

Serial mode (``workers=1``, the default) is the reference: parallel and
cached executions return results identical to it.
"""

from repro.runner.backends import (
    BACKENDS,
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    make_backend,
    resolve_backend,
    resolve_workers,
    shutdown_backends,
)
from repro.runner.cache import ResultCache
from repro.runner.merge import (
    default_metrics,
    metrics_to_rows,
    outcomes_to_rows,
    outcomes_to_sweep,
    spec_value,
)
from repro.runner.registry import FACTORIES, FLUID_FACTORIES, make_balancer
from repro.runner.runner import RunnerMetrics, RunOutcome, run_grid
from repro.runner.sink import METRIC_FIELDS, ColumnarResultLog
from repro.runner.spec import (
    ENGINES,
    RunSpec,
    expand_component_grid,
    expand_grid,
    grid_seeds,
)
from repro.runner.worker import execute_spec

__all__ = [
    "BACKENDS",
    "ENGINES",
    "FACTORIES",
    "FLUID_FACTORIES",
    "METRIC_FIELDS",
    "ColumnarResultLog",
    "ExecutionBackend",
    "PoolBackend",
    "ResultCache",
    "RunOutcome",
    "RunSpec",
    "SerialBackend",
    "default_metrics",
    "execute_spec",
    "expand_component_grid",
    "expand_grid",
    "grid_seeds",
    "make_backend",
    "make_balancer",
    "metrics_to_rows",
    "outcomes_to_rows",
    "outcomes_to_sweep",
    "resolve_backend",
    "resolve_workers",
    "run_grid",
    "RunnerMetrics",
    "shutdown_backends",
    "spec_value",
]
