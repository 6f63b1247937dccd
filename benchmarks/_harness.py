"""Shared machinery for the experiment benchmarks.

Every ``bench_*`` module reproduces one experiment (T1 and E1–E17,
plus the BENCH engine perf baseline); docs/BENCHMARKS.md indexes them
all, with the paper claim each one checks and how to run it.
Conventions:

* Each benchmark times its workload once (``benchmark.pedantic(...,
  rounds=1)``) — these are *experiments*, not micro-benchmarks; the
  timing shows the cost of regenerating the result.
* Each prints its paper-style table/figure to stdout (visible with
  ``pytest -s``) **and** writes it to ``benchmarks/results/<id>.txt`` so
  the artifacts persist regardless of capture settings (``pplb report``
  stitches them into one document).
* Shapes asserted here are the paper's qualitative claims (who wins,
  monotonicity, bounds) — never absolute numbers.
* Grid-shaped experiments go through :func:`run_grid_specs`, the
  parallel runner's entry point: serial by default, parallel when
  ``PPLB_WORKERS`` is set (parallel results are identical to serial
  ones), cached when ``PPLB_BENCH_CACHE`` names a directory.
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable, Sequence

from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.interfaces import Balancer
from repro.runner import RunOutcome, RunSpec, run_grid
from repro.sim import SimulationResult, Simulator
from repro.tasks import TaskSystem
from repro.workloads import single_hotspot

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(experiment_id: str, text: str) -> None:
    """Print an experiment artifact and persist it under results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")


def run_hotspot(
    topology,
    balancer: Balancer,
    n_tasks: int | None = None,
    seed: int = 0,
    max_rounds: int = 500,
    links=None,
    fault_model=None,
    task_graph=None,
    resources=None,
    dynamic=None,
    track_journeys: bool = False,
    c1: float = 1.0,
) -> tuple[Simulator, SimulationResult]:
    """One hotspot run: the workhorse scenario of E1/E2/E3/E5/E9."""
    if n_tasks is None:
        n_tasks = 8 * topology.n_nodes
    system = TaskSystem(topology)
    single_hotspot(system, n_tasks, rng=seed)
    sim = Simulator(
        topology,
        system,
        balancer,
        links=links,
        fault_model=fault_model,
        task_graph=task_graph,
        resources=resources,
        dynamic=dynamic,
        seed=seed,
        track_journeys=track_journeys,
        c1=c1,
    )
    return sim, sim.run(max_rounds=max_rounds)


def default_pplb(**overrides) -> ParticlePlaneBalancer:
    """A PPLB instance with optional config overrides."""
    return ParticlePlaneBalancer(PPLBConfig(**overrides) if overrides else PPLBConfig())


def run_grid_specs(specs: Sequence[RunSpec]) -> list[RunOutcome]:
    """Run an experiment grid through the parallel runner.

    Serial unless ``PPLB_WORKERS`` pins a width (0 = one per core),
    so benchmark results are reproducible with no environment setup;
    set ``PPLB_BENCH_CACHE`` to a directory to reuse results across
    benchmark invocations.
    """
    return run_grid(specs, cache=os.environ.get("PPLB_BENCH_CACHE") or None)


def once(benchmark, fn: Callable[[], object]):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
