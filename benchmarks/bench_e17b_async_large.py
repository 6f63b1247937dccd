"""E17b — the asynchronous study at scale: 4096 nodes on the events engine.

Paper context: E17 established that asynchronous execution does not
qualitatively break the algorithm ranking — on 64- and 256-node
topologies. This extension pushes the async axis to a 64×64 mesh (4096
nodes, the top of the scaling curve), which is tractable through
the ``events`` engine's columnar event buffers
(:class:`~repro.sim.EventSimulator`), and runs the
grid through the persistent pool
backend — the two specs (hotspot transient, uniform steady state)
execute concurrently on warm workers.

Reproduced artifact: per-spec events/sec at N=4096 — measured from the
``counters`` probe's ``engine.buffer_pops`` total (the engine's event
count) over the simulation's own wall clock — written to its own
machine-readable artifact (``benchmarks/results/E17b_async_large.json``,
key ``e17b``; the tracked perf baseline ``BENCH_engine.json`` is left
alone), plus the usual text table. A second pass replays the whole grid from
the result cache (probe-carrying specs are first-class cacheable
runs), and the backend's spawn count pins the pool reuse.

Expected shape: the balancer still flattens the 4096-node hotspot
(CoV strictly decreasing from the initial placement) while the uniform
workload stays balanced, and the events engine sustains a meaningful
event rate at 4096 nodes.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_e17b_async_large.py -s``
"""

import json

from repro.analysis import format_table
from repro.runner import PoolBackend, RunSpec, RunnerMetrics, run_grid

from _harness import RESULTS_DIR, emit, once

SIDE = 64  # 64x64 mesh = 4096 nodes
N_TASKS = 8192
EPOCHS = 6
#: per-wake clock jitter: waves are genuinely per-node, so the async
#: machinery (heap, wave screening, columnar buffers) is all on the
#: hot path — the degenerate config would re-time the sync loop.
ASYNC_SIM_KWARGS = {"wake_jitter": 0.2}

SCENARIOS = {
    # The decision-bound transient: a hotspot the balancer must drain.
    "transient": f"mesh:{SIDE}x{SIDE}+hotspot:n_tasks={N_TASKS}",
    # The steady-serving regime: balanced from the start, every wake a
    # no-effect visit PPLB's Phase-B screen rejects wholesale.
    "steady": f"mesh:{SIDE}x{SIDE}+uniform:n_tasks={N_TASKS}",
}


def _grid() -> list[RunSpec]:
    return [
        RunSpec(
            scenario=scenario,
            algorithm="pplb",
            seed=0,
            max_rounds=EPOCHS,
            sim_kwargs=dict(ASYNC_SIM_KWARGS),
            engine="events",
            recorder="summary",
            probe="counters",
        )
        for scenario in SCENARIOS.values()
    ]


def _events_of(result) -> int:
    """The engine's event count, off the counters probe.

    ``engine.buffer_pops`` accumulates the events processed per epoch,
    so its total is exactly the engine's ``events_processed``.
    """
    return int(result.telemetry["counters"]["engine.buffer_pops"])


def test_e17b_async_at_scale(benchmark, tmp_path):
    cache_dir = tmp_path / "e17b-cache"
    specs = _grid()
    backend = PoolBackend(workers=2)
    metrics = RunnerMetrics()
    try:
        outcomes = once(benchmark, lambda: run_grid(
            specs, cache=cache_dir, backend=backend, metrics=metrics,
        ))
        # Both specs through one warm pool: at most one spawn per slot.
        assert 1 <= metrics.workers_spawned <= 2
        assert metrics.backend == "pool"

        # Second pass: the probe-carrying 4096-node specs replay from
        # the cache through the same (still-warm) backend.
        again = run_grid(specs, cache=cache_dir, backend=backend)
        assert all(o.cached for o in again)
        assert [o.result.to_dict() for o in again] == [
            o.result.to_dict() for o in outcomes
        ]
        spawned_total = backend.stats()["workers_spawned"]
        assert spawned_total <= 2
    finally:
        backend.close()

    by_tag = dict(zip(SCENARIOS, outcomes))
    rows = []
    e17b_points = []
    for tag, outcome in by_tag.items():
        result = outcome.result
        events = _events_of(result)
        events_per_sec = events / result.wall_time_s
        rows.append({
            "regime": tag,
            "N": SIDE * SIDE,
            "tasks": N_TASKS,
            "epochs": result.n_rounds,
            "events": events,
            "ev/s": round(events_per_sec, 1),
            "final_cov": round(result.final_cov, 3),
        })
        e17b_points.append({
            "regime": tag,
            "scenario": outcome.spec.scenario,
            "n_nodes": SIDE * SIDE,
            "n_tasks": N_TASKS,
            "epochs": result.n_rounds,
            "events": events,
            "events_per_sec": events_per_sec,
            "final_cov": float(result.final_cov),
        })
    emit(
        "E17b_async_large",
        format_table(rows, title="E17b — events engine at 4096 nodes "
                                 "(64x64 mesh, jittered clocks, pplb, "
                                 "persistent pool backend)"),
    )

    # Shape: the hotspot is being drained (strict improvement on the
    # initial imbalance), the uniform workload stays balanced, and the
    # engine processed roughly one wake per node per epoch (jittered
    # clocks push some final-epoch wakes past the horizon, so the floor
    # allows one boundary epoch of slack).
    transient = by_tag["transient"].result
    steady = by_tag["steady"].result
    assert transient.final_cov < transient.initial_summary["cov"]
    assert steady.final_cov < 1.0
    for outcome in outcomes:
        assert _events_of(outcome.result) >= SIDE * SIDE * (EPOCHS - 1)
        assert outcome.result.n_rounds == EPOCHS

    # The 4096-node async rates go to this bench's own diffable JSON;
    # the tracked perf baseline (BENCH_engine.json) is never rewritten.
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "E17b_async_large.json"
    payload = {
        "e17b": {
            "engine": "events",
            "backend": "pool",
            "epochs": EPOCHS,
            "points": e17b_points,
        }
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    assert json.loads(out_path.read_text()) == payload
