"""Per-layer metrics from one traced pass and its untraced twin.

``<layer>_s`` is the summed inclusive seconds of every call into that
public callable, ``<layer>_calls`` the call count, and
``runner.run_grid.self_s`` the run_grid span minus its child spans.
Counts come from the tracer's hooks, from the results' ``counters``
probe block (Phase A/B decisions, ``large-n-cold`` only), from the
caches the pass opened, and from the untraced pass's ``RunnerMetrics``
and ``backend.stats()``. A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

#: (metric, span name, what): ``total``/``self`` seconds or ``calls``.
SPAN_METRICS = (
    ("runner.run_grid.self_s", "runner.run_grid", "self"),
    ("runner.default_metrics_s", "runner.default_metrics", "total"),
    ("runner.spec.key_s", "runner.spec.key", "total"),
    ("runner.spec.key_calls", "runner.spec.key", "calls"),
    ("runner.worker.execute_s", "runner.worker.execute", "total"),
    ("runner.worker.execute_calls", "runner.worker.execute", "calls"),
    ("runner.cache.get_s", "runner.cache.get", "total"),
    ("runner.cache.get_calls", "runner.cache.get", "calls"),
    ("runner.cache.put_s", "runner.cache.put", "total"),
    ("runner.cache.put_calls", "runner.cache.put", "calls"),
    ("runner.cache.metrics_for_s", "runner.cache.metrics_for", "total"),
    ("runner.cache.load_index_s", "runner.cache.load_index", "total"),
    ("runner.sink.append_s", "runner.sink.append", "total"),
    ("runner.sink.append_calls", "runner.sink.append", "calls"),
    ("workloads.build_scenario_s", "workloads.build_scenario", "total"),
    ("workloads.build_scenario_calls", "workloads.build_scenario", "calls"),
    ("network.topology_init_s", "network.topology_init", "total"),
    ("network.topology_init_calls", "network.topology_init", "calls"),
    ("tasks.add_task_s", "tasks.add_task", "total"),
    ("tasks.add_task_calls", "tasks.add_task", "calls"),
    ("sim.engine.init_s", "sim.engine.init", "total"),
    ("sim.engine.init_calls", "sim.engine.init", "calls"),
    ("sim.engine.play_round_s", "sim.engine.play_round", "total"),
    ("sim.engine.round_apply_s", "sim.engine.round_apply", "total"),
    ("sim.kernel.run_s", "sim.kernel.run", "total"),
    ("sim.kernel.observe_round_s", "sim.kernel.observe_round", "total"),
    ("sim.kernel.rounds", "sim.kernel.observe_round", "calls"),
    ("sim.events.run_s", "sim.events.run", "total"),
    ("sim.batch.run_s", "sim.batch.run", "total"),
    ("sim.batch.runs", "sim.batch.run", "calls"),
    ("sim.results.to_dict_s", "sim.results.to_dict", "total"),
    ("sim.results.from_dict_s", "sim.results.from_dict", "total"),
    ("core.balancer.step_s", "core.balancer.step", "total"),
    ("core.balancer.step_calls", "core.balancer.step", "calls"),
    ("baselines.diffusion.step_s", "baselines.diffusion.step", "total"),
    ("baselines.diffusion.step_calls", "baselines.diffusion.step", "calls"),
)

#: tracer hook counts reported as-is.
HOOK_COUNTS = (
    "sim.events.events_processed",
    "sim.batch.lanes",
    "core.balancer.migrations",
)

#: metric -> counter in the results' ``counters`` probe block.
PROBE_COUNTERS = {
    "core.balancer.phase_a_decisions": "balancer.phase_a_decisions",
    "core.balancer.phase_b_nodes": "balancer.phase_b_nodes",
    "core.screen.nodes_admitted": "screen.nodes_admitted",
}

_OTHER_UNITS = {
    "runner.backends.utilization": "fraction",
    "runner.backends.queue_wait_s": "s",
    "runner.backends.workers_spawned": "count",
    "runner.backends.tasks": "count",
    "runner.backends.chunks": "count",
    "runner.cache.hits": "count",
    "runner.cache.misses": "count",
    "runner.cache.entry_bytes_mean": "bytes",
    "sim.results.payload_bytes": "bytes",
    "bench.trace_overhead": "ratio",
    "bench.traced_wall_s": "s",
    "bench.self_time_residual": "fraction",
}

#: every per-layer metric, with its unit (BENCHMARK.json lists these).
PER_LAYER_UNITS: dict[str, str] = {
    **{m: ("count" if what == "calls" else "s") for m, _, what in SPAN_METRICS},
    **{m: "count" for m in HOOK_COUNTS},
    **{m: "count" for m in PROBE_COUNTERS},
    **_OTHER_UNITS,
}


def layer_metrics(tracer, traced, plain) -> dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric for one traced/untraced pair."""
    spans = tracer.layers()
    key = {"total": "total_s", "self": "self_s", "calls": "calls"}
    out: dict[str, float] = {}
    for metric, span, what in SPAN_METRICS:
        out[metric] = float(spans.get(span, {}).get(key[what], 0.0))
    for name in HOOK_COUNTS:
        out[name] = float(tracer.counts.get(name, 0.0))
    for metric, counter in PROBE_COUNTERS.items():
        out[metric] = float(sum(
            (r.telemetry or {}).get("counters", {}).get(counter, 0)
            for r in traced.results
        ))

    task_s = sum(m.task_s for m in plain.runner_metrics)
    capacity = sum(m.wall_s * m.workers for m in plain.runner_metrics)
    out["runner.backends.utilization"] = task_s / capacity if capacity else 0.0
    out["runner.backends.queue_wait_s"] = sum(
        m.queue_wait_s for m in plain.runner_metrics
    )
    out["runner.backends.workers_spawned"] = float(
        plain.backend_stats.get("workers_spawned", 0)
    )
    out["runner.backends.tasks"] = float(plain.backend_delta.get("tasks", 0))
    out["runner.backends.chunks"] = float(plain.backend_delta.get("chunks", 0))

    out["runner.cache.hits"] = float(sum(c.hits for c in traced.caches))
    out["runner.cache.misses"] = float(sum(c.misses for c in traced.caches))
    out["runner.cache.entry_bytes_mean"] = traced.cache_sizes["entry_bytes_mean"]
    out["sim.results.payload_bytes"] = traced.cache_sizes["payload_bytes"]

    # A pool pass is compared with its summed in-worker seconds: the
    # traced pass is serial, so its wall is the work done one by one.
    pooled = plain.backend_stats.get("backend") == "pool"
    baseline = task_s if pooled else plain.wall_s
    out["bench.trace_overhead"] = traced.wall_s / baseline if baseline else 0.0
    out["bench.traced_wall_s"] = traced.wall_s
    root_s = sum(
        end - start
        for start, end, parent in zip(tracer.starts, tracer.ends, tracer.parents)
        if parent < 0
    )
    out["bench.self_time_residual"] = 1.0 - root_s / traced.wall_s
    return out


def format_breakdown(tracer, traced_wall_s: float) -> str:
    """Self time per layer as a share of the traced wall, largest first."""
    lines = [f"{'layer':32s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} "
             f"{'self %':>7s}"]
    accounted = 0.0
    rows = sorted(tracer.layers().items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        accounted += row["self_s"]
        lines.append(
            f"{name:32s} {int(row['calls']):9d} {row['total_s']:9.4f} "
            f"{row['self_s']:9.4f} {100 * row['self_s'] / traced_wall_s:6.1f}%"
        )
    lines.append(
        f"{'(outside any span)':32s} {'':9s} {'':9s} "
        f"{traced_wall_s - accounted:9.4f} "
        f"{100 * (1 - accounted / traced_wall_s):6.1f}%"
    )
    return "\n".join(lines)
