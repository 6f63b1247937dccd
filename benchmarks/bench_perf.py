"""BENCH — engine performance baseline and scaling curve.

Not a paper experiment: this is the repository's performance artifact,
the baseline CI's ``perf-gate`` job compares against. It is a registry
of measurement sections (:data:`SECTIONS`); each entry names its
payload key, its measure function, the absolute rates the gate tracks
and the machine-independent bounds it must hold. ``measure()``,
``tracked_rates()`` and ``bound_failures()`` — and therefore
``scripts/perf_gate.py`` — are derived from the registry, so a new
section is one entry here. The sections:

* **curve** — PPLB's reference Phase-B sweep (every node) vs its
  screened sweep, both on the synchronous engine, on a uniform-random
  mesh workload at N ∈ {64, 256, 1024, 4096}
  nodes, simulated for a fixed round budget with convergence exit
  disabled (a production balancer keeps serving rounds at equilibrium
  — exactly the regime the scalar per-node Python loop makes O(N) per
  round). Interleaved best-of-3 per sweep. Bound: screened ≥5×
  reference at N ≥ 1024.
* **record_throughput** — a 1024-node synchronous run over 2000
  rounds under the ``summary`` recorder (O(1) memory, no per-round
  history) next to the same run under ``full`` recording, interleaved
  best-of-3. Bound: the summary run never lags full recording by more
  than noise — the recorder is pure observation, not a tax on the loop.
* **probe_overhead** — the same 1024-node workload under the default
  ``null`` probe vs the ``counters`` probe, best-of-3 interleaved pairs
  to shed scheduler noise. Bound: counters cost at most 5% wall time
  over null, so telemetry stays cheap enough to leave on.
* **grid_dispatch** — the runner's fully-cached replay rate: a 200-spec
  cached grid re-run through the per-spec JSON path and at metric level
  (``keep_results=False``, answered from the cache's index sidecar),
  interleaved best-of-3. Bound: the indexed path ≥5× the JSON path.
* **events** / **events_steady** — jittered clocks (so waves are
  genuinely per-node): the heap-driven test oracle
  (``tests/heap_events.py``) with PPLB's reference sweep vs
  ``EventSimulator`` (the ``events`` engine, columnar event buffers)
  with PPLB's screened sweep on the same 16×16 torus, in the
  decision-bound *hotspot transient* (rates tracked, no bound) and the
  *steady-state serving* regime, where every wake is a
  no-effect visit the screen rejects wholesale. Bound: columnar ≥10×
  heap events/sec at steady state.

The scalar side of the curve and event pairs runs :class:`_ReferencePPLB`,
PPLB pinned to the reference Phase-B sweep; PPLB itself screens
whenever the screen is sound, on every engine. Every paired comparison
first verifies that both sides produced identical records (the
screen's core contract) — the rates compare the same trajectory or
nothing. Every bound is a ratio of two runs
sharing the machine, hence machine-independent; absolute rates are
hardware-dependent and only gated against a same-class baseline.

The artifact is machine-readable (``benchmarks/results/
BENCH_engine.json``) so successive baselines can be diffed, plus the
usual text table.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_perf.py -s``
"""

from dataclasses import asdict, dataclass
from typing import Callable

import json
import os
import pathlib
import sys
import tempfile
import time

from repro.analysis import format_table
from repro.core import ParticlePlaneBalancer
from repro.runner import ResultCache, default_metrics, expand_grid, run_grid
from repro.runner.registry import make_balancer
from repro.sim import EventSimulator, Simulator
from repro.sim.engine import ConvergenceCriteria
from repro.workloads import build_scenario

from _harness import RESULTS_DIR, emit, once

# the event pairs time the heap-driven oracle that lives with the tests
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.heap_events import HeapEventSimulator

ALGORITHM = "pplb"
SEED = 0

#: scaling curve: uniform-random mesh workloads, side² nodes each.
CURVE_SCENARIO = "mesh-random"
CURVE_SIDES = (8, 16, 32, 64)
CURVE_ROUNDS = 40
#: the curve bound: screened ≥ 5× reference sweep at N ≥ 1024.
SPEEDUP_FLOOR = 5.0
SPEEDUP_FROM_N = 1024

#: record-throughput (long-run measurement pipeline) workload.
RECORD_SIDE = 32  # 1024 nodes
RECORD_ROUNDS = 2000
#: summary recording may never cost more than this fraction vs full —
#: machine-independent by construction (both runs share the machine);
#: the slack absorbs run-to-run noise on loaded runners.
RECORD_RPS_FLOOR = 0.85

#: probe-overhead workload: the synchronous engine at N=1024 (the acceptance
#: size); the counters probe may cost at most this wall-time factor
#: over the null probe, best-of-3 runs each.
PROBE_SIDE = 32
PROBE_ROUNDS = 200
PROBE_OVERHEAD_CEILING = 1.05

EVENT_SCENARIO = "torus-hotspot"
EVENT_SIZE = {"side": 16, "n_tasks": 2048}
#: desynchronised clocks mean one balancer step per *node* wake — a 256
#: node torus runs ~256 waves per epoch, so a smaller epoch budget keeps
#: the baseline under a minute while the measured rates stay stable.
EVENT_ROUNDS = 40

#: steady-state serving pair: uniform-random placement on the same
#: 256-node torus balances within a couple of epochs, after which the
#: engines keep serving wake waves with nothing left to move — exactly
#: the no-effect regime the events engine's screen rejects without touching
#: scalar decision bodies (or the RNG).
EVENT_STEADY_SCENARIO = "torus:side=16+uniform:n_tasks=2048"
EVENT_STEADY_ROUNDS = 10
#: the async acceptance bar: columnar ≥ 10x heap events/sec on the
#: steady-state pair — machine-independent by construction (the engines
#: process the identical event stream back to back, so the events/sec
#: ratio is the wall-time ratio).
ASYNC_SPEEDUP_FLOOR = 10.0

#: grid-dispatch workload: 200 tiny specs (2 scenarios × 2 algorithms
#: × 50 seeds), cached once, then replayed — the dispatch benchmark
#: times the *runner*, so the simulations themselves stay minimal.
DISPATCH_SCENARIOS = ("mesh-hotspot", "mesh-random")
DISPATCH_ALGORITHMS = ("pplb", "diffusion")
DISPATCH_SEEDS = 50
DISPATCH_ROUNDS = 20
#: the dispatch acceptance bar: the indexed metric-level replay must
#: beat the per-spec JSON replay ≥ 5× — machine-independent by
#: construction (interleaved re-runs of the same cached grid).
DISPATCH_SPEEDUP_FLOOR = 5.0

#: every paired wall-time comparison keeps each side's fastest of this
#: many interleaved runs, so one scheduler hiccup cannot sink a bound.
BEST_OF = 3

#: convergence exit disabled: every budgeted round is simulated, so the
#: curve measures the sustained service rate, not the length of one
#: transient.
_NO_EXIT = ConvergenceCriteria(quiet_rounds=10**9, min_rounds=0)


class _ReferencePPLB(ParticlePlaneBalancer):
    """PPLB pinned to the reference Phase-B sweep over every node."""

    def _phase_b_fast(self, s):
        self._phase_b_scalar(s)


def _reference():
    """The scalar side of a pair: :data:`ALGORITHM`'s reference sweep."""
    return _ReferencePPLB(make_balancer(ALGORITHM).config)


def _timed_run(balancer, side: int, rounds: int = CURVE_ROUNDS,
               recorder: str = "full", probe: str = "null"):
    scenario = build_scenario(CURVE_SCENARIO, seed=SEED, side=side)
    sim = Simulator(
        scenario.topology, scenario.system, balancer,
        links=scenario.links, seed=SEED, criteria=_NO_EXIT,
        recorder=recorder, probe=probe,
    )
    return sim.run(max_rounds=rounds)


def _same_records(a, b) -> bool:
    return [asdict(r) for r in a.records] == [asdict(r) for r in b.records]


def _best_of(*variants: Callable[[], object]) -> list:
    """Each variant's fastest result over :data:`BEST_OF` passes.

    The runs are *interleaved* (a, b, a, b, …) so a load drift on a
    busy machine hits every variant alike instead of biasing whichever
    ran second.
    """
    best: list = [None] * len(variants)
    for _ in range(BEST_OF):
        for k, run in enumerate(variants):
            result = run()
            if best[k] is None or result.wall_time_s < best[k].wall_time_s:
                best[k] = result
    return best


# ----------------------------- measurements ----------------------------- #


def _curve() -> dict:
    """Reference vs screened sweep rounds/sec at every curve size (best-of)."""
    points = []
    for side in CURVE_SIDES:
        scalar, fast = _best_of(
            lambda: _timed_run(_reference(), side),
            lambda: _timed_run(make_balancer(ALGORITHM), side),
        )
        assert _same_records(scalar, fast), (
            f"screened sweep diverged from the reference at side={side}"
        )
        assert scalar.n_rounds == CURVE_ROUNDS
        scalar_rps = scalar.n_rounds / scalar.wall_time_s
        fast_rps = fast.n_rounds / fast.wall_time_s
        points.append({
            "side": side,
            "n_nodes": side * side,
            "n_tasks": scalar.records[-1].n_tasks,
            "rounds": scalar.n_rounds,
            "scalar_rps": scalar_rps,
            "fast_rps": fast_rps,
            "speedup": fast_rps / scalar_rps,
        })
    return {
        "scenario": CURVE_SCENARIO,
        "rounds_budget": CURVE_ROUNDS,
        "points": points,
    }


def _record_throughput() -> dict:
    """Long-run service rate under summary vs full recording (best-of).

    Totals must agree exactly — the recorder observes, it never steers.
    """
    full, summary = _best_of(
        lambda: _timed_run(make_balancer(ALGORITHM), RECORD_SIDE,
                           rounds=RECORD_ROUNDS, recorder="full"),
        lambda: _timed_run(make_balancer(ALGORITHM), RECORD_SIDE,
                           rounds=RECORD_ROUNDS, recorder="summary"),
    )
    assert len(summary.records) == 0, "summary recorder retained history"
    assert len(full.records) == RECORD_ROUNDS
    assert summary.n_rounds == full.n_rounds == RECORD_ROUNDS
    assert summary.total_migrations == full.total_migrations
    return {
        "scenario": CURVE_SCENARIO,
        "n_nodes": RECORD_SIDE * RECORD_SIDE,
        "rounds": RECORD_ROUNDS,
        "full_rps": full.n_rounds / full.wall_time_s,
        "summary_rps": summary.n_rounds / summary.wall_time_s,
        "records_retained_full": len(full.records),
        "records_retained_summary": len(summary.records),
    }


def _probe_overhead() -> dict:
    """Null vs counters probe on the N=1024 screened sweep (best-of)."""
    null, counted = _best_of(
        lambda: _timed_run(make_balancer(ALGORITHM), PROBE_SIDE,
                           rounds=PROBE_ROUNDS, probe="null"),
        lambda: _timed_run(make_balancer(ALGORITHM), PROBE_SIDE,
                           rounds=PROBE_ROUNDS, probe="counters"),
    )
    # The comparison is meaningful only if the probe truly observed
    # without steering — identical trajectories, counters on the side.
    assert _same_records(null, counted), "counters probe changed the simulation"
    assert null.telemetry is None
    assert counted.telemetry["counters"]["engine.transfers_applied"] == \
        counted.total_migrations
    return {
        "scenario": CURVE_SCENARIO,
        "n_nodes": PROBE_SIDE * PROBE_SIDE,
        "rounds": PROBE_ROUNDS,
        "null_rps": null.n_rounds / null.wall_time_s,
        "counters_rps": counted.n_rounds / counted.wall_time_s,
        "overhead": counted.wall_time_s / null.wall_time_s,
    }


def _grid_dispatch() -> dict:
    """Fully-cached 200-spec replay: per-spec JSON vs indexed metrics.

    Interleaved best-of-3 pairs (like the probe-overhead measurement)
    so machine-load drift hits both variants alike. The metric values
    must agree exactly — they were computed by the same function at
    store time and round-trip exactly through JSON.
    """
    specs = expand_grid(
        DISPATCH_SCENARIOS, DISPATCH_ALGORITHMS,
        list(range(DISPATCH_SEEDS)),
        max_rounds=DISPATCH_ROUNDS,
        scenario_kwargs={"side": 4, "n_tasks": 64},
        engine="rounds",  # default full recorder: the payloads
        # carry per-round records, like any real experiment grid.
    )
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        run_grid(specs, cache=cache)  # populate (untimed)

        baseline_s = fast_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            full = run_grid(specs, cache=cache)
            baseline_s = min(baseline_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            slim = run_grid(specs, cache=cache, keep_results=False)
            fast_s = min(fast_s, time.perf_counter() - t0)
        assert all(o.cached for o in full) and all(o.cached for o in slim)
        assert [default_metrics(o.result) for o in full] == [
            o.metrics for o in slim
        ], "indexed metric replay diverged from the payload path"

    n = len(specs)
    return {
        "n_specs": n,
        "rounds": DISPATCH_ROUNDS,
        "baseline_rps": n / baseline_s,
        "fast_rps": n / fast_s,
        "speedup": baseline_s / fast_s,
    }


def _timed_event_pair(scenario_name: str, scenario_kwargs: dict,
                      rounds: int, criteria=None) -> dict:
    """Heap-driven event engine with the reference sweep vs the columnar
    one with the screened sweep on one workload, verified equal."""

    def run(engine_cls, balancer):
        scenario = build_scenario(scenario_name, seed=SEED, **scenario_kwargs)
        extra = {} if criteria is None else {"criteria": criteria}
        sim = engine_cls(
            scenario.topology, scenario.system, balancer,
            links=scenario.links, seed=SEED, wake_jitter=0.2, **extra,
        )
        return sim, sim.run(max_rounds=rounds)

    scalar_sim, scalar = run(HeapEventSimulator, _reference())
    fast_sim, fast = run(EventSimulator, make_balancer(ALGORITHM))
    assert _same_records(scalar, fast), (
        f"the columnar event driver diverged from the heap on {scenario_name}"
    )
    assert scalar_sim.events_processed == fast_sim.events_processed
    events = scalar_sim.events_processed
    assert events > scalar.n_rounds  # desynchronised: one wave per wake
    return {
        "scenario": scenario_name,
        "scenario_kwargs": dict(scenario_kwargs),
        "rounds_budget": rounds,
        "rounds": scalar.n_rounds,
        "events": events,
        "scalar": {
            "wall_time_s": scalar.wall_time_s,
            "rounds_per_sec": scalar.n_rounds / scalar.wall_time_s,
            "events_per_sec": events / scalar.wall_time_s,
        },
        "fast": {
            "wall_time_s": fast.wall_time_s,
            "rounds_per_sec": fast.n_rounds / fast.wall_time_s,
            "events_per_sec": events / fast.wall_time_s,
        },
        "speedup": scalar.wall_time_s / fast.wall_time_s,
    }


# ------------------------------- registry ------------------------------- #


@dataclass(frozen=True)
class Bound:
    """One machine-independent acceptance bound: a ratio of two runs
    that shared the machine, so it holds on any hardware."""

    label: str
    value: float
    limit: float
    #: True: *value* may not exceed *limit*; False: may not fall below.
    ceiling: bool = False

    def failure(self) -> str | None:
        """Description of the violation, or None when the bound holds."""
        if self.ceiling and self.value > self.limit:
            return f"{self.label}: {self.value:.3f}x > {self.limit}x ceiling"
        if not self.ceiling and self.value < self.limit:
            return (f"{self.label}: {self.value:.1f}x < {self.limit}x "
                    f"acceptance floor")
        return None


@dataclass(frozen=True)
class Section:
    """One measurement of the baseline, as the gate sees it."""

    #: payload key in ``BENCH_engine.json``.
    name: str
    measure: Callable[[], dict]
    #: section payload -> the absolute rates the gate tracks, by name.
    rates: Callable[[dict], dict[str, float]]
    #: section payload -> its machine-independent bounds.
    bounds: Callable[[dict], list[Bound]]
    #: section payload -> rows of the text table.
    rows: Callable[[dict], list[dict]]


def _row(n, tag, rounds, slow: str, fast: str, ratio: str) -> dict:
    return {"N": n, "tasks": tag, "rounds": rounds,
            "scalar r/s": slow, "fast r/s": fast, "speedup": ratio}


def _event_section(name: str, tag: str, measure: Callable[[], dict],
                   floor: float | None) -> Section:
    return Section(
        name, measure,
        rates=lambda s: {
            f"{name}_scalar_eps": s["scalar"]["events_per_sec"],
            f"{name}_fast_eps": s["fast"]["events_per_sec"],
        },
        bounds=lambda s: [] if floor is None else [
            Bound(f"{name} speedup", s["speedup"], floor)
        ],
        rows=lambda s: [_row(
            256, tag, s["rounds"],
            f"{round(s['scalar']['events_per_sec'], 1)} ev/s",
            f"{round(s['fast']['events_per_sec'], 1)} ev/s",
            f"{s['speedup']:.1f}x",
        )],
    )


SECTIONS: tuple[Section, ...] = (
    Section(
        "curve", _curve,
        rates=lambda s: {
            f"{kind}_rps@N={pt['n_nodes']}": pt[f"{kind}_rps"]
            for pt in s["points"] for kind in ("scalar", "fast")
        },
        bounds=lambda s: [
            Bound(f"speedup@N={pt['n_nodes']}", pt["speedup"], SPEEDUP_FLOOR)
            for pt in s["points"] if pt["n_nodes"] >= SPEEDUP_FROM_N
        ],
        rows=lambda s: [
            _row(pt["n_nodes"], pt["n_tasks"], pt["rounds"],
                 round(pt["scalar_rps"], 1), round(pt["fast_rps"], 1),
                 f"{pt['speedup']:.1f}x")
            for pt in s["points"]
        ],
    ),
    Section(
        "record_throughput", _record_throughput,
        rates=lambda s: {
            f"record_full_rps@N={s['n_nodes']}": s["full_rps"],
            f"record_summary_rps@N={s['n_nodes']}": s["summary_rps"],
        },
        bounds=lambda s: [Bound("summary/full recording rate",
                                s["summary_rps"] / s["full_rps"],
                                RECORD_RPS_FLOOR)],
        rows=lambda s: [_row(
            s["n_nodes"], "-", s["rounds"],
            f"full rec: {round(s['full_rps'], 1)} r/s",
            f"summary: {round(s['summary_rps'], 1)} r/s",
            f"{s['summary_rps'] / s['full_rps']:.2f}x",
        )],
    ),
    Section(
        "probe_overhead", _probe_overhead,
        rates=lambda s: {
            f"probe_null_rps@N={s['n_nodes']}": s["null_rps"],
            f"probe_counters_rps@N={s['n_nodes']}": s["counters_rps"],
        },
        bounds=lambda s: [Bound("counters-probe overhead", s["overhead"],
                                PROBE_OVERHEAD_CEILING, ceiling=True)],
        rows=lambda s: [_row(
            s["n_nodes"], "probe", s["rounds"],
            f"null: {round(s['null_rps'], 1)} r/s",
            f"counters: {round(s['counters_rps'], 1)} r/s",
            f"{s['overhead']:.3f}x cost",
        )],
    ),
    Section(
        "grid_dispatch", _grid_dispatch,
        rates=lambda s: {
            "grid_dispatch_rps": s["fast_rps"],
            "grid_dispatch_baseline_rps": s["baseline_rps"],
        },
        bounds=lambda s: [Bound("grid-dispatch speedup", s["speedup"],
                                DISPATCH_SPEEDUP_FLOOR)],
        rows=lambda s: [_row(
            s["n_specs"], "dispatch", s["rounds"],
            f"json: {round(s['baseline_rps'], 1)} spec/s",
            f"indexed: {round(s['fast_rps'], 1)} spec/s",
            f"{s['speedup']:.1f}x",
        )],
    ),
    # The event engines are measured desynchronised (per-wake jitter),
    # so the heap/wave machinery and per-node clocks are all on the hot
    # path. The transient keeps ~10 particles in flight the whole
    # budget (decision-bound by construction: rates tracked, no floor);
    # the steady pair quiesces early, after which the screen rejects
    # whole waves — where the batching pays.
    _event_section(
        "events", "async transient",
        lambda: _timed_event_pair(EVENT_SCENARIO, EVENT_SIZE, EVENT_ROUNDS),
        floor=None,
    ),
    _event_section(
        "events_steady", "async steady",
        lambda: _timed_event_pair(EVENT_STEADY_SCENARIO, {},
                                  EVENT_STEADY_ROUNDS, criteria=_NO_EXIT),
        floor=ASYNC_SPEEDUP_FLOOR,
    ),
)


def measure() -> dict:
    """One full measurement pass (also invoked by scripts/perf_gate.py)."""
    payload: dict = {
        "algorithm": ALGORITHM,
        "seed": SEED,
        # Machine-class fingerprint: absolute rates only compare across
        # the same class (scripts/perf_gate.py), since a dev-box
        # baseline says nothing about a CI runner's throughput.
        "environment": {"ci": bool(os.environ.get("CI"))},
    }
    for section in SECTIONS:
        payload[section.name] = section.measure()
    return payload


def tracked_rates(payload: dict) -> dict[str, float]:
    """Every section's tracked absolute rates, flattened by name.

    Sections absent from *payload* (a baseline older than the section)
    contribute nothing.
    """
    rates: dict[str, float] = {}
    for section in SECTIONS:
        if section.name in payload:
            rates.update(section.rates(payload[section.name]))
    return rates


def bound_failures(payload: dict) -> list[str]:
    """Every violated machine-independent bound (empty = all hold)."""
    return [
        failure
        for section in SECTIONS
        for bound in section.bounds(payload[section.name])
        if (failure := bound.failure()) is not None
    ]


def test_perf_baseline(benchmark):
    payload = once(benchmark, measure)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    rows = [row for section in SECTIONS
            for row in section.rows(payload[section.name])]
    emit(
        "BENCH_engine",
        format_table(rows, title="BENCH — engine perf: reference vs screened "
                                 f"Phase-B sweep ({CURVE_SCENARIO}, {ALGORITHM}) "
                                 "+ heap vs columnar event-driver pairs"),
    )

    # Shape, not absolute speed — only the machine-independent bounds
    # (scripts/perf_gate.py re-checks them per attempt, so a noisy
    # runner earns a retry there).
    assert bound_failures(payload) == []
    reread = json.loads((RESULTS_DIR / "BENCH_engine.json").read_text())
    assert reread == payload
