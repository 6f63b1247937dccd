"""Spec execution: the function that runs inside worker processes.

:func:`execute_spec` is the single place a :class:`RunSpec` becomes a
simulation — the CLI's ``run`` command, the serial fallback and every
pool worker all call it, so serial and parallel runs are the *same
code* on different transports. Determinism contract: the result is a
pure function of the spec's content (scenario construction, balancer
config and the simulator RNG are all seeded from ``spec.seed``), which
is what licenses the content-addressed cache.

``spec.engine`` selects the execution model: ``"rounds"`` builds the
synchronous :class:`~repro.sim.Simulator` and ``"events"`` the
asynchronous :class:`~repro.sim.EventFastSimulator` (columnar event
buffers; the heap-driven :class:`~repro.sim.EventSimulator` it is
tested against has no engine name). The task engines receive
whatever extras the scenario carries (per-node speeds, a churn process), so a
scenario means the same workload under any of them. ``"fluid"`` builds
the divisible-load :class:`~repro.sim.FluidSimulator` over the
scenario's *initial per-node loads* — the continuous-limit view of the
same setting; task-granular extras (churn, node speeds) have no fluid
counterpart and are not forwarded.

``execute_payload`` is the pool entry point: module-level (hence
picklable by reference) and returning the JSON payload rather than the
result object, so the bytes that cross the process boundary are exactly
the bytes that would be written to the cache.

``execute_batch`` is the replicate-batched sibling: a group of specs
identical up to ``seed`` becomes one :class:`~repro.sim.BatchSimulator`
run — the scenario topology is built once and shared across the lanes,
and each lane's result is bit-identical to what :func:`execute_spec`
would have produced for that seed alone (the batched engine's
contract). ``execute_batch_payload`` is its pool-side wrapper.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.runner.registry import make_balancer
from repro.runner.spec import RunSpec
from repro.sim import (
    BatchSimulator,
    EventFastSimulator,
    FluidSimulator,
    SimulationResult,
    Simulator,
)
from repro.workloads import build_scenario

#: spec.engine -> task-granular simulator class (validated upstream by
#: RunSpec; "fluid" dispatches separately below).
_ENGINE_CLASSES = {"rounds": Simulator, "events": EventFastSimulator}


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one spec to completion and return its result."""
    if spec.engine == "fluid":
        scenario = build_scenario(
            spec.scenario, seed=spec.seed, **spec.scenario_kwargs
        )
        sim = FluidSimulator(
            scenario.topology,
            scenario.system.node_loads,
            make_balancer(spec.algorithm, **spec.algorithm_kwargs),
            links=scenario.links,
            seed=spec.seed,
            recorder=spec.recorder,
            probe=spec.probe,
            **spec.sim_kwargs,
        )
        return sim.run(max_rounds=spec.max_rounds)
    engine_cls = _ENGINE_CLASSES.get(spec.engine)
    if engine_cls is None:
        # RunSpec validates eagerly, but specs rebuilt from hand-edited
        # JSON (or a stale cache manifest) can still carry names this
        # build does not know — fail with the roster, not a KeyError.
        raise ConfigurationError(
            f"unknown engine {spec.engine!r}; available: "
            f"{sorted([*_ENGINE_CLASSES, 'fluid'])}"
        )
    return _task_simulator(spec, engine_cls).run(max_rounds=spec.max_rounds)


def _task_simulator(spec: RunSpec, engine_cls, topology=None):
    """Build *spec*'s scenario and balancer into a task-engine instance.

    Scenario-carried extras are defaults; explicit ``sim_kwargs`` win (a
    spec may legitimately override e.g. ``node_speeds`` or ``dynamic``).
    A *topology* passed in is shared instead of rebuilt.
    """
    scenario = build_scenario(
        spec.scenario, seed=spec.seed, topology=topology, **spec.scenario_kwargs
    )
    balancer = make_balancer(spec.algorithm, **spec.algorithm_kwargs)
    sim_kwargs: dict = {
        "links": scenario.links,
        "dynamic": scenario.dynamic,
        "node_speeds": scenario.node_speeds,
        "seed": spec.seed,
        "recorder": spec.recorder,
        "probe": spec.probe,
        **spec.sim_kwargs,
    }
    return engine_cls(scenario.topology, scenario.system, balancer, **sim_kwargs)


def execute_batch(specs: Sequence[RunSpec]) -> list[SimulationResult]:
    """Run replicate specs as one batched simulation; results per spec.

    The specs must be identical up to ``seed``, request the
    ``rounds`` engine and carry the null probe (the runner's
    grouping pass guarantees all three). The scenario is built once per
    seed but the *topology* only once — every lane shares the first
    lane's topology object, which is what lets
    :class:`~repro.sim.BatchSimulator` reuse one CSR adjacency across
    the batch. Topology construction consumes no randomness, so the
    shared object is exactly what each lane would have built itself,
    and each lane's result is bit-identical to a solo
    :func:`execute_spec` of that spec.
    """
    if not specs:
        raise ConfigurationError("execute_batch needs at least one spec")
    for spec in specs:
        if spec.engine != "rounds":
            raise ConfigurationError(
                f"replicate batching runs the rounds engine only, "
                f"got {spec.engine!r}"
            )
    if len(specs) == 1:
        return [execute_spec(specs[0])]
    sims = []
    topology = None
    for spec in specs:
        sims.append(_task_simulator(spec, Simulator, topology))
        topology = sims[0].topology
    return BatchSimulator(sims).run(max_rounds=specs[0].max_rounds)


def execute_payload(spec_dict: dict) -> dict:
    """Pool-side wrapper: plain-dict spec in, JSON result payload out."""
    return execute_spec(RunSpec.from_dict(spec_dict)).to_dict()


def execute_batch_payload(item: dict) -> dict:
    """Pool-side wrapper for one batched task: ``{"specs": [...]}`` in,
    ``{"results": [...]}`` out (payloads in spec order)."""
    specs = [RunSpec.from_dict(d) for d in item["specs"]]
    return {"results": [r.to_dict() for r in execute_batch(specs)]}
