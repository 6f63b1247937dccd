"""Spec execution: the function that runs inside worker processes.

:func:`execute_spec` is the single place a :class:`RunSpec` becomes a
simulation — the CLI's ``run`` command, the serial fallback and every
pool worker all call it, so serial and parallel runs are the *same
code* on different transports. Determinism contract: the result is a
pure function of the spec's content (scenario construction, balancer
config and the simulator RNG are all seeded from ``spec.seed``), which
is what licenses the content-addressed cache.

``spec.engine`` selects the execution model through
:data:`_ENGINE_CLASSES`: ``"rounds"`` builds the synchronous
:class:`~repro.sim.Simulator` and ``"events"`` the asynchronous
:class:`~repro.sim.EventSimulator`. The task engines receive
whatever extras the scenario carries (per-node speeds, a churn process), so a
scenario means the same workload under any of them. ``"fluid"`` builds
the divisible-load :class:`~repro.sim.FluidSimulator` over the
scenario's *initial per-node loads* — the continuous-limit view of the
same setting; task-granular extras (churn, node speeds) have no fluid
counterpart and are not forwarded. One builder, :func:`_build_engine`,
does all three.

``execute_payload`` is the pool entry point: module-level (hence
picklable by reference) and returning the JSON payload rather than the
result object, so the bytes that cross the process boundary are exactly
the bytes that would be written to the cache.

``execute_batch`` is the replicate-batched sibling: a group of specs
identical up to ``seed`` (:meth:`RunSpec.replicate_key`), on any engine
and under any probe, becomes one :class:`~repro.sim.BatchSimulator` —
the scenario topology is built once and shared, and each lane runs the
solo engine, so its result is bit-identical to what
:func:`execute_spec` produces for that seed alone.
``execute_batch_payload`` is its pool-side wrapper.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.runner.registry import make_balancer
from repro.runner.spec import RunSpec
from repro.sim import (
    BatchSimulator,
    EventSimulator,
    FluidSimulator,
    SimulationResult,
    Simulator,
)
from repro.sim.kernel import RoundDriver
from repro.workloads import build_scenario

#: spec.engine -> simulator class (validated upstream by RunSpec).
_ENGINE_CLASSES = {
    "rounds": Simulator,
    "events": EventSimulator,
    "fluid": FluidSimulator,
}


def _build_engine(spec: RunSpec, topology=None) -> RoundDriver:
    """Build *spec*'s scenario and balancer into its engine, not yet run.

    Scenario-carried extras are defaults; explicit ``sim_kwargs`` win (a
    spec may legitimately override e.g. ``node_speeds`` or ``dynamic``).
    A *topology* passed in is shared instead of rebuilt.
    """
    engine_cls = _ENGINE_CLASSES.get(spec.engine)
    if engine_cls is None:
        # RunSpec validates eagerly, but specs rebuilt from hand-edited
        # JSON (or a stale cache manifest) can still carry names this
        # build does not know — fail with the roster, not a KeyError.
        raise ConfigurationError(
            f"unknown engine {spec.engine!r}; available: {sorted(_ENGINE_CLASSES)}"
        )
    scenario = build_scenario(
        spec.scenario, seed=spec.seed, topology=topology, **spec.scenario_kwargs
    )
    balancer = make_balancer(spec.algorithm, **spec.algorithm_kwargs)
    sim_kwargs: dict = {
        "links": scenario.links,
        "seed": spec.seed,
        "recorder": spec.recorder,
        "probe": spec.probe,
    }
    if spec.engine == "fluid":
        state = scenario.system.node_loads
    else:
        state = scenario.system
        sim_kwargs["dynamic"] = scenario.dynamic
        sim_kwargs["node_speeds"] = scenario.node_speeds
    sim_kwargs.update(spec.sim_kwargs)
    return engine_cls(scenario.topology, state, balancer, **sim_kwargs)


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one spec to completion and return its result."""
    return _build_engine(spec).run(max_rounds=spec.max_rounds)


def execute_batch(specs: Sequence[RunSpec]) -> list[SimulationResult]:
    """Run seed replicates on one shared topology; results per spec.

    The specs must be identical up to ``seed`` (equal
    :meth:`~repro.runner.spec.RunSpec.replicate_key`), else this raises
    :class:`~repro.exceptions.ConfigurationError`: the lanes share the
    first spec's topology. Topology construction consumes no
    randomness, so the shared object is exactly what each lane would
    have built itself, and each lane's result is bit-identical to a solo
    :func:`execute_spec` of that spec.
    """
    if not specs:
        raise ConfigurationError("execute_batch needs at least one spec")
    first = specs[0]
    for spec in specs[1:]:
        if spec.replicate_key() != first.replicate_key():
            a, b = first.to_dict(), spec.to_dict()
            fields = sorted(k for k in a.keys() | b.keys()
                            if k != "seed" and a.get(k) != b.get(k))
            raise ConfigurationError(
                f"execute_batch needs specs identical up to seed; seed "
                f"{spec.seed} differs from seed {first.seed} in {fields}"
            )
    sims: list[RoundDriver] = []
    for spec in specs:
        sims.append(_build_engine(spec, sims[0].topology if sims else None))
    return BatchSimulator(sims).run(max_rounds=specs[0].max_rounds)


def execute_payload(spec_dict: dict) -> dict:
    """Pool-side wrapper: plain-dict spec in, JSON result payload out."""
    return execute_spec(RunSpec.from_dict(spec_dict)).to_dict()


def execute_batch_payload(item: dict) -> dict:
    """Pool-side wrapper for one batched task: ``{"specs": [...]}`` in,
    ``{"results": [...]}`` out (payloads in spec order)."""
    specs = [RunSpec.from_dict(d) for d in item["specs"]]
    return {"results": [r.to_dict() for r in execute_batch(specs)]}
