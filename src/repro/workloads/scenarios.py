"""Named end-to-end scenarios used by examples, tests and benchmarks.

A :class:`Scenario` bundles a topology, link attributes and an initial
workload into one reproducible object, so every experiment names its
setting instead of re-rolling bespoke setup code. ``build_scenario`` is
the single entry point; it accepts

* a **registered name** from :data:`SCENARIOS` (the twelve historical
  names plus the pre-composed additions below), or
* a **composed string** in the component grammar of
  :mod:`repro.workloads.composition`, e.g.
  ``"mesh:16x16+hotspot+stragglers:frac=0.1+diurnal"``.

Every registered name is an *alias* for a
:class:`~repro.workloads.composition.ScenarioSpec`: the legacy flat
kwargs (``side``, ``n_tasks``, …) are mapped onto the spec's
components, and the alias builds a **bit-for-bit identical**
``Scenario`` to the hand-written constructor it replaced (same derived
RNG streams, same defaults) — which keeps result-cache keys of bare
legacy names valid across the refactor.

Legacy kwarg convention (deprecation shim): the twelve *historical*
names silently ignore keys from the shared set :data:`SCENARIO_KWARGS`
that they do not read, so one kwargs dict can still serve a mixed grid
(``side`` for meshes, ``dim`` for hypercubes). Everything else is
strict: names registered after the composition system validate kwargs
against their accepted keys, and composed strings validate per
component — unknown keys raise with the accepted keys listed.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.rng import RngLike
from repro.workloads.composition import (
    ALIASES,
    Scenario,
    ScenarioSpec,
    make_component,
    register_alias,
    resolve_scenario,
)

__all__ = ["Scenario", "SCENARIOS", "SCENARIO_KWARGS", "build_scenario"]


def _c(name: str, **kwargs) -> object:
    """Component spec with ``None``-valued kwargs dropped (readability)."""
    return make_component(name, {k: v for k, v in kwargs.items() if v is not None})


# --------------------------------------------------------------------- #
# The twelve historical scenarios, as alias -> spec mappings.
#
# Each `make` receives only the legacy kwargs it declared in `accepts`
# and must reproduce the defaults of the retired hand-written
# constructor exactly (e.g. "8 tasks per node" == load_factor 8.0, the
# placement default). Parity is locked by
# tests/workloads/test_scenario_parity.py.
# --------------------------------------------------------------------- #


def _mesh_hotspot(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("hotspot", n_tasks=kw.get("n_tasks")),
    )


def _torus_hotspot(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("torus", side=kw.get("side", 8)),
        _c("hotspot", n_tasks=kw.get("n_tasks")),
    )


def _hypercube_hotspot(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("hypercube", dim=kw.get("dim", 6)),
        _c("hotspot", n_tasks=kw.get("n_tasks")),
    )


def _mesh_random(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("uniform", n_tasks=kw.get("n_tasks")),
    )


def _mesh_two_valleys(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("two-valleys", n_tasks=kw.get("n_tasks")),
    )


def _mesh_faulty(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("hotspot", n_tasks=kw.get("n_tasks")),
        _c("faulty", fault=kw.get("fault_prob")),
    )


def _random_hotspot(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c(
            "random",
            n_nodes=kw.get("n_nodes"),
            avg_degree=kw.get("avg_degree"),
            graph_seed=kw.get("graph_seed"),
        ),
        _c("hotspot", n_tasks=kw.get("n_tasks")),
    )


def _straggler(kw: Mapping) -> ScenarioSpec:
    """Hotspot on a torus where a few nodes run slow (paper's
    heterogeneity concern, the async engine's bread and butter: slow
    nodes also *balance* less often under the event engine)."""
    return ScenarioSpec.compose(
        _c("torus", side=kw.get("side", 8)),
        _c("hotspot", n_tasks=kw.get("n_tasks")),
        heterogeneity=_c(
            "stragglers",
            frac=kw.get("straggler_frac"),
            slowdown=kw.get("straggler_slowdown"),
        ),
    )


def _bursty_arrivals(kw: Mapping) -> ScenarioSpec:
    """Light uniform start, then churn whose arrivals all land on a few
    hot nodes — the sustained-imbalance regime where balancing quality
    is throughput, not convergence."""
    side = kw.get("side", 8)
    placement = (
        _c("uniform", n_tasks=kw["n_tasks"])
        if "n_tasks" in kw
        else _c("uniform", load_factor=2.0)
    )
    return ScenarioSpec.compose(
        _c("mesh", side=side),
        placement,
        dynamics=_c(
            "bursty",
            rate=kw.get("arrival_rate"),
            completion_prob=kw.get("completion_prob"),
            n_hot=kw.get("n_hot"),
        ),
    )


def _torus_32x32(kw: Mapping) -> ScenarioSpec:
    """Large-N fixture: 1024-node torus hotspot (the scale at which
    PPLB's screened Phase-B sweep starts to pay)."""
    return ScenarioSpec.compose(
        _c("torus", side=32), _c("hotspot", n_tasks=kw.get("n_tasks"))
    )


def _mesh_4096(kw: Mapping) -> ScenarioSpec:
    """Large-N fixture: 4096-node mesh under a uniform random workload."""
    return ScenarioSpec.compose(
        _c("mesh", side=64), _c("uniform", n_tasks=kw.get("n_tasks"))
    )


def _hotspot_scaled(kw: Mapping) -> ScenarioSpec:
    """Mesh hotspot whose task count scales with the machine:
    ``n_tasks = load_factor · side²`` unless given explicitly. One name,
    any N — the scenario behind the ``bench_perf`` scaling curve."""
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 32)),
        _c(
            "hotspot",
            n_tasks=kw.get("n_tasks"),
            load_factor=kw.get("load_factor", 16.0),
        ),
    )


# --------------------------------------------------------------------- #
# New pre-composed scenarios (each also reachable through the grammar).
# --------------------------------------------------------------------- #


def _diurnal(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("uniform", n_tasks=kw.get("n_tasks")),
        dynamics=_c("diurnal"),
    )


def _moving_hotspot(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("torus", side=kw.get("side", 8)),
        _c("uniform", n_tasks=kw.get("n_tasks")),
        dynamics=_c("moving-hotspot"),
    )


def _power_law(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("power-law", n_tasks=kw.get("n_tasks")),
    )


def _clustered(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("clustered", n_tasks=kw.get("n_tasks")),
    )


def _fault_storm(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("torus", side=kw.get("side", 8)),
        _c("hotspot", n_tasks=kw.get("n_tasks")),
        _c("fault-storm"),
    )


def _trace_replay(kw: Mapping) -> ScenarioSpec:
    return ScenarioSpec.compose(
        _c("mesh", side=kw.get("side", 8)),
        _c("uniform", n_tasks=kw.get("n_tasks")),
        dynamics=_c("replay"),
    )


_SIZE = ("side", "n_tasks")

#: the twelve pre-composition names keep the historical shared-kwargs
#: tolerance (legacy=True); everything registered later is strict.
for _name, _summary, _accepts, _make, _legacy in (
    ("mesh-hotspot", "one towering hill mid-mesh", _SIZE, _mesh_hotspot, True),
    ("torus-hotspot", "the same hill with wraparound links", _SIZE,
     _torus_hotspot, True),
    ("hypercube-hotspot", "hotspot on a binary hypercube",
     ("dim", "n_tasks"), _hypercube_hotspot, True),
    ("mesh-random", "rough random terrain", _SIZE, _mesh_random, True),
    ("mesh-two-valleys", "two hills at a 70/30 split (arbiter test)",
     _SIZE, _mesh_two_valleys, True),
    ("mesh-faulty", "hotspot over heterogeneous, fault-prone links",
     ("side", "n_tasks", "fault_prob"), _mesh_faulty, True),
    ("random-hotspot", "hotspot on a random connected graph",
     ("n_nodes", "avg_degree", "graph_seed", "n_tasks"), _random_hotspot, True),
    ("straggler", "torus hotspot with a slow minority of nodes",
     ("side", "n_tasks", "straggler_frac", "straggler_slowdown"),
     _straggler, True),
    ("bursty-arrivals", "skewed churn onto a few hot nodes",
     ("side", "n_tasks", "arrival_rate", "completion_prob", "n_hot"),
     _bursty_arrivals, True),
    ("torus-32x32", "1024-node torus hotspot (fast-path fixture)",
     ("n_tasks",), _torus_32x32, True),
    ("mesh-4096", "4096-node mesh, uniform workload (fast-path fixture)",
     ("n_tasks",), _mesh_4096, True),
    ("hotspot-scaled", "mesh hotspot scaling as load_factor·side²",
     ("side", "load_factor", "n_tasks"), _hotspot_scaled, True),
    ("diurnal", "uniform start, day/night sinusoidal churn", _SIZE,
     _diurnal, False),
    ("moving-hotspot", "arrival hotspot re-targets the emptiest node",
     _SIZE, _moving_hotspot, False),
    ("power-law", "uniform placement, Pareto heavy-tail task sizes",
     _SIZE, _power_law, False),
    ("clustered", "several soft load lumps around far-apart centres",
     _SIZE, _clustered, False),
    ("fault-storm", "torus hotspot where 10% of links are storm-prone",
     _SIZE, _fault_storm, False),
    ("trace-replay", "churn frozen into a trace, replayed identically",
     _SIZE, _trace_replay, False),
):
    register_alias(_name, _summary, _accepts, _make, legacy=_legacy)


def _registry_entry(name: str) -> Callable[..., Scenario]:
    def build(seed: RngLike = 0, **kwargs) -> Scenario:
        return build_scenario(name, seed, **kwargs)

    build.__name__ = f"build_{name.replace('-', '_')}"
    build.__doc__ = ALIASES[name].summary
    return build


#: registered scenario names -> zero-config builders (kept as a dict for
#: backward compatibility; the authoritative registry is
#: ``composition.ALIASES``).
SCENARIOS: dict[str, Callable[..., Scenario]] = {
    name: _registry_entry(name) for name in ALIASES
}

#: the historical shared kwarg set (deprecation shim). Aliases ignore
#: keys from this set that they do not read — one kwargs dict may serve
#: a whole grid — while anything outside it raises. New code should
#: prefer composed strings, whose kwargs are validated per component.
SCENARIO_KWARGS = frozenset(
    {
        "side", "dim", "n_tasks", "fault_prob", "n_nodes", "avg_degree",
        "graph_seed", "straggler_frac", "straggler_slowdown",
        "arrival_rate", "completion_prob", "n_hot", "load_factor",
    }
)


def build_scenario(
    name: str, seed: RngLike = 0, topology=None, **kwargs
) -> Scenario:
    """Build a scenario by registered *name* or composed string.

    Extra keyword arguments override component parameters (e.g.
    ``side=16``, ``n_tasks=2048``); see the module docstring for how
    they are routed and validated. *topology* optionally reuses a
    pre-built topology (see :meth:`ScenarioSpec.build`) — replicate
    batching shares one topology object across the seeds of a batch.
    """
    return resolve_scenario(name, kwargs).build(seed, topology=topology)
