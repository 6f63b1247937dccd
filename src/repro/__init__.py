"""repro — Particle & Plane load balancing for multiprocessors.

Production-quality reproduction of Imani & Sarbazi-Azad, *"A Physical
Particle and Plane Framework for Load Balancing in Multiprocessors"*,
IPPS/IPDPS 2006.

Quickstart
----------
>>> from repro import (mesh, TaskSystem, single_hotspot,
...                    ParticlePlaneBalancer, PPLBConfig, Simulator)
>>> topo = mesh(8, 8)
>>> system = TaskSystem(topo)
>>> _ = single_hotspot(system, 512, rng=0)
>>> sim = Simulator(topo, system, ParticlePlaneBalancer(PPLBConfig()), seed=0)
>>> result = sim.run(max_rounds=400)
>>> result.final_cov < result.initial_summary["cov"]
True

Package map
-----------
``repro.physics``   — the continuous particle-and-plane model (paper §3)
``repro.network``   — topologies, link attributes BW/D/F, faults (§4.1-4.2)
``repro.tasks``     — tasks, dependency graph T, resource map R (§4.2)
``repro.workloads`` — initial distributions and dynamic churn (§1)
``repro.core``      — the PPLB algorithm (§4-5)
``repro.baselines`` — diffusion, dimension exchange, GM, CWN, … (§2)
``repro.sim``       — simulation engines (synchronous rounds + async events)
``repro.analysis``  — convergence fits, statistics, tables, ASCII plots
``repro.runner``    — parallel experiment runner with result caching
"""

from repro.core import (
    ParticlePlaneBalancer,
    PPLBConfig,
    StochasticArbiter,
    suggest_config,
)
from repro.interfaces import BalanceContext, Balancer, FluidBalancer, Migration
from repro.network import (
    FaultModel,
    LinkAttributes,
    Topology,
    complete,
    hypercube,
    link_costs,
    mesh,
    random_connected,
    ring,
    star,
    torus,
    tree,
)
from repro.sim import (
    EventSimulator,
    FluidSimulator,
    FullRecorder,
    RoundLog,
    SimulationLoop,
    SimulationResult,
    Simulator,
    SummaryRecorder,
    ThinningRecorder,
    make_recorder,
)
from repro.sim.engine import ConvergenceCriteria
from repro.tasks import ResourceMap, TaskGraph, TaskSystem
from repro.workloads import (
    DynamicWorkload,
    ScenarioSpec,
    balanced,
    build_scenario,
    compose_scenarios,
    gaussian_blob,
    linear_ramp,
    multi_hotspot,
    parse_scenario,
    single_hotspot,
    uniform_random,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # core
    "ParticlePlaneBalancer",
    "PPLBConfig",
    "StochasticArbiter",
    "suggest_config",
    # interfaces
    "Balancer",
    "FluidBalancer",
    "BalanceContext",
    "Migration",
    # network
    "Topology",
    "mesh",
    "torus",
    "hypercube",
    "ring",
    "star",
    "complete",
    "tree",
    "random_connected",
    "LinkAttributes",
    "link_costs",
    "FaultModel",
    # tasks
    "TaskSystem",
    "TaskGraph",
    "ResourceMap",
    # workloads
    "single_hotspot",
    "multi_hotspot",
    "uniform_random",
    "linear_ramp",
    "gaussian_blob",
    "balanced",
    "DynamicWorkload",
    "build_scenario",
    "ScenarioSpec",
    "parse_scenario",
    "compose_scenarios",
    # sim
    "Simulator",
    "EventSimulator",
    "FluidSimulator",
    "SimulationLoop",
    "SimulationResult",
    "RoundLog",
    "FullRecorder",
    "ThinningRecorder",
    "SummaryRecorder",
    "make_recorder",
    "ConvergenceCriteria",
]
