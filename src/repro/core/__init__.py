"""The Particle & Plane Load Balancer — the paper's contribution (§4-5).

Layout:

* :class:`PPLBConfig` — every constant of the model (friction bases and
  dependency weights, heat constants ``c0``/``c1``, arbiter annealing
  parameters, candidate bounds) with validation and the Table-1 parameter
  registry.
* :class:`FrictionModel` — ``µs``/``µk`` per (task, node) from the
  dependency matrix ``T`` and resource matrix ``R`` (§4.2).
* :class:`NeighborCache` / gradient helpers — per-node neighbor lists
  and the ``tan β`` slopes over the load surface (§4.1, §5.1).
* :class:`StochasticArbiter` — the annealed free-trials link chooser of
  §5.2 (plus a greedy ablation variant).
* :class:`MotionState` & energy helpers — the potential-height flag
  carried by in-flight loads (§5.1).
* :class:`ParticlePlaneBalancer` — the algorithm itself.
"""

from repro.core.arbiter import GreedyArbiter, StochasticArbiter
from repro.core.balancer import ParticlePlaneBalancer
from repro.core.config import PPLBConfig
from repro.core.energy import MotionState, hop_heat_energy, hop_height_drop
from repro.core.friction import FrictionModel
from repro.core.surface import NeighborCache, tan_beta, tan_beta_corrected
from repro.core.tuning import describe_config, suggest_config

__all__ = [
    "suggest_config",
    "describe_config",
    "PPLBConfig",
    "FrictionModel",
    "NeighborCache",
    "tan_beta",
    "tan_beta_corrected",
    "StochasticArbiter",
    "GreedyArbiter",
    "MotionState",
    "hop_height_drop",
    "hop_heat_energy",
    "ParticlePlaneBalancer",
]
