"""Replicate-batched simulation behind ``run_grid(..., batch_replicates=N)``.

:class:`BatchSimulator` runs S independent replicates of one scenario —
same topology, same algorithm config, different seeds — through the
synchronous protocol in lock-step, and saves work only where a
replicate's step is provably a no-op:

* **Skip.** A PPLB lane whose balancer proves its own step a no-op
  (:meth:`~repro.core.balancer.ParticlePlaneBalancer.step_is_noop`: no
  particle in flight and an empty Phase-B screen) skips its balancer
  step: the step would return no orders, touch no state and draw no
  RNG.
* **Freeze.** A skipped lane with no churn, no fault process and an
  empty wire has no source of mutation left, so every later round is the
  same skip over the same surface: the lane stops screening, and its
  imbalance summary is computed once and replayed.

Every other lane-round runs the solo engine's own round body, so each
replicate's records, final loads and terminal RNG state are **bit
identical** to a solo :class:`~repro.sim.engine.Simulator` run of
that seed — property-tested in ``tests/sim/test_batch_equivalence.py``.
Replicates converge independently: a replicate whose convergence check
fires drops out of the batch (active mask); the rest keep going.

Telemetry (per enabled probe, once per run): ``batch.replicates`` (batch
width S), ``batch.fill_ratio`` (mean fraction of replicates still
active per joint round), ``batch.fallbacks`` (replicates that can never
skip: friction-jittered PPLB, which draws RNG per evaluated candidate,
and non-PPLB balancers).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.balancer import ParticlePlaneBalancer
from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.kernel import RoundStats
from repro.sim.metrics import imbalance_summary
from repro.sim.results import SimulationResult

__all__ = ["BatchSimulator"]


class BatchSimulator:
    """Run S :class:`~repro.sim.engine.Simulator` replicates in
    lock-step, skipping and freezing idle lanes (see module docstring).

    Parameters
    ----------
    sims:
        The replicate simulators. All must be
        :class:`~repro.sim.engine.Simulator` instances sharing one
        :class:`~repro.network.topology.Topology` *object*. Each keeps
        its own task system, RNG, links, faults and churn — the batch
        never mixes replicate state.
    """

    def __init__(self, sims: Sequence[Simulator]):
        if not sims:
            raise ConfigurationError("BatchSimulator needs at least one replicate")
        for sim in sims:
            if not isinstance(sim, Simulator):
                raise ConfigurationError(
                    "BatchSimulator replicates must be Simulator instances "
                    f"(the rounds engines), got {type(sim).__name__}"
                )
            if sim.topology is not sims[0].topology:
                raise ConfigurationError(
                    "BatchSimulator replicates must share one Topology object"
                )
        self.sims = list(sims)
        self.topology = sims[0].topology
        self._skippable = [
            isinstance(sim.balancer, ParticlePlaneBalancer)
            and sim.balancer.screen_sound
            for sim in self.sims
        ]

    def run(self, max_rounds: int = 1000, reset: bool = True) -> list[SimulationResult]:
        """Simulate every replicate; return their results in input order.

        Each result is bit-identical to ``sims[i].run(max_rounds,
        reset=reset)`` run solo (records, summaries, terminal RNG state;
        ``wall_time_s`` is, as everywhere, the one measured field).
        """
        sims = self.sims
        n_rep = len(sims)
        states = [sim._loop.begin(max_rounds, reset) for sim in sims]
        active = list(range(n_rep))
        # A frozen lane's replayed summary (see module doc), else None.
        frozen_summ: list = [None] * n_rep
        fill_sum = 0.0
        rounds = 0

        while active:
            rounds += 1
            fill_sum += len(active) / n_rep
            for l in active:
                sim = sims[l]
                r = states[l].r
                up = sim.round_begin(r)
                summ = frozen_summ[l]
                if summ is None:
                    ctx = sim._context(r, up)
                    if not (self._skippable[l] and sim.balancer.step_is_noop(ctx)):
                        stats = sim.round_apply(sim.balancer.step(ctx), up, r)
                        sim._loop.observe_round(states[l], stats)
                        continue
                    if sim.dynamic is None and sim.fault_model is None and not sim._wire:
                        # Nothing left that could change the surface:
                        # every later round is this same skip.
                        summ = frozen_summ[l] = imbalance_summary(sim.observed_loads())
                # A skipped step leaves the round the stats play_round
                # would have produced from an empty order list.
                stats = RoundStats(n_tasks=sim.system.n_tasks)
                sim._loop.observe_round(states[l], stats, summ=summ)
            active = [l for l in active if not states[l].done]

        fill = fill_sum / rounds if rounds else 1.0
        fallbacks = n_rep - sum(self._skippable)
        for sim in sims:
            if sim.probe.enabled:
                sim.probe.incr("batch.replicates", n_rep)
                sim.probe.incr("batch.fill_ratio", round(fill, 4))
                sim.probe.incr("batch.fallbacks", fallbacks)
        return [sims[l]._loop.end(states[l]) for l in range(n_rep)]
