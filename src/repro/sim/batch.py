"""Replicate-batched simulation behind ``run_grid(..., batch_replicates=N)``.

:class:`BatchSimulator` runs S independent replicates of one scenario —
same topology, same algorithm config, different seeds — on any engine.
What a batch shares is the scenario's :class:`~repro.network.topology.Topology`
object, built once (adjacency, CSR arrays, edge ids) instead of once per
seed; each lane then runs the solo engine's own :meth:`run`, in input
order. So every replicate's records, final loads, telemetry and terminal
RNG state are **bit identical** to a solo run of that seed — pinned in
``tests/sim/test_batch_equivalence.py``.

There is no lock-step loop. PPLB journeys are finite (Corollary 2), so a
static run goes quiet and the kernel's quiet-window exit ends it a few
rounds later: an idle-round skip found at most 2.8% of the batched
lane-rounds on a cold mixed grid, which made a joint loop no faster
than running the lanes one after another.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.sim.kernel import RoundDriver
from repro.sim.results import SimulationResult

__all__ = ["BatchSimulator"]


class BatchSimulator:
    """Run S engine replicates that share one topology (see module docstring).

    Parameters
    ----------
    sims:
        The replicate engines (any of ``Simulator``,
        ``EventFastSimulator``, ``FluidSimulator``, ...). All must share
        one :class:`~repro.network.topology.Topology` *object*. Each
        keeps its own load state, RNG, links and churn — the batch never
        mixes replicate state.
    """

    def __init__(self, sims: Sequence[RoundDriver]):
        if not sims:
            raise ConfigurationError("BatchSimulator needs at least one replicate")
        for sim in sims:
            if sim.topology is not sims[0].topology:
                raise ConfigurationError(
                    "BatchSimulator replicates must share one Topology object"
                )
        self.sims = list(sims)
        self.topology = sims[0].topology

    def run(self, max_rounds: int = 1000) -> list[SimulationResult]:
        """Run every replicate; return their results in input order.

        Each result is ``sims[i].run(max_rounds)``, so it is bit-identical
        to a solo run of that replicate (``wall_time_s`` is, as
        everywhere, the one measured field).
        """
        return [sim.run(max_rounds=max_rounds) for sim in self.sims]
