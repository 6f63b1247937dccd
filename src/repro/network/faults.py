"""Link fault model (paper §4.2: ``F`` matrix, fault tolerance claims).

The paper treats ``f_ij`` as "the probability of occurrence of a fault in
a time unit" and bakes fault *avoidance* into the link cost ``e_ij``.
To evaluate that claim we also need faults to actually *happen*:
:class:`FaultModel` realises them per simulation round.

Two fault processes are supported, composable:

* **Transient faults** — each round, each link is independently down with
  its probability ``f_ij`` (drawn fresh every round). A transfer
  scheduled over a down link fails and the task stays put (the engine
  charges no progress but the attempt is counted).
* **Permanent kills** — a set of links can be killed at given rounds and
  optionally repaired later, modelling hard failures. Killing is refused
  if it would disconnect the network (the paper assumes a connected
  system throughout).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.exceptions import ConfigurationError, TopologyError
from repro.network.links import LinkAttributes
from repro.network.topology import Topology
from repro.rng import RngLike, ensure_rng


@dataclass
class FaultModel:
    """Realises link faults round by round.

    Parameters
    ----------
    attrs:
        Link attributes carrying the per-edge fault probabilities.
    rng:
        Seeded generator for the transient draws.
    permanent:
        Mapping ``round -> list of (u, v)`` links to kill at that round.
    repair_after:
        If set, permanently killed links come back up after this many
        rounds.
    """

    attrs: LinkAttributes
    rng: RngLike = None
    permanent: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    repair_after: int | None = None

    def __post_init__(self) -> None:
        self.rng = ensure_rng(self.rng)
        self.topology: Topology = self.attrs.topology
        if self.repair_after is not None and self.repair_after <= 0:
            raise ConfigurationError(
                f"repair_after must be positive or None, got {self.repair_after}"
            )
        for rnd, links in self.permanent.items():
            if rnd < 0:
                raise ConfigurationError(f"fault round must be >= 0, got {rnd}")
            for u, v in links:
                self.topology.edge_id(u, v)  # validates the edge exists
        self._down_until: dict[int, int | None] = {}  # edge id -> repair round (None = forever)
        self._transient_down: np.ndarray = np.zeros(self.topology.n_edges, dtype=bool)
        self._round = -1

    # ------------------------------------------------------------------ #

    def advance(self, round_index: int) -> None:
        """Realise faults for *round_index* (call once per round)."""
        if round_index <= self._round:
            raise ConfigurationError(
                f"fault rounds must advance monotonically: {round_index} after {self._round}"
            )
        self._round = round_index

        # Permanent kills scheduled for this round.
        for u, v in self.permanent.get(round_index, []):
            eid = self.topology.edge_id(u, v)
            until = (
                None if self.repair_after is None else round_index + self.repair_after
            )
            trial = dict(self._down_until)
            trial[eid] = until
            if self._would_disconnect(trial):
                raise TopologyError(
                    f"killing link ({u}, {v}) at round {round_index} would "
                    "disconnect the network"
                )
            self._down_until = trial

        # Repairs.
        self._down_until = {
            eid: until
            for eid, until in self._down_until.items()
            if until is None or until > round_index
        }

        # Transient faults: independent Bernoulli per link per round.
        f = self.attrs.fault_prob
        if (f > 0).any():
            self._transient_down = self.rng.random(f.shape[0]) < f
        else:
            self._transient_down[:] = False

    def _would_disconnect(self, down: dict[int, int | None]) -> bool:
        """Whether the links surviving the *down* edge ids leave the
        network disconnected (the check ``Topology`` runs at build)."""
        n = self.topology.n_nodes
        alive = np.ones(self.topology.n_edges, dtype=bool)
        alive[list(down)] = False
        u, v = self.topology.edges[alive].T
        graph = coo_matrix((np.ones(u.shape[0]), (u, v)), shape=(n, n))
        return connected_components(graph, directed=False)[0] != 1

    # ------------------------------------------------------------------ #

    def link_up(self, u: int, v: int) -> bool:
        """Whether link ``{u, v}`` is usable in the current round."""
        eid = self.topology.edge_id(u, v)
        if eid in self._down_until:
            return False
        return not bool(self._transient_down[eid])

    def up_mask(self) -> np.ndarray:
        """Boolean per-edge availability for the current round."""
        mask = ~self._transient_down.copy()
        for eid in self._down_until:
            mask[eid] = False
        return mask

    @property
    def any_faults_possible(self) -> bool:
        """False iff no fault can ever occur (fast path for the engine)."""
        return bool((self.attrs.fault_prob > 0).any()) or bool(self.permanent)
