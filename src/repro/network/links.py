"""Link attributes BW/D/F and the link cost ``e_ij`` (paper §4.2).

The paper models each link with three constant configuration parameters —
bandwidth, length and per-time-unit fault probability, collected in the
``BW``, ``D`` and ``F`` matrices — and derives the slope-denominator
weight

.. math::

    e_{ij} \\;=\\; e_0 \\cdot
        \\frac{d_{ij}}{bw_{ij} \\cdot (1-f_{ij})^{\\,c_1 d_{ij}/bw_{ij}}}

(the three proportionalities of §4.2 composed; ``(1-f)^{c1 d/bw}`` is "a
measure of the probability that the load does not encounter any faults
during its transmission", so dividing by it penalises unreliable links).
A higher ``e_ij`` flattens the perceived slope toward that neighbor, which
simultaneously discourages transfers over slow/long/unreliable links and
increases the heat (traffic cost) charged when a transfer does happen.

Attributes are stored per edge (arrays indexed by
``Topology.edge_id(u, v)``), with dense-matrix exports for tests and for
symmetry with the paper's notation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.topology import Topology
from repro.rng import RngLike, ensure_rng


@dataclass
class LinkAttributes:
    """Per-edge bandwidth, length and fault probability for a topology.

    Arrays are indexed by edge id (``Topology.edge_id``) and therefore
    symmetric by construction, matching the undirected network model.

    Attributes
    ----------
    topology:
        The network the attributes belong to.
    bandwidth:
        ``bw_ij > 0`` per edge (higher = cheaper).
    distance:
        ``d_ij > 0`` per edge (physical length / latency proxy).
    fault_prob:
        ``f_ij ∈ [0, 1)`` per edge — probability that the link faults in
        one time unit.
    """

    topology: Topology
    bandwidth: np.ndarray
    distance: np.ndarray
    fault_prob: np.ndarray

    def __post_init__(self) -> None:
        m = self.topology.n_edges
        for nameval in (("bandwidth", self.bandwidth), ("distance", self.distance),
                        ("fault_prob", self.fault_prob)):
            name, arr = nameval
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (m,):
                raise ConfigurationError(
                    f"{name} must have shape ({m},) for topology "
                    f"'{self.topology.name}', got {arr.shape}"
                )
            setattr(self, name, arr)
        if (self.bandwidth <= 0).any():
            raise ConfigurationError("all bandwidths must be positive")
        if (self.distance <= 0).any():
            raise ConfigurationError("all link distances must be positive")
        if ((self.fault_prob < 0) | (self.fault_prob >= 1)).any():
            raise ConfigurationError("fault probabilities must lie in [0, 1)")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def uniform(
        cls,
        topology: Topology,
        bandwidth: float = 1.0,
        distance: float = 1.0,
        fault_prob: float = 0.0,
    ) -> "LinkAttributes":
        """Homogeneous links — the oversimplified model the paper critiques.

        Useful as the control configuration: with uniform links PPLB
        reduces to a pure gradient scheme.
        """
        m = topology.n_edges
        return cls(
            topology=topology,
            bandwidth=np.full(m, float(bandwidth)),
            distance=np.full(m, float(distance)),
            fault_prob=np.full(m, float(fault_prob)),
        )

    @classmethod
    def heterogeneous(
        cls,
        topology: Topology,
        seed: RngLike = None,
        bandwidth_range: tuple[float, float] = (0.5, 2.0),
        distance_range: tuple[float, float] = (0.5, 2.0),
        fault_range: tuple[float, float] = (0.0, 0.0),
    ) -> "LinkAttributes":
        """Randomly heterogeneous links (uniform draws per edge)."""
        rng = ensure_rng(seed)
        m = topology.n_edges

        def draw(lohi: tuple[float, float]) -> np.ndarray:
            lo, hi = lohi
            if lo > hi:
                raise ConfigurationError(f"invalid range {lohi}")
            return rng.uniform(lo, hi, m) if hi > lo else np.full(m, float(lo))

        return cls(
            topology=topology,
            bandwidth=draw(bandwidth_range),
            distance=draw(distance_range),
            fault_prob=draw(fault_range),
        )

    @classmethod
    def euclidean(
        cls,
        topology: Topology,
        bandwidth: float = 1.0,
        fault_prob: float = 0.0,
        min_distance: float = 1e-3,
    ) -> "LinkAttributes":
        """Distances from the topology's 2-D embedding (M2 geometry)."""
        coords = topology.coords
        e = topology.edges
        d = np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1)
        d = np.maximum(d, min_distance)
        m = topology.n_edges
        return cls(
            topology=topology,
            bandwidth=np.full(m, float(bandwidth)),
            distance=d,
            fault_prob=np.full(m, float(fault_prob)),
        )

    # ------------------------------------------------------------------ #
    # Matrix exports (paper notation)
    # ------------------------------------------------------------------ #

    def _to_matrix(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        n = self.topology.n_nodes
        mat = np.full((n, n), fill, dtype=np.float64)
        e = self.topology.edges
        mat[e[:, 0], e[:, 1]] = values
        mat[e[:, 1], e[:, 0]] = values
        return mat

    def bw_matrix(self) -> np.ndarray:
        """The paper's ``BW`` matrix (0 where no edge)."""
        return self._to_matrix(self.bandwidth)


def link_costs(
    attrs: LinkAttributes, c1: float = 1.0, e0: float = 1.0
) -> np.ndarray:
    """Per-edge cost ``e_ij`` from §4.2, indexed by edge id.

    ``e_ij = e0 · d / (bw · (1−f)^(c1·d/bw))``. With uniform unit links and
    zero faults this is ``e0`` for every edge.

    Parameters
    ----------
    attrs:
        Link attribute arrays.
    c1:
        The paper's exposure constant: how strongly the transmission-time
        proxy ``d/bw`` amplifies fault exposure.
    e0:
        Overall scale (the proportionality constant the paper leaves
        free). Larger ``e0`` flattens all slopes uniformly.
    """
    if c1 < 0:
        raise ConfigurationError(f"c1 must be non-negative, got {c1}")
    if e0 <= 0:
        raise ConfigurationError(f"e0 must be positive, got {e0}")
    d = attrs.distance
    bw = attrs.bandwidth
    f = attrs.fault_prob
    safe = np.power(1.0 - f, c1 * d / bw)
    return e0 * d / (bw * safe)
