"""The discrete load surface and its gradients (paper §4.1, §5.1).

The network + loads form a discrete 3-D manifold: node *v* sits at its
embedding coordinates with height ``h(v) = Σ_k l_{v,k}``. The *slope*
toward a neighbor is

    tan β(v_i, v_j, e_ij) = (h(v_i) − h(v_j)) / e_ij

and the *transfer-corrected* slope — accounting for the surface being
dynamic, i.e. the source losing and the destination gaining the moved
load ``l`` — is

    tan β = (h(v_i) − h(v_j) − 2·l) / e_ij        (§5.1).

:class:`NeighborCache` precomputes, per node, the neighbor ids and the
edge ids into the per-edge arrays (``e_ij``, fault mask, link usage) as
plain Python lists, so the balancer's decision bodies walk a node's
links with list indexing and no dict lookups. It is a thin view over
:attr:`Topology.csr`, whose flat arrays
(``flat_rows``/``flat_nbrs``/``flat_eids``) additionally support
*whole-surface* expressions: :func:`corrected_slopes_flat` evaluates the
transfer-corrected slope of **every** directed (node, neighbor) pair of
the network in one fused array operation — the batched form of the
per-decision expression the large-N fast path screens with.
"""

from __future__ import annotations

import numpy as np

from repro.network.topology import Topology


def tan_beta(h_i: float, h_j: float, e_ij) -> float:
    """Uncorrected slope ``(h_i − h_j)/e_ij`` (§5.2's arbiter input)."""
    return (h_i - h_j) / e_ij


def tan_beta_corrected(h_i: float, h_j: float, load, e_ij) -> float:
    """Transfer-corrected slope ``(h_i − h_j − 2l)/e_ij`` (§5.1).

    The ``2l`` term is "the difference of the load quantities of the
    source and destination nodes before and after transferring": moving
    *l* lowers the source by *l* and raises the destination by *l*.
    """
    return (h_i - h_j - 2.0 * load) / e_ij


def corrected_slopes_flat(
    h: np.ndarray,
    load: np.ndarray,
    inv_s: np.ndarray,
    e: np.ndarray,
    cache: "NeighborCache",
) -> np.ndarray:
    """Transfer-corrected slope of every directed (node, neighbor) pair.

    Slot ``s`` (see :class:`~repro.network.topology.CSRAdjacency`) gets
    ``(h[i] − h[j] − load[i]·(1/s_i + 1/s_j)) / e_ij`` for ``i =
    flat_rows[s]``, ``j = flat_nbrs[s]`` — the §5.1 initiation slope
    generalised to effective heights, with a *per-source* load vector.
    The operation order matches the per-decision expression in the
    balancer bit for bit, so a batched evaluation at the same operands
    reproduces the scalar path's floats exactly (what the fast-path
    screen's soundness argument rests on).
    """
    rows = cache.flat_rows
    js = cache.flat_nbrs
    return (h[rows] - h[js] - load[rows] * (inv_s[rows] + inv_s[js])) / e[cache.flat_eids]


class NeighborCache:
    """Per-node neighbor/edge-id lists for the balancers' slope scans.

    For node *i*, ``nbrs_l[i]`` is the list of neighbor ids and
    ``eids_l[i]`` the parallel list of edge indices, so a balancer can
    evaluate every incident link with::

        for j, eid in zip(cache.nbrs_l[i], cache.eids_l[i]):
            if free[eid]:
                slope = (h[i] - h[j] - 2*load) / e[eid]

    with ``h``, ``e`` and ``free`` the round's plain-Python vectors (see
    the balancer's ``_StepState``) — reading a list, ``array('d')`` or
    ``bytearray`` element beats per-element ndarray access, which boxes
    a NumPy scalar, by ~3x. The flat CSR forms
    (``flat_rows``/``flat_nbrs``/``flat_eids``) are exposed for
    whole-graph batch expressions (the large-N Phase-B screen).
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        csr = topology.csr
        self.flat_rows = csr.rows
        self.flat_nbrs = csr.indices
        self.flat_eids = csr.edge_ids
        # One tolist() per CSR array, sliced per node: built once per
        # topology; contents never change.
        bounds = csr.indptr.tolist()
        nbrs = csr.indices.tolist()
        eids = csr.edge_ids.tolist()
        spans = list(zip(bounds, bounds[1:]))
        self.nbrs_l: list[list[int]] = [nbrs[a:b] for a, b in spans]
        self.eids_l: list[list[int]] = [eids[a:b] for a, b in spans]

    def degree(self, node: int) -> int:
        """Number of incident links of *node*."""
        return len(self.nbrs_l[node])
