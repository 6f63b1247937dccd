"""The Particle & Plane load balancing algorithm (paper §5).

Each round has two phases, mirroring the paper's two decision points:

**Phase A — in-flight particles** ("as the load reaches node j ..."):
every task currently in motion evaluates its neighbors through the
energy model. Neighbor *j* is *energy-feasible* iff

    a_j = h* − c0·µk·e_ij − h(v_j)  >  0                       (§5.1)

i.e. after paying the hop's friction the flag still clears the
destination's height. Under the default ``motion_rule="arbiter-settle"``
the arbiter chooses among the feasible hops *and* an explicit settle
option scored ``a_settle = h* − (h(cur) − l)`` (the particle's own floor,
no hop cost): descent steep enough to out-earn friction continues the
journey, anything else settles — with the annealed exploration still able
to climb barriers early on (§5.2). Under ``motion_rule="energy-only"``
the paper's literal rule applies: keep hopping while any neighbor is
feasible.

**Phase B — stationary initiation** ("the condition for initiating the
motion"): every node offers its ``candidates_per_node`` largest resident
tasks; task *k* may start moving toward neighbor *j* iff

    tan β = (h(v_i) − h(v_j) − 2·l_k)/e_ij  >  µs(k, i)        (§5.1)

The arbiter picks among the feasible links; the new particle's flag is
initialised to the departure height ``h* = h(v_i)`` ("the height of the
initial position of the object, h0") minus the first hop's drop.

Both phases work on a private copy of the load vector updated as
decisions are made ("the algorithm updates ... the quantity of the loads
of the source and the destination nodes"), honour link faults, and
reserve one task per link per round ("at each time unit only a single
load is transferred over a link").

Termination: every hop costs at least ``c0·µk·min(e) > 0`` of flag
height while feasibility keeps the flag above the (non-negative) load
surface, so journeys are finite whenever ``µk > 0`` — the discrete
Corollary 2, and the bounded-time half of Theorem 2's proof.

Phase-B sweeps: each phase has exactly one decision body, a plain-list
loop over the node's neighbors (:class:`~repro.core.surface.NeighborCache`),
and the screened Phase-B sweep differs from the reference sweep only in
*which* nodes it visits. The balancer picks the sweep itself, the same
way on every engine: the screened one whenever the screen is sound
(:attr:`ParticlePlaneBalancer.screen_sound`, i.e. no friction jitter),
the reference one otherwise. During one ``step`` the task placements
never change (the engine applies the returned orders afterwards), so
the only decision inputs that evolve are the private surface ``h`` and
the per-link reservations. The decision bodies read them, with the link
costs and ``1/s``, from plain-Python vectors made once per round
(``_StepState.unbox``), and the screen views those vectors as arrays; a
round without decisions never makes them. Phase A is one id-ordered
loop. The screened Phase B screens every (node, neighbor) slope at the
node's candidate floor in one whole-graph CSR array expression and then
runs the per-node body only where it can matter: nodes that passed the
(provably sound, load-floor based) screen or were touched by an earlier
decision of the same round — and, of those, only nodes that still pass
the same screen rule against the surface and link reservations at the
moment the sweep reaches them. Skipped work is exactly the work the
reference sweep would have done with no effect and no RNG consumption —
which is why the screened sweep reproduces the reference trajectory bit
for bit (property-tested in ``tests/sim/test_fast_equivalence.py``
against a balancer pinned to the reference sweep). Candidate tasks and
their loads come straight from :class:`~repro.tasks.TaskSystem`'s
per-node load-ordered index (:meth:`~repro.tasks.TaskSystem.largest_loads_at`).
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Callable, Optional

import numpy as np

from repro.core.arbiter import GreedyArbiter, StochasticArbiter
from repro.core.config import PPLBConfig
from repro.core.energy import MotionState, hop_heat_energy, hop_height_drop
from repro.core.friction import FrictionModel
from repro.core.surface import NeighborCache, corrected_slopes_flat
from repro.interfaces import BalanceContext, Balancer, Migration
from repro.tasks.resources import ResourceMap
from repro.tasks.task import TaskSystem
from repro.tasks.task_graph import TaskGraph


#: Uniform draws a step takes from its RNG at once (see :class:`_StepState`).
_DRAW_BLOCK = 1024


def _jitter_factor(level: float, u: float) -> float:
    """Friction jitter factor ``1 + level·(2u − 1)``, floored at 0."""
    return max(1.0 + level * (2.0 * u - 1.0), 0.0)


def _doubles(a) -> array:
    """A typed copy of float vector *a* whose reads are plain floats."""
    return array("d", np.ascontiguousarray(a, dtype=np.float64).tobytes())


class _StepState:
    """Shared working state of one balancing round.

    Bundles the context unpacking plus the round-private surface copy
    and link reservations, so the reference Phase-B sweep and the
    screened one drive the *same* decision bodies. ``on_change`` is the
    screened Phase B's re-queue hook — called after every initiation
    with its source node; None everywhere else.

    The round starts on the context's NumPy arrays. Right before the
    first decision body runs, :meth:`unbox` copies the surface ``h``,
    the link costs ``e`` and ``inv_s`` into ``array('d')`` vectors and
    the fault mask into ``free``, a ``bytearray`` that also carries the
    round's link reservations (1 while a link is up and unreserved).
    The decision bodies read single links and nodes, where these give
    plain Python floats and ints instead of boxed NumPy scalars; each
    copy is one memcpy. A round that decides nothing — no particle in
    flight, no node past the screen — never makes them.

    Every uniform draw of the step — the arbiter's trials and the
    friction jitter — comes from one block, ``draws``: :meth:`take`
    hands out the offset of the next *m* unread values. The first take
    saves the RNG's state and draws :data:`_DRAW_BLOCK` values (or *m*,
    if more) in one call; a take that finds too few left refills it.
    :meth:`rewind` — at every refill and at every step exit, raised or
    not — restores the saved state and redraws only the values taken,
    so the stream ends exactly where one ``rng.random(m)`` call per use
    leaves it, for any BitGenerator (NumPy's uniform fill of ``a`` and
    then ``b`` values equals one fill of ``a + b``). A step that takes
    nothing never touches the RNG.

    ``mu_k`` and ``mu_pair`` are :attr:`FrictionModel.uniform
    <repro.core.friction.FrictionModel.uniform>` friction as step
    constants (None when friction depends on the task or node);
    ``jitter`` is the step's friction-jitter level, None without jitter;
    ``one_minus_b`` is the arbiter's ``1 − β(t)``, set at the first
    stochastic choice.
    """

    __slots__ = (
        "system", "topo", "cache", "friction", "e", "up", "rng",
        "t", "h", "inv_s", "free", "migrations", "on_change", "probe",
        "mu_k", "mu_pair", "jitter", "one_minus_b",
        "draws", "_n_draws", "_used", "_saved",
    )

    def __init__(self, ctx: BalanceContext, cache, friction, inv_s: np.ndarray):
        self.system = ctx.system
        self.topo = ctx.topology
        self.cache = cache
        self.friction = friction
        self.e = ctx.link_costs
        self.up = ctx.up_mask
        self.rng = ctx.rng
        self.t = ctx.round_index
        self.inv_s = inv_s
        # Private working copy of the surface. With engine-supplied node
        # speeds (and speed_aware on) the surface is the *effective* load
        # h_i/s_i, making the equilibrium capacity-proportional; the
        # homogeneous case reduces to inv_s = 1 exactly.
        self.h = np.array(ctx.system.node_loads) * inv_s
        self.free: Optional[bytearray] = None  # set by unbox()
        self.migrations: list[Migration] = []
        self.on_change: Optional[Callable[[int], None]] = None
        # The engine's telemetry sink, or None when disabled — decision
        # bodies gate every counter emission on `s.probe is not None`,
        # so the default (null-probe) hot path pays one None check.
        probe = ctx.probe
        self.probe = probe if probe is not None and probe.enabled else None
        if friction.uniform:
            mu_s, mu_k, self.mu_k = friction.uniform_values()
            self.mu_pair = (mu_s, mu_k)
        else:
            self.mu_k = self.mu_pair = None
        self.jitter: Optional[float] = None
        self.one_minus_b: Optional[float] = None
        self.draws = array("d")
        self._n_draws = 0
        self._used = 0
        self._saved = None

    def take(self, m: int) -> int:
        """Offset in ``draws`` of the step's next *m* uniform draws.

        Read ``draws`` only after the call: a refill replaces it.
        """
        used = self._used
        if used + m > self._n_draws:
            self.rewind()
            rng = self.rng
            self._saved = rng.bit_generator.state
            n = max(_DRAW_BLOCK, m)
            self.draws = array("d", rng.random(n).tobytes())
            self._n_draws = n
            used = 0
        self._used = used + m
        return used

    def rewind(self) -> None:
        """Leave the RNG as if only the draws taken had been drawn."""
        if self._saved is not None:
            if self._used != self._n_draws:
                self.rng.bit_generator.state = self._saved
                self.rng.random(self._used)
            self._saved = None
            self._n_draws = self._used = 0

    def unbox(self) -> None:
        """Switch the decision inputs to plain-Python vectors (once)."""
        if self.free is None:
            self.h = _doubles(self.h)
            self.e = _doubles(self.e)
            self.inv_s = _doubles(self.inv_s)
            self.free = bytearray(np.ascontiguousarray(self.up, dtype=bool))

    def screen_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(h, inv_s, e, free)`` as arrays for the Phase-B screen.

        Before any decision these are the round's own arrays (no link
        is reserved yet, so *free* is the fault mask); afterwards they
        are zero-copy views of the unboxed vectors.
        """
        if self.free is None:
            return self.h, self.inv_s, self.e, self.up
        return (
            np.frombuffer(self.h),
            np.frombuffer(self.inv_s),
            np.frombuffer(self.e),
            np.frombuffer(self.free, dtype=bool),
        )


class ParticlePlaneBalancer(Balancer):
    """The paper's algorithm. See module docstring for the round structure.

    Parameters
    ----------
    config:
        Model constants; defaults to :class:`PPLBConfig`'s defaults.
    task_graph, resources:
        Optional ``T``/``R`` structures feeding the friction model. When
        omitted here they are taken from the engine's context (so one
        balancer instance can serve any scenario).
    participation:
        Optional per-node participation levels ``p_i ∈ (0, 1]`` (Table 1:
        "degree of participation of a node in the load balancing");
        divides into µs at the node, so low-participation nodes resist
        giving up their tasks.

    Attributes
    ----------
    stats:
        Cumulative counters: journeys initiated, settled, hops taken,
        and heat dissipated (reset by :meth:`reset`).
    """

    name = "pplb"

    def __init__(
        self,
        config: Optional[PPLBConfig] = None,
        task_graph: Optional[TaskGraph] = None,
        resources: Optional[ResourceMap] = None,
        participation=None,
    ):
        self.config = config if config is not None else PPLBConfig()
        self._own_task_graph = task_graph
        self._own_resources = resources
        self._participation = participation
        if self.config.beta0 == 0.0:
            self.arbiter: StochasticArbiter = GreedyArbiter()
        else:
            self.arbiter = StochasticArbiter.from_config(self.config)
        # Telemetry bookkeeping: greedy arbiters draw no RNG per choice.
        self._greedy_arbiter = isinstance(self.arbiter, GreedyArbiter)
        self._motion: dict[int, MotionState] = {}
        self._inv_s_ones: Optional[np.ndarray] = None
        self._cache: Optional[NeighborCache] = None
        self._friction: Optional[FrictionModel] = None
        self.stats: dict[str, float] = {}
        self._reset_stats()

    def _reset_stats(self) -> None:
        self.stats = {"initiated": 0, "settled": 0, "hops": 0, "heat": 0.0}

    # ------------------------------------------------------------------ #

    def reset(self, ctx: BalanceContext) -> None:
        """Bind to the context's topology and clear all journey state."""
        self._motion.clear()
        self._cache = NeighborCache(ctx.topology)
        tg = self._own_task_graph if self._own_task_graph is not None else ctx.task_graph
        rm = self._own_resources if self._own_resources is not None else ctx.resources
        self._friction = FrictionModel(self.config, tg, rm, self._participation)
        self._reset_stats()

    def idle(self) -> bool:
        """True when no particle is in flight."""
        return not self._motion

    @property
    def in_flight(self) -> int:
        """Number of tasks currently journeying."""
        return len(self._motion)

    # ------------------------------------------------------------------ #

    def step(self, ctx: BalanceContext) -> list[Migration]:
        """Plan one round of migrations (Phase A then Phase B).

        Phase A is one id-ordered loop. Phase B visits only the nodes
        its screen admits when :attr:`screen_sound`, and every node
        otherwise (counted as ``balancer.reference_sweeps``); the
        trajectory is the same either way (see module docstring).
        """
        if self._cache is None or self._cache.topology is not ctx.topology:
            self.reset(ctx)
        s = _StepState(ctx, self._cache, self._friction, self.inverse_speeds(ctx))
        if self.config.friction_jitter != 0.0:
            s.jitter = self._jitter_level(s.t)
        probe = s.probe
        if probe is not None:
            initiated0 = self.stats["initiated"]
            settled0 = self.stats["settled"]
            hops0 = self.stats["hops"]

        try:
            self._phase_a(s)
            if self.screen_sound:
                self._phase_b_fast(s)
            else:
                if probe is not None:
                    probe.incr("balancer.reference_sweeps")
                self._phase_b_scalar(s)
        finally:
            s.rewind()
        if probe is not None:
            probe.incr(
                "balancer.initiated", int(self.stats["initiated"] - initiated0)
            )
            probe.incr("balancer.settled", int(self.stats["settled"] - settled0))
            probe.incr("balancer.hops", int(self.stats["hops"] - hops0))
        return s.migrations

    @property
    def screen_sound(self) -> bool:
        """True when the Phase-B screen may elide work for this config.

        The screen skips only visits that change nothing *and* draw no
        RNG. Friction jitter draws RNG per evaluated candidate, so a
        jittered config must visit every node (the reference sweep).
        """
        return self.config.friction_jitter == 0.0

    def inverse_speeds(self, ctx: BalanceContext) -> np.ndarray:
        """``1/s_i`` per node: the effective-surface divisor of a round.

        With engine-supplied speeds and ``speed_aware`` on, the surface
        is ``h_i/s_i``; otherwise every entry is exactly 1. Read-only in
        every decision body, so one shared ones-array serves all rounds
        of the homogeneous case.
        """
        if self.config.speed_aware and ctx.node_speeds is not None:
            return 1.0 / np.asarray(ctx.node_speeds, dtype=np.float64)
        inv_s = self._inv_s_ones
        if inv_s is None or inv_s.shape[0] != ctx.topology.n_nodes:
            inv_s = self._inv_s_ones = np.ones(ctx.topology.n_nodes)
        return inv_s

    def _candidate_floor(self, system) -> np.ndarray:
        """The screen's per-node floor load (see :meth:`initiation_screen`)."""
        return system.candidate_floor(self.config.candidates_per_node)

    # ----------------------------- phases ----------------------------- #

    def _phase_a(self, s: _StepState) -> None:
        """Phase A: every in-flight particle, in id order."""
        motion = self._motion
        if not motion:
            return
        max_hops = self.config.max_hops
        tids = sorted(motion)
        # Placements do not change inside a step: read them all at once.
        for tid, placement in zip(tids, s.system.placements_of(tids)):
            if placement is None:
                del motion[tid]
                continue
            if placement[0] == TaskSystem.TRANSIT:
                continue  # still on the wire; decides after landing
            st = motion[tid]
            if max_hops is not None and st.hops >= max_hops:
                self._settle(tid)
                continue
            if s.free is None:
                s.unbox()
            self._phase_a_decide(s, tid, st, *placement)

    def _phase_b_scalar(self, s: _StepState) -> None:
        """Phase B reference loop: every node, in descending height order."""
        s.unbox()
        h = s.h
        for i in np.argsort(-np.frombuffer(h), kind="stable").tolist():
            if h[i] <= 0.0:
                break  # descending order: nothing left to shed anywhere
            self._phase_b_node(s, i)

    # ------------------------ decision bodies ------------------------- #
    # One body per phase, shared verbatim by the reference loops and the
    # screened Phase-B sweep — the single place the paper's §5.1 rules
    # live, so the two paths cannot drift.

    def _choose(self, s: _StepState, scores: list) -> int:
        """Arbiter choice on the step's draw block.

        The pick of ``arbiter.choose(scores, t, rng)``, with the same
        draws: a stochastic arbiter's trials read the *m* values the
        step block hands out, with ``1 − β(t)`` computed once per step.
        Counts the choice (and, for stochastic arbiters, the RNG values
        it consumes — one per score) first; the probe never sees the
        scores, so it cannot influence the decision.
        """
        if s.probe is not None:
            s.probe.incr("balancer.arbiter_choices")
            if not self._greedy_arbiter:
                s.probe.incr("balancer.rng_draws", len(scores))
        if self._greedy_arbiter:
            return self.arbiter.choose(scores, s.t, s.rng)
        off = s.take(len(scores))
        one_minus_b = s.one_minus_b
        if one_minus_b is None:
            one_minus_b = s.one_minus_b = 1.0 - self.arbiter.beta(s.t)
        return self.arbiter._pick(scores, one_minus_b, s.draws, off)

    def _mu_k(self, s: _StepState, tid: int, node: int) -> float:
        """Phase A's kinetic friction of *tid* at *node*, jitter included."""
        mu_k = s.mu_k
        if mu_k is None:
            mu_k = s.friction.mu_k(s.system, s.topo, tid, node)
        if s.jitter is not None:
            mu_k *= self._step_jitter(s)
        return mu_k

    def _mu_pair(self, s: _StepState, tid: int, node: int) -> tuple[float, float]:
        """Phase B's ``(µs, µk)`` of *tid* at *node*, jitter included."""
        pair = s.mu_pair
        if pair is None:
            pair = s.friction.both(s.system, s.topo, tid, node)
        if s.jitter is None:
            return pair
        jit = self._step_jitter(s)
        return pair[0] * jit, pair[1] * jit

    def _phase_a_decide(
        self, s: _StepState, tid: int, st: MotionState, cur: int, load: float
    ) -> None:
        """One in-flight particle's §5.1 energy decision: hop or settle.

        Each hop score is ``(h* − (c0·µk)·e_ij) − h_j``, evaluated in
        that order; the arbiter sees the feasible hops in neighbor order
        (plus the settle option under ``"arbiter-settle"``).
        """
        if s.probe is not None:
            s.probe.incr("balancer.phase_a_decisions")
        cfg = self.config
        h = s.h
        js_l = s.cache.nbrs_l[cur]
        eids_l = s.cache.eids_l[cur]
        mu_k = self._mu_k(s, tid, cur)
        cmu = cfg.c0 * mu_k
        e = s.e
        free = s.free
        hstar = st.hstar
        cand: list[tuple[int, int, float]] = []
        scores_l = []
        for j, eid in zip(js_l, eids_l):
            d = cmu * e[eid]
            score = (hstar - d) - h[j]
            if score > 0.0 and free[eid]:
                cand.append((j, eid, d))
                scores_l.append(score)
        if not cand:
            self._settle(tid)
            return
        if cfg.motion_rule == "arbiter-settle":
            scores_l.append(hstar - (h[cur] - load * s.inv_s[cur]))
            pick = self._choose(s, scores_l)
            if pick == len(cand):
                self._settle(tid)
                return
        else:  # "energy-only": the paper's literal rule
            pick = self._choose(s, scores_l)
        j, eid, drop = cand[pick]
        self._finish_hop(s, tid, st, cur, load, j, eid, drop)

    def _finish_hop(
        self,
        s: _StepState,
        tid: int,
        st: MotionState,
        cur: int,
        load: float,
        j: int,
        eid: int,
        drop: float,
    ) -> None:
        """Apply a chosen Phase-A hop: record, reserve, update surface."""
        h = s.h
        heat = hop_heat_energy(self.config.g, load, drop)
        st.record_hop(drop, heat, cur)
        s.migrations.append(Migration(tid, cur, j, heat))
        s.free[eid] = 0
        h[cur] -= load * s.inv_s[cur]
        h[j] += load * s.inv_s[j]
        self.stats["hops"] += 1
        self.stats["heat"] += heat

    def _phase_b_node(self, s: _StepState, i: int) -> None:
        """One node's §5.1 initiation scan over its candidate tasks."""
        if s.probe is not None:
            s.probe.incr("balancer.phase_b_nodes")
        cfg = self.config
        system = s.system
        h = s.h
        inv_s = s.inv_s
        e = s.e
        max_dep = (
            cfg.max_departures_per_node
            if cfg.max_departures_per_node is not None
            else math.inf
        )
        free = s.free
        js_l = s.cache.nbrs_l[i]
        eids_l = s.cache.eids_l[i]
        uncorrected = cfg.arbiter_score != "corrected"
        motion = self._motion
        departures = 0
        links = None  # the node's free (neighbor, link) pairs, until a departure
        for tid, load in system.largest_loads_at(i, cfg.candidates_per_node):
            if tid in motion:
                continue
            if links is None:
                links = [(jj, eid) for jj, eid in zip(js_l, eids_l) if free[eid]]
            if not links:
                break  # no free links left at this node
            mu_s, mu_k = self._mu_pair(s, tid, i)
            hi = h[i]
            isi = inv_s[i]
            cand: list[tuple[int, int]] = []
            scores_l = []
            for jj, eid in links:
                # (h_i − h_j − 2l)/e generalised to effective heights:
                # moving l lowers h_i by l/s_i and raises h_j by l/s_j.
                t_k = ((hi - h[jj]) - load * (isi + inv_s[jj])) / e[eid]
                if t_k > mu_s:
                    cand.append((jj, eid))
                    if uncorrected:
                        scores_l.append((hi - h[jj]) / e[eid])
                    else:
                        scores_l.append(t_k)
            if not cand:
                continue
            pick = self._choose(s, scores_l)
            j, eid = cand[pick]
            drop = hop_height_drop(cfg.c0, mu_k, e[eid])
            heat = hop_heat_energy(cfg.g, load, drop)
            st = MotionState(
                hstar=h[i] - drop,
                origin=i,
                released_at=s.t,
                hops=1,
                heat=heat,
                prev_node=i,
            )
            motion[tid] = st
            s.migrations.append(Migration(tid, i, j, heat))
            free[eid] = 0
            links = None
            h[i] -= load * inv_s[i]
            h[j] += load * inv_s[j]
            self.stats["initiated"] += 1
            self.stats["hops"] += 1
            self.stats["heat"] += heat
            if s.on_change is not None:
                s.on_change(i)
            departures += 1
            if departures >= max_dep:
                break

    # ------------------------ screened Phase B ------------------------ #

    def initiation_screen(
        self, floor: np.ndarray, h: np.ndarray, inv_s: np.ndarray,
        e: np.ndarray, free: np.ndarray,
    ) -> np.ndarray:
        """The Phase-B screen: which (node, neighbor) pairs may initiate.

        Returns a mask over the bound topology's flat CSR slots. *floor*
        is ``system.candidate_floor(candidates_per_node)``. The screen's
        rule: node *i* may initiate only if some *free* (up, unreserved)
        link clears

            ((h_i − h_j) − floor_i·(1/s_i + 1/s_j))/e_ij  >  mu_s_base

        (operations in that order). A real candidate clears
        ``(h_i − h_j − l·(1/s_i + 1/s_j))/e_ij > µs`` instead; the slope
        is monotone decreasing in the moved load ``l ≥ floor_i`` and
        ``µs ≥ mu_s_base`` always (dependency/resource terms are
        non-negative, participation only scales up), so the rule is a
        sound over-approximation, in floating point too (every step of
        the expression is weakly monotone). An all-False mask on an
        idle balancer therefore proves the step returns no orders,
        changes no state and draws no RNG. :meth:`_may_initiate` applies
        the same rule to one node.
        """
        cache = self._cache
        ok = free[cache.flat_eids]
        ok &= corrected_slopes_flat(h, floor, inv_s, e, cache) > self.config.mu_s_base
        return ok

    def _may_initiate(self, s: _StepState, i: int, floor_i: float) -> bool:
        """:meth:`initiation_screen`'s rule for node *i* alone, right now.

        Reads the current private surface and reservations, so it may
        be asked again at any point of the sweep; placements do not
        change inside a step, so the step's candidate floor stays valid.
        """
        h = s.h
        inv_s = s.inv_s
        e = s.e
        free = s.free
        hi = h[i]
        isi = inv_s[i]
        mu = self.config.mu_s_base
        for j, eid in zip(s.cache.nbrs_l[i], s.cache.eids_l[i]):
            if free[eid]:
                if ((hi - h[j]) - floor_i * (isi + inv_s[j])) / e[eid] > mu:
                    return True
        return False

    def _phase_b_fast(self, s: _StepState) -> None:
        """Phase B restricted to nodes that can possibly act.

        Only nodes admitted by :meth:`initiation_screen` are queued;
        screened-out nodes are exactly the nodes the scalar sweep would
        visit without effect or RNG use. An initiation from *u* to its
        neighbor *v* can enable *v* (its surface rose) and the other
        neighbors of *u* (a neighbor's surface fell), so the neighbors
        of *u* later in the height order are re-queued through a
        position heap. No other node can gain: the rule at a neighbor
        of *v* alone only sees ``h_v`` rise, the reserved link joins *u*
        and *v*, and every step of the rule is weakly monotone, so such
        a node fails the rule now if it failed before. Nodes that
        were empty at the sort but received load mid-phase are handled
        by walking the zero-height tail in order, as the scalar loop
        does.

        Every node the sweep reaches — static pick, re-queue or tail —
        is re-screened with :meth:`_may_initiate` just before its visit,
        against the surface and reservations of that moment: earlier
        decisions of the sweep mostly *lower* a node's chances (a
        departure drops ``h_i``, an arrival raises ``h_j``, a reserved
        link is gone), and a node that fails the rule now is a visit
        the scalar sweep makes with no effect and no RNG draw.

        When the screen admits *no* node at all the phase exits before
        even sorting: with zero decisions the surface cannot change, so
        the re-queue heap and the zero-height tail are provably empty
        too (a screened node needs ``h_i > 0``, hence the tail's first
        node would break immediately). This makes a fully balanced wave
        — the steady-state common case in the event engine — one array
        expression, which is where the ``events`` throughput floor
        comes from.
        """
        topo = s.topo
        cache = s.cache
        n = topo.n_nodes
        probe = s.probe
        if topo.n_edges == 0:
            return  # no links: no initiation anywhere, no surface change
        if probe is not None:
            probe.incr("screen.waves")
        floor = self._candidate_floor(s.system)
        h_a, inv_s, e, free = s.screen_inputs()
        ok = self.initiation_screen(floor, h_a, inv_s, e, free)
        if not ok.any():
            if probe is not None:
                probe.incr("screen.waves_skipped")
            return  # every wake this wave is a no-effect, no-RNG visit
        node_order = np.argsort(-h_a, kind="stable")
        n_pos = int(np.count_nonzero(h_a > 0.0))
        screened = np.zeros(n, dtype=bool)
        screened[cache.flat_rows[ok]] = True
        static_rs = np.nonzero(screened[node_order[:n_pos]])[0]
        if probe is not None:
            # The screen-effectiveness signal: how many loaded nodes the
            # scalar sweep would have visited that the screen elided.
            probe.incr("screen.nodes_admitted", int(static_rs.shape[0]))
            probe.incr(
                "screen.nodes_screened_out", n_pos - int(static_rs.shape[0])
            )

        s.unbox()
        h = s.h
        # Memoryviews read plain floats and ints and copy nothing.
        floor_l = memoryview(floor)
        pos_of = np.empty(n, dtype=np.int64)
        pos_of[node_order] = np.arange(n)
        pos_l = memoryview(pos_of)
        nbrs_l = cache.nbrs_l
        processed = bytearray(n)
        queued = bytearray(n)
        heap: list[int] = []
        cur_r = -1

        def on_change(u: int) -> None:
            for x in nbrs_l[u]:
                r = pos_l[x]
                if cur_r < r < n_pos and not queued[x] and not processed[x]:
                    queued[x] = True
                    heapq.heappush(heap, r)

        s.on_change = on_change
        try:
            static_l = static_rs.tolist()
            order_l = memoryview(node_order)
            si = 0
            n_static = len(static_l)
            while si < n_static or heap:
                if si < n_static and (not heap or static_l[si] <= heap[0]):
                    r = static_l[si]
                    si += 1
                else:
                    r = heapq.heappop(heap)
                i = order_l[r]
                if processed[i]:
                    continue
                processed[i] = True
                cur_r = r
                if self._may_initiate(s, i, floor_l[i]):
                    self._phase_b_node(s, i)
            # Zero-height tail: the scalar sweep keeps going past the
            # last initially-loaded node and stops at the first node
            # still empty *now* — nodes this phase already poured load
            # into do get their turn.
            cur_r = n
            for i in order_l[n_pos:]:
                if h[i] <= 0.0:
                    break
                if self._may_initiate(s, i, floor_l[i]):
                    self._phase_b_node(s, i)
        finally:
            s.on_change = None

    # ------------------------------------------------------------------ #

    def _jitter(self, t: int, rng: np.random.Generator, probe=None) -> float:
        """§5.2 friction fuzziness: ``1 + jitter(t)·U(−1,1)``, floor 0.

        One factor per friction evaluation; µs and µk share it within a
        decision (preserving µk ∝ µs), and the level anneals on the same
        ``exp(−c·t/t_max)`` clock as the arbiter. A non-None *probe*
        counts the uniform draw (jitter is the one friction input that
        consumes RNG — the reason jittered configs skip the screen).
        This form draws straight from *rng*; a step draws the same
        factor from its block (:meth:`_step_jitter`).
        """
        if self.config.friction_jitter == 0.0:
            return 1.0
        if probe is not None:
            probe.incr("balancer.rng_draws")
        return _jitter_factor(self._jitter_level(t), float(rng.random()))

    def _jitter_level(self, t: int) -> float:
        cfg = self.config
        return cfg.friction_jitter * math.exp(-cfg.anneal_c * t / cfg.t_max)

    def _step_jitter(self, s: _StepState) -> float:
        """:meth:`_jitter` at the step's level, drawn from its block."""
        if s.probe is not None:
            s.probe.incr("balancer.rng_draws")
        off = s.take(1)
        return _jitter_factor(s.jitter, s.draws[off])

    def _settle(self, tid: int) -> None:
        del self._motion[tid]
        self.stats["settled"] += 1

    def journey_of(self, tid: int) -> Optional[MotionState]:
        """Motion state of task *tid*, or None when it is stationary."""
        return self._motion.get(tid)
