"""Replicate-batched simulation behind ``run_grid(..., batch_replicates=N)``.

:class:`BatchSimulator` runs S independent replicates of one scenario —
same topology, same algorithm config, different seeds — through the
``rounds-fast`` protocol *together*, amortising the per-round Python and
small-array NumPy overhead across the replicate axis:

* the Phase-B initiation screen of every replicate is evaluated as one
  stacked ``(S, flat)`` array expression over the shared CSR adjacency
  (built once, from the one :class:`~repro.network.topology.Topology`
  object all replicates share),
* the Phase-A hop scores of every replicate's particle wave are gathered
  in one concatenated cross-replicate CSR expression,
* replicates whose screen comes back empty while no particle is in
  flight skip their balancer step entirely (the steady-state common
  case: the screen emptiness *proves* the step would have returned no
  orders, touched no state and drawn no RNG).

The batched precompute reaches each balancer as
:class:`~repro.core.balancer.BatchHints` on ``ctx.batch``; the balancer
validates and consumes it inside its existing fast path. Every hinted
array is produced by the same IEEE-754 operations in the same order as
the solo fast path (row-wise elementwise operations on stacked arrays
are bitwise equal to the 1-D operations on each row), so each
replicate's records, final loads and terminal RNG state are **bit
identical** to a solo :class:`~repro.sim.engine.FastSimulator` run of
that seed — property-tested in ``tests/sim/test_batch_equivalence.py``.

Replicates converge independently: a replicate whose convergence check
fires simply drops out of the batch (active mask); the rest keep going.
Replicates the batch cannot precompute for — friction-jittered configs
(which draw RNG per evaluated candidate) or non-PPLB balancers — still
ride along in the same round loop, just without hints, exactly as the
solo fast path would run them.

Telemetry (per enabled probe, once per run): ``batch.replicates`` (batch
width S), ``batch.fill_ratio`` (mean fraction of replicates still
active per joint round), ``batch.fallbacks`` (replicates that ran
without cross-replicate precompute).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.balancer import _SMALL_WAVE, BatchHints, ParticlePlaneBalancer
from repro.core.surface import NeighborCache
from repro.exceptions import ConfigurationError
from repro.sim.engine import FastSimulator
from repro.sim.kernel import RoundStats
from repro.sim.results import SimulationResult

__all__ = ["BatchSimulator"]

#: sentinel hint value marking a replicate whose step is provably a
#: no-op this round (balancer idle + empty screen) and is skipped.
_SKIP = object()


class BatchSimulator:
    """Run S :class:`~repro.sim.engine.FastSimulator` replicates in
    lock-step, with cross-replicate precompute (see module docstring).

    Parameters
    ----------
    sims:
        The replicate simulators. All must be
        :class:`~repro.sim.engine.FastSimulator` instances sharing one
        :class:`~repro.network.topology.Topology` *object* (the batch
        reuses its CSR adjacency once for every stacked expression).
        Each keeps its own task system, RNG, links, faults and churn —
        the batch never mixes replicate state, only their screens.
    """

    def __init__(self, sims: Sequence[FastSimulator]):
        if not sims:
            raise ConfigurationError("BatchSimulator needs at least one replicate")
        for sim in sims:
            if not isinstance(sim, FastSimulator):
                raise ConfigurationError(
                    "BatchSimulator replicates must be FastSimulator instances "
                    f"(the rounds-fast engine), got {type(sim).__name__}"
                )
            if sim.topology is not sims[0].topology:
                raise ConfigurationError(
                    "BatchSimulator replicates must share one Topology object"
                )
        self.sims = list(sims)
        self.topology = sims[0].topology
        # Zero-copy views over topology.csr — the same arrays every
        # replicate's balancer NeighborCache exposes.
        self._cache = NeighborCache(self.topology)
        # Homogeneous replicates all use inv_s = 1 exactly, so one
        # shared ones-array serves every stacked row.
        self._ones = np.ones(self.topology.n_nodes)
        # A replicate is hintable when its balancer has the vectorised
        # fast path at all: PPLB without friction jitter (jitter draws
        # RNG per evaluated candidate, which no screen may elide).
        self._hintable = [
            isinstance(sim.balancer, ParticlePlaneBalancer)
            and sim.balancer.config.friction_jitter == 0.0
            for sim in self.sims
        ]
        # Round-invariant pieces of the stacked Phase-B screen, gathered
        # once per run: inv_s, the candidate-pair speed sum
        # ``inv_s[i] + inv_s[j]`` and the link-cost divisor ``e[eid]``
        # are all constant across rounds, so the per-round expression
        # touches only the load surface, the floors and the up mask.
        n_rep = len(self.sims)
        n = self.topology.n_nodes
        cache = self._cache
        flat = cache.flat_eids.shape[0]
        self._inv: list = [None] * n_rep
        self._mu_all = np.zeros(n_rep)
        self._sinv_all = np.zeros((n_rep, flat))
        self._eg_all = np.zeros((n_rep, flat))
        for i, sim in enumerate(self.sims):
            if not self._hintable[i]:
                continue
            cfg = sim.balancer.config
            if cfg.speed_aware and sim.node_speeds is not None:
                inv_s = 1.0 / np.asarray(sim.node_speeds, dtype=np.float64)
            else:
                inv_s = self._ones
            self._inv[i] = inv_s
            self._mu_all[i] = cfg.mu_s_base
            self._sinv_all[i] = inv_s[cache.flat_rows] + inv_s[cache.flat_nbrs]
            self._eg_all[i] = sim.link_costs[cache.flat_eids]
        # With no fault process anywhere the up mask is all-True every
        # round and ``up & ok`` reduces to ``ok`` — skip the gather.
        self._faultless = all(sim.fault_model is None for sim in self.sims)
        self._probe_on = [sim.probe.enabled for sim in self.sims]
        # Steady lanes: once a lane with no churn, no fault process and
        # an empty wire skips a round, no source of mutation remains —
        # every later round is the same skip over the same frozen
        # surface, so both the screen and the imbalance summary are
        # cached until the run ends (reset per run()).
        self._steady = [False] * n_rep
        self._summ_cache: list = [None] * n_rep
        # Per-round scratch (rows are filled for the active subset).
        self._h_buf = np.empty((n_rep, n))
        self._fl_buf = np.empty((n_rep, n))
        self._ol_buf = np.empty((n_rep, n))
        self._upg_buf = np.empty((n_rep, flat), dtype=bool)

    # ------------------------------------------------------------------ #

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
        self._steady = [False] * n_rep
        self._summ_cache = [None] * n_rep
        fill_sum = 0.0
        rounds = 0

        while active:
            rounds += 1
            fill_sum += len(active) / n_rep
            ups = {l: sims[l].round_begin(states[l].r) for l in active}
            hints = self._prepare_round(active, ups)
            stats_by: list[RoundStats] = []
            for l in active:
                sim = sims[l]
                hint = hints.get(l)
                if hint is _SKIP:
                    # Idle balancer + empty screen: the step provably
                    # returns no orders, mutates nothing and draws no
                    # RNG (see _prepare_round), so the round reduces to
                    # the stats play_round would have produced.
                    stats = RoundStats(n_tasks=sim.system.n_tasks)
                else:
                    up = ups[l]
                    ctx = sim._context(states[l].r, up)
                    ctx.batch = hint
                    migrations = sim.balancer.step(ctx)
                    stats = sim.round_apply(migrations, up, states[l].r)
                stats_by.append(stats)
            # Observe every replicate off one stacked reduction (the
            # rounds are already played, so the surfaces are final).
            summs = self._stacked_summaries(active)
            for pos, l in enumerate(active):
                sims[l]._loop.observe_round(
                    states[l],
                    stats_by[pos],
                    summ=None if summs is None else summs[pos],
                )
            active = [l for l in active if not states[l].done]

        fill = fill_sum / rounds if rounds else 1.0
        fallbacks = n_rep - sum(self._hintable)
        for sim in sims:
            if sim.probe.enabled:
                sim.probe.incr("batch.replicates", n_rep)
                sim.probe.incr("batch.fill_ratio", round(fill, 4))
                sim.probe.incr("batch.fallbacks", fallbacks)
        return [sims[l]._loop.end(states[l]) for l in range(n_rep)]

    # ------------------------------------------------------------------ #

    def _stacked_summaries(self, active: list[int]) -> list[dict] | None:
        """This round's :func:`imbalance_summary` for every active
        replicate, from one stacked row-wise reduction.

        Row-wise ``mean``/``max``/``min``/``std`` over the last axis of
        a C-contiguous ``(L, n)`` array are bitwise equal to the 1-D
        reductions on each row (same pairwise-summation tree), and the
        derived scalars below repeat :func:`imbalance_summary`'s exact
        IEEE-754 operations — property-tested against the scalar path
        in the batch equivalence suite. Returns None (scalar fallback)
        when validation would reject a surface, so the per-replicate
        call raises the identical error.
        """
        sims = self.sims
        cached = self._summ_cache
        fresh = [l for l in active if cached[l] is None]
        computed: dict = {}
        if fresh:
            OL = self._ol_buf[: len(fresh)]
            for row, l in enumerate(fresh):
                OL[row] = sims[l].observed_loads()
            if (OL < -1e-9).any():
                return None
            mean_a = OL.mean(axis=1)
            max_a = OL.max(axis=1)
            min_a = OL.min(axis=1)
            std_a = OL.std(axis=1)
            for row, l in enumerate(fresh):
                mean = float(mean_a[row])
                mx = float(max_a[row])
                mn = float(min_a[row])
                std = float(std_a[row])
                computed[l] = {
                    "mean": mean,
                    "max": mx,
                    "min": mn,
                    "std": std,
                    "cov": std / mean if mean > 0 else 0.0,
                    "spread": mx - mn,
                    "normalized_spread": (mx - mn) / mean if mean > 0 else 0.0,
                }
                if self._steady[l]:
                    # Frozen surface (see _prepare_round): every later
                    # round observes these exact values.
                    cached[l] = computed[l]
        return [cached[l] if cached[l] is not None else computed[l] for l in active]

    def _prepare_round(self, active: list[int], ups: dict) -> dict:
        """Stacked screens for this round's hintable replicates.

        Returns ``{replicate: BatchHints | _SKIP}``; replicates absent
        from the mapping run the round unhinted.
        """
        sims = self.sims
        # Stacked Phase-B screens are built only for *idle* replicates
        # (no particle in flight): there Phase A provably appends no
        # migration, so the pre-step screen is always consumable and the
        # balancer never recomputes it — each screen is evaluated
        # exactly once per replicate-round, engine-side and stacked.
        # Replicates with in-flight particles keep their own screen
        # (Phase-A decisions may invalidate a pre-step one) and instead
        # get the concatenated Phase-A gather when their wave is large.
        hints: dict = {}
        lanes = []
        for l in active:
            if self._steady[l]:
                # Frozen lane (see __init__): the round this flag was
                # set, the screen came back empty with nothing in
                # flight, and no churn/fault/delivery source exists to
                # change any input since — the skip repeats verbatim.
                hints[l] = _SKIP
                continue
            bal = sims[l].balancer
            # The balancer must already be bound to the shared topology:
            # an unbound cache means step() would reset() first, which a
            # skip or a stale hint must never paper over.
            if (
                self._hintable[l]
                and not bal._motion
                and bal._cache is not None
                and bal._cache.topology is self.topology
            ):
                lanes.append(l)
        self._phase_a_hints(active, hints, ups)
        if not lanes:
            return hints

        cache = self._cache
        n_lanes = len(lanes)
        idx = np.fromiter(lanes, np.int64, count=n_lanes)
        H = self._h_buf[:n_lanes]
        FLOOR = self._fl_buf[:n_lanes]
        for row, l in enumerate(lanes):
            sim = sims[l]
            # The exact surface _StepState builds: effective loads when
            # speed-aware, plain loads (inv_s = 1) otherwise.
            np.multiply(sim.system.node_loads, self._inv[l], out=H[row])
            FLOOR[row] = sim.system.candidate_floor(
                sim.balancer.config.candidates_per_node
            )

        # Phase-B screen, all replicates at once — row-wise bitwise
        # equal to corrected_slopes_flat on each replicate's 1-D arrays
        # (same operands, same operation order, elementwise ops only;
        # the pair speed-sum and the e-divisor were gathered in
        # __init__, which only reorders *when* the constant values are
        # produced, not the operations producing the screen).
        rows = cache.flat_rows
        js = cache.flat_nbrs
        opt2d = (
            H[:, rows] - H[:, js] - FLOOR[:, rows] * self._sinv_all[idx]
        ) / self._eg_all[idx]
        okp = opt2d > self._mu_all[idx][:, None]
        if not self._faultless:
            # At Phase-B start of a hinted round no link is reserved yet
            # (`used` all-False), so `up & ~used` reduces to `up`; with
            # no fault process `up` is all-True and drops out entirely.
            eids = cache.flat_eids
            UPG = self._upg_buf[:n_lanes]
            for row, l in enumerate(lanes):
                UPG[row] = ups[l][eids]
            okp &= UPG
        b_any = okp.any(axis=1)

        for row, l in enumerate(lanes):
            if not b_any[row] and not self._probe_on[l]:
                # Nothing in flight and the (sound, over-approximating)
                # screen admits no node: Phase A exits on its empty
                # wave, Phase B on its empty screen — no orders, no
                # state change, no RNG, and (probe disabled) no
                # counters. Skip the step.
                hints[l] = _SKIP
                sim = sims[l]
                if (
                    sim.dynamic is None
                    and sim.fault_model is None
                    and not sim._wire
                ):
                    self._steady[l] = True
            else:
                hints[l] = BatchHints(b_ok=okp[row])
        return hints

    def _phase_a_hints(self, active, hints, ups) -> None:
        """Concatenated cross-replicate Phase-A gather (see module doc).

        Covers the replicates the stacked screen cannot (particles in
        flight) whenever their decision wave is large enough for the
        balancer's own batch path: the gather here is the same
        expression, just concatenated across replicates, and the
        balancer skips its per-replicate copy on consuming it.
        """
        sims = self.sims
        cache = self._cache
        waves = []  # (lane, tids, cur list, hstar list, cmu scalar)
        for l in active:
            if not self._hintable[l]:
                continue
            bal = sims[l].balancer
            cfg = bal.config
            # The decision wave is a subset of the motion set, so a
            # small motion set can never produce a gather-sized wave —
            # skip the prediction loop outright.
            if len(bal._motion) <= _SMALL_WAVE:
                continue
            if bal._cache is None or bal._cache.topology is not self.topology:
                continue
            # µk must be closed-form for a cross-replicate gather (the
            # same cases _batch_mu_k vectorises without per-particle
            # friction calls).
            if cfg.kappa == 0.0:
                mu_k = cfg.mu_k_base
            elif bal._friction is not None and bal._friction.uniform:
                mu_k = cfg.mu_k_base + cfg.kappa * cfg.mu_s_base
            else:
                continue
            system = sims[l].system
            # Predict the decision wave with the exact filters (and
            # order) _phase_a_fast applies — read-only, so the
            # prediction can only diverge on an engine bug, which the
            # balancer's tid validation then catches.
            tids: list[int] = []
            hstars: list[float] = []
            curs: list[int] = []
            for tid in sorted(bal._motion):
                if not system.is_alive(tid):
                    continue
                if system.in_transit(tid):
                    continue
                st = bal._motion[tid]
                if cfg.max_hops is not None and st.hops >= cfg.max_hops:
                    continue
                tids.append(tid)
                hstars.append(st.hstar)
                curs.append(system.location_of(tid))
            if len(tids) <= _SMALL_WAVE:
                continue  # the balancer inline-decides small waves
            waves.append((l, tids, curs, hstars, cfg.c0 * mu_k))
        if not waves:
            return

        n = self.topology.n_nodes
        n_waves = len(waves)
        H = np.empty((n_waves, n))
        UP = np.empty((n_waves, self.topology.n_edges), dtype=bool)
        E = np.empty((n_waves, self.topology.n_edges))
        for row, (l, _, _, _, _) in enumerate(waves):
            sim = sims[l]
            np.multiply(sim.system.node_loads, self._inv[l], out=H[row])
            UP[row] = ups[l]
            E[row] = sim.link_costs

        all_cur = np.concatenate(
            [np.asarray(curs, dtype=np.int64) for _, _, curs, _, _ in waves]
        )
        all_hstar = np.concatenate(
            [np.asarray(hs, dtype=np.float64) for _, _, _, hs, _ in waves]
        )
        # Per-particle c0·µk, already multiplied per replicate so mixed
        # configs stay exact (np.full ○ scalar-multiply commute
        # bitwise with the balancer's `cfg.c0 * mu_k` array product).
        all_cmu = np.concatenate(
            [np.full(len(tids), cmu) for _, tids, _, _, cmu in waves]
        )
        lane_rows = np.concatenate(
            [
                np.full(len(tids), row, dtype=np.int64)
                for row, (_, tids, _, _, _) in enumerate(waves)
            ]
        )
        # One CSR gather for every particle of every replicate — the
        # same expression _phase_a_fast runs per replicate.
        starts = cache.indptr[all_cur]
        counts = cache.indptr[all_cur + 1] - starts
        offsets = np.concatenate(([0], np.cumsum(counts)))
        slot = (
            np.arange(offsets[-1], dtype=np.int64)
            - np.repeat(offsets[:-1], counts)
            + np.repeat(starts, counts)
        )
        flat_js = cache.flat_nbrs[slot]
        flat_eids = cache.flat_eids[slot]
        row_rep = np.repeat(lane_rows, counts)
        drops_flat = np.repeat(all_cmu, counts) * E[row_rep, flat_eids]
        hop_flat = np.repeat(all_hstar, counts) - drops_flat - H[row_rep, flat_js]
        feas_flat = UP[row_rep, flat_eids] & (hop_flat > 0.0)

        p0 = 0
        for l, tids, curs, hstars, cmu in waves:
            p1 = p0 + len(tids)
            f0, f1 = offsets[p0], offsets[p1]
            hint = hints[l] = BatchHints()
            hint.a_tids = tuple(tids)
            hint.a_cur = all_cur[p0:p1]
            hint.a_offsets = offsets[p0 : p1 + 1] - f0
            hint.a_flat_js = flat_js[f0:f1]
            hint.a_flat_eids = flat_eids[f0:f1]
            hint.a_drops = drops_flat[f0:f1]
            hint.a_hops = hop_flat[f0:f1]
            hint.a_feas = feas_flat[f0:f1]
            p0 = p1
