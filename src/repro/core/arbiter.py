"""The annealed stochastic arbiter (paper §5.2).

The paper replaces deterministic steepest-link selection with a
stochastic arbiter: link scores ``a_{i,1} ≥ a_{i,2} ≥ … ≥ a_{i,m}`` are
fed to a "probabilistic model of free trials" that "gives the most of the
chance to the links which are the steepest [and] considers some rare
probabilities for choosing the less steep slopes", with "the rigidity of
the correct values increas[ing] over time in an attempt to make the
system converge to an optimal solution".

The printed formulae in the source text are OCR-damaged, so this module
implements a *documented clean reconstruction* that preserves exactly the
three properties the prose states (each is unit-tested):

P1. The steepest candidate always has the (weakly) largest selection
    probability, and probabilities are monotone non-increasing in rank.
P2. While exploring (``β(t) > 0``), every candidate has probability > 0.
P3. Exploration decays over time — ``β(t) = β0 · exp(−c·t/t_max)`` — so
    the selection converges to the deterministic argmax as ``t → ∞``
    (and is exactly greedy for ``β0 = 0``).

Mechanism (sequential free trials, mirroring the paper's "probability of
success for each trial is not fixed"): visit candidates in descending
score order; accept candidate *k* with probability

    q_k = (1 − β(t)) · (floor + (1 − floor) · closeness_k),
    closeness_k = 1 − (a_1 − a_k) / (a_1 − a_m + ε)  ∈ [0, 1],

and fall back to the steepest candidate if every trial rejects. Since
``closeness_1 = 1``, ``q_1 = 1 − β(t)``: the steepest link is taken
immediately with at least that probability, matching the paper's "β0 is
the initial probability of choosing a link other than the steepest one".
Acceptance decays with rank, which makes the resulting choice
distribution monotone (P1); the *floor* keeps the worst candidate
reachable (P2); and ``β(t) → 0`` collapses everything onto the argmax
(P3).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import PPLBConfig
from repro.exceptions import ConfigurationError

_EPS = 1e-12

class StochasticArbiter:
    """Annealed stochastic link chooser (§5.2).

    Parameters
    ----------
    beta0, anneal_c, t_max, floor:
        See :class:`~repro.core.config.PPLBConfig`; :meth:`from_config`
        pulls them from a config object.
    """

    def __init__(
        self,
        beta0: float = 0.25,
        anneal_c: float = 3.0,
        t_max: int = 200,
        floor: float = 0.1,
    ):
        if not 0 <= beta0 < 1:
            raise ConfigurationError(f"beta0 must be in [0, 1), got {beta0}")
        if anneal_c < 0:
            raise ConfigurationError(f"anneal_c must be non-negative, got {anneal_c}")
        if t_max <= 0:
            raise ConfigurationError(f"t_max must be positive, got {t_max}")
        if not 0 < floor <= 1:
            raise ConfigurationError(f"floor must be in (0, 1], got {floor}")
        self.beta0 = beta0
        self.anneal_c = anneal_c
        self.t_max = t_max
        self.floor = floor

    @classmethod
    def from_config(cls, config: PPLBConfig) -> "StochasticArbiter":
        """Build from a :class:`PPLBConfig`."""
        return cls(
            beta0=config.beta0,
            anneal_c=config.anneal_c,
            t_max=config.t_max,
            floor=config.arbiter_floor,
        )

    # ------------------------------------------------------------------ #

    def beta(self, t: float) -> float:
        """Exploration level ``β(t) = β0·exp(−c·t/t_max)`` (P3)."""
        if t < 0:
            raise ConfigurationError(f"time must be non-negative, got {t}")
        return self.beta0 * math.exp(-self.anneal_c * t / self.t_max)

    def acceptance(self, scores: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(descending order, acceptance probabilities per trial).

        *scores* need not be sorted; the returned ``order`` indexes them
        in descending-score order and ``q`` gives the per-trial
        acceptance probability for each rank.
        """
        a = np.asarray(scores, dtype=np.float64)
        if a.ndim != 1 or a.shape[0] == 0:
            raise ConfigurationError(f"scores must be a non-empty 1-D array, got shape {a.shape}")
        order = np.argsort(-a, kind="stable")
        srt = a[order]
        span = srt[0] - srt[-1]
        closeness = 1.0 - (srt[0] - srt) / (span + _EPS)
        b = self.beta(t)
        q = (1.0 - b) * (self.floor + (1.0 - self.floor) * closeness)
        return order, np.clip(q, 0.0, 1.0)

    def probabilities(self, scores: np.ndarray, t: float) -> np.ndarray:
        """Exact selection distribution over the input candidates.

        Closed form of the sequential-trial process (including the
        fall-back-to-best mass); aligned with the *input* order of
        *scores*. Used by the property tests and by analyses; the actual
        selection path is :meth:`choose`.
        """
        order, q = self.acceptance(scores, t)
        m = order.shape[0]
        p_sorted = np.zeros(m)
        survive = 1.0
        for k in range(m):
            p_sorted[k] = survive * q[k]
            survive *= 1.0 - q[k]
        p_sorted[0] += survive  # all trials rejected -> steepest
        out = np.zeros(m)
        out[order] = p_sorted
        return out

    def choose(self, scores: np.ndarray, t: float, rng: np.random.Generator) -> int:
        """Pick one candidate index (into *scores*) by sequential trials.

        Checks *scores* and *t*, draws ``rng.random(m)`` for the *m*
        scores and hands both to :meth:`_pick`, which runs the trials of
        :meth:`acceptance` one rank at a time over plain lists (arrays go
        through ``tolist``, which round-trips doubles exactly): the same
        IEEE float64 operations in the same order, the first rank whose
        draw falls below its acceptance, else rank 0 — so the pick and
        the RNG stream equal that reference for every *m* (asserted in
        ``tests/core/test_arbiter.py``).
        """
        if type(scores) is list:
            vals = scores
            m = len(vals)
            if m == 0:
                raise ConfigurationError("scores must be a non-empty 1-D array, got shape (0,)")
        else:
            a = np.asarray(scores, dtype=np.float64)
            if a.ndim != 1 or a.shape[0] == 0:
                raise ConfigurationError(
                    f"scores must be a non-empty 1-D array, got shape {a.shape}"
                )
            vals = a.tolist()
            m = len(vals)
        one_minus_b = 1.0 - self.beta(t)
        return self._pick(vals, one_minus_b, rng.random(m).tolist(), 0)

    def _pick(self, vals: list, one_minus_b: float, draws, offset: int) -> int:
        """The trial process of :meth:`choose` on checked inputs.

        *vals* is a non-empty list of scores, ``one_minus_b`` is
        ``1 − β(t)`` and ``draws[offset:offset + m]`` are the *m* uniform
        draws the trials consume, one per rank (the caller accounts for
        all *m*, whether or not the trials read them). A single score is
        always picked. With every score finite the ranks form a total
        order whose first entry is the first maximal score, so the first
        trial — the usual outcome — needs no sort; any other input goes
        straight to the full sorted loop.
        """
        m = len(vals)
        if m == 1:
            return 0
        floor = self.floor
        one_minus_floor = 1.0 - floor
        total = sum(vals)
        if total - total == 0.0:  # all finite: closeness of rank 0 is 1.0
            q_0 = one_minus_b * (floor + one_minus_floor * 1.0)
            if q_0 < 0.0:
                q_0 = 0.0
            elif q_0 > 1.0:
                q_0 = 1.0
            if draws[offset] < q_0:
                return vals.index(max(vals))
        # Stable descending order == np.argsort(-a, kind="stable").
        order_s = sorted(range(m), key=vals.__getitem__, reverse=True)
        top = vals[order_s[0]]
        denom = (top - vals[order_s[-1]]) + _EPS
        for k in range(m):
            closeness = 1.0 - (top - vals[order_s[k]]) / denom
            q_k = one_minus_b * (floor + one_minus_floor * closeness)
            if q_k < 0.0:
                q_k = 0.0
            elif q_k > 1.0:
                q_k = 1.0
            if draws[offset + k] < q_k:
                return order_s[k]
        return order_s[0]  # all trials rejected -> steepest


class GreedyArbiter(StochasticArbiter):
    """Deterministic argmax arbiter (the ``β0 = 0`` ablation).

    Equivalent to :class:`StochasticArbiter` with ``beta0=0`` but skips
    the random draws entirely, so greedy runs are RNG-free.
    """

    def __init__(self) -> None:
        super().__init__(beta0=0.0)

    def choose(self, scores: np.ndarray, t: float, rng: np.random.Generator) -> int:
        a = np.asarray(scores, dtype=np.float64)
        if a.ndim != 1 or a.shape[0] == 0:
            raise ConfigurationError(f"scores must be a non-empty 1-D array, got shape {a.shape}")
        return int(np.argmax(a))
