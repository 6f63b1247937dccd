"""Unit tests for repro.core.arbiter (the §5.2 properties P1-P3)."""

import numpy as np
import pytest

from repro.core import GreedyArbiter, PPLBConfig, StochasticArbiter
from repro.exceptions import ConfigurationError


class TestConstruction:
    def test_from_config(self):
        cfg = PPLBConfig(beta0=0.3, anneal_c=2.0, t_max=100, arbiter_floor=0.2)
        arb = StochasticArbiter.from_config(cfg)
        assert arb.beta0 == 0.3
        assert arb.t_max == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta0": 1.0},
            {"beta0": -0.1},
            {"anneal_c": -1.0},
            {"t_max": 0},
            {"floor": 0.0},
            {"floor": 1.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            StochasticArbiter(**kwargs)


class TestAnnealing:
    def test_beta_decays(self):
        arb = StochasticArbiter(beta0=0.5, anneal_c=3.0, t_max=100)
        assert arb.beta(0) == pytest.approx(0.5)
        assert arb.beta(100) == pytest.approx(0.5 * np.exp(-3.0))
        assert arb.beta(50) > arb.beta(150)

    def test_beta_rejects_negative_time(self):
        with pytest.raises(ConfigurationError):
            StochasticArbiter().beta(-1)


class TestDistribution:
    def test_probabilities_sum_to_one(self):
        arb = StochasticArbiter(beta0=0.4)
        p = arb.probabilities(np.array([3.0, 1.0, 2.0]), t=0)
        assert p.sum() == pytest.approx(1.0)
        assert (p >= 0).all()

    def test_p1_best_has_largest_probability(self):
        arb = StochasticArbiter(beta0=0.4)
        scores = np.array([1.0, 5.0, 3.0, 2.0])
        p = arb.probabilities(scores, t=0)
        assert p.argmax() == 1  # the best candidate
        # Monotone in score rank.
        order = np.argsort(-scores)
        ranked = p[order]
        assert (np.diff(ranked) <= 1e-12).all()

    def test_p2_everyone_reachable_while_exploring(self):
        arb = StochasticArbiter(beta0=0.5)
        p = arb.probabilities(np.array([10.0, 1.0, 0.0]), t=0)
        assert (p > 0).all()

    def test_p3_converges_to_greedy(self):
        arb = StochasticArbiter(beta0=0.5, anneal_c=5.0, t_max=10)
        p = arb.probabilities(np.array([1.0, 5.0, 3.0]), t=10_000)
        assert p[1] == pytest.approx(1.0, abs=1e-3)

    def test_beta0_zero_is_exactly_greedy(self):
        arb = StochasticArbiter(beta0=0.0)
        p = arb.probabilities(np.array([1.0, 5.0, 3.0]), t=0)
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0])

    def test_single_candidate_certain(self):
        arb = StochasticArbiter(beta0=0.5)
        p = arb.probabilities(np.array([2.0]), t=0)
        np.testing.assert_allclose(p, [1.0])

    def test_best_probability_at_least_one_minus_beta(self):
        arb = StochasticArbiter(beta0=0.3)
        p = arb.probabilities(np.array([5.0, 4.0, 1.0]), t=0)
        assert p[0] >= 1.0 - 0.3 - 1e-12

    def test_equal_scores_near_uniform_priority(self):
        # All-equal scores: closeness = 1 for everyone; sequential trials
        # give the first (arbitrary) candidate 1-beta and the rest the
        # remainder — still a valid distribution.
        arb = StochasticArbiter(beta0=0.5)
        p = arb.probabilities(np.array([2.0, 2.0, 2.0]), t=0)
        assert p.sum() == pytest.approx(1.0)

    def test_rejects_empty_scores(self):
        with pytest.raises(ConfigurationError):
            StochasticArbiter().probabilities(np.array([]), t=0)


class TestChoose:
    def test_choice_matches_distribution(self):
        arb = StochasticArbiter(beta0=0.5, anneal_c=0.0)  # constant exploration
        scores = np.array([4.0, 2.0, 0.5])
        p = arb.probabilities(scores, t=0)
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        n = 20_000
        for _ in range(n):
            counts[arb.choose(scores, 0, rng)] += 1
        np.testing.assert_allclose(counts / n, p, atol=0.02)

    def test_deterministic_given_rng(self):
        arb = StochasticArbiter(beta0=0.5)
        scores = np.array([1.0, 2.0, 3.0])
        a = [arb.choose(scores, 0, np.random.default_rng(9)) for _ in range(5)]
        b = [arb.choose(scores, 0, np.random.default_rng(9)) for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize("m", [1, 2, 7, 32, 33, 200, 1000])
    @pytest.mark.parametrize("as_list", [True, False])
    def test_choose_equals_acceptance_reference(self, m, as_list):
        # choose() must be the sequential-trial process of acceptance():
        # one rng.random(m) block, the first rank whose draw falls below
        # its acceptance, else rank 0 — same pick, same RNG state.
        arb = StochasticArbiter(beta0=0.4, anneal_c=1.5, t_max=50)
        gen = np.random.default_rng(m)
        for case in range(20):
            # Few distinct values: ties at every size.
            scores = gen.integers(0, max(2, m // 3), size=m) * 0.5 - 1.0
            t = int(gen.integers(0, 120))
            seed = int(gen.integers(2**32))
            ref_rng = np.random.default_rng(seed)
            order, q = arb.acceptance(scores, t)
            hits = np.nonzero(ref_rng.random(m) < q)[0]
            expected = int(order[hits[0] if hits.shape[0] else 0])
            rng = np.random.default_rng(seed)
            arg = scores.tolist() if as_list else scores
            assert arb.choose(arg, t, rng) == expected, (case, t)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("m", range(1, 9))
    def test_pick_equals_choose(self, m):
        # The balancer calls _pick on its step's draw block with
        # 1 − β(t) precomputed: same pick as choose, reading exactly the
        # m draws at the offset, which are the m draws choose consumes.
        gen = np.random.default_rng(100 + m)
        for floor in (0.05, 0.1, 0.5, 1.0):
            arb = StochasticArbiter(beta0=0.4, anneal_c=1.5, t_max=50, floor=floor)
            for t in (0, arb.t_max / 2, arb.t_max, 3 * arb.t_max):
                for case in range(25):
                    # Few distinct values: ties at every size.
                    scores = (gen.integers(0, max(2, m // 2), size=m) * 0.5).tolist()
                    seed = int(gen.integers(2**32))
                    rng = np.random.default_rng(seed)
                    expected = arb.choose(scores, t, rng)
                    ref = np.random.default_rng(seed)
                    offset = int(gen.integers(0, 4))
                    draws = _ReadLog([0.5] * offset + ref.random(m).tolist())
                    assert rng.bit_generator.state == ref.bit_generator.state
                    got = arb._pick(scores, 1.0 - arb.beta(t), draws, offset)
                    assert got == expected, (floor, t, case)
                    assert draws.read <= set(range(offset, offset + m))

    @pytest.mark.parametrize("scores", [
        [1.0, np.inf, 2.0], [-np.inf, 1.0, 1.0], [np.inf, np.inf],
        [1.0, np.nan, 3.0], [np.nan, 2.0], [1e308, -1e308, 0.0],
    ])
    def test_pick_on_non_finite_scores_runs_the_sorted_trials(self, scores):
        # Only all-finite scores take the first-trial shortcut; anything
        # else must give the plain sorted trial loop's pick.
        arb = StochasticArbiter(beta0=0.4)
        for seed in range(40):
            draws = np.random.default_rng(seed).random(len(scores)).tolist()
            assert arb._pick(scores, 0.6, draws, 0) == _sorted_trials(
                arb, scores, 0.6, draws
            )

    def test_greedy_arbiter_argmax_no_rng_use(self):
        arb = GreedyArbiter()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert arb.choose(np.array([1.0, 9.0, 3.0]), 0, rng) == 1
        assert rng.bit_generator.state == state  # untouched

    def test_greedy_arbiter_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            GreedyArbiter().choose(np.array([]), 0, np.random.default_rng(0))


class _ReadLog(list):
    """A list that remembers which indices were read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def _sorted_trials(arb, vals, one_minus_b, draws):
    """The trial loop over a stable descending sort, with no shortcut."""
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    top = vals[order[0]]
    denom = (top - vals[order[-1]]) + 1e-12
    for k, idx in enumerate(order):
        q = one_minus_b * (arb.floor + (1.0 - arb.floor) * (1.0 - (top - vals[idx]) / denom))
        q = min(max(q, 0.0), 1.0) if q == q else q
        if draws[k] < q:
            return idx
    return order[0]
