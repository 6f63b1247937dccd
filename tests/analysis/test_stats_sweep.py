"""Unit tests for repro.analysis.stats."""

import pytest

from repro.analysis import mean_ci, summarize_runs
from repro.exceptions import ConfigurationError
from repro.sim import RoundRecord, SimulationResult


class TestMeanCI:
    def test_single_value(self):
        m, ci = mean_ci([3.0])
        assert m == 3.0 and ci == 0.0

    def test_identical_values(self):
        m, ci = mean_ci([2.0, 2.0, 2.0])
        assert m == 2.0 and ci == 0.0

    def test_symmetric_values(self):
        m, ci = mean_ci([1.0, 3.0])
        assert m == 2.0
        assert ci > 0

    def test_ci_shrinks_with_n(self):
        import numpy as np

        rng = np.random.default_rng(0)
        small = mean_ci(rng.normal(0, 1, 5).tolist())[1]
        large = mean_ci(rng.normal(0, 1, 500).tolist())[1]
        assert large < small

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mean_ci([])
        with pytest.raises(ConfigurationError):
            mean_ci([1.0], confidence=1.5)


class TestTQuantilePin:
    """mean_ci's t quantile is scipy.stats.t.ppf's, bit for bit."""

    CONFIDENCES = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
    SAMPLES = [*range(2, 201), 10**3, 10**6]

    def test_quantile_equals_t_ppf(self):
        from scipy import stats

        from repro.analysis.stats import t_quantile

        for c in self.CONFIDENCES:
            for n in self.SAMPLES:
                expected = float(stats.t.ppf(0.5 + c / 2, df=n - 1))
                assert t_quantile(c, n - 1) == expected, (c, n)

    def test_half_width_is_t_ppf_times_sem(self):
        import numpy as np
        from scipy import stats

        for n in self.SAMPLES:
            x = np.sqrt(np.arange(n, dtype=np.float64))
            sem = float(x.std(ddof=1) / np.sqrt(n))
            for c in self.CONFIDENCES:
                t = float(stats.t.ppf(0.5 + c / 2, df=n - 1))
                assert mean_ci(x, c) == (float(x.mean()), t * sem), (c, n)


def _fake_run(name="algo", cov=0.1, rounds=10, converged=5):
    res = SimulationResult(balancer_name=name)
    for r in range(rounds):
        res.records.append(
            RoundRecord(r, 1, 1.0, 0.5, cov, cov * 10, 1.0, 0.0)
        )
    res.converged_round = converged
    res.initial_summary = {"cov": 1.0, "spread": 10.0}
    res.final_summary = {"cov": cov, "spread": cov * 10}
    return res


class TestSummarizeRuns:
    def test_aggregates(self):
        row = summarize_runs([_fake_run(cov=0.1), _fake_run(cov=0.2)])
        assert row["algorithm"] == "algo"
        assert row["n_runs"] == 2
        assert row["converged"] == "2/2"
        assert "±" in row["final_cov"]

    def test_rejects_mixed_algorithms(self):
        with pytest.raises(ConfigurationError):
            summarize_runs([_fake_run("a"), _fake_run("b")])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            summarize_runs([])

    def test_unconverged_marked(self):
        row = summarize_runs([_fake_run(converged=None)])
        assert row["converged"] == "0/1"
        assert row["converged_round"] == "—"

