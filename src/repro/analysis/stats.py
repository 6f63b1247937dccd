"""Multi-seed statistics for experiment repetitions.

Stochastic balancers are evaluated over several seeds; these helpers
aggregate the per-run summaries into mean ± confidence interval rows for
the benchmark tables.

Everything here reads the result's summary surface (``final_cov``,
``total_migrations``, …), which is computed from the columnar round log
— or, for thin/summary-recorded runs, from their exact streamed
aggregates — so aggregation works identically for every recorder.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.results import SimulationResult


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> tuple[float, float]:
    """(mean, half-width of the t-based confidence interval).

    With a single sample the half-width is 0 (nothing to estimate);
    degenerate inputs raise.
    """
    x = np.asarray(list(values), dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigurationError("cannot aggregate zero values")
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(x.mean())
    if x.shape[0] == 1:
        return mean, 0.0
    sem = float(x.std(ddof=1) / np.sqrt(x.shape[0]))
    if sem == 0.0:
        return mean, 0.0
    return mean, t_quantile(confidence, x.shape[0] - 1) * sem


def t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value: the ``0.5 + confidence / 2``
    quantile with *df* degrees of freedom.

    Bit-identical to ``scipy.stats.t.ppf(0.5 + confidence / 2, df)``,
    which evaluates this same ``stdtrit`` call; importing
    ``scipy.special`` instead of ``scipy.stats`` keeps about a second
    off every cold start.
    """
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + confidence / 2.0))


def summarize_runs(
    runs: Sequence[SimulationResult], confidence: float = 0.95
) -> dict[str, object]:
    """Aggregate repeated runs of one algorithm into a table row.

    Reports mean ± CI for final imbalance, migrations, traffic and
    rounds, plus how many repetitions converged.
    """
    if not runs:
        raise ConfigurationError("cannot summarize zero runs")
    names = {r.balancer_name for r in runs}
    if len(names) != 1:
        raise ConfigurationError(f"runs mix algorithms: {sorted(names)}")

    def agg(vals: Sequence[float]) -> str:
        m, ci = mean_ci(vals, confidence)
        return f"{m:.3g} ± {ci:.2g}" if ci > 0 else f"{m:.3g}"

    conv_rounds = [r.converged_round for r in runs if r.converged_round is not None]
    return {
        "algorithm": runs[0].balancer_name,
        "n_runs": len(runs),
        "converged": f"{len(conv_rounds)}/{len(runs)}",
        "rounds": agg([float(r.n_rounds) for r in runs]),
        "converged_round": agg([float(c) for c in conv_rounds]) if conv_rounds else "—",
        "final_cov": agg([r.final_cov for r in runs]),
        "final_spread": agg([r.final_spread for r in runs]),
        "migrations": agg([float(r.total_migrations) for r in runs]),
        "traffic": agg([r.total_traffic for r in runs]),
    }
