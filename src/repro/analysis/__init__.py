"""Analysis & harness utilities.

* :mod:`convergence <repro.analysis.convergence>` — time-to-balance and
  exponential convergence-rate fits (the quantity [19] optimises),
  consuming columnar series (``result.series``) rather than per-round
  record objects.
* :mod:`stats <repro.analysis.stats>` — multi-seed means and confidence
  intervals.
* :mod:`tables <repro.analysis.tables>` / :mod:`plots
  <repro.analysis.plots>` — ASCII rendering of the paper-style tables
  and series (the environment is headless; figures are printed, not
  drawn).
* :mod:`report <repro.analysis.report>` — stitch the per-experiment
  artifacts under ``benchmarks/results/`` into one browsable report
  (``pplb report``).
"""

from repro.analysis.convergence import fit_convergence_rate, rounds_to_fraction
from repro.analysis.stats import mean_ci, summarize_runs
from repro.analysis.tables import format_table
from repro.analysis.plots import ascii_plot

__all__ = [
    "fit_convergence_rate",
    "rounds_to_fraction",
    "mean_ci",
    "summarize_runs",
    "format_table",
    "ascii_plot",
]
