"""Parameter-sweep harness.

Runs a user-supplied experiment function over a grid of parameter values
× repetition seeds, collecting per-point rows. :func:`run_sweep` is the
one place sweep mechanics (seeding discipline, aggregation) live for
knob sweeps (µs, µk, β0, fault rate, network size); spec-shaped grids
use :func:`repro.runner.run_grid` instead, whose
:func:`~repro.runner.merge.outcomes_to_sweep` merge produces the same
:class:`SweepResult` rows.

Execution routes through the runner's execution backends
(:func:`repro.runner.backends.resolve_backend`): the default
``workers=1`` is a plain in-process loop whose results are bit-identical
to the historical serial harness, while ``workers > 1`` fans the
(point × repetition) evaluations across the shared persistent pool —
the experiment function must then be picklable (defined at module
level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.stats import mean_ci
from repro.exceptions import ConfigurationError
from repro.rng import seed_for

ExperimentFn = Callable[[object, int], Mapping[str, float]]
"""(parameter value, seed) -> metric dict for one run."""


@dataclass
class SweepResult:
    """Outcome of a parameter sweep.

    Attributes
    ----------
    parameter:
        Name of the swept knob.
    points:
        The swept values, in order.
    rows:
        Aggregated row per point: the parameter value plus, for each
        metric, its mean and CI half-width (keys ``<metric>`` and
        ``<metric>_ci``).
    raw:
        Per-point list of per-seed metric dicts (for deeper analysis).
    """

    parameter: str
    points: list[object] = field(default_factory=list)
    rows: list[dict[str, object]] = field(default_factory=list)
    raw: list[list[Mapping[str, float]]] = field(default_factory=list)

    def series(self, metric: str) -> list[float]:
        """Mean values of *metric* across the sweep points."""
        return [float(row[metric]) for row in self.rows]


def _evaluate(
    job: tuple[ExperimentFn, str, object, int]
) -> Mapping[str, float]:
    """One grid cell (module-level so it survives pickling to workers).

    Validates eagerly so a broken experiment fails on its first cell,
    not after the whole grid has been simulated.
    """
    experiment, parameter, value, seed = job
    metrics = experiment(value, seed)
    if not metrics:
        raise ConfigurationError(
            f"experiment returned no metrics at {parameter}={value!r}"
        )
    return metrics


def run_sweep(
    parameter: str,
    values: Sequence[object],
    experiment: ExperimentFn,
    repetitions: int = 3,
    base_seed: int = 0,
    workers: int = 1,
) -> SweepResult:
    """Run *experiment* over every value × repetition; aggregate rows.

    Seeding: repetition *r* of point *k* receives the deterministic seed
    ``seed_for(base_seed, k, r)``, so adding points or repetitions never
    perturbs existing ones — and the seeds (hence results) do not depend
    on *workers*.

    With ``workers > 1`` the grid cells are evaluated across that many
    worker processes (*experiment* must be picklable); aggregation is
    unchanged, so the returned rows are identical to a serial run.
    """
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")

    # Imported lazily: repro.runner.merge imports this module.
    from repro.runner.backends import resolve_backend

    jobs = [
        (experiment, parameter, value, seed_for(base_seed, k, r))
        for k, value in enumerate(values)
        for r in range(repetitions)
    ]
    metrics_flat, _ = resolve_backend(None, workers).map_timed(_evaluate, jobs)

    result = SweepResult(parameter=parameter)
    for k, value in enumerate(values):
        per_seed = metrics_flat[k * repetitions : (k + 1) * repetitions]
        keys = sorted(per_seed[0].keys())
        row: dict[str, object] = {parameter: value}
        for key in keys:
            m, ci = mean_ci([float(d[key]) for d in per_seed])
            row[key] = round(m, 6)
            row[f"{key}_ci"] = round(ci, 6)
        result.points.append(value)
        result.rows.append(row)
        result.raw.append(per_seed)
    return result
