"""Imbalance and traffic metrics.

The paper's goal state is a "nearly perfect load balance" (Theorem 2);
its cost currency is heat ≙ traffic (§4.1). These metrics quantify both:

* :func:`coefficient_of_variation` — scale-free imbalance,
  ``std(h)/mean(h)``; 0 for a perfectly flat surface.
* :func:`max_min_spread` — the gradient method's classic target,
  ``max(h) − min(h)``.
* :func:`normalized_spread` — spread divided by the mean load (so a
  spread of "one average task" reads as ≈ task_size/mean).
* :func:`transport_work` — Σ load·e_ij over applied hops: the uniform
  cross-algorithm traffic measure (PPLB's heat additionally weighs µk).

All functions accept the per-node load vector ``h``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError


def _vector(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] == 0:
        raise ConfigurationError(f"load vector must be non-empty 1-D, got shape {h.shape}")
    return h


def _validate(h: np.ndarray) -> np.ndarray:
    h = _vector(h)
    if (h < -1e-9).any():
        raise ConfigurationError("load vector has negative entries")
    return h


def coefficient_of_variation(h: np.ndarray) -> float:
    """``std(h) / mean(h)``; defined as 0 when the system is empty."""
    h = _validate(h)
    mean = h.mean()
    if mean <= 0:
        return 0.0
    return float(h.std() / mean)


def max_min_spread(h: np.ndarray) -> float:
    """``max(h) − min(h)`` — the height difference of peak and valley."""
    h = _validate(h)
    return float(h.max() - h.min())


def normalized_spread(h: np.ndarray) -> float:
    """Spread relative to the mean load per node (0 when empty)."""
    h = _validate(h)
    mean = h.mean()
    if mean <= 0:
        return 0.0
    return float((h.max() - h.min()) / mean)


def imbalance_summary(h: np.ndarray) -> dict[str, float]:
    """All imbalance metrics at once, one reduction per statistic.

    One ``add.reduce`` for the mean, one ``maximum.reduce`` and one
    ``minimum.reduce``, and the std as ``sqrt(add.reduce(d*d)/n)`` with
    ``d = h - mean``: the ufunc operations NumPy's ``h.std()`` runs, in
    the same order, so every value is bit-identical to the separate
    ``h.mean()``/``h.max()``/``h.min()``/``h.std()`` calls (and to the
    single-metric functions above). The per-round observation calls
    this on every round, so it avoids the repeated passes those calls
    would make. Invalid inputs raise the same :class:`ConfigurationError`
    as the other metrics.
    """
    h = _vector(h)
    lo = float(np.minimum.reduce(h))
    # A NaN minimum hides negative entries, so anything but a clean
    # minimum at or above the tolerance takes the full check.
    if not lo >= -1e-9 and (h < -1e-9).any():
        raise ConfigurationError("load vector has negative entries")
    n = h.shape[0]
    hi = float(np.maximum.reduce(h))
    mean = float(np.add.reduce(h)) / n
    d = h - mean
    std = math.sqrt(float(np.add.reduce(d * d)) / n)
    spread = hi - lo
    return {
        "mean": mean,
        "max": hi,
        "min": lo,
        "std": std,
        "cov": std / mean if mean > 0 else 0.0,
        "spread": spread,
        "normalized_spread": spread / mean if mean > 0 else 0.0,
    }


def transport_work(loads: np.ndarray, costs: np.ndarray) -> float:
    """Σ load·e over a set of hops — the uniform traffic measure."""
    loads = np.asarray(loads, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if loads.shape != costs.shape:
        raise ConfigurationError(
            f"loads and costs must align, got {loads.shape} vs {costs.shape}"
        )
    return float((loads * costs).sum())
