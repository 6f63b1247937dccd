"""imbalance_summary is bit-identical to the per-statistic NumPy calls.

The summary runs one reduction per statistic (and the std as
``sqrt(add.reduce(d*d)/n)``). :func:`frozen_summary` is the earlier
body, which called ``h.mean()``, ``h.max()``, ``h.min()`` and
``h.std()`` separately; every value must match it bit for bit, and every
input it rejected must still raise the same error.
"""

import struct
import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sim.metrics import imbalance_summary


def frozen_summary(h):
    """The summary as it read before the one-pass rewrite."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] == 0:
        raise ConfigurationError(f"load vector must be non-empty 1-D, got shape {h.shape}")
    if (h < -1e-9).any():
        raise ConfigurationError("load vector has negative entries")
    mean = float(h.mean())
    return {
        "mean": mean,
        "max": float(h.max()),
        "min": float(h.min()),
        "std": float(h.std()),
        "cov": float(h.std() / mean) if mean > 0 else 0.0,
        "spread": float(h.max() - h.min()),
        "normalized_spread": float((h.max() - h.min()) / mean) if mean > 0 else 0.0,
    }


def bits(summary):
    return {k: struct.pack("<d", v) for k, v in summary.items()}


def assert_same(h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf/NaN inputs
        want = frozen_summary(h)
        got = imbalance_summary(h)
    assert list(got) == list(want)
    assert bits(got) == bits(want)
    assert all(type(v) is float for v in got.values())


def test_seeded_vectors_match_bit_for_bit():
    rng = np.random.default_rng(20)
    for i in range(600):
        n = int(rng.integers(1, 400))
        kind = i % 4
        if kind == 0:
            h = rng.exponential(5.0, n)
        elif kind == 1:
            h = np.round(rng.exponential(5.0, n))  # repeated values, zeros
        elif kind == 2:
            h = rng.random(n) * 10.0 ** rng.uniform(-300, 300)
        else:
            h = rng.uniform(0.0, 1e-9, n)  # tiny: near the tolerance
        assert_same(h)


@pytest.mark.parametrize(
    "h",
    [
        [3.5],
        [0.0],
        [7.0] * 144,
        [0.0] * 144,  # all zero: the mean > 0 branch
        [1e-300, 3e-300, 2e-300],
        [1e300, 1.7e300, 1e299],  # d*d overflows to inf
        [1.0, np.nan, 2.0],
        [np.nan, np.nan],
        [1.0, np.inf, 2.0],
        [np.inf, np.inf],
        [1.0, -np.inf + np.inf, 3.0],  # NaN from arithmetic
        [-1e-10, 0.0, 4.0],  # negative within the tolerance
        [-0.0, 0.0],
    ],
)
def test_edge_vectors_match_bit_for_bit(h):
    assert_same(np.array(h, dtype=np.float64))


def test_integer_and_list_inputs_match():
    assert_same([1, 2, 3, 7])
    assert_same(np.arange(50, dtype=np.int64))


def test_non_contiguous_view_matches():
    h = np.random.default_rng(3).exponential(2.0, 300)[::3]
    assert not h.flags.c_contiguous
    assert_same(h)


@pytest.mark.parametrize(
    "h",
    [
        np.array([]),
        np.zeros((2, 3)),
        np.array(5.0),
        np.array([1.0, -1.0, 2.0]),
        np.array([-np.inf, 1.0]),
        np.array([np.nan, -2.0, 1.0]),  # NaN hides the negative from min
        np.array([-2.0, np.nan]),
    ],
)
def test_rejects_what_the_old_body_rejected(h):
    with pytest.raises(ConfigurationError) as want:
        frozen_summary(h)
    with pytest.raises(ConfigurationError) as got:
        imbalance_summary(h)
    assert str(got.value) == str(want.value)
