"""Seeded random-number plumbing.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` that is threaded through explicitly —
nothing uses the global NumPy state. This gives:

* **Reproducibility**: one integer seed determines an entire simulation,
  including the stochastic arbiter, workload generators and fault events.
* **Independence**: sub-streams spawned for distinct components are
  statistically independent (via :class:`numpy.random.SeedSequence`),
  so e.g. changing how many fault events are drawn cannot perturb the
  arbiter's decisions.

The helpers here are deliberately tiny; they exist so that call sites read
``rng = ensure_rng(seed)`` instead of hand-rolling ``default_rng`` logic,
and so tests can assert the spawning discipline.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS entropy), an ``int`` seed, a
    ``SeedSequence``, or an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive *n* independent child generators from *rng*.

    Children are produced with ``Generator.spawn`` (NumPy >= 1.25) so the
    parent stream is left untouched apart from its spawn counter; drawing
    from one child never affects another.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return list(rng.spawn(n))


def seed_for(seed: RngLike, *keys: int) -> int:
    """Reduce the :func:`derive` stream keyed by (*seed*, \\*keys) to an int.

    The canonical way to mint one deterministic integer seed per grid
    cell. The parallel runner's ``grid_seeds``
    (``seed_for(base_seed, repetition)``) derives its seeds through
    this helper, so seeds stay stable when a grid grows.
    """
    return int(derive(seed, *keys).integers(0, 2**31 - 1))


def derive(seed: RngLike, *keys: int) -> np.random.Generator:
    """Build a generator keyed by (*seed*, \\*keys).

    Used to give each (repetition, component) pair of a parameter sweep
    its own deterministic stream: ``derive(base_seed, rep_index, 2)``.
    ``None`` maps to fresh entropy, matching :func:`ensure_rng`.
    """
    if isinstance(seed, np.random.Generator):
        # Child keyed off the generator's own stream; deterministic given
        # the generator state.
        ss = np.random.SeedSequence(
            entropy=int(seed.integers(0, 2**63 - 1)), spawn_key=tuple(keys)
        )
        return np.random.default_rng(ss)
    if seed is None:
        return np.random.default_rng()
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss = np.random.SeedSequence(entropy=base.entropy, spawn_key=tuple(keys))
    return np.random.default_rng(ss)
