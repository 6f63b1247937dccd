"""Bilinear heightfield: the 'bumpy yard' of paper §3.1.

A :class:`HeightField` stores surface heights ``z[i, j]`` on a regular
grid over ``[0, Lx] × [0, Ly]`` and provides continuous height and
gradient queries via bilinear interpolation. Builders compose analytic
hills/valleys (Gaussian bumps), paraboloid bowls and band-limited random
terrain — the shapes used throughout the physics validation experiments.

Conventions
-----------
* ``z`` has shape ``(nx, ny)``; axis 0 is x, axis 1 is y.
* Heights are non-negative by convention in the experiments (the paper's
  potential energy baseline is ``z = 0``), but the class itself allows any
  real values.
* Outside the domain, queries clamp to the boundary; the dynamics layer
  additionally reflects particles at the walls so that nothing escapes
  the yard.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


class HeightField:
    """A rectangular grid surface with bilinear interpolation.

    Parameters
    ----------
    z:
        ``(nx, ny)`` array of heights at the grid nodes.
    extent:
        Physical size ``(Lx, Ly)`` of the domain. Grid node ``(i, j)``
        sits at ``(i * Lx/(nx-1), j * Ly/(ny-1))``.
    """

    def __init__(self, z: np.ndarray, extent: tuple[float, float] = (1.0, 1.0)):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 2 or z.shape[1] < 2:
            raise ConfigurationError(f"z must be a 2-D grid of at least 2x2, got shape {z.shape}")
        lx, ly = float(extent[0]), float(extent[1])
        if lx <= 0 or ly <= 0:
            raise ConfigurationError(f"extent must be positive, got {extent}")
        self.z = z
        self.extent = (lx, ly)
        self.nx, self.ny = z.shape
        self.dx = lx / (self.nx - 1)
        self.dy = ly / (self.ny - 1)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _locate(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return cell indices and in-cell fractions for points *p*.

        Points are clamped to the domain; *p* has shape ``(..., 2)``.
        """
        x = np.clip(p[..., 0], 0.0, self.extent[0])
        y = np.clip(p[..., 1], 0.0, self.extent[1])
        fx = x / self.dx
        fy = y / self.dy
        i = np.minimum(fx.astype(np.int64), self.nx - 2)
        j = np.minimum(fy.astype(np.int64), self.ny - 2)
        tx = fx - i
        ty = fy - j
        return i, j, tx, ty

    def height(self, p) -> np.ndarray | float:
        """Bilinear surface height at point(s) *p* of shape ``(..., 2)``."""
        p = np.asarray(p, dtype=np.float64)
        scalar = p.ndim == 1
        pts = np.atleast_2d(p)
        i, j, tx, ty = self._locate(pts)
        z = self.z
        h = (
            z[i, j] * (1 - tx) * (1 - ty)
            + z[i + 1, j] * tx * (1 - ty)
            + z[i, j + 1] * (1 - tx) * ty
            + z[i + 1, j + 1] * tx * ty
        )
        return float(h[0]) if scalar else h

    def gradient(self, p) -> np.ndarray:
        """Surface gradient ``(∂z/∂x, ∂z/∂y)`` at point(s) *p*.

        Within each cell the bilinear patch has an exact gradient that is
        affine in the in-cell fractions; this returns that exact value
        (no finite differencing beyond the grid resolution).
        """
        p = np.asarray(p, dtype=np.float64)
        scalar = p.ndim == 1
        pts = np.atleast_2d(p)
        i, j, tx, ty = self._locate(pts)
        z = self.z
        dzdx = (
            (z[i + 1, j] - z[i, j]) * (1 - ty) + (z[i + 1, j + 1] - z[i, j + 1]) * ty
        ) / self.dx
        dzdy = (
            (z[i, j + 1] - z[i, j]) * (1 - tx) + (z[i + 1, j + 1] - z[i + 1, j]) * tx
        ) / self.dy
        g = np.stack([dzdx, dzdy], axis=-1)
        return g[0] if scalar else g

    def slope(self, p) -> np.ndarray | float:
        """``tan β`` — gradient magnitude (the paper's steepness measure)."""
        g = self.gradient(p)
        m = np.linalg.norm(np.atleast_2d(g), axis=-1)
        return float(m[0]) if np.asarray(p).ndim == 1 else m

    # -- scalar fast paths (integrator hot loop) ----------------------- #
    #
    # The generic height()/gradient() queries accept arrays and pay
    # ~µs-scale numpy small-array overhead per call. The time-stepping
    # integrator queries one point per step, millions of times; these
    # pure-float versions implement the identical bilinear math with no
    # array allocation (~10x faster per call, bit-identical results).

    def height_scalar(self, x: float, y: float) -> float:
        """Bilinear height at one point, float-only (no numpy overhead)."""
        lx, ly = self.extent
        x = 0.0 if x < 0.0 else (lx if x > lx else x)
        y = 0.0 if y < 0.0 else (ly if y > ly else y)
        fx = x / self.dx
        fy = y / self.dy
        i = int(fx)
        j = int(fy)
        if i > self.nx - 2:
            i = self.nx - 2
        if j > self.ny - 2:
            j = self.ny - 2
        tx = fx - i
        ty = fy - j
        z = self.z
        return (
            z[i, j] * (1 - tx) * (1 - ty)
            + z[i + 1, j] * tx * (1 - ty)
            + z[i, j + 1] * (1 - tx) * ty
            + z[i + 1, j + 1] * tx * ty
        )

    def gradient_scalar(self, x: float, y: float) -> tuple[float, float]:
        """Exact bilinear-patch gradient at one point, float-only."""
        lx, ly = self.extent
        x = 0.0 if x < 0.0 else (lx if x > lx else x)
        y = 0.0 if y < 0.0 else (ly if y > ly else y)
        fx = x / self.dx
        fy = y / self.dy
        i = int(fx)
        j = int(fy)
        if i > self.nx - 2:
            i = self.nx - 2
        if j > self.ny - 2:
            j = self.ny - 2
        tx = fx - i
        ty = fy - j
        z = self.z
        z00 = z[i, j]
        z10 = z[i + 1, j]
        z01 = z[i, j + 1]
        z11 = z[i + 1, j + 1]
        dzdx = ((z10 - z00) * (1 - ty) + (z11 - z01) * ty) / self.dx
        dzdy = ((z01 - z00) * (1 - tx) + (z11 - z10) * tx) / self.dy
        return float(dzdx), float(dzdy)

    def min_height(self) -> float:
        """Lowest grid height (the global valley floor)."""
        return float(self.z.min())

    def max_height(self) -> float:
        """Highest grid height (the global peak)."""
        return float(self.z.max())

    def contains(self, p) -> bool:
        """Whether point *p* lies inside the physical domain."""
        p = np.asarray(p, dtype=np.float64)
        return bool(
            (0.0 <= p[0] <= self.extent[0]) and (0.0 <= p[1] <= self.extent[1])
        )

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #

    @classmethod
    def from_function(
        cls,
        f: Callable[[np.ndarray, np.ndarray], np.ndarray],
        shape: tuple[int, int] = (129, 129),
        extent: tuple[float, float] = (1.0, 1.0),
    ) -> "HeightField":
        """Sample ``z = f(X, Y)`` on a grid of the given *shape*."""
        nx, ny = shape
        xs = np.linspace(0.0, extent[0], nx)
        ys = np.linspace(0.0, extent[1], ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return cls(np.asarray(f(X, Y), dtype=np.float64), extent)

    @classmethod
    def bowl(
        cls,
        depth: float = 1.0,
        shape: tuple[int, int] = (129, 129),
        extent: tuple[float, float] = (1.0, 1.0),
    ) -> "HeightField":
        """Paraboloid valley centred in the domain, rim height *depth*.

        The canonical single-valley surface: a particle released anywhere
        rolls toward the centre.
        """
        cx, cy = extent[0] / 2.0, extent[1] / 2.0
        rmax2 = cx**2 + cy**2

        def f(X, Y):
            return depth * ((X - cx) ** 2 + (Y - cy) ** 2) / rmax2

        return cls.from_function(f, shape, extent)

    @classmethod
    def hills(
        cls,
        centers: Sequence[tuple[float, float]],
        heights: Sequence[float],
        widths: Sequence[float],
        base: float = 0.0,
        shape: tuple[int, int] = (129, 129),
        extent: tuple[float, float] = (1.0, 1.0),
    ) -> "HeightField":
        """Sum of Gaussian bumps: ``base + Σ h_k exp(-r_k²/2w_k²)``.

        Negative *heights* carve valleys. This is the workhorse builder
        for the multi-valley trapping experiments (paper Fig. 3).
        """
        if not (len(centers) == len(heights) == len(widths)):
            raise ConfigurationError(
                "centers, heights and widths must have equal length: "
                f"{len(centers)}, {len(heights)}, {len(widths)}"
            )

        def f(X, Y):
            acc = np.full_like(X, float(base))
            for (cx, cy), h, w in zip(centers, heights, widths):
                if w <= 0:
                    raise ConfigurationError(f"bump width must be positive, got {w}")
                r2 = (X - cx) ** 2 + (Y - cy) ** 2
                acc = acc + h * np.exp(-r2 / (2.0 * w * w))
            return acc

        return cls.from_function(f, shape, extent)

    @classmethod
    def random_terrain(
        cls,
        rng: np.random.Generator,
        roughness: float = 1.0,
        n_bumps: int = 24,
        shape: tuple[int, int] = (129, 129),
        extent: tuple[float, float] = (1.0, 1.0),
    ) -> "HeightField":
        """Band-limited random terrain built from random Gaussian bumps.

        Heights are shifted so the minimum is zero (the paper's potential
        baseline). *roughness* scales bump amplitude.
        """
        if n_bumps <= 0:
            raise ConfigurationError(f"n_bumps must be positive, got {n_bumps}")
        centers = np.column_stack(
            [rng.uniform(0, extent[0], n_bumps), rng.uniform(0, extent[1], n_bumps)]
        )
        heights = rng.uniform(-1.0, 1.0, n_bumps) * roughness
        widths = rng.uniform(0.05, 0.2, n_bumps) * max(extent)
        field = cls.hills(
            [tuple(c) for c in centers], list(heights), list(widths), 0.0, shape, extent
        )
        field.z -= field.z.min()
        return field

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HeightField(shape=({self.nx}, {self.ny}), extent={self.extent}, "
            f"z∈[{self.min_height():.3g}, {self.max_height():.3g}])"
        )
