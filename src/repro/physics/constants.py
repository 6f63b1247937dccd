"""Physical simulation parameters (paper §3.1-3.2).

The paper's particle model has exactly three material constants — the
gravitational acceleration ``g``, the static friction coefficient ``µs``
and the kinetic friction coefficient ``µk`` — plus the numerical knobs of
any explicit integrator (time step, rest thresholds). They are bundled in
one frozen dataclass so a parameter set can be hashed, compared and
reported by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class PhysicsParams:
    """Constants governing a particle-on-surface simulation.

    Attributes
    ----------
    g:
        Gravitational acceleration. Only sets the time scale; the paper's
        trapping results depend on ratios like ``h/µk`` that are
        ``g``-free.
    mu_s:
        Static friction coefficient. A resting particle starts moving only
        where the surface gradient magnitude exceeds ``mu_s`` — this is
        inequality (1) of the paper, ``tan β > µs``.
    mu_k:
        Kinetic friction coefficient. A moving particle loses mechanical
        energy at rate ``µk·m·g`` per unit *horizontal* distance, which is
        the paper's §3.3 identity ``E_h = µk·m·g·d⊥``.
    dt:
        Integrator time step.
    rest_speed:
        Speed below which the particle is considered stationary (and
        static friction applies).
    max_steps:
        Safety bound on the number of integration steps per run.
    stall_steps:
        Number of consecutive near-zero-displacement steps after which
        the particle is declared settled even where the raw slope
        exceeds ``mu_s`` — this recognises stick-slip equilibria such as
        a particle pressed against a domain wall, where the wall's
        normal force (not modelled as a slope) supports it.

    Notes
    -----
    The paper requires ``µk ∝ µs`` in the load-balancing mapping (§4.2);
    the physics layer keeps them independent so the corollaries can be
    probed separately (e.g. Corollary 1 needs ``µs = µk = 0``).
    """

    g: float = 9.81
    mu_s: float = 0.2
    mu_k: float = 0.1
    dt: float = 1e-3
    rest_speed: float = 1e-4
    max_steps: int = 2_000_000
    stall_steps: int = 250

    def __post_init__(self) -> None:
        if self.g <= 0:
            raise ConfigurationError(f"g must be positive, got {self.g}")
        if self.mu_s < 0:
            raise ConfigurationError(f"mu_s must be non-negative, got {self.mu_s}")
        if self.mu_k < 0:
            raise ConfigurationError(f"mu_k must be non-negative, got {self.mu_k}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.rest_speed < 0:
            raise ConfigurationError(f"rest_speed must be non-negative, got {self.rest_speed}")
        if self.max_steps <= 0:
            raise ConfigurationError(f"max_steps must be positive, got {self.max_steps}")
        if self.stall_steps <= 0:
            raise ConfigurationError(f"stall_steps must be positive, got {self.stall_steps}")

    def frictionless(self) -> "PhysicsParams":
        """Copy of these parameters with ``µs = µk = 0`` (Corollary 1 setting)."""
        return replace(self, mu_s=0.0, mu_k=0.0)
