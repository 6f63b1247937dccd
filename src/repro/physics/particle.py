"""Kinematic state of the sliding particle (paper §3.1).

The particle is a point mass constrained to the surface. Its state is its
horizontal position, horizontal velocity and mass; heights and energies
are derived through the :class:`~repro.physics.heightfield.HeightField`
and :class:`~repro.physics.energy.EnergyLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass
class ParticleState:
    """Position/velocity/mass of the particle.

    Attributes
    ----------
    position:
        Horizontal position ``(x, y)``.
    velocity:
        Horizontal velocity ``(vx, vy)``.
    mass:
        The paper maps mass to load quantity; in the physics layer it only
        scales energies (trajectories are mass-independent since every
        force here is proportional to ``m``).
    at_rest:
        True when the particle has settled (speed below threshold and
        slope below the static-friction limit).
    """

    position: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    mass: float = 1.0
    at_rest: bool = False

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64).copy()
        self.velocity = np.asarray(self.velocity, dtype=np.float64).copy()
        if self.position.shape != (2,):
            raise ConfigurationError(f"position must be 2-D, got shape {self.position.shape}")
        if self.velocity.shape != (2,):
            raise ConfigurationError(f"velocity must be 2-D, got shape {self.velocity.shape}")
        if self.mass <= 0:
            raise ConfigurationError(f"mass must be positive, got {self.mass}")

    @property
    def speed(self) -> float:
        """Horizontal speed ``|v|``."""
        return float(np.linalg.norm(self.velocity))

    def copy(self) -> "ParticleState":
        """Deep copy (arrays are duplicated)."""
        return ParticleState(
            position=self.position.copy(),
            velocity=self.velocity.copy(),
            mass=self.mass,
            at_rest=self.at_rest,
        )
