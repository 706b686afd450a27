"""Leader maneuver commands: translation, scaling, and their superposition.

A maneuver assigns each leader a constant velocity v_c + alpha_i * u_i where
u_i is the unit vector from the target formation's centroid to the leader.
Because those radial directions do not change while the formation translates
or rescales, a constant command keeps steering the formation correctly for
the whole segment: the centroid drifts at exactly v_c and the scale ramps at
a constant rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVector, DimensionMismatch
from .formation import Configuration
from .laplacian import BearingLaplacian, target_follower_positions

# Leader radial speeds must agree on alpha_i / radius_i to this relative tolerance.
RATIO_TOL = 1e-9

# Command residual ||L v|| must stay below this times (1 + ||v||).
COMMAND_TOL = 1e-8


def centroid(config: Configuration) -> np.ndarray:
    """Average agent position."""
    return config.points.mean(axis=0)


def scale(config: Configuration) -> float:
    """Root-mean-square distance of the agents from their centroid."""
    return float(rms_radius(config.points))


def rms_radius(points: np.ndarray) -> np.ndarray:
    """``scale`` of positions shaped (..., n, d), one value per formation."""
    offsets = points - points.mean(axis=-2, keepdims=True)
    return np.sqrt(np.mean(np.sum(offsets * offsets, axis=-1), axis=-1))


@dataclass(frozen=True)
class ManeuverCommand:
    """Constant leader velocities for one schedule segment.

    ``reference_config`` is the full target formation at the moment the
    command is issued; its centroid anchors the radial directions.  Leader i
    (one of the first len(scale_alphas) agents) receives velocity
    v_c + scale_alphas[i] * u_i.
    """

    v_c: np.ndarray
    scale_alphas: np.ndarray
    reference_config: Configuration

    def __post_init__(self) -> None:
        v = np.array(self.v_c, dtype=float).reshape(-1)
        alphas = np.array(self.scale_alphas, dtype=float).reshape(-1)
        ref = self.reference_config
        if v.size != ref.d:
            raise DimensionMismatch(
                f"v_c has length {v.size} but the formation is {ref.d}-dimensional"
            )
        if not 1 <= alphas.size <= ref.n:
            raise ValueError(
                f"got {alphas.size} radial speeds for a {ref.n}-agent formation"
            )
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(alphas))):
            raise ValueError("command contains non-finite entries")
        v.setflags(write=False)
        alphas.setflags(write=False)
        object.__setattr__(self, "v_c", v)
        object.__setattr__(self, "scale_alphas", alphas)
        if np.any(alphas != 0.0):
            radii = self._leader_radii()
            if np.any(radii <= 1e-12):
                raise DegenerateVector(
                    "a leader sits at the target centroid; scaling is undefined"
                )
            ratios = alphas / radii
            spread = float(np.max(ratios) - np.min(ratios))
            if spread > RATIO_TOL * float(np.max(np.abs(ratios))):
                raise ValueError(
                    "radial speeds are inconsistent: alpha_i / radius_i differs "
                    f"across leaders by {spread:.3e}"
                )

    def _leader_radii(self) -> np.ndarray:
        offsets = self._leader_offsets()
        return np.linalg.norm(offsets, axis=1)

    def _leader_offsets(self) -> np.ndarray:
        n_l = self.scale_alphas.size
        return self.reference_config.points[:n_l] - centroid(self.reference_config)

    @property
    def d(self) -> int:
        return self.v_c.size

    @property
    def n_leaders(self) -> int:
        return self.scale_alphas.size

    def radial_rate(self) -> float:
        """Common ratio alpha_i / radius_i (zero for a pure translation)."""
        if not np.any(self.scale_alphas != 0.0):
            return 0.0
        return float(np.mean(self.scale_alphas / self._leader_radii()))

    def leader_velocity_stack(self) -> np.ndarray:
        """Stacked constant velocities of the leaders, length d*n_leaders."""
        velocities = np.tile(self.v_c, (self.n_leaders, 1))
        if np.any(self.scale_alphas != 0.0):
            offsets = self._leader_offsets()
            radii = np.linalg.norm(offsets, axis=1)
            velocities += (self.scale_alphas / radii)[:, None] * offsets
        return velocities.reshape(-1)

    def full_alpha_vector(self) -> np.ndarray:
        """Radial speeds extended to every agent at the common ratio."""
        offsets = self.reference_config.points - centroid(self.reference_config)
        return self.radial_rate() * np.linalg.norm(offsets, axis=1)

    @property
    def expected_centroid_rate(self) -> np.ndarray:
        return self.v_c.copy()

    @property
    def expected_scale_rate(self) -> float:
        """Constant rate at which the target formation's scale changes."""
        return self.radial_rate() * scale(self.reference_config)


def translation_command(v_c, n_leaders: int) -> np.ndarray:
    """Stacked leader velocities for a pure translation: every leader gets v_c."""
    v = np.asarray(v_c, dtype=float).reshape(-1)
    if n_leaders < 1:
        raise ValueError(f"need at least one leader, got {n_leaders}")
    return np.tile(v, n_leaders)


def scaling_command(
    reference_config: Configuration, n_leaders: int, rate: float
) -> ManeuverCommand:
    """Pure scaling at relative rate ``rate`` (1/s) about the target centroid."""
    return combined_command(
        np.zeros(reference_config.d), reference_config, n_leaders, rate
    )


def combined_command(
    v_c, reference_config: Configuration, n_leaders: int, rate: float
) -> ManeuverCommand:
    """Translation and scaling superposed; either part may be zero."""
    if not 1 <= n_leaders <= reference_config.n:
        raise ValueError(
            f"got {n_leaders} leaders for a {reference_config.n}-agent formation"
        )
    if rate == 0.0:
        alphas = np.zeros(n_leaders)
    else:
        offsets = (
            reference_config.points[:n_leaders] - centroid(reference_config)
        )
        radii = np.linalg.norm(offsets, axis=1)
        if np.any(radii <= 1e-12):
            raise DegenerateVector(
                "a leader sits at the target centroid; scaling is undefined"
            )
        alphas = rate * radii
    return ManeuverCommand(
        v_c=np.asarray(v_c, dtype=float),
        scale_alphas=alphas,
        reference_config=reference_config,
    )


def full_velocity_stack(lap: BearingLaplacian, leader_velocity) -> np.ndarray:
    """Extend a leader velocity stack with the follower velocities it induces.

    The induced part solves the same linear system as the follower target
    positions, just driven by velocities.
    """
    v_l = np.asarray(leader_velocity, dtype=float).reshape(-1)
    v_f = target_follower_positions(lap, v_l)
    return np.concatenate([v_l, v_f])


def validate_command(lap: BearingLaplacian, velocity_stack) -> bool:
    """Whether a full stacked velocity is a feasible steady maneuver.

    Feasible commands lie in the Laplacian's null space, i.e. they preserve
    every desired bearing while the formation moves.
    """
    v = np.asarray(velocity_stack, dtype=float).reshape(-1)
    dn = lap.d * lap.n
    if v.size != dn:
        raise DimensionMismatch(
            f"expected {dn} stacked velocity coordinates, got {v.size}"
        )
    residual = np.linalg.norm(lap.matrix @ v)
    return bool(residual < COMMAND_TOL * (1.0 + np.linalg.norm(v)))
