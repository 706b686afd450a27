"""Leader maneuver commands: translation, scaling, and their superposition.

A maneuver is a centroid velocity v_c and one common scaling rate.  Leader i
moves at the constant velocity v_c + rate * (p_i - c), where p_i is its
position in the target formation and c that formation's centroid.  Because
the offsets p_i - c of a translating, rescaling formation only change in
length, a constant command keeps steering the formation correctly for the
whole segment: the centroid drifts at exactly v_c and the scale ramps at
rate times the starting scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVector, DimensionMismatch
from .formation import Configuration, sum_squares


def scale(config: Configuration) -> float:
    """Root-mean-square distance of the agents from their centroid."""
    return float(rms_radius(config.points))


def rms_radius(points: np.ndarray) -> np.ndarray:
    """``scale`` of positions shaped (..., n, d), one value per formation."""
    offsets = points - points.mean(axis=-2, keepdims=True)
    return np.sqrt(np.mean(sum_squares(offsets), axis=-1))


@dataclass(frozen=True)
class ManeuverCommand:
    """Constant leader velocities for one schedule segment.

    ``reference_config`` is the full target formation at the moment the
    command is issued; its centroid c anchors the scaling.  Leader i (one of
    the first ``n_leaders`` agents) receives velocity v_c + rate * (p_i - c).
    """

    v_c: np.ndarray
    rate: float
    reference_config: Configuration
    n_leaders: int

    def __post_init__(self) -> None:
        v = np.array(self.v_c, dtype=float).reshape(-1)
        ref = self.reference_config
        if v.size != ref.d:
            raise DimensionMismatch(
                f"v_c has length {v.size} but the formation is {ref.d}-dimensional"
            )
        if not 1 <= self.n_leaders <= ref.n:
            raise ValueError(
                f"got {self.n_leaders} leaders for a {ref.n}-agent formation"
            )
        if not (np.all(np.isfinite(v)) and np.isfinite(self.rate)):
            raise ValueError("command contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "v_c", v)
        object.__setattr__(self, "rate", float(self.rate))
        if self.rate != 0.0 and np.any(
            np.linalg.norm(self._leader_offsets(), axis=1) <= 1e-12
        ):
            raise DegenerateVector(
                "a leader sits at the target centroid; scaling is undefined"
            )

    def _leader_offsets(self) -> np.ndarray:
        points = self.reference_config.points
        return points[: self.n_leaders] - points.mean(axis=0)

    def leader_velocity_stack(self) -> np.ndarray:
        """Stacked constant velocities of the leaders, length d*n_leaders."""
        return (self.v_c + self.rate * self._leader_offsets()).reshape(-1)

    @property
    def expected_scale_rate(self) -> float:
        """Constant rate at which the target formation's scale changes."""
        return self.rate * scale(self.reference_config)


def combined_command(
    v_c, reference_config: Configuration, n_leaders: int, rate: float
) -> ManeuverCommand:
    """Translation and scaling superposed; either part may be zero."""
    return ManeuverCommand(v_c, rate, reference_config, n_leaders)
