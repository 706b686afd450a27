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

import numpy as np

from .errors import DimensionMismatch
from .formation import Configuration, sum_squares


def scale(config: Configuration) -> float:
    """Root-mean-square distance of the agents from their centroid."""
    return float(rms_radius(config.points))


def rms_radius(points: np.ndarray) -> np.ndarray:
    """``scale`` of positions shaped (..., n, d), one value per formation."""
    offsets = points - points.mean(axis=-2, keepdims=True)
    return np.sqrt(np.mean(sum_squares(offsets), axis=-1))


def combined_command(
    v_c, reference_config: Configuration, n_leaders: int, rate: float
) -> np.ndarray:
    """Stacked leader velocities v_c + rate * (p_i - c), length d*n_leaders.

    Translation and scaling superposed; either part may be zero.  p_i runs
    over the first ``n_leaders`` agents of ``reference_config``, the target
    formation when the command is issued, and c is its centroid.
    """
    v = np.array(v_c, dtype=float).reshape(-1)
    ref = reference_config
    if v.size != ref.d:
        raise DimensionMismatch(
            f"v_c has length {v.size} but the formation is {ref.d}-dimensional"
        )
    if not 1 <= n_leaders <= ref.n:
        raise ValueError(f"got {n_leaders} leaders for a {ref.n}-agent formation")
    if not (np.all(np.isfinite(v)) and np.isfinite(rate)):
        raise ValueError("command contains non-finite entries")
    offsets = ref.points[:n_leaders] - ref.points.mean(axis=0)
    return (v + float(rate) * offsets).reshape(-1)
