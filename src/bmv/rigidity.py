"""Bearing rigidity analysis.

The rigidity matrix is the Jacobian of the stacked bearing map with respect
to the stacked positions.  A formation is infinitesimally bearing rigid when
that Jacobian's null space contains nothing beyond the always-present trivial
motions: rigid translations and uniform scaling about the centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formation import (Configuration, FormationGraph, edge_bearings, edge_projectors,
                        ensure_compatible, sum_squares)

# Relative singular-value cutoff for the numerical rank.
TAU_RANK = 1e-9


@dataclass(frozen=True)
class RigidityReport:
    rank: int
    required_rank: int
    is_infinitesimally_bearing_rigid: bool
    null_space_dim: int
    singular_values: np.ndarray

    def __post_init__(self) -> None:
        sv = np.array(self.singular_values, dtype=float)
        sv.setflags(write=False)
        object.__setattr__(self, "singular_values", sv)


def bearing_rigidity_matrix(graph: FormationGraph, config: Configuration) -> np.ndarray:
    """Jacobian of the stacked bearing map, shape (d*m, d*n).

    Row block k carries P_g / |e_k| for edge k = (i, j): negated in column
    block i, as-is in column block j, zero elsewhere.
    """
    ensure_compatible(graph, config)
    d, n, m = graph.d, graph.n, graph.m
    pts, (i, j) = config.points, graph.edge_array.T
    dist = np.sqrt(sum_squares(pts[j] - pts[i]))
    block = edge_projectors(edge_bearings(graph, pts)) / dist[:, None, None]
    R = np.zeros((m, d, n, d))
    R[np.arange(m), :, i] = -block
    R[np.arange(m), :, j] = block
    return R.reshape(d * m, d * n)


def rigidity_report(graph: FormationGraph, config: Configuration) -> RigidityReport:
    """Numerical rank test of the rigidity matrix.

    Singular values below TAU_RANK times the largest do not count toward
    the rank.  Rigidity requires rank d*n - d - 1.
    """
    R = bearing_rigidity_matrix(graph, config)
    if R.size:
        sv = np.linalg.svd(R, compute_uv=False)
    else:
        sv = np.zeros(0)
    if sv.size and sv[0] > 0.0:
        rank = int(np.sum(sv > TAU_RANK * sv[0]))
    else:
        rank = 0
    required = graph.d * graph.n - graph.d - 1
    return RigidityReport(
        rank=rank,
        required_rank=required,
        is_infinitesimally_bearing_rigid=(rank == required),
        null_space_dim=graph.d * graph.n - rank,
        singular_values=sv,
    )

