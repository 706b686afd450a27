"""Bearing rigidity analysis.

The rigidity matrix is the Jacobian of the stacked bearing map with respect
to the stacked positions.  A formation is infinitesimally bearing rigid when
that Jacobian's null space contains nothing beyond the always-present trivial
motions: rigid translations and uniform scaling about the centroid.

The singular values come from one symmetric eigensolve of the Gram matrix
R^T R, which is the bearing Laplacian with edge weights 1/|e|^2; the SVD of R
itself is kept for formations too close to singular for that to be exact.
A verdict alone needs less: one Cholesky factorisation of the same matrix
proves rigidity when it succeeds, and rigidity_rank asks for the singular
values only when it does not.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .formation import (Configuration, FormationGraph, edge_bearings, edge_laplacian,
                        edge_projectors, ensure_compatible, sum_squares)

# Relative singular-value cutoff for the numerical rank.
TAU_RANK = 1e-9

# The Gram matrix's eigenvalues err by a few eps * sigma_max^2, which swamps a
# singular value below about 1e-7 * sigma_max, far above TAU_RANK.  So they
# stand for the singular values only when the smallest nontrivial one exceeds
# TAU_GRAM times the largest; otherwise the SVD decides.
TAU_GRAM = 1e-6

# certify_rigid factors the lifted Gram matrix less CERT_SHIFT * b, with b its
# row-sum bound on sigma_max^2.  Success puts every nontrivial sigma^2 above
# CERT_SHIFT * sigma_max^2.  That is 100 times TAU_GRAM^2, so the eigvalsh
# route holds and counts full rank.  It is also over 100 times the Cholesky's
# backward error, about d*n*eps*b up to d*n = 3000, so rounding cannot pass a
# matrix whose smallest eigenvalue is not above the shift.
CERT_SHIFT = 1e-10


class RigidityReport(NamedTuple):
    rank: int
    required_rank: int
    is_infinitesimally_bearing_rigid: bool
    null_space_dim: int
    singular_values: np.ndarray  # descending, read-only


def required_rank(graph: FormationGraph) -> int:
    """d*n - d - 1: the rank of R when only translations and scaling move it."""
    return graph.d * graph.n - graph.d - 1


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


def _lifted_gram(graph: FormationGraph, config: Configuration) -> tuple[np.ndarray, float]:
    """(R^T R + 2b Q Q^T, b), where b is the largest absolute row sum of R^T R.

    R^T R annihilates the d translations and the centred configuration, and
    Q is their orthonormal basis.  b is at least the largest eigenvalue, so
    the lift puts those d + 1 eigenvalues at 2b, above every other, and
    leaves the nontrivial sigma^2 where they are.
    """
    d, n = graph.d, graph.n
    pts, (i, j) = config.points, graph.edge_array.T
    dist2 = sum_squares(pts[j] - pts[i])
    weights = edge_projectors(edge_bearings(graph, pts)) / dist2[:, None, None]
    gram = edge_laplacian(graph, weights)
    centred = (pts - pts.mean(axis=0)).reshape(-1)
    basis = np.column_stack([np.tile(np.eye(d), (n, 1)) / np.sqrt(n),
                             centred / np.linalg.norm(centred)])
    bound = float(np.abs(gram).sum(axis=1).max())
    gram += 2.0 * bound * (basis @ basis.T)
    return gram, bound


def _gram_singular_values(graph: FormationGraph, config: Configuration) -> np.ndarray | None:
    """The singular values of R, descending, from one eigvalsh of the lifted
    Gram matrix: its smallest d*n - d - 1 eigenvalues are the nontrivial
    sigma^2, and the trivial singular values are exact zeros.  Returns None,
    so that the caller falls back to the SVD, unless the smallest nontrivial
    value exceeds TAU_GRAM times the largest.
    """
    if not graph.m:
        return None
    nontrivial = required_rank(graph)
    gram, _ = _lifted_gram(graph, config)
    sigma = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[nontrivial - 1 :: -1], 0.0))
    if not sigma[-1] > TAU_GRAM * sigma[0]:
        return None
    sv = np.zeros(min(graph.m, graph.n) * graph.d)
    sv[:nontrivial] = sigma
    return sv


def certify_rigid(graph: FormationGraph, config: Configuration) -> bool:
    """True when one Cholesky of the lifted Gram matrix less CERT_SHIFT * b
    proves the required rank, which rigidity_report would then find.  False
    decides nothing: the caller asks rigidity_report.
    """
    ensure_compatible(graph, config)
    if not graph.m:
        return False
    gram, bound = _lifted_gram(graph, config)
    gram[np.diag_indices_from(gram)] -= CERT_SHIFT * bound
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())  # numpy factors inf and nan without complaint


def rigidity_rank(graph: FormationGraph, config: Configuration) -> int:
    """The rank rigidity_report finds, by the cheapest exact route: the
    required rank when certify_rigid proves it, so that only a formation it
    cannot prove pays for the singular values."""
    if certify_rigid(graph, config):
        return required_rank(graph)
    return rigidity_report(graph, config).rank


def rigidity_report(graph: FormationGraph, config: Configuration) -> RigidityReport:
    """Numerical rank test of the rigidity matrix.

    Singular values below TAU_RANK times the largest do not count toward
    the rank.  Rigidity requires rank d*n - d - 1.
    """
    ensure_compatible(graph, config)
    sv = _gram_singular_values(graph, config)
    if sv is None:
        R = bearing_rigidity_matrix(graph, config)
        sv = np.linalg.svd(R, compute_uv=False) if R.size else np.zeros(0)
    sv.setflags(write=False)
    if sv.size and sv[0] > 0.0:
        rank = int(np.sum(sv > TAU_RANK * sv[0]))
    else:
        rank = 0
    required = required_rank(graph)
    return RigidityReport(
        rank=rank,
        required_rank=required,
        is_infinitesimally_bearing_rigid=(rank == required),
        null_space_dim=graph.d * graph.n - rank,
        singular_values=sv,
    )
