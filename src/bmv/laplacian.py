"""Matrix-weighted graph Laplacian built from desired bearings.

Each edge contributes the projector onto the orthogonal complement of its
desired bearing.  Configurations that satisfy every bearing constraint are
exactly the null space of this Laplacian, which is what makes the follower
block useful: when it is positive definite the followers' target positions
are the unique solution of a linear system driven by the leader positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotLocalizable
from .formation import BearingSpec, FormationGraph, edge_projectors, ensure_aligned

# Relative eigenvalue cutoff for calling the follower block positive definite.
TAU_PD = 1e-9

# The follower map must reproduce the follower block's equations this well.
SOLVE_RESIDUAL_TOL = 1e-9


class LocalizabilityResult(NamedTuple):
    localizable: bool
    min_eigenvalue: float
    eigenvalues: np.ndarray  # of L_ff, ascending


@dataclass(frozen=True)
class BearingLaplacian:
    """Bearing Laplacian with its leader/follower partition.

    ``matrix`` is the full (d*n, d*n) array, agents ordered leaders first.
    The follower rows' blocks L_fl and L_ff are read-only views.
    """

    matrix: np.ndarray
    d: int
    n_leaders: int
    n_followers: int

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)
        dn = self.d * (self.n_leaders + self.n_followers)
        if mat.shape != (dn, dn):
            raise DimensionMismatch(
                f"Laplacian shape {mat.shape} does not match {dn} stacked coordinates"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def _split(self) -> int:
        return self.d * self.n_leaders

    @property
    def L_fl(self) -> np.ndarray:
        s = self._split
        return self.matrix[s:, :s]

    @property
    def L_ff(self) -> np.ndarray:
        s = self._split
        return self.matrix[s:, s:]

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, U, W), read-only: L_ff = U diag(mu) U^T, mu ascending, W = U^T L_fl.
        The one eigensolve of L_ff; everything built from L_ff reads it."""
        mu, U = np.linalg.eigh(self.L_ff)
        modes = (mu, U, U.T @ self.L_fl)
        for array in modes:
            array.setflags(write=False)
        return modes

    @cached_property
    def localizability(self) -> LocalizabilityResult:
        """Positive definiteness of the follower block, from the eigenvalues mu.

        With no followers the block is empty and the formation is vacuously
        localizable; the minimum eigenvalue is reported as +inf.
        """
        eigs = self.modes[0]
        if self.n_followers == 0:
            return LocalizabilityResult(True, math.inf, eigs)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        return LocalizabilityResult(lam_min > TAU_PD * max(lam_max, 0.0), lam_min, eigs)

    @cached_property
    def follower_map(self) -> np.ndarray:
        """T_fl = -L_ff^-1 L_fl = -U diag(1/mu) W: stacked leader to follower targets.

        Raises NotLocalizable on a singular follower block and ArithmeticError
        unless the Frobenius norm of L_ff T_fl + L_fl, which bounds every
        target's residual per unit ||p_l||, is below SOLVE_RESIDUAL_TOL.
        """
        loc = self.localizability
        if not loc.localizable:
            raise NotLocalizable(
                f"follower block is singular (min eigenvalue {loc.min_eigenvalue:.3e})"
            )
        mu, U, W = self.modes
        inverse = U / mu  # L_ff^-1 = inverse @ U^T
        T = -inverse @ W
        # One refinement step wins back the accuracy 1/mu costs the eigenvectors.
        T -= inverse @ (U.T @ (self.L_ff @ T + self.L_fl))
        residual = np.linalg.norm(self.L_ff @ T + self.L_fl)
        if residual >= SOLVE_RESIDUAL_TOL:
            raise ArithmeticError(f"follower solve residual {residual:.3e} exceeds tolerance")
        T.setflags(write=False)
        return T


def bearing_laplacian(graph: FormationGraph, spec: BearingSpec) -> BearingLaplacian:
    """Assemble the Laplacian from a graph and its desired bearings.

    The diagonal block of agent i sums the projectors of its incident edges;
    the off-diagonal block of an edge carries the negated projector.  The
    result is symmetric positive semidefinite by construction.
    """
    ensure_aligned(graph, spec)
    L = _edge_laplacian(graph, edge_projectors(spec.vectors))
    return BearingLaplacian(L, graph.d, graph.n_leaders, graph.n_followers)


def _edge_laplacian(graph: FormationGraph, blocks: np.ndarray) -> np.ndarray:
    """The (d*n, d*n) Laplacian with the (m, d, d) edge weights ``blocks``.

    Edge k = (i, j) adds blocks[k] to the diagonal blocks (i, i) and (j, j)
    and subtracts it from (i, j) and (j, i).
    """
    d, n = graph.d, graph.n
    i, j = graph.edge_array.T
    # Each edge's blocks (i, i), (j, j), (i, j), (j, i) in turn: diagonals sum in edge order.
    rows, cols = np.stack([i, j, i, j], axis=1), np.stack([i, j, j, i], axis=1)
    L = np.zeros((d * n, d * n))
    np.add.at(L.reshape(n, d, n, d), (rows.ravel(), slice(None), cols.ravel()),
              np.stack([blocks, blocks, -blocks, -blocks], axis=1).reshape(-1, d, d))
    return L


def check_localizable(lap: BearingLaplacian) -> LocalizabilityResult:
    """Whether followers are uniquely determined by leaders and bearings."""
    return lap.localizability


def target_follower_positions(lap: BearingLaplacian, leader_positions) -> np.ndarray:
    """Solve the follower block for the positions the bearings demand.

    ``leader_positions`` is the stacked leader vector (length d*n_leaders);
    the result is the stacked follower vector, T_fl @ p_l.
    """
    p_l = np.asarray(leader_positions, dtype=float).reshape(-1)
    if p_l.size != lap.d * lap.n_leaders:
        raise DimensionMismatch(
            f"expected {lap.d * lap.n_leaders} stacked leader coordinates, "
            f"got {p_l.size}"
        )
    return lap.follower_map @ p_l
