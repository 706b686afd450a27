"""Matrix-weighted graph Laplacian built from desired bearings.

Each edge contributes the projector onto the orthogonal complement of its
desired bearing.  Configurations that satisfy every bearing constraint are
exactly the null space of this Laplacian, which is what makes the follower
block useful: when it is positive definite the followers' target positions
are the unique solution of a linear system driven by the leader positions.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotLocalizable
from .formation import (BearingSpec, FormationGraph, edge_laplacian, edge_projectors,
                        ensure_aligned)

# Relative eigenvalue cutoff for calling the follower block positive definite.
TAU_PD = 1e-9

# The follower map must reproduce the follower block's equations this well.
SOLVE_RESIDUAL_TOL = 1e-9


class LocalizabilityResult(NamedTuple):
    localizable: bool
    min_eigenvalue: float


class BearingLaplacian:
    """Bearing Laplacian of a graph's desired bearings, leaders first.

    ``matrix`` is the full (d*n, d*n) array: agent i's diagonal block sums
    its edges' projectors and an edge's off-diagonal blocks carry the negated
    one, so it is symmetric positive semidefinite.  It and the follower rows'
    blocks L_fl and L_ff are read-only.
    """

    def __init__(self, graph: FormationGraph, spec: BearingSpec) -> None:
        ensure_aligned(graph, spec)
        mat = edge_laplacian(graph, edge_projectors(spec.vectors))
        mat.setflags(write=False)
        self.matrix, self.d = mat, graph.d
        self.n_leaders, self.n_followers = graph.n_leaders, graph.n_followers

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
        The one eigensolve of L_ff of a run, which steps the loop along U;
        computed first, it is also what mu then reads.  A command that reads
        no U never computes it."""
        mu, U = np.linalg.eigh(self.L_ff)
        modes = (mu, U, U.T @ self.L_fl)
        for array in modes:
            array.setflags(write=False)
        return modes

    @cached_property
    def mu(self) -> np.ndarray:
        """The eigenvalues of L_ff, ascending, read-only: the modes' when they
        are already computed, otherwise one eigvalsh, which skips U."""
        if "modes" in self.__dict__:
            return self.modes[0]
        mu = np.linalg.eigvalsh(self.L_ff)
        mu.setflags(write=False)
        return mu

    @cached_property
    def localizability(self) -> LocalizabilityResult:
        """Positive definiteness of the follower block, from the eigenvalues mu.

        With no followers the block is empty and the formation is vacuously
        localizable; the minimum eigenvalue is reported as +inf.
        """
        if self.n_followers == 0:
            return LocalizabilityResult(True, math.inf)
        lam_min, lam_max = float(self.mu[0]), float(self.mu[-1])
        return LocalizabilityResult(lam_min > TAU_PD * max(lam_max, 0.0), lam_min)

    @cached_property
    def follower_map(self) -> np.ndarray:
        """T_fl = -L_ff^-1 L_fl: stacked leader to follower targets.

        One solve of L_ff in every command, whether or not the modes were
        computed, so every command resolves the same targets.  Raises
        NotLocalizable on a singular follower block and ArithmeticError
        unless the Frobenius norm of L_ff T_fl + L_fl, which bounds every
        target's residual per unit ||p_l||, is below SOLVE_RESIDUAL_TOL.
        """
        loc = self.localizability
        if not loc.localizable:
            raise NotLocalizable(
                f"follower block is singular (min eigenvalue {loc.min_eigenvalue:.3e})"
            )
        T = np.linalg.solve(self.L_ff, -self.L_fl)
        residual = np.linalg.norm(self.L_ff @ T + self.L_fl)
        if residual >= SOLVE_RESIDUAL_TOL:
            raise ArithmeticError(f"follower solve residual {residual:.3e} exceeds tolerance")
        T.setflags(write=False)
        return T


def bearing_laplacian(graph: FormationGraph, spec: BearingSpec) -> BearingLaplacian:
    """BearingLaplacian(graph, spec)."""
    return BearingLaplacian(graph, spec)


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
