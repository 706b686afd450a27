"""Distributed PI control law for the followers.

Each follower steers against the projection of its relative positions onto
the complements of the desired bearings, plus an integral term that absorbs
constant leader velocities.  The same law is available agent by agent (what
a robot would run) and as one linear system on the stacked state (what the
simulator integrates and the analysis uses); the two are algebraically
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, UnknownNeighbor
from .formation import BearingSpec, FormationGraph, desired_bearing, ensure_aligned
from .laplacian import BearingLaplacian

# An eigenvalue real part above -TAU_HURWITZ disqualifies the matrix.
TAU_HURWITZ = 1e-10


@dataclass(frozen=True)
class Gains:
    """Proportional and integral gains.

    k_p must be positive.  k_i may be zero, which degenerates to the
    proportional-only law (no disturbance rejection).
    """

    k_p: float
    k_i: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.k_p) and self.k_p > 0.0):
            raise ValueError(f"k_p must be positive, got {self.k_p!r}")
        if not (np.isfinite(self.k_i) and self.k_i >= 0.0):
            raise ValueError(f"k_i must be non-negative, got {self.k_i!r}")


class HurwitzReport(NamedTuple):
    is_hurwitz: bool
    max_real_part: float
    eigenvalues: np.ndarray


def follower_velocity(
    graph: FormationGraph,
    spec: BearingSpec,
    index: int,
    rel_positions: Mapping[int, np.ndarray] | Iterable[tuple[int, np.ndarray]],
    xi_i,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    """Control law of one follower from purely local data.

    ``rel_positions`` maps each neighbor j to p_i - p_j.  It must cover the
    follower's neighbor set exactly.  Returns the commanded velocity and the
    integral-state rate, both d-vectors.
    """
    ensure_aligned(graph, spec)
    if graph.is_leader(index) or not 0 <= index < graph.n:
        raise ValueError(f"agent {index} is not a follower")
    rel = dict(rel_positions)
    expected = set(graph.neighbors(index))
    if set(rel) != expected:
        raise UnknownNeighbor(
            f"relative positions cover agents {sorted(rel)} "
            f"but agent {index} has neighbors {sorted(expected)}"
        )
    xi = np.asarray(xi_i, dtype=float).reshape(-1)
    if xi.size != graph.d:
        raise DimensionMismatch(f"xi_i must have length {graph.d}, got {xi.size}")
    drive = np.zeros(graph.d)
    for j, r in rel.items():
        r = np.asarray(r, dtype=float).reshape(-1)
        if r.size != graph.d:
            raise DimensionMismatch(
                f"relative position to agent {j} has length {r.size}, "
                f"expected {graph.d}"
            )
        g = desired_bearing(graph, spec, index, j)
        drive += r - g * (g @ r)
    return -gains.k_p * drive - gains.k_i * xi, drive


def _loop_matrix(drive: np.ndarray, gains: Gains) -> np.ndarray:
    """State matrix on [p, xi] of the PI law, followers last in p.

    ``drive`` is the followers' rows of the Laplacian; other rows of p are zero.
    """
    k, c = drive.shape
    A = np.zeros((c + k, c + k))
    A[c - k : c, :c] = -gains.k_p * drive
    A[c - k : c, c:] = -gains.k_i * np.eye(k)
    A[c:, :c] = drive
    return A


@dataclass(frozen=True)
class ClosedLoop:
    """The closed loop as one linear system, z' = A z + B v.

    z = [p, xi] stacks all positions (leaders first) and the integral states;
    v stacks the leader velocities, so B = [I; 0] feeds the first
    ``n_inputs`` coordinates.  With v constant, one classical RK4 step of
    length h is exactly z <- Phi(h) z + Gamma(h) v, Phi(h) = sum_{k<=4} (hA)^k/k!.
    """

    A: np.ndarray = field(repr=False)
    n_inputs: int
    dt: float

    @classmethod
    def from_laplacian(cls, lap: BearingLaplacian, gains: Gains, dt: float) -> "ClosedLoop":
        split = lap.d * lap.n_leaders
        return cls(_loop_matrix(lap.matrix[split:], gains), split, dt)

    def _rk4_sum(self, h: float, x: np.ndarray) -> np.ndarray:
        """h (I + hA/2 + (hA)^2/6 + (hA)^3/24) x by Horner's rule, in place."""
        acc = x.copy()
        tmp = np.empty_like(acc)
        for k in (4.0, 3.0, 2.0):
            np.matmul(self.A, acc, out=tmp)
            tmp *= h / k
            tmp += x
            acc, tmp = tmp, acc
        acc *= h
        return acc

    @cached_property
    def propagator(self) -> tuple[np.ndarray, np.ndarray]:
        """(Phi(dt), Gamma(dt)), built on first use and kept."""
        S = self._rk4_sum(self.dt, np.eye(self.A.shape[0]))
        phi = self.A @ S
        phi[np.diag_indices_from(phi)] += 1.0
        return phi, S[:, : self.n_inputs].copy()

    def rate(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The state's rate of change, A z + B v."""
        dz = self.A @ z
        dz[: self.n_inputs] += v
        return dz

    def advance(self, z: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
        """One RK4 step of length h; other lengths than dt skip the kept pair."""
        if h == self.dt:
            phi, gamma = self.propagator
            return phi @ z + gamma @ v
        return z + self._rk4_sum(h, self.rate(z, v))


def effective_closed_loop_matrix(L_ff: np.ndarray, gains: Gains) -> np.ndarray:
    """Matrix whose spectrum governs convergence.

    The PI error dynamics [[-k_p*L_ff, -k_i*I], [L_ff, 0]], with the
    identity sized like L_ff.  With k_i = 0 the integral state decouples
    completely, so the meaningful part is just -k_p*L_ff.
    """
    M = np.asarray(L_ff, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"L_ff must be square, got shape {M.shape}")
    if gains.k_i == 0.0:
        return -gains.k_p * M
    return _loop_matrix(M, gains)


def _hurwitz_report(eigs: np.ndarray) -> HurwitzReport:
    """Sort by real then imaginary part; Hurwitz if every real part < -TAU_HURWITZ."""
    if eigs.size == 0:
        return HurwitzReport(True, -np.inf, np.zeros(0, dtype=complex))
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    max_real = float(eigs.real.max())
    return HurwitzReport(max_real < -TAU_HURWITZ, max_real, eigs)


def verify_hurwitz(A: np.ndarray) -> HurwitzReport:
    """Spectrum of A and whether every eigenvalue sits strictly left of 0."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {M.shape}")
    return _hurwitz_report(np.linalg.eigvals(M))


def closed_loop_spectrum(mu: np.ndarray, gains: Gains) -> HurwitzReport:
    """The spectrum of effective_closed_loop_matrix from the eigenvalues mu of L_ff.

    Each mu gives -k_p mu when k_i = 0, and otherwise the two roots of
    lambda^2 + k_p mu lambda + k_i mu = 0: the one of larger modulus from the
    formula, the other from the product k_i mu, or the conjugate for a
    complex pair.  Both roots are 0 when mu = 0.
    """
    mu = np.asarray(mu, dtype=float)
    if gains.k_i == 0.0:
        return _hurwitz_report(-gains.k_p * mu + 0.0)  # + 0.0 turns -0.0 into 0.0
    b = 0.5 * gains.k_p * mu
    disc = b * b - gains.k_i * mu
    root = np.sqrt(np.abs(disc))
    big = -(b + np.copysign(root, b))
    small = np.divide(gains.k_i * mu, big, out=np.zeros_like(big), where=big != 0.0)
    real = disc >= 0.0
    first = np.where(real, big, -b + 1j * root)
    second = np.where(real, small, -b - 1j * root)
    return _hurwitz_report(np.concatenate([first, second]) + 0.0)
