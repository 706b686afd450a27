"""Distributed PI control law for the followers.

Each follower steers against the projection of its relative positions onto
the complements of the desired bearings, plus an integral term that absorbs
constant leader velocities.  The same law is available agent by agent (what
a robot would run) and as one linear system on the stacked state (what the
simulator integrates and the analysis uses); the two are algebraically
identical.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, UnknownNeighbor
from .formation import BearingSpec, FormationGraph, desired_bearing, ensure_aligned
from .laplacian import BearingLaplacian

# An eigenvalue real part above -TAU_HURWITZ disqualifies the matrix.
TAU_HURWITZ = 1e-10

# Largest gain accepted.  Every block of the Laplacian is a projector, so each
# eigenvalue mu of L_ff is at most 2n, and (k mu)^2 stays far below overflow.
GAIN_LIMIT = 1e100


class Gains:
    """Proportional and integral gains.

    k_p must be positive.  k_i may be zero, which degenerates to the
    proportional-only law (no disturbance rejection).  Neither may exceed
    GAIN_LIMIT.
    """

    def __init__(self, k_p: float, k_i: float) -> None:
        if not 0.0 < k_p <= GAIN_LIMIT:
            raise ValueError(f"k_p must be positive and at most {GAIN_LIMIT:g}, got {k_p!r}")
        if not 0.0 <= k_i <= GAIN_LIMIT:
            raise ValueError(f"k_i must be non-negative and at most {GAIN_LIMIT:g}, "
                             f"got {k_i!r}")
        self.k_p, self.k_i = k_p, k_i


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


# Equal steps a ClosedLoop tabulates, and so writes in one pass.
BLOCK_STEPS = 128


class ClosedLoop:
    """The PI closed loop on z = [p, xi] (leaders first), stepped mode by mode.

    The leaders move at the constant stacked velocity v.  Along the
    eigenvectors U of L_ff = U diag(mu) U^T the followers split into one
    system per mode on [q, eta, f, g]: q = U^T p_f, eta = U^T xi and the
    affine leader forcing f = W p_l, f' = g = W v, with (mu, U, W) = lap.modes.
    One classical RK4 step of length h is then one 4x4 matrix K(h) per mode.
    """

    def __init__(self, lap: BearingLaplacian, gains: Gains, dt: float) -> None:
        self.lap, self.gains, self.dt = lap, gains, dt

    @property
    def _columns(self) -> tuple[slice, slice]:
        """Where p_f and xi sit in z."""
        nd = self.lap.matrix.shape[0]
        return slice(self.lap.d * self.lap.n_leaders, nd), slice(nd, None)

    def _powers(self, h: float, count: int) -> np.ndarray:
        """Rows q and eta of K(h)^i for i = 1..count, shaped (2, 4, count, modes)."""
        mu = self.lap.modes[0]
        k_p, k_i = self.gains.k_p, self.gains.k_i
        one, zero = np.ones_like(mu), np.zeros_like(mu)
        A = [[-k_p * mu, -k_i * one, -k_p * one, zero], [mu, zero, one, zero],
             [zero, zero, zero, one], [zero, zero, zero, zero]]
        hA = h * np.moveaxis(np.array(A), -1, 0)  # (modes, 4, 4) on [q, eta, f, g]
        K = np.eye(4)
        for k in (4.0, 3.0, 2.0, 1.0):
            K = np.eye(4) + hA @ K / k
        table = np.empty((2, 4, count, mu.size))
        rows = K[:, :2]
        for i in range(count):
            table[:, :, i] = rows.transpose(1, 2, 0)
            rows = rows @ K
        return table

    @cached_property
    def spectrum(self) -> HurwitzReport:
        """The closed-loop spectrum, from mu (see closed_loop_spectrum)."""
        return closed_loop_spectrum(self.lap.modes[0], self.gains)

    @cached_property
    def amplification(self) -> float:
        """step_amplification of the spectrum at dt: above 1, stepping diverges."""
        return step_amplification(self.spectrum.eigenvalues, self.dt)

    @cached_property
    def _dt_powers(self) -> np.ndarray:
        return self._powers(self.dt, BLOCK_STEPS)

    def tracking_error(self, block: np.ndarray) -> np.ndarray:
        """||p_f - T_fl p_l|| of rows [p_l, q, eta]: T_fl = -U diag(1/mu) W, and U
        keeps norms, so it is ||q + W p_l / mu||.  NaN where L_ff is singular."""
        if not self.lap.localizability.localizable:
            return np.full(len(block), np.nan)
        mu, _, W = self.lap.modes
        x = block[:, self._columns[0]] + block[:, : W.shape[1]] @ W.T / mu
        return np.sqrt(np.einsum("ij,ij->i", x, x))

    def change_basis(self, states: np.ndarray, modal: bool) -> None:
        """Turn rows [p_l, p_f, xi] into [p_l, q, eta] in place, or back."""
        U = self.lap.modes[1]
        U = U if modal else U.T
        for cols in self._columns:
            states[:, cols] = states[:, cols] @ U

    def fill(self, block: np.ndarray, v: np.ndarray, h: float) -> None:
        """Write RK4 steps of length h into block[1:], at most BLOCK_STEPS of
        them, from the state in block[0]; rows are [p_l, q, eta]."""
        mu, _, W = self.lap.modes
        count = len(block) - 1
        table = self._dt_powers if h == self.dt else self._powers(h, count)
        leaders = block[:, : v.size]
        start = tuple(block[0, cols] for cols in self._columns) + (W @ leaders[0], W @ v)
        # RK4 moves the leaders by exactly h v per step; sum those in order
        leaders[1:] = h * v
        np.cumsum(leaders, axis=0, out=leaders)
        tmp = np.empty((count, mu.size))
        for r, cols in enumerate(self._columns):
            out = block[1:, cols]
            np.multiply(table[r, 0, :count], start[0], out=out)
            for c in (1, 2, 3):
                out += np.multiply(table[r, c, :count], start[c], out=tmp)


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
    k = M.shape[0]
    A = np.zeros((2 * k, 2 * k))
    A[:k, :k] = -gains.k_p * M
    A[:k, k:] = -gains.k_i * np.eye(k)
    A[k:, :k] = M
    return A


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


def step_amplification(eigenvalues: np.ndarray, h: float) -> float:
    """The largest |R(h lambda)| over the modes lambda != 0 with Re lambda <= 0.

    R(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 is the factor by which one
    classical RK4 step of length h multiplies the mode lambda, so above 1 a
    run diverges; it rounds to 1 once |h lambda| is below the float
    resolution.  Every such mode counts, however lightly damped: on and near
    the imaginary axis RK4 is stable only up to |h lambda| = 2 sqrt(2).  A
    mode of exactly 0 (R = 1), or one that grows in the exact flow too, as
    from a rounding-negative mu in a forced run, is left out; with no mode
    left the value is 0.
    """
    eigs = np.asarray(eigenvalues)
    with np.errstate(over="ignore", invalid="ignore"):
        x = h * eigs[(eigs != 0.0) & (eigs.real <= 0.0)]
        r = np.abs(1.0 + x * (1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0))))
    r[np.isnan(r)] = np.inf
    return float(r.max(initial=0.0))


def largest_stable_step(eigenvalues: np.ndarray, h: float) -> float:
    """A step up to h at which step_amplification is at most 1: h halved
    until it is, then bisected against the last step that was not."""
    lo = h
    while step_amplification(eigenvalues, lo) > 1.0:
        lo /= 2.0
    hi = min(2.0 * lo, h)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if step_amplification(eigenvalues, mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo
