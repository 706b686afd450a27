"""Reference computations made apart from bmv.

Everything here works from a scenario document (the JSON the program reads)
and plain numpy, so the benchmark can generate inputs and judge the
program's outputs without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff for the rank of the rigidity matrix.
RANK_TOL = 1e-9

# Relative eigenvalue floor for calling the follower block positive definite.
PD_TOL = 1e-9

# Slack when comparing schedule boundary times.
TIME_TOL = 1e-9


@dataclass(frozen=True)
class Formation:
    """A scenario document with agents ordered leaders first, file order kept."""

    d: int
    labels: tuple[str, ...]
    n_leaders: int
    reference: np.ndarray          # (n, d)
    edges: tuple[tuple[int, int], ...]
    kp: float
    ki: float
    schedule: tuple[tuple[float, float, np.ndarray, float], ...]
    dt: float
    duration: float

    @property
    def n(self) -> int:
        return len(self.labels)


def formation_from_doc(doc: dict) -> Formation:
    d = int(doc["dimension"])
    leaders = [a["id"] for a in doc["agents"] if a["role"] == "leader"]
    followers = [a["id"] for a in doc["agents"] if a["role"] == "follower"]
    labels = tuple(leaders + followers)
    index = {label: k for k, label in enumerate(labels)}
    reference = np.array([doc["reference_positions"][label] for label in labels], float)
    edges = tuple(sorted({tuple(sorted((index[a], index[b]))) for a, b in doc["edges"]}))
    schedule = tuple(
        (float(s["t0"]), float(s["t1"]), np.array(s.get("vc", [0.0] * d), float),
         float(s.get("scale_rate", 0.0)))
        for s in doc["schedule"]
    )
    gains = doc.get("gains", {})
    return Formation(
        d=d, labels=labels, n_leaders=len(leaders), reference=reference,
        edges=edges, kp=float(gains.get("kp", 1.0)), ki=float(gains.get("ki", 0.5)),
        schedule=schedule, dt=float(doc.get("dt", 1e-3)),
        duration=float(doc["duration"]),
    )


def _unit_bearings(points: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    ends = np.asarray(edges)
    diff = points[..., ends[:, 1], :] - points[..., ends[:, 0], :]
    dist = np.linalg.norm(diff, axis=-1)
    return diff / dist[..., None], dist


def rigidity_rank(points: np.ndarray, edges) -> int:
    """Numerical rank of the bearing rigidity matrix, built here from scratch."""
    n, d = points.shape
    g, dist = _unit_bearings(points, edges)
    R = np.zeros((d * len(edges), d * n))
    for k, (i, j) in enumerate(edges):
        block = (np.eye(d) - np.outer(g[k], g[k])) / dist[k]
        R[d * k:d * k + d, d * i:d * i + d] = -block
        R[d * k:d * k + d, d * j:d * j + d] = block
    sv = np.linalg.svd(R, compute_uv=False)
    return int(np.sum(sv > RANK_TOL * sv[0]))


def laplacian(points: np.ndarray, edges) -> np.ndarray:
    """Projector-weighted Laplacian of the bearings of ``points``."""
    n, d = points.shape
    g, _ = _unit_bearings(points, edges)
    L = np.zeros((d * n, d * n))
    for k, (i, j) in enumerate(edges):
        proj = np.eye(d) - np.outer(g[k], g[k])
        for a, b, sign in ((i, i, 1.0), (j, j, 1.0), (i, j, -1.0), (j, i, -1.0)):
            L[d * a:d * a + d, d * b:d * b + d] += sign * proj
    return L


def follower_blocks(f: Formation) -> tuple[np.ndarray, np.ndarray]:
    """(L_ff, L_fl) of the reference formation."""
    L = laplacian(f.reference, f.edges)
    s = f.d * f.n_leaders
    return L[s:, s:], L[s:, :s]


def is_localizable(L_ff: np.ndarray) -> tuple[bool, np.ndarray]:
    eigs = np.linalg.eigvalsh(L_ff)
    return bool(eigs[0] > PD_TOL * max(eigs[-1], 0.0)), eigs


def closed_loop_roots(sigma: np.ndarray, kp: float, ki: float) -> np.ndarray:
    """Both roots of lambda^2 + kp*sigma*lambda + ki*sigma = 0 for every sigma."""
    b = kp * sigma.astype(complex)
    disc = np.sqrt(b * b - 4.0 * ki * sigma)
    return np.concatenate([(-b + disc) / 2.0, (-b - disc) / 2.0])


def rms_scale(points: np.ndarray) -> np.ndarray:
    """Root-mean-square distance to the centroid; points has shape (..., n, d)."""
    offsets = points - points.mean(axis=-2, keepdims=True)
    return np.sqrt(np.mean(np.sum(offsets * offsets, axis=-1), axis=-1))


def bearing_error(points: np.ndarray, f: Formation) -> np.ndarray:
    """Sum over edges of |g(p) - g*|; points has shape (..., n, d)."""
    g_now, _ = _unit_bearings(points, f.edges)
    g_ref, _ = _unit_bearings(f.reference, f.edges)
    return np.linalg.norm(g_now - g_ref, axis=-1).sum(axis=-1)


def time_grid(f: Formation) -> np.ndarray:
    """Sample times of a fixed-step run that lands on every segment boundary."""
    times = [0.0]
    for t0, t1, _, _ in f.schedule:
        t0, t1 = max(t0, 0.0), min(t1, f.duration)
        if t1 <= t0 + TIME_TOL:
            continue
        steps = int(np.ceil((t1 - t0) / f.dt - TIME_TOL))
        times.extend(t0 + np.minimum(np.arange(1, steps + 1) * f.dt, t1 - t0))
        if t1 >= f.duration - TIME_TOL:
            break
    return np.array(times)


def augmented_matrix(L_ff, L_fl, kp, ki, v_l) -> np.ndarray:
    """Affine closed loop on w = [p_f, xi, p_l, 1] for one constant leader velocity."""
    nf, nl = L_ff.shape[0], L_fl.shape[1]
    M = np.zeros((2 * nf + nl + 1, 2 * nf + nl + 1))
    M[:nf, :nf] = -kp * L_ff
    M[:nf, nf:2 * nf] = -ki * np.eye(nf)
    M[:nf, 2 * nf:2 * nf + nl] = -kp * L_fl
    M[nf:2 * nf, :nf] = L_ff
    M[nf:2 * nf, 2 * nf:2 * nf + nl] = L_fl
    M[2 * nf:2 * nf + nl, -1] = v_l
    return M


def rk4_step_matrix(M: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of w' = M w, which for a linear system is the
    Taylor polynomial of exp(hM) up to fourth order."""
    hM = h * M
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 5):
        term = term @ hM / k
        out = out + term
    return out
