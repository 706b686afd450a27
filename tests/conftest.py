"""Shared fixtures and oracle helpers for the test suite.

The finite-difference Jacobian here is the independent reference the
analytic rigidity matrix is checked against, and the per-edge loops are the
references for the vectorized Laplacian and rigidity-matrix assembly; keep
them dumb on purpose.  ``loop_rate`` is the closed loop's dense stacked rate,
and ``loop_advance`` one step of the modal stepper from a stacked state.
"""

import itertools

import numpy as np
import pytest

from bmv import BearingSpec, ClosedLoop, Configuration, FormationGraph, bearing_function

# Central differences with this step put the FD error near 1e-9 for
# unit-scale formations, well inside the 1e-6 comparison tolerance.
FD_STEP = 1e-6

# Agents closer than this are resampled when generating random formations.
MIN_SEPARATION = 0.3


def fd_bearing_jacobian(graph: FormationGraph, config: Configuration, h: float = FD_STEP) -> np.ndarray:
    """Numerical Jacobian of the stacked bearing map, column by column."""
    base = config.stacked
    cols = []
    for k in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[k] += h
        minus[k] -= h
        f_plus = bearing_function(graph, Configuration.from_stacked(plus, graph.d))
        f_minus = bearing_function(graph, Configuration.from_stacked(minus, graph.d))
        cols.append((f_plus - f_minus) / (2.0 * h))
    return np.stack(cols, axis=1)


def laplacian_loop(graph: FormationGraph, spec: BearingSpec) -> np.ndarray:
    """The bearing Laplacian's (d*n, d*n) matrix, one edge's projector at a time."""
    d, n = graph.d, graph.n
    L = np.zeros((d * n, d * n))
    eye = np.eye(d)
    for k, (i, j) in enumerate(graph.edges):
        g = spec.vectors[k]
        proj = eye - np.outer(g, g)
        bi = slice(d * i, d * (i + 1))
        bj = slice(d * j, d * (j + 1))
        L[bi, bi] += proj
        L[bj, bj] += proj
        L[bi, bj] -= proj
        L[bj, bi] -= proj
    return L


def rigidity_matrix_loop(graph: FormationGraph, config: Configuration) -> np.ndarray:
    """The bearing rigidity matrix, one edge's row block at a time."""
    d, n, m = graph.d, graph.n, graph.m
    bearings = bearing_function(graph, config).reshape(m, d)
    R = np.zeros((d * m, d * n))
    eye = np.eye(d)
    for k, (i, j) in enumerate(graph.edges):
        g = bearings[k]
        dist = np.linalg.norm(config.points[j] - config.points[i])
        block = (eye - np.outer(g, g)) / dist
        rows = slice(d * k, d * (k + 1))
        R[rows, d * i : d * (i + 1)] = -block
        R[rows, d * j : d * (j + 1)] = block
    return R


def loop_rate(loop: ClosedLoop, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rate of z = [p, xi]: leaders move at v, followers run the PI law
    on the Laplacian's follower rows."""
    nd = loop.lap.matrix.shape[0]
    drive = loop.lap.matrix[v.size :] @ z[:nd]
    return np.concatenate([v, -loop.gains.k_p * drive - loop.gains.k_i * z[nd:], drive])


def loop_advance(loop: ClosedLoop, z: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of length h from the stacked state z, mode by mode."""
    block = np.stack([z, z])
    loop.change_basis(block[:1], modal=True)
    loop.fill(block, v, h)
    loop.change_basis(block[1:], modal=False)
    return block[1]


def random_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Points in a box of side 4 with pairwise separation >= MIN_SEPARATION."""
    while True:
        pts = rng.uniform(-2.0, 2.0, size=(n, d))
        diffs = pts[:, None, :] - pts[None, :, :]
        dists = np.linalg.norm(diffs, axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= MIN_SEPARATION:
            return pts


def random_formation(
    rng: np.random.Generator,
    n: int,
    d: int,
    n_leaders: int = 1,
    edge_prob: float = 1.0,
) -> tuple[FormationGraph, Configuration]:
    """Random formation on a random subgraph of K_n (at least one edge)."""
    all_edges = list(itertools.combinations(range(n), 2))
    while True:
        keep = [e for e in all_edges if rng.uniform() < edge_prob]
        if keep:
            break
    graph = FormationGraph(n=n, d=d, edges=tuple(keep), n_leaders=n_leaders)
    return graph, Configuration(random_points(rng, n, d))


SQUARE_POINTS = np.array([
    [0.0, 0.0],
    [1.0, 0.0],
    [1.0, 1.0],
    [0.0, 1.0],
])

SQUARE_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3))


@pytest.fixture
def square_graph() -> FormationGraph:
    """Unit square with both diagonals, two leaders."""
    return FormationGraph(n=4, d=2, edges=SQUARE_EDGES, n_leaders=2)


@pytest.fixture
def square_config() -> Configuration:
    return Configuration(SQUARE_POINTS)
