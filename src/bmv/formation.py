"""Core geometry for bearing-constrained formations.

A formation is an interaction graph plus a configuration of agent positions.
The quantities everything else is built from live here: unit bearing vectors
along edges, the stacked bearing map of a whole formation, its scale, the
edge-weighted Laplacian, and the leader velocities of a maneuver.

Arrays held by these types are read-only and every attribute is set once,
in ``__init__``; operations are pure functions on them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DegenerateVector, DimensionMismatch, UnknownNeighbor

# Two agents closer than this fraction of the longest edge of their formation
# count as collocated, and their bearing is undefined.
EPS_DEGENERATE = 1e-12

# At any scale, an edge no longer than this is collocated: 1/|e|^2 stays finite.
COLLOCATION_FLOOR = 1e-150

# Maximum deviation from unit length tolerated in a desired bearing.
UNIT_TOL = 1e-12


class FormationGraph:
    """Undirected interaction graph with a leader/follower split.

    Agents are indexed 0..n-1 and the first ``n_leaders`` of them are the
    leaders.  Edges are stored with a fixed orientation (tail = smaller
    index) so that every stacked quantity built from the edge list is
    deterministic regardless of how the edges were written down.
    """

    def __init__(self, n: int, d: int, edges, n_leaders: int) -> None:
        if int(n) != n or n < 2:
            raise ValueError(f"need at least 2 agents, got n={n}")
        if int(d) != d or d < 2:
            raise ValueError(f"ambient dimension must be >= 2, got d={d}")
        if not 1 <= n_leaders <= n:
            raise ValueError(f"leader count must lie in 1..{n}, got {n_leaders}")
        normalized = []
        seen = set()
        for edge in edges:
            i, j = int(edge[0]), int(edge[1])
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a missing vertex")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        self.n, self.d, self.n_leaders = int(n), int(d), int(n_leaders)
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def n_followers(self) -> int:
        return self.n - self.n_leaders

    def is_leader(self, i: int) -> bool:
        return 0 <= i < self.n_leaders

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edge endpoints as an (m, 2) integer array, read-only."""
        arr = np.asarray(self.edges, dtype=np.intp).reshape(self.m, 2)
        arr.setflags(write=False)
        return arr

    def neighbors(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.n:
            raise ValueError(f"no vertex {i}")
        return tuple(sorted(b if a == i else a for a, b in self.edges if i in (a, b)))

    def edge_index(self, i: int, j: int) -> int:
        """Position of the undirected edge {i, j} in the edge list."""
        try:
            return self.edges.index((min(i, j), max(i, j)))
        except ValueError:
            raise UnknownNeighbor(f"no edge between agents {i} and {j}") from None


class Configuration:
    """Agent positions; row i of ``points`` is the position of agent i."""

    def __init__(self, points) -> None:
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DimensionMismatch(
                f"positions must form an (n, d) array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("positions contain non-finite entries")
        pts.setflags(write=False)
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def stacked(self) -> np.ndarray:
        """Positions as one vector, agent by agent."""
        return self.points.reshape(-1)


class BearingSpec:
    """Desired unit bearing per edge, aligned with a graph's edge order.

    Row k of ``vectors`` is the target bearing of edge k, pointing from the
    edge's tail (smaller agent index) to its head.
    """

    def __init__(self, vectors) -> None:
        vecs = np.array(vectors, dtype=float)
        if vecs.ndim != 2:
            raise DimensionMismatch(
                f"bearings must form an (m, d) array, got shape {vecs.shape}"
            )
        if not np.all(np.isfinite(vecs)):
            raise ValueError("bearings contain non-finite entries")
        lengths = np.linalg.norm(vecs, axis=1)
        bad = np.nonzero(np.abs(lengths - 1.0) > UNIT_TOL)[0]
        if bad.size:
            raise ValueError(
                f"bearing {bad[0]} has length {lengths[bad[0]]!r}, expected unit"
            )
        vecs.setflags(write=False)
        self.vectors = vecs

    @classmethod
    def from_configuration(cls, graph: FormationGraph, config: Configuration) -> "BearingSpec":
        """Read the bearings off an existing configuration."""
        ensure_compatible(graph, config)
        return cls(edge_bearings(graph, config.points))

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def ensure_compatible(graph: FormationGraph, config: Configuration) -> None:
    """Raise DimensionMismatch unless graph and configuration agree on n and d."""
    if config.n != graph.n:
        raise DimensionMismatch(
            f"graph has {graph.n} agents but configuration has {config.n}"
        )
    if config.d != graph.d:
        raise DimensionMismatch(
            f"graph is {graph.d}-dimensional but configuration is {config.d}-dimensional"
        )


def ensure_aligned(graph: FormationGraph, spec: BearingSpec) -> None:
    """Raise DimensionMismatch unless the bearing spec matches the edge list."""
    if spec.m != graph.m:
        raise DimensionMismatch(
            f"graph has {graph.m} edges but bearing spec has {spec.m}"
        )
    if spec.d != graph.d:
        raise DimensionMismatch(
            f"graph is {graph.d}-dimensional but bearing spec is {spec.d}-dimensional"
        )


def bearing_function(graph: FormationGraph, config: Configuration) -> np.ndarray:
    """Stacked bearings of every edge, in edge order.

    Returns a vector of length d*m; entries d*k..d*(k+1) hold the bearing of
    edge k from its tail to its head.
    """
    ensure_compatible(graph, config)
    return edge_bearings(graph, config.points).reshape(-1)


def sum_squares(x: np.ndarray) -> np.ndarray:
    """np.sum(x * x, axis=-1) bit for bit, faster on a 2- or 3-long last axis."""
    total = x[..., 0] * x[..., 0]
    for a in range(1, x.shape[-1]):
        total += x[..., a] * x[..., a]
    return total


def scale(config: Configuration) -> float:
    """Root-mean-square distance of the agents from their centroid."""
    offsets = config.points - config.points.mean(axis=0)
    return float(np.sqrt(np.mean(sum_squares(offsets))))


def combined_command(
    v_c, reference_config: Configuration, n_leaders: int, rate: float
) -> np.ndarray:
    """Stacked leader velocities v_c + rate * (p_i - c), length d*n_leaders.

    Translation and scaling superposed; either part may be zero.  p_i runs
    over the first ``n_leaders`` agents of ``reference_config``, the target
    formation when the command is issued, and c is its centroid.  Because the
    offsets p_i - c of a translating, rescaling formation only change in
    length, one constant command steers the formation for a whole segment:
    the centroid drifts at exactly v_c and the scale ramps at rate times the
    starting scale.
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


def edge_bearings(graph: FormationGraph, points: np.ndarray) -> np.ndarray:
    """Bearings (..., m, d) of every edge for positions shaped (..., n, d).

    Raises DegenerateVector naming the first collocated edge found: one no
    longer than EPS_DEGENERATE times the longest edge of its formation, or
    than COLLOCATION_FLOOR.  So the verdict, like the bearings, does not
    change when a formation is moved or rescaled.
    """
    ends = graph.edge_array
    diffs = points[..., ends[:, 1], :] - points[..., ends[:, 0], :]
    norms = np.sqrt(sum_squares(diffs))
    longest = norms.max(axis=-1, keepdims=True, initial=0.0)
    short = np.argwhere(norms <= np.maximum(EPS_DEGENERATE * longest, COLLOCATION_FLOOR))
    if short.size:
        k = int(short[0, -1])
        i, j = graph.edges[k]
        raise DegenerateVector(f"agents {i} and {j} are collocated (edge {k})", agents=(i, j))
    return diffs / norms[..., None]


def edge_projectors(bearings: np.ndarray) -> np.ndarray:
    """I - g g^T for every row g of the (m, d) bearings, as one (m, d, d) array."""
    return np.eye(bearings.shape[-1]) - bearings[:, :, None] * bearings[:, None, :]


def edge_laplacian(graph: FormationGraph, blocks: np.ndarray) -> np.ndarray:
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


def desired_bearing(graph: FormationGraph, spec: BearingSpec, i: int, j: int) -> np.ndarray:
    """Target bearing from agent i to agent j, with the right sign."""
    ensure_aligned(graph, spec)
    k = graph.edge_index(i, j)
    vec = spec.vectors[k]
    return vec.copy() if i < j else -vec
