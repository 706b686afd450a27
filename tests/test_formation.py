"""Geometry primitives: edge projectors, bearings, graphs, stacked bearing map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmv import (
    BearingSpec,
    Configuration,
    DegenerateVector,
    DimensionMismatch,
    FormationGraph,
    UnknownNeighbor,
    bearing_function,
    bearing_laplacian,
    desired_bearing,
)
from bmv.formation import ensure_aligned, ensure_compatible

from conftest import SQUARE_EDGES, SQUARE_POINTS, random_formation


# ---------------------------------------------------------------------------
# edge projectors: the Laplacian block of edge (i, j) is -P_g, g its bearing

def _edge_projector(x) -> np.ndarray:
    """Off-diagonal Laplacian block of a two-agent formation along x."""
    x = np.asarray(x, dtype=float)
    graph = FormationGraph(n=2, d=x.size, edges=((0, 1),), n_leaders=1)
    config = Configuration(np.stack([np.zeros(x.size), x]))
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, config))
    return -lap.matrix[: x.size, x.size :]


def test_projector_of_diagonal_vector():
    # P for (1, 1): worked out by hand.
    P = _edge_projector([1.0, 1.0])
    np.testing.assert_allclose(P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_projector_properties_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        x = rng.normal(size=d)
        if np.linalg.norm(x) < 1e-6:
            continue
        P = _edge_projector(x)
        np.testing.assert_allclose(P, P.T, atol=1e-14)
        np.testing.assert_allclose(P @ P, P, atol=1e-14)
        # annihilates its own direction, fixes anything orthogonal
        np.testing.assert_allclose(P @ x, np.zeros(d), atol=1e-13)
        assert np.linalg.eigvalsh(P).min() > -1e-14


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    d=st.integers(2, 3),
    factor=st.floats(0.01, 100.0),
)
def test_projector_scale_invariant(seed, n, d, factor):
    # every block of the Laplacian sums edge projectors, which see only bearings
    rng = np.random.default_rng(seed)
    graph, cfg = random_formation(rng, n, d, edge_prob=0.8)
    lap, scaled = (
        bearing_laplacian(graph, BearingSpec.from_configuration(graph, c))
        for c in (cfg, Configuration(factor * cfg.points))
    )
    np.testing.assert_allclose(scaled.matrix, lap.matrix, atol=1e-14)


def test_projector_rejects_zero_vector():
    with pytest.raises(DegenerateVector):
        _edge_projector(np.zeros(3))


# ---------------------------------------------------------------------------
# bearings of single edges

def _bearing(p_i, p_j) -> np.ndarray:
    """Bearing from p_i to p_j through the stacked map of a one-edge graph."""
    pts = np.array([p_i, p_j], dtype=float)
    graph = FormationGraph(n=2, d=pts.shape[1], edges=((0, 1),), n_leaders=1)
    return bearing_function(graph, Configuration(pts))


def test_bearing_unit_diagonal():
    g = _bearing([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(g, np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-15)


def test_bearing_antisymmetric():
    p = np.array([0.2, 1.4])
    q = np.array([-1.0, 0.7])
    np.testing.assert_allclose(_bearing(p, q), -_bearing(q, p), atol=1e-15)


def test_bearing_collocated_raises():
    with pytest.raises(DegenerateVector):
        _bearing([1.0, 2.0], [1.0, 2.0])


def test_bearing_dimension_mismatch():
    graph = FormationGraph(n=2, d=2, edges=((0, 1),), n_leaders=1)
    with pytest.raises(DimensionMismatch):
        bearing_function(graph, Configuration(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# graph bookkeeping

def test_graph_normalizes_edge_orientation():
    g = FormationGraph(n=3, d=2, edges=((2, 0), (1, 2)), n_leaders=1)
    assert g.edges == ((0, 2), (1, 2))
    assert g.m == 2
    assert g.n_followers == 2


def test_graph_rejects_duplicates_in_either_orientation():
    with pytest.raises(ValueError, match="duplicate"):
        FormationGraph(n=3, d=2, edges=((0, 1), (1, 0)), n_leaders=1)


def test_graph_rejects_self_loop_and_bad_vertex():
    with pytest.raises(ValueError, match="self-loop"):
        FormationGraph(n=3, d=2, edges=((1, 1),), n_leaders=1)
    with pytest.raises(ValueError, match="missing vertex"):
        FormationGraph(n=3, d=2, edges=((0, 3),), n_leaders=1)


def test_graph_leader_count_bounds():
    with pytest.raises(ValueError):
        FormationGraph(n=3, d=2, edges=((0, 1),), n_leaders=0)
    with pytest.raises(ValueError):
        FormationGraph(n=3, d=2, edges=((0, 1),), n_leaders=4)
    g = FormationGraph(n=3, d=2, edges=((0, 1),), n_leaders=3)
    assert g.n_followers == 0


def test_graph_neighbors_and_edge_index(square_graph):
    assert square_graph.neighbors(0) == (1, 2, 3)
    assert square_graph.neighbors(3) == (0, 1, 2)
    assert square_graph.edge_index(0, 1) == 0
    assert square_graph.edge_index(1, 0) == 0
    assert square_graph.edge_index(3, 1) == 5
    with pytest.raises(UnknownNeighbor):
        # K4 has all edges; ask a 5-vertex question instead
        FormationGraph(n=5, d=2, edges=((0, 1),), n_leaders=1).edge_index(0, 2)


def test_graph_is_leader(square_graph):
    assert square_graph.is_leader(0)
    assert square_graph.is_leader(1)
    assert not square_graph.is_leader(2)


# ---------------------------------------------------------------------------
# configurations and bearing specs

def test_configuration_stacking_roundtrip():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 3))
    cfg = Configuration(pts)
    again = Configuration(cfg.stacked.reshape(-1, 3))
    np.testing.assert_array_equal(again.points, cfg.points)
    np.testing.assert_array_equal(cfg.stacked[12:15], pts[4])


def test_configuration_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        Configuration(np.zeros(4))
    with pytest.raises(ValueError):
        Configuration(np.array([[0.0, np.nan]]))


def test_configuration_is_immutable():
    cfg = Configuration(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cfg.points[0, 0] = 1.0


def test_bearing_spec_requires_unit_rows():
    with pytest.raises(ValueError, match="unit"):
        BearingSpec(np.array([[1.0, 1.0]]))
    spec = BearingSpec(np.array([[0.6, 0.8]]))
    assert spec.m == 1 and spec.d == 2


def test_ensure_compatible_and_aligned(square_graph, square_config):
    ensure_compatible(square_graph, square_config)
    spec = BearingSpec.from_configuration(square_graph, square_config)
    ensure_aligned(square_graph, spec)
    with pytest.raises(DimensionMismatch):
        ensure_compatible(square_graph, Configuration(np.zeros((5, 2))))
    with pytest.raises(DimensionMismatch):
        ensure_aligned(square_graph, BearingSpec(np.array([[1.0, 0.0]])))


# ---------------------------------------------------------------------------
# stacked bearing map

UNIT_SQUARE_BEARINGS = np.array([
    [1.0, 0.0],                                   # 0 -> 1
    [0.0, 1.0],                                   # 1 -> 2
    [-1.0, 0.0],                                  # 2 -> 3
    [0.0, 1.0],                                   # 0 -> 3
    [math.sqrt(0.5), math.sqrt(0.5)],             # 0 -> 2
    [-math.sqrt(0.5), math.sqrt(0.5)],            # 1 -> 3
])


def test_bearing_function_unit_square(square_graph, square_config):
    stacked = bearing_function(square_graph, square_config)
    np.testing.assert_allclose(
        stacked.reshape(6, 2), UNIT_SQUARE_BEARINGS, atol=1e-15
    )


def test_bearing_function_matches_pairwise():
    rng = np.random.default_rng(11)
    for _ in range(10):
        graph, cfg = random_formation(rng, n=6, d=3, edge_prob=0.7)
        stacked = bearing_function(graph, cfg).reshape(graph.m, 3)
        for k, (i, j) in enumerate(graph.edges):
            diff = cfg.points[j] - cfg.points[i]
            np.testing.assert_allclose(
                stacked[k], diff / np.linalg.norm(diff), atol=1e-14
            )


def test_bearing_function_collocated_names_edge():
    graph = FormationGraph(n=3, d=2, edges=((0, 1), (1, 2)), n_leaders=1)
    cfg = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateVector, match="agents 1 and 2"):
        bearing_function(graph, cfg)


def test_bearing_function_empty_graph():
    graph = FormationGraph(n=2, d=2, edges=(), n_leaders=1)
    cfg = Configuration(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert bearing_function(graph, cfg).size == 0


def test_desired_bearing_signed_lookup(square_graph, square_config):
    spec = BearingSpec.from_configuration(square_graph, square_config)
    np.testing.assert_allclose(desired_bearing(square_graph, spec, 0, 2),
                               UNIT_SQUARE_BEARINGS[4], atol=1e-15)
    np.testing.assert_allclose(desired_bearing(square_graph, spec, 2, 0),
                               -UNIT_SQUARE_BEARINGS[4], atol=1e-15)
    with pytest.raises(UnknownNeighbor):
        graph = FormationGraph(n=4, d=2, edges=((0, 1),), n_leaders=1)
        desired_bearing(graph, BearingSpec(np.array([[1.0, 0.0]])), 2, 3)
