"""Bearing Laplacian assembly, partitioning, and the follower solve."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmv import (
    BearingSpec,
    Configuration,
    DimensionMismatch,
    FormationGraph,
    NotLocalizable,
    bearing_laplacian,
    bearing_rigidity_matrix,
    check_localizable,
    target_follower_positions,
)
from conftest import (
    SQUARE_POINTS,
    laplacian_loop,
    random_formation,
    rigidity_matrix_loop,
)


def _square_laplacian(n_leaders=2):
    graph = FormationGraph(
        n=4, d=2,
        edges=((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)),
        n_leaders=n_leaders,
    )
    spec = BearingSpec.from_configuration(graph, Configuration(SQUARE_POINTS))
    return graph, bearing_laplacian(graph, spec)


def test_two_agent_laplacian_hand_computed():
    # Horizontal pair: projector kills x, keeps y.
    graph = FormationGraph(n=2, d=2, edges=((0, 1),), n_leaders=1)
    spec = BearingSpec.from_configuration(
        graph, Configuration(np.array([[0.0, 0.0], [1.0, 0.0]]))
    )
    lap = bearing_laplacian(graph, spec)
    P = np.array([[0.0, 0.0], [0.0, 1.0]])
    expected = np.block([[P, -P], [-P, P]])
    np.testing.assert_allclose(lap.matrix, expected, atol=1e-15)


def test_laplacian_symmetric_psd():
    rng = np.random.default_rng(7)
    for _ in range(8):
        graph, cfg = random_formation(rng, 6, 3, n_leaders=2, edge_prob=0.7)
        lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, cfg))
        np.testing.assert_allclose(lap.matrix, lap.matrix.T, atol=1e-14)
        assert np.linalg.eigvalsh(lap.matrix).min() > -1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    d=st.integers(2, 3),
    edge_prob=st.floats(0.3, 1.0),
)
def test_laplacian_annihilates_generating_configuration(seed, n, d, edge_prob):
    rng = np.random.default_rng(seed)
    graph, cfg = random_formation(rng, n, d, n_leaders=1, edge_prob=edge_prob)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, cfg))
    p = cfg.stacked
    assert np.linalg.norm(lap.matrix @ p) < 1e-10 * (1.0 + np.linalg.norm(p))
    for axis in range(d):
        shift = np.zeros(p.size)
        shift[axis::d] = 1.0
        assert np.linalg.norm(lap.matrix @ shift) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    d=st.integers(2, 3),
    edge_prob=st.floats(0.3, 1.0),
)
def test_assembly_matches_the_per_edge_loops(seed, n, d, edge_prob):
    rng = np.random.default_rng(seed)
    graph, cfg = random_formation(rng, n, d, n_leaders=1, edge_prob=edge_prob)
    spec = BearingSpec.from_configuration(graph, cfg)
    assert np.array_equal(bearing_laplacian(graph, spec).matrix, laplacian_loop(graph, spec))
    R, reference = bearing_rigidity_matrix(graph, cfg), rigidity_matrix_loop(graph, cfg)
    assert np.abs(R - reference).max() <= 1e-15 * np.abs(reference).max()


def test_block_partition_views():
    _, lap = _square_laplacian()
    L_ll, L_lf = lap.matrix[:4, :4], lap.matrix[:4, 4:]
    assert lap.L_fl.shape == (4, 4)
    assert lap.L_ff.shape == (4, 4)
    np.testing.assert_array_equal(lap.L_fl, L_lf.T)
    rebuilt = np.block([[L_ll, L_lf], [lap.L_fl, lap.L_ff]])
    np.testing.assert_array_equal(rebuilt, lap.matrix)


def test_square_two_leaders_localizable_eigenvalue():
    # lambda_min(L_ff) of the diagonalized unit square is (2 - sqrt(2))/2.
    _, lap = _square_laplacian(n_leaders=2)
    result = check_localizable(lap)
    assert result.localizable
    assert result.min_eigenvalue == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, rel=1e-12)


def test_square_one_leader_not_localizable():
    _, lap = _square_laplacian(n_leaders=1)
    result = check_localizable(lap)
    assert not result.localizable
    assert result.min_eigenvalue <= 1e-9


def test_all_leaders_vacuously_localizable():
    _, lap = _square_laplacian(n_leaders=4)
    result = check_localizable(lap)
    assert result.localizable
    assert result.min_eigenvalue == math.inf
    assert target_follower_positions(lap, SQUARE_POINTS.reshape(-1)).size == 0


def test_follower_solve_reproduces_reference():
    _, lap = _square_laplacian()
    leaders = SQUARE_POINTS[:2].reshape(-1)
    followers = target_follower_positions(lap, leaders)
    np.testing.assert_allclose(followers, SQUARE_POINTS[2:].reshape(-1), atol=1e-10)


def _localizable_laplacian(seed, n, d, leaders):
    """A random formation whose follower block is well inside positive definite."""
    rng = np.random.default_rng(seed)
    graph, cfg = random_formation(rng, n, d, n_leaders=min(leaders, n - 1), edge_prob=0.8)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, cfg))
    loc = lap.localizability
    assume(loc.localizable and loc.min_eigenvalue > 1e-3)
    return cfg.points, lap


FORMATIONS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 7),
    d=st.integers(2, 3),
    leaders=st.integers(2, 4),
)


@settings(max_examples=40, deadline=None)
@given(**FORMATIONS, shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_follower_solve_translation_equivariant(seed, n, d, leaders, shift):
    points, lap = _localizable_laplacian(seed, n, d, leaders)
    shift = np.array(shift[:d])
    n_l = lap.n_leaders
    followers = target_follower_positions(lap, (points[:n_l] + shift).reshape(-1))
    np.testing.assert_allclose(followers.reshape(-1, d), points[n_l:] + shift, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(**FORMATIONS, factor=st.floats(0.1, 10.0))
def test_follower_solve_homogeneous(seed, n, d, leaders, factor):
    # The solve is linear in the leader stack, so scaling about the origin
    # scales the followers with it.
    points, lap = _localizable_laplacian(seed, n, d, leaders)
    leaders = points[: lap.n_leaders].reshape(-1)
    base = target_follower_positions(lap, leaders)
    scaled = target_follower_positions(lap, factor * leaders)
    np.testing.assert_allclose(scaled, factor * base, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 12),
    d=st.integers(2, 3),
    exponent=st.floats(-4.0, -0.5),
)
def test_follower_map_on_near_collinear_chains(seed, n, d, exponent):
    # Agents strung along the x axis, at most 10**exponent off it, with edges
    # (k, k+1) and (k, k+2): L_ff grows ill-conditioned as the chain
    # flattens, down to lambda_min / lambda_max = TAU_PD.
    rng = np.random.default_rng(seed)
    points = np.zeros((n, d))
    points[:, 0] = np.arange(n) + rng.uniform(-0.3, 0.3, n)
    points[:, 1:] = 10.0**exponent * rng.uniform(-1.0, 1.0, (n, d - 1))
    edges = tuple((k, k + s) for k in range(n) for s in (1, 2) if k + s < n)
    graph = FormationGraph(n=n, d=d, edges=edges, n_leaders=2)
    spec = BearingSpec.from_configuration(graph, Configuration(points))
    lap = bearing_laplacian(graph, spec)
    assume(lap.localizability.localizable)  # lambda_min > TAU_PD * lambda_max
    T = lap.follower_map  # the residual check passes
    np.testing.assert_array_equal(T, np.linalg.solve(lap.L_ff, -lap.L_fl))
    # the map has one route: reading the modes first leaves it bit for bit
    again = bearing_laplacian(graph, spec)
    again.modes
    np.testing.assert_array_equal(again.follower_map, T)


def test_follower_solve_requires_localizability():
    _, lap = _square_laplacian(n_leaders=1)
    with pytest.raises(NotLocalizable):
        target_follower_positions(lap, SQUARE_POINTS[0])


def test_follower_solve_checks_leader_length():
    _, lap = _square_laplacian()
    with pytest.raises(DimensionMismatch):
        target_follower_positions(lap, np.zeros(3))
