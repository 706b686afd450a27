"""Rigidity matrix against a finite-difference oracle, plus rank laws.

The analytic Jacobian never gets to grade its own homework: every structural
claim is checked against central differences of the bearing map or against
hand-computed small cases.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from bmv import (
    Configuration,
    DegenerateVector,
    FormationGraph,
    bearing_rigidity_matrix,
    rigidity,
    rigidity_report,
)
from bmv.rigidity import TAU_RANK, certify_rigid
from conftest import (SQUARE_EDGES, SQUARE_POINTS, fd_bearing_jacobian, jittered_lattice,
                      random_formation)


def test_two_agents_hand_computed():
    # Agents at (0,0) and (2,0): bearing (1,0), projector diag(0,1), distance 2.
    graph = FormationGraph(n=2, d=2, edges=((0, 1),), n_leaders=1)
    cfg = Configuration(np.array([[0.0, 0.0], [2.0, 0.0]]))
    R = bearing_rigidity_matrix(graph, cfg)
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -0.5, 0.0, 0.5],
    ])
    np.testing.assert_allclose(R, expected, atol=1e-15)


def test_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(2, 4))
        graph, cfg = random_formation(rng, n, d, edge_prob=0.8)
        R = bearing_rigidity_matrix(graph, cfg)
        J = fd_bearing_jacobian(graph, cfg)
        assert np.max(np.abs(R - J)) < 1e-6


def test_annihilates_translations_and_positions():
    rng = np.random.default_rng(23)
    for _ in range(10):
        graph, cfg = random_formation(rng, 6, 2, edge_prob=0.7)
        R = bearing_rigidity_matrix(graph, cfg)
        for axis in range(2):
            shift = np.zeros(12)
            shift[axis::2] = 1.0
            assert np.max(np.abs(R @ shift)) < 1e-12
        # positions themselves: each row block sees P_g g = 0
        assert np.max(np.abs(R @ cfg.stacked)) < 1e-12


def test_square_with_diagonals_is_rigid(square_graph, square_config):
    report = rigidity_report(square_graph, square_config)
    assert report.rank == 5
    assert report.required_rank == 2 * 4 - 2 - 1
    assert report.is_infinitesimally_bearing_rigid
    assert report.null_space_dim == 3


def test_plain_square_cycle_is_not_rigid():
    # Without a diagonal the top edge can slide: four rank-one blocks.
    graph = FormationGraph(
        n=4, d=2, edges=((0, 1), (1, 2), (2, 3), (0, 3)), n_leaders=2
    )
    report = rigidity_report(graph, Configuration(SQUARE_POINTS))
    assert report.rank == 4
    assert not report.is_infinitesimally_bearing_rigid


def test_collinear_three_agents_rank_deficient():
    graph = FormationGraph(n=3, d=2, edges=((0, 1), (1, 2), (0, 2)), n_leaders=1)
    cfg = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]))
    report = rigidity_report(graph, cfg)
    assert report.rank < report.required_rank
    assert not report.is_infinitesimally_bearing_rigid


def test_singular_values_sorted_and_consistent(square_graph, square_config):
    report = rigidity_report(square_graph, square_config)
    sv = report.singular_values
    assert np.all(np.diff(sv) <= 1e-15)
    assert report.null_space_dim == 8 - report.rank == 3
    # 6 edges x d=2 rows vs 8 columns: svd returns min(12, 8) = 8 values
    assert sv.size == 8


def test_null_space_is_exactly_the_trivial_motions(square_graph, square_config):
    R = bearing_rigidity_matrix(square_graph, square_config)
    _, _, vt = np.linalg.svd(R)
    null_basis = vt[5:].T          # rank 5, so the last 3 right vectors
    # translations along each axis, and scaling about the centroid
    points = square_config.points
    trivial = np.column_stack(
        [np.tile(axis, 4) for axis in np.eye(2)] + [(points - points.mean(axis=0)).reshape(-1)]
    )
    angles = subspace_angles(null_basis, trivial)
    assert np.max(angles) < 1e-8


def test_rigidity_matrix_collocated_raises():
    graph = FormationGraph(n=2, d=2, edges=((0, 1),), n_leaders=1)
    cfg = Configuration(np.zeros((2, 2)))
    with pytest.raises(DegenerateVector):
        bearing_rigidity_matrix(graph, cfg)


def test_rank_invariant_under_rotation_translation_scale(square_graph, square_config):
    theta = 0.73
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    moved = Configuration(3.0 * (SQUARE_POINTS @ rot.T) + np.array([5.0, -2.0]))
    report = rigidity_report(square_graph, moved)
    assert report.rank == 5
    assert report.is_infinitesimally_bearing_rigid


def _formation(seed, n, d, edge_prob, flatten):
    """random_formation with every coordinate but the first scaled by
    ``flatten``: 0 puts the agents on one line, a tiny value nearly so."""
    graph, cfg = random_formation(np.random.default_rng(seed), n, d, edge_prob=edge_prob)
    points = cfg.points.copy()
    points[:, 1:] *= flatten
    return graph, Configuration(points)


# A complete triangle 1e-7 off a line: sigma_min / sigma_max is about 1e-8,
# past the Gram path's reach but well above the rank cutoff.
NEARLY_COLLINEAR = dict(seed=0, n=3, d=2, edge_prob=1.0, flatten=1e-7)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    d=st.integers(2, 3),
    edge_prob=st.sampled_from([1.0, 0.3]),  # dense, or sparse and mostly not rigid
    flatten=st.sampled_from([1.0, 0.0]),    # general position, or collinear
)
@example(**NEARLY_COLLINEAR)
def test_report_matches_the_svd(seed, n, d, edge_prob, flatten):
    graph, cfg = _formation(seed, n, d, edge_prob, flatten)
    report = rigidity_report(graph, cfg)
    sv = np.linalg.svd(bearing_rigidity_matrix(graph, cfg), compute_uv=False)
    rank = int(np.sum(sv > TAU_RANK * sv[0]))
    assert report.rank == rank
    assert report.is_infinitesimally_bearing_rigid == (rank == d * n - d - 1)
    assert report.singular_values.size == sv.size
    # eigenvalues of R^T R carry an absolute error of a few eps * sigma_max^2
    assert np.abs(report.singular_values**2 - sv**2).max() <= 1e-13 * sv[0] ** 2


def test_nearly_collinear_formation_takes_the_svd():
    graph, cfg = _formation(**NEARLY_COLLINEAR)
    sv = np.linalg.svd(bearing_rigidity_matrix(graph, cfg), compute_uv=False)
    assert 1e-9 < sv[graph.d * graph.n - graph.d - 2] / sv[0] < 1e-6
    assert rigidity._gram_singular_values(graph, cfg) is None
    report = rigidity_report(graph, cfg)
    assert report.is_infinitesimally_bearing_rigid
    assert np.array_equal(report.singular_values, sv)


def test_trivial_singular_values_are_exact_zeros(square_graph, square_config):
    sv = rigidity_report(square_graph, square_config).singular_values
    assert np.all(sv[:5] > 0.0) and np.all(sv[5:] == 0.0)


def _pushed(seed, n, d, edge_prob, offset):
    """random_formation with a neighbour k of agent j moved onto the line
    through j along its bearing to another neighbour l, and then ``offset``
    times |p_l - p_j| off that line."""
    rng = np.random.default_rng(seed)
    graph, cfg = random_formation(rng, n, d, edge_prob=edge_prob)
    j = int(rng.integers(n))
    assume(len(graph.neighbors(j)) >= 2)
    k, l = rng.choice(graph.neighbors(j), size=2, replace=False)
    points = cfg.points.copy()
    bearing = points[l] - points[j]
    across = rng.normal(size=d)
    across -= (across @ bearing) / (bearing @ bearing) * bearing
    across *= offset * np.linalg.norm(bearing) / np.linalg.norm(across)
    points[k] = points[j] + rng.choice([-0.5, 0.5, 1.5]) * bearing + across
    return graph, Configuration(points)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    d=st.integers(2, 3),
    edge_prob=st.sampled_from([1.0, 0.6]),
    offset=st.sampled_from([None, 0.0, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2]),
    side=st.one_of(st.none(), st.integers(2, 4)),  # a jittered lattice instead
    k=st.integers(2, 6),
)
@example(seed=0, n=3, d=2, edge_prob=1.0, offset=1e-7, side=None, k=2)
def test_a_certified_formation_has_full_rank(seed, n, d, edge_prob, offset, side, k):
    # The Cholesky certificate never calls rigid what the report does not.
    if side is not None:
        graph, cfg = jittered_lattice(np.random.default_rng(seed), side, d, k)
        n = graph.n
    elif offset is None:
        graph, cfg = random_formation(np.random.default_rng(seed), n, d, edge_prob=edge_prob)
    else:
        graph, cfg = _pushed(seed, n, d, edge_prob, offset)
    try:
        certified = certify_rigid(graph, cfg)
    except DegenerateVector:
        assume(False)
    if certified:
        report = rigidity_report(graph, cfg)
        assert report.rank == report.required_rank == d * n - d - 1
        sv = np.linalg.svd(bearing_rigidity_matrix(graph, cfg), compute_uv=False)
        assert sv[d * n - d - 2] > TAU_RANK * sv[0]


def test_the_certificate_declines_a_nearly_collinear_rigid_formation():
    # sigma_min / sigma_max of about 1e-8 is rigid to the report, and too
    # small for the certificate to prove: check then prints the report's rank.
    graph, cfg = _formation(**NEARLY_COLLINEAR)
    assert not certify_rigid(graph, cfg)
    assert rigidity_report(graph, cfg).is_infinitesimally_bearing_rigid
    assert certify_rigid(*_formation(**{**NEARLY_COLLINEAR, "flatten": 1.0}))
