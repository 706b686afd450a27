"""Maneuver commands: centroid/scale rates and feasibility of the induced motion."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bmv import (
    BearingSpec,
    Configuration,
    DimensionMismatch,
    FormationGraph,
    Gains,
    Scenario,
    Segment,
    assemble,
    bearing_laplacian,
    check_localizable,
    combined_command,
    run,
    scale,
    target_follower_positions,
)
from conftest import SQUARE_EDGES, SQUARE_POINTS, random_formation


SQUARE = Configuration(SQUARE_POINTS)


def _induced_scale_rate(v_l: np.ndarray) -> float:
    """ds/dt of the unit square when its two leaders move at v_l and the
    followers at the velocities the bearings then demand."""
    graph = FormationGraph(n=4, d=2, edges=SQUARE_EDGES, n_leaders=2)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, SQUARE))
    v = np.concatenate([v_l, target_follower_positions(lap, v_l)]).reshape(4, 2)
    offsets = SQUARE_POINTS - SQUARE_POINTS.mean(axis=0)
    return float(np.sum(offsets * (v - v.mean(axis=0))) / (4 * scale(SQUARE)))


def test_centroid_and_scale_of_unit_square():
    assert scale(SQUARE) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # a pure scaling pushes each leader straight out from the centroid (0.5, 0.5)
    v_l = combined_command([0.0, 0.0], SQUARE, 4, rate=2.0)
    np.testing.assert_allclose(
        v_l.reshape(4, 2),
        2.0 * (SQUARE_POINTS - [0.5, 0.5]),
        atol=1e-15,
    )


def test_translation_command_tiles_velocity():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    stack = combined_command([0.3, -0.1], Configuration(pts), 3, rate=0.0)
    np.testing.assert_allclose(stack, [0.3, -0.1, 0.3, -0.1, 0.3, -0.1])
    with pytest.raises(ValueError):
        combined_command([1.0, 0.0], Configuration(pts), 0, rate=0.0)


def test_pure_translation_leaves_scale_alone():
    v_l = combined_command([0.4, 0.2], SQUARE, 2, rate=0.0)
    np.testing.assert_allclose(v_l, [0.4, 0.2, 0.4, 0.2], atol=1e-15)
    assert _induced_scale_rate(v_l) == pytest.approx(0.0, abs=1e-14)


def test_scaling_command_alphas_proportional_to_radii():
    # each leader's radial speed alpha_i is rate * |p_i - c|
    rate = 0.1
    v_l = combined_command([0.0, 0.0], SQUARE, 2, rate)
    radii = np.linalg.norm(SQUARE_POINTS[:2] - [0.5, 0.5], axis=1)
    speeds = np.linalg.norm(v_l.reshape(2, 2), axis=1)
    np.testing.assert_allclose(speeds, rate * radii, atol=1e-15)
    # ds/dt = rate * s for a pure dilation of the unit square
    assert _induced_scale_rate(v_l) == pytest.approx(rate * math.sqrt(0.5), rel=1e-12)


def test_full_alpha_vector_reproduces_scale_rate_formula():
    # sgn(rate) * sqrt(mean alpha_i^2) over the radial speeds of all agents
    # equals the predicted scale rate; the two routes must agree to rounding.
    for rate in (0.13, -0.07):
        v_l = combined_command([0.0, 0.0], SQUARE, 2, rate)
        alphas = rate * np.linalg.norm(SQUARE_POINTS - [0.5, 0.5], axis=1)
        rms = math.copysign(math.sqrt(np.mean(alphas**2)), rate)
        assert rms == pytest.approx(rate * scale(SQUARE), rel=1e-12)
        assert rms == pytest.approx(_induced_scale_rate(v_l), rel=1e-12)


def test_a_leader_at_the_centroid_moves_at_v_c_while_the_formation_scales():
    # the command v_c + rate (p_i - c) divides by nothing, so a leader at c is
    # just the one that does not move radially
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cfg = Configuration(pts)  # agent 0 sits at the centroid
    v_c = np.array([0.1, -0.2])
    np.testing.assert_array_equal(combined_command(v_c, cfg, 2, rate=0.05)[:2], v_c)
    graph = FormationGraph(n=5, d=2, edges=tuple(itertools.combinations(range(5), 2)),
                           n_leaders=2)
    duration, dt = 20.0, 1e-2
    ctx = assemble(Scenario(graph, cfg, (Segment(0.0, duration, v_c, scale_rate=0.05),),
                            duration, Gains(k_p=8.0, k_i=20.0), initial_config=cfg, dt=dt))
    traj = run(ctx)
    np.testing.assert_allclose(traj.positions[-1][:2], pts[0] + v_c * duration, rtol=0,
                               atol=1e-12)
    s_dot = (traj.scale[-1] - traj.scale[-2]) / dt
    assert abs(s_dot - ctx.segments[0].predicted_scale_rate) < 1e-4


def test_command_validation_errors():
    with pytest.raises(DimensionMismatch):
        combined_command(np.zeros(3), SQUARE, 2, rate=0.0)
    with pytest.raises(ValueError):
        combined_command(np.zeros(2), SQUARE, 5, rate=0.0)
    with pytest.raises(ValueError):
        combined_command(np.array([np.inf, 0.0]), SQUARE, 2, rate=0.0)
    with pytest.raises(ValueError):
        combined_command(np.zeros(2), SQUARE, 2, rate=np.nan)
    with pytest.raises(ValueError):
        combined_command([0.0, 0.0], SQUARE, 7, rate=0.1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    d=st.integers(2, 3),
    leaders=st.integers(2, 8),
    v_c=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    rate=st.floats(-1.0, 1.0),
)
@example(seed=1, n=5, d=2, leaders=2, v_c=[0.25, -0.4, 0.0], rate=0.0)  # translation
@example(seed=1, n=5, d=2, leaders=2, v_c=[0.0, 0.0, 0.0], rate=0.3)  # scaling
def test_combined_command_superposes(seed, n, d, leaders, v_c, rate):
    # Leader velocities v_c + rate (p_i - c) induce the same field on every
    # follower, and the whole field preserves every bearing (L v = 0).
    rng = np.random.default_rng(seed)
    graph, ref = random_formation(rng, n, d, n_leaders=min(leaders, n), edge_prob=0.8)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, ref))
    loc = check_localizable(lap)
    assume(loc.localizable and loc.min_eigenvalue > 1e-3)
    v_c = np.array(v_c[:d])
    v_l = combined_command(v_c, ref, graph.n_leaders, rate)
    v = np.concatenate([v_l, target_follower_positions(lap, v_l)])
    expected = v_c + rate * (ref.points - ref.points.mean(axis=0))
    bound = 1e-8 * (1.0 + float(np.linalg.norm(v)))
    np.testing.assert_allclose(v.reshape(n, d), expected, rtol=0, atol=bound)
    assert float(np.linalg.norm(lap.matrix @ v)) < bound
