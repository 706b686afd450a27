"""PI control law: local form vs stacked form, spectrum structure."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from bmv import (
    BearingSpec,
    ClosedLoop,
    Configuration,
    DimensionMismatch,
    FormationGraph,
    Gains,
    Scenario,
    Segment,
    UnknownNeighbor,
    assemble,
    bearing_laplacian,
    closed_loop_spectrum,
    effective_closed_loop_matrix,
    follower_velocity,
    step,
    verify_hurwitz,
)
from bmv.cli import bundled_scenario_path, load_scenario
from bmv.controller import BLOCK_STEPS, GAIN_LIMIT, largest_stable_step, step_amplification
from bmv.sim import structure
from conftest import loop_advance, loop_rate, random_formation

# The spectrum from eigvalsh(L_ff) and the quadratic must match the general
# eigensolve of the loop matrix this well, relative to the largest |lambda|.
SPECTRUM_REL_TOL = 1e-10


def test_gains_validation():
    Gains(k_p=1.0, k_i=0.0)
    with pytest.raises(ValueError):
        Gains(k_p=0.0, k_i=1.0)
    with pytest.raises(ValueError):
        Gains(k_p=-2.0, k_i=1.0)
    with pytest.raises(ValueError):
        Gains(k_p=1.0, k_i=-0.1)
    with pytest.raises(ValueError):
        Gains(k_p=float("nan"), k_i=1.0)
    Gains(k_p=GAIN_LIMIT, k_i=GAIN_LIMIT)
    too_big = (2 * GAIN_LIMIT, math.inf)
    for k_p, k_i in [(k, 1.0) for k in too_big] + [(1.0, k) for k in too_big]:
        with pytest.raises(ValueError, match="at most"):
            Gains(k_p=k_p, k_i=k_i)


def test_local_law_matches_stacked_form():
    # The per-robot law and the matrix form must be the same function.
    rng = np.random.default_rng(41)
    for _ in range(6):
        graph, ref = random_formation(rng, 6, 2, n_leaders=2, edge_prob=0.9)
        spec = BearingSpec.from_configuration(graph, ref)
        lap = bearing_laplacian(graph, spec)
        gains = Gains(k_p=1.7, k_i=0.6)

        current = Configuration(ref.points + rng.normal(scale=0.05, size=(6, 2)))
        xi = rng.normal(size=4 * 2)
        v_l = rng.normal(size=2 * 2)

        loop = ClosedLoop(lap, gains, dt=0.01)
        dz = loop_rate(loop, np.concatenate([current.stacked, xi]), v_l)
        dp, dxi = dz[:12], dz[12:]

        for i in range(2, 6):
            rel = {
                j: current.points[i] - current.points[j]
                for j in graph.neighbors(i)
            }
            xi_i = xi[(i - 2) * 2 : (i - 1) * 2]
            v_i, dxi_i = follower_velocity(graph, spec, i, rel, xi_i, gains)
            np.testing.assert_allclose(v_i, dp[i * 2 : (i + 1) * 2], atol=1e-12)
            np.testing.assert_allclose(
                dxi_i, dxi[(i - 2) * 2 : (i - 1) * 2], atol=1e-12
            )


def test_stacked_dynamics_at_equilibrium(square_graph, square_config):
    spec = BearingSpec.from_configuration(square_graph, square_config)
    lap = bearing_laplacian(square_graph, spec)
    loop = ClosedLoop(lap, Gains(k_p=2.0, k_i=1.0), dt=0.01)
    dz = loop_rate(loop, np.concatenate([square_config.stacked, np.zeros(4)]), np.zeros(4))
    np.testing.assert_allclose(dz, np.zeros(12), atol=1e-13)


def test_follower_velocity_rejects_leaders_and_bad_neighbor_sets(
    square_graph, square_config
):
    spec = BearingSpec.from_configuration(square_graph, square_config)
    gains = Gains(k_p=1.0, k_i=1.0)
    rel_full = {
        j: square_config.points[2] - square_config.points[j]
        for j in square_graph.neighbors(2)
    }
    with pytest.raises(ValueError, match="not a follower"):
        follower_velocity(square_graph, spec, 0, rel_full, np.zeros(2), gains)
    missing = dict(rel_full)
    missing.pop(0)
    with pytest.raises(UnknownNeighbor):
        follower_velocity(square_graph, spec, 2, missing, np.zeros(2), gains)
    extra = dict(rel_full)
    extra[99] = np.zeros(2)
    with pytest.raises(UnknownNeighbor):
        follower_velocity(square_graph, spec, 2, extra, np.zeros(2), gains)
    with pytest.raises(DimensionMismatch):
        follower_velocity(square_graph, spec, 2, rel_full, np.zeros(3), gains)


def test_closed_loop_matrix_blocks():
    M = np.array([[2.0, -1.0], [-1.0, 3.0]])
    gains = Gains(k_p=1.5, k_i=0.25)
    A = effective_closed_loop_matrix(M, gains)
    np.testing.assert_allclose(A[:2, :2], -1.5 * M)
    np.testing.assert_allclose(A[:2, 2:], -0.25 * np.eye(2))
    np.testing.assert_allclose(A[2:, :2], M)
    np.testing.assert_allclose(A[2:, 2:], np.zeros((2, 2)))


def _state_matrices(loop, width, n_inputs):
    """(A, B) of z' = A z + B v, read column by column off loop_rate."""
    A = np.column_stack([loop_rate(loop, e, np.zeros(n_inputs)) for e in np.eye(width)])
    B = np.column_stack([loop_rate(loop, np.zeros(width), e) for e in np.eye(n_inputs)])
    return A, B


def test_closed_loop_state_matrix_blocks(square_graph, square_config):
    # z = [p_l, p_f, xi]: leaders integrate the input, followers run the law
    spec = BearingSpec.from_configuration(square_graph, square_config)
    lap = bearing_laplacian(square_graph, spec)
    loop = ClosedLoop(lap, Gains(k_p=1.5, k_i=0.25), dt=0.01)
    A, B = _state_matrices(loop, 12, 4)
    np.testing.assert_array_equal(A[:4], np.zeros((4, 12)))
    np.testing.assert_allclose(A[4:8, :4], -1.5 * lap.L_fl)
    np.testing.assert_allclose(A[8:, :4], lap.L_fl)
    np.testing.assert_array_equal(
        A[4:, 4:], effective_closed_loop_matrix(lap.L_ff, Gains(1.5, 0.25))
    )
    np.testing.assert_array_equal(B, np.eye(12, 4))


def _rk4_stages(lap, gains, p, xi, v, h):
    """One classical RK4 step written stage by stage on the stacked law."""
    def rhs(p, xi):
        # followers run the PI law on their Laplacian rows; leaders move at v
        drive = lap.matrix @ p
        split = v.size
        return (
            np.concatenate([v, -gains.k_p * drive[split:] - gains.k_i * xi]),
            drive[split:],
        )

    k1p, k1x = rhs(p, xi)
    k2p, k2x = rhs(p + 0.5 * h * k1p, xi + 0.5 * h * k1x)
    k3p, k3x = rhs(p + 0.5 * h * k2p, xi + 0.5 * h * k2x)
    k4p, k4x = rhs(p + h * k3p, xi + h * k3x)
    return (
        p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p),
        xi + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
    )


def test_propagator_is_one_rk4_step():
    rng = np.random.default_rng(43)
    graph, ref = random_formation(rng, 6, 3, n_leaders=2, edge_prob=0.8)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, ref))
    gains = Gains(k_p=2.5, k_i=1.5)
    loop = ClosedLoop(lap, gains, dt=0.05)
    p = ref.stacked + rng.normal(scale=0.1, size=18)
    xi = rng.normal(size=12)
    v = rng.normal(size=6)
    # the tabulated step for dt, and one built for any other length
    for h in (0.05, 0.0173):
        z = loop_advance(loop, np.concatenate([p, xi]), v, h)
        p_ref, xi_ref = _rk4_stages(lap, gains, p, xi, v, h)
        np.testing.assert_allclose(z[:18], p_ref, atol=1e-13)
        np.testing.assert_allclose(z[18:], xi_ref, atol=1e-13)
    # the step is z <- Phi z + Gamma v, Phi the degree-4 Taylor polynomial of exp(hA)
    h = 0.05
    phi = np.column_stack([loop_advance(loop, e, np.zeros(6), h) for e in np.eye(30)])
    gamma = np.column_stack([loop_advance(loop, np.zeros(30), e, h) for e in np.eye(6)])
    hA = h * _state_matrices(loop, 30, 6)[0]
    taylor = sum(
        np.linalg.matrix_power(hA, k) / math.factorial(k) for k in range(5)
    )
    np.testing.assert_allclose(phi, taylor, atol=1e-14)
    np.testing.assert_allclose(gamma[:6], h * np.eye(6), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    d=st.integers(2, 3),
    leaders=st.integers(1, 4),
    k_p=st.floats(0.1, 10.0),
    k_i=st.one_of(st.just(0.0), st.floats(0.05, 10.0)),
    h=st.floats(1e-4, 0.05),
)
def test_modal_step_is_one_rk4_step(seed, n, d, leaders, k_p, k_i, h):
    # any formation, localizable or forced, and any step length
    rng = np.random.default_rng(seed)
    graph, ref = random_formation(rng, n, d, n_leaders=min(leaders, n - 1), edge_prob=0.8)
    gains = Gains(k_p=k_p, k_i=k_i)
    scenario = Scenario(
        graph=graph, reference_config=ref, schedule=(Segment(0.0, 1.0, rng.normal(size=d)),),
        duration=1.0, gains=gains, dt=0.01, seed=seed,
    )
    ctx = assemble(scenario, force=True)
    p = ctx.initial_positions
    xi = rng.normal(size=d * graph.n_followers)
    v = ctx.segments[0].leader_velocity
    p_ref, xi_ref = _rk4_stages(ctx.laplacian, gains, p, xi, v, h)
    p_step, xi_step = step(ctx, (p, xi), 0.0, h)
    np.testing.assert_allclose(np.concatenate([p_step, xi_step]), np.concatenate([p_ref, xi_ref]),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("h_per_dt, count", [(1.0, 1000), (0.7, 300), (1.0, 128), (1.0, 1)])
def test_a_fill_of_many_steps_writes_each_block_as_alone(h_per_dt, count):
    # rows 1..128 from row 0, rows 129..256 from row 128, ...: the same bits as
    # one fill of at most BLOCK_STEPS steps a block, and as the tabulated powers
    # of the step applied to the block's first row, term by term
    ctx = assemble(load_scenario(bundled_scenario_path("narrow_passage_2d")).scenario)
    loop, v, h = ctx.loop, ctx.segments[1].leader_velocity, h_per_dt * ctx.scenario.dt
    width = ctx.laplacian.matrix.shape[0] + ctx.graph.d * ctx.graph.n_followers
    whole = np.zeros((count + 1, width))
    whole[0, : ctx.initial_positions.size] = ctx.initial_positions
    loop.change_basis(whole[:1], modal=True)
    blocks = whole.copy()
    loop.fill(whole, v, h)
    table, W = loop._powers(h, BLOCK_STEPS), loop.lap.modes[2]
    for first in range(0, count, BLOCK_STEPS):
        rows = blocks[first : min(first + BLOCK_STEPS, count) + 1]
        loop.fill(rows, v, h)
        start = [rows[0, cols] for cols in loop._columns] + [W @ rows[0, : v.size], W @ v]
        for r, cols in enumerate(loop._columns):
            powers = table[r, :, : len(rows) - 1]
            np.testing.assert_array_equal(
                rows[1:, cols], sum(powers[c] * start[c] for c in range(4)))
    np.testing.assert_array_equal(whole, blocks)


def test_effective_matrix_drops_integrator_when_ki_zero():
    M = np.array([[2.0, -1.0], [-1.0, 3.0]])
    A = effective_closed_loop_matrix(M, Gains(k_p=2.0, k_i=0.0))
    np.testing.assert_allclose(A, -2.0 * M)
    A_full = effective_closed_loop_matrix(M, Gains(k_p=2.0, k_i=1.0))
    assert A_full.shape == (4, 4)


def test_spectrum_on_diagonal_follower_block():
    # With L_ff = diag(1, 4), kp = 3, ki = 2 each mode factors by hand:
    #   sigma=1: s^2 + 3s + 2   -> roots -1, -2
    #   sigma=4: s^2 + 12s + 8  -> roots -6 +- sqrt(28)
    A = effective_closed_loop_matrix(np.diag([1.0, 4.0]), Gains(k_p=3.0, k_i=2.0))
    report = verify_hurwitz(A)
    expected = sorted(
        [-1.0, -2.0, -6.0 + np.sqrt(28.0), -6.0 - np.sqrt(28.0)]
    )
    np.testing.assert_allclose(sorted(report.eigenvalues.real), expected, atol=1e-12)
    np.testing.assert_allclose(report.eigenvalues.imag, np.zeros(4), atol=1e-12)
    assert report.is_hurwitz
    # the slowest mode is the sigma=4 root closer to zero
    assert report.max_real_part == pytest.approx(-6.0 + np.sqrt(28.0), abs=1e-12)


def test_hurwitz_random_positive_definite_blocks():
    rng = np.random.default_rng(47)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        B = rng.normal(size=(k, k))
        L_ff = B @ B.T + 0.05 * np.eye(k)
        gains = Gains(
            k_p=float(rng.uniform(0.2, 4.0)), k_i=float(rng.uniform(0.2, 4.0))
        )
        report = verify_hurwitz(effective_closed_loop_matrix(L_ff, gains))
        assert report.is_hurwitz, (gains, np.linalg.eigvalsh(L_ff))


def test_verify_hurwitz_edge_cases():
    report = verify_hurwitz(np.zeros((0, 0)))
    assert report.is_hurwitz
    assert report.max_real_part == -np.inf

    report = verify_hurwitz(np.array([[1.0]]))
    assert not report.is_hurwitz
    assert report.max_real_part == pytest.approx(1.0)

    # marginally stable (zero eigenvalue) must not count as Hurwitz
    report = verify_hurwitz(np.diag([0.0, -1.0]))
    assert not report.is_hurwitz

    with pytest.raises(DimensionMismatch):
        verify_hurwitz(np.zeros((2, 3)))


def test_eigenvalues_sorted_by_real_then_imag():
    A = effective_closed_loop_matrix(np.diag([1.0, 1.0]), Gains(k_p=1.0, k_i=2.0))
    report = verify_hurwitz(A)
    reals = report.eigenvalues.real
    assert np.all(np.diff(reals) >= -1e-12)


def _matches_reference(lap, gains: Gains):
    """The spectrum from the Laplacian's own L_ff eigenvalues, checked against
    verify_hurwitz on the full loop matrix; returns both reports."""
    report = closed_loop_spectrum(lap.mu, gains)
    ref = verify_hurwitz(effective_closed_loop_matrix(lap.L_ff, gains))
    assert report.eigenvalues.size == ref.eigenvalues.size
    assert report.is_hurwitz == ref.is_hurwitz
    assert report.max_real_part == report.eigenvalues.real.max()
    bound = SPECTRUM_REL_TOL * np.abs(ref.eigenvalues).max()
    # Paired by assignment, not by sort order: the reference splits the
    # equal real parts of a repeated mu by rounding, which reorders them.
    gap = np.abs(report.eigenvalues[:, None] - ref.eigenvalues[None, :])
    assert gap[linear_sum_assignment(gap)].max() <= bound
    return report, ref


@pytest.mark.parametrize("name", ["narrow_passage_2d", "narrow_passage_3d"])
def test_closed_loop_spectrum_matches_reference_on_bundles(name):
    scenario = load_scenario(bundled_scenario_path(name)).scenario
    _, lap = structure(scenario)
    report, _ = _matches_reference(lap, scenario.gains)
    assert report.is_hurwitz
    assert not np.any(np.signbit(report.eigenvalues.imag[report.eigenvalues.imag == 0.0]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    d=st.integers(2, 3),
    leaders=st.integers(2, 4),
    k_p=st.floats(0.1, 10.0),
    k_i=st.one_of(st.just(0.0), st.floats(0.05, 10.0)),
)
@example(seed=197, n=4, d=3, leaders=2, k_p=1.0, k_i=1.0)  # repeated mu = 2
def test_closed_loop_spectrum_matches_reference(seed, n, d, leaders, k_p, k_i):
    rng = np.random.default_rng(seed)
    graph, ref = random_formation(rng, n, d, n_leaders=min(leaders, n - 1), edge_prob=0.8)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, ref))
    loc = lap.localizability
    assume(loc.localizable and loc.min_eigenvalue > 1e-3)
    mu = lap.mu
    # A near-double root is ill-conditioned in the general eigensolve, which
    # splits it by up to sqrt(eps); the exact double root is tested below.
    b = 0.5 * k_p * mu
    assume(k_i == 0.0 or np.all(np.abs(b * b - k_i * mu) > 1e-6 * b * b))
    _matches_reference(lap, Gains(k_p=k_p, k_i=k_i))


def test_closed_loop_spectrum_returns_a_double_root_exactly():
    # L_ff = diag(1, 4), kp = 2, ki = 1: mu = 1 gives (lambda + 1)^2
    report = closed_loop_spectrum(np.array([1.0, 4.0]), Gains(k_p=2.0, k_i=1.0))
    expected = [-4.0 - math.sqrt(12.0), -1.0, -1.0, -4.0 + math.sqrt(12.0)]
    np.testing.assert_allclose(report.eigenvalues.real, expected, rtol=1e-15)
    assert report.eigenvalues[1] == -1.0 and report.eigenvalues[2] == -1.0
    assert np.all(report.eigenvalues.imag == 0.0)
    ref = verify_hurwitz(effective_closed_loop_matrix(np.diag([1.0, 4.0]), Gains(2.0, 1.0)))
    assert ref.eigenvalues.size == 4 and ref.is_hurwitz and report.is_hurwitz


@pytest.mark.parametrize("k_i", [0.0, 6.0])
def test_closed_loop_spectrum_of_a_singular_follower_block(k_i):
    # One follower tied to one leader by a horizontal edge may slide along
    # it: L_ff = diag(0, 1), with an exact zero eigenvalue.
    graph = FormationGraph(n=2, d=2, edges=((0, 1),), n_leaders=1)
    lap = bearing_laplacian(
        graph, BearingSpec.from_configuration(graph, Configuration(np.array([[0.0, 0.0], [1.0, 0.0]])))
    )
    assert list(lap.mu) == [0.0, 1.0]
    report, ref = _matches_reference(lap, Gains(k_p=4.0, k_i=k_i))
    assert not np.any(np.isnan(report.eigenvalues))
    assert report.max_real_part == ref.max_real_part == 0.0
    assert not np.signbit(report.max_real_part)
    assert not report.is_hurwitz


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    d=st.integers(2, 3),
    leaders=st.integers(2, 4),
    k_p=st.floats(0.1, 10.0),
    k_i=st.one_of(st.just(0.0), st.floats(0.05, 10.0)),
    h=st.floats(1e-3, 1.0),
)
def test_step_amplification_is_the_spectral_radius_of_the_mode_steps(
    seed, n, d, leaders, k_p, k_i, h
):
    # One RK4 step multiplies the modal pair (q, eta) of each mu by the
    # degree-4 Taylor polynomial M of exp(h B), B = [[-k_p mu, -k_i], [mu, 0]].
    # With k_i = 0, eta only integrates and q alone carries the mode -k_p mu.
    rng = np.random.default_rng(seed)
    graph, ref = random_formation(rng, n, d, n_leaders=min(leaders, n - 1), edge_prob=0.8)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, ref))
    loc = lap.localizability
    assume(loc.localizable and loc.min_eigenvalue > 1e-3)
    mu = lap.mu
    # as above: the reference eigensolve splits a near-double root by sqrt(eps)
    b = 0.5 * k_p * mu
    assume(k_i == 0.0 or np.all(np.abs(b * b - k_i * mu) > 1e-6 * b * b))
    radii = []
    for m in mu:
        B = np.array([[-k_p * m, -k_i], [m, 0.0]])
        M = sum(np.linalg.matrix_power(h * B, k) / math.factorial(k) for k in range(5))
        radii.append(abs(M[0, 0]) if k_i == 0.0 else np.abs(np.linalg.eigvals(M)).max())
    eigs = closed_loop_spectrum(mu, Gains(k_p=k_p, k_i=k_i)).eigenvalues
    amplification = step_amplification(eigs, h)
    assert amplification == pytest.approx(max(radii), rel=1e-9)
    if amplification > 1.0:
        limit = largest_stable_step(eigs, h)
        assert 0.0 < limit < h
        assert step_amplification(eigs, limit) <= 1.0 < step_amplification(eigs, limit * (1 + 1e-9))


def test_step_amplification_counts_modes_on_the_imaginary_axis():
    # |R(iy)|^2 = 1 - y^6/72 + y^8/576, so RK4 holds an undamped mode only
    # up to |h lambda| = 2 sqrt(2); a mode of exactly 0 has R = 1 and is left out
    limit = 2.0 * math.sqrt(2.0)
    eigs = np.array([0.0, 1j, -1j])
    assert step_amplification(eigs, 0.99 * limit) < 1.0 < step_amplification(eigs, 1.01 * limit)
    assert step_amplification(np.zeros(2, dtype=complex), 1e300) == 0.0
    # a subnormal k_p rounds the real part -k_p mu / 2 of each pair to exactly 0
    eigs = closed_loop_spectrum(np.array([1.0, 4.0]), Gains(k_p=5e-324, k_i=1e4)).eigenvalues
    assert np.all(eigs.real == 0.0) and np.abs(eigs).max() == 200.0
    assert step_amplification(eigs, 0.1) > 1e3
    assert largest_stable_step(eigs, 0.1) == pytest.approx(limit / 200.0, rel=1e-9)
    # a rounding-negative mu of a singular L_ff grows in the exact flow too
    eigs = closed_loop_spectrum(np.array([-2.2e-16, 1.0]), Gains(k_p=2000.0, k_i=0.0)).eigenvalues
    assert eigs.real.max() > 0.0 and step_amplification(eigs, 1e-3) == pytest.approx(1.0 / 3.0)


def test_spectrum_at_the_gain_limit_stays_finite():
    # mu is at most 2n, so no root overflows at GAIN_LIMIT and the stable-step
    # search ends; a step too long for the spectrum reads inf, without a warning
    mu = np.array([1e-3, 1.0, 2e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k_p, k_i in ((GAIN_LIMIT, GAIN_LIMIT), (GAIN_LIMIT, 0.0), (1.0, GAIN_LIMIT)):
            eigs = closed_loop_spectrum(mu, Gains(k_p=k_p, k_i=k_i)).eigenvalues
            assert np.all(np.isfinite(eigs))
            assert step_amplification(eigs, 1e300) == math.inf
            limit = largest_stable_step(eigs, 1e-3)
            assert 0.0 < limit < 1e-3
            assert step_amplification(eigs, limit) <= 1.0
