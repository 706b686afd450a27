"""Release acceptance suite.

Twelve numbered checks gate a release: the analytic rigidity machinery
against finite differences, the Laplacian identities, closed-loop stability
and convergence at the predicted rate, maneuver rate laws, the bundled
end-to-end scenarios, integrator order against an exact linear oracle, and
byte-level determinism of the CLI output.

Each check prints one ``[PASS]``/``[FAIL]`` line; run ``pytest -s`` to see
them all on a green run.
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

from bmv import (
    BearingSpec,
    Configuration,
    FormationGraph,
    Gains,
    Scenario,
    Segment,
    assemble,
    bearing_laplacian,
    bearing_rigidity_matrix,
    check_localizable,
    combined_command,
    effective_closed_loop_matrix,
    exponential_fit,
    rigidity_report,
    run,
    scale,
    target_follower_positions,
    verify_hurwitz,
)
from bmv.cli import bundled_scenario_path, load_scenario, main as cli_main

from conftest import SQUARE_EDGES, SQUARE_POINTS, fd_bearing_jacobian, random_formation

FD_TOL = 1e-6
ANNIHILATION_TOL = 1e-10
GENERATOR_RESIDUAL_TOL = 1e-10
DEGENERATE_EIG_CEILING = 1e-9
QUADRATIC_RESIDUAL_TOL = 1e-7
CONVERGENCE_TOL = 1e-6
RATE_FIT_SLACK = 0.10
RATE_TOL = 1e-6
SCALE_RATE_TOL = 1e-4
FEASIBILITY_TOL = 1e-8
SEGMENT_BEARING_CEILING = 5e-3
RAMP_REL_TOL = 0.02
WALL_BUDGET_S = 10.0
ORDER_RATIO_LOW = 8.0
ORDER_RATIO_HIGH = 32.0
ORACLE_TOL = 1e-8

BUNDLES = ("narrow_passage_2d", "narrow_passage_3d")
MANEUVER_GAINS = Gains(8.0, 20.0)
SETTLE_DURATION = 8.0


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name}")


def _bundle(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name)).scenario


def _translation_basis(n: int, d: int) -> np.ndarray:
    return np.tile(np.eye(d), (n, 1))


def test_criterion_1_rigidity_matrix_matches_finite_differences():
    with criterion(1, "analytic rigidity matrix vs finite differences"):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 4))
            graph, config = random_formation(rng, n, d)
            R = bearing_rigidity_matrix(graph, config)
            J = fd_bearing_jacobian(graph, config)
            assert float(np.abs(R - J).max()) < FD_TOL
            # translations and the configuration itself are bearing-preserving
            assert float(np.abs(R @ _translation_basis(n, d)).max()) < ANNIHILATION_TOL
            assert float(np.abs(R @ config.stacked).max()) < ANNIHILATION_TOL


def test_criterion_2_rank_law_and_collinear_degeneracy():
    with criterion(2, "rank law on bundled formations, collinear deficiency"):
        for name in BUNDLES:
            scn = _bundle(name)
            report = rigidity_report(scn.graph, scn.reference_config)
            n, d = scn.graph.n, scn.graph.d
            assert report.required_rank == d * n - d - 1
            assert report.rank == report.required_rank
            assert report.is_infinitesimally_bearing_rigid

        collinear_graph = FormationGraph(
            n=3, d=2, edges=((0, 1), (1, 2), (0, 2)), n_leaders=1
        )
        collinear = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        report = rigidity_report(collinear_graph, collinear)
        assert report.rank < report.required_rank
        assert not report.is_infinitesimally_bearing_rigid


def test_criterion_3_laplacian_annihilates_generating_configuration():
    with criterion(3, "bearing Laplacian annihilates its generating points"):
        cases = []
        for name in BUNDLES:
            scn = _bundle(name)
            cases.append((scn.graph, scn.reference_config))
        rng = np.random.default_rng(303)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 4))
            n_leaders = int(rng.integers(1, min(n, 4)))
            cases.append(random_formation(rng, n, d, n_leaders=n_leaders))

        for graph, config in cases:
            spec = BearingSpec.from_configuration(graph, config)
            lap = bearing_laplacian(graph, spec)
            p = config.stacked
            bound = GENERATOR_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(p)))
            assert float(np.linalg.norm(lap.matrix @ p)) < bound
            split = graph.d * graph.n_leaders
            partitioned = lap.L_ff @ p[split:] + lap.L_fl @ p[:split]
            assert float(np.linalg.norm(partitioned)) < bound


def test_criterion_4_two_leader_localizability_one_leader_degeneracy():
    with criterion(4, "two leaders localize followers, one leader cannot"):
        for name in BUNDLES:
            scn = _bundle(name)
            graph = scn.graph
            spec = BearingSpec.from_configuration(graph, scn.reference_config)

            result = check_localizable(bearing_laplacian(graph, spec))
            assert result.localizable
            assert result.min_eigenvalue > 0.0

            # same formation, single pinned agent: scaling about that agent
            # stays unobserved, so L_ff loses definiteness
            lone = FormationGraph(n=graph.n, d=graph.d, edges=graph.edges, n_leaders=1)
            lone_spec = BearingSpec.from_configuration(lone, scn.reference_config)
            degraded = check_localizable(bearing_laplacian(lone, lone_spec))
            assert not degraded.localizable
            assert degraded.min_eigenvalue <= DEGENERATE_EIG_CEILING


def test_criterion_5_closed_loop_hurwitz_and_spectrum_relation():
    with criterion(5, "closed loop Hurwitz with quadratic spectrum relation"):
        rng = np.random.default_rng(450)
        count = 0
        while count < 100:
            n = int(rng.integers(4, 8))
            d = int(rng.integers(2, 4))
            n_leaders = int(rng.integers(2, 4))
            graph, config = random_formation(rng, n, d, n_leaders=n_leaders)
            spec = BearingSpec.from_configuration(graph, config)
            lap = bearing_laplacian(graph, spec)
            result = check_localizable(lap)
            if not result.localizable or result.min_eigenvalue < 1e-3:
                continue
            gains = Gains(float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.2, 4.0)))
            report = verify_hurwitz(effective_closed_loop_matrix(lap.L_ff, gains))
            assert report.is_hurwitz
            assert report.max_real_part < 0.0
            # every closed-loop eigenvalue pairs with a follower-block
            # eigenvalue sigma through lam^2 + k_p sigma lam + k_i sigma = 0
            sigma = np.linalg.eigvalsh(lap.L_ff)
            for lam in report.eigenvalues:
                residual = np.min(
                    np.abs(lam**2 + gains.k_p * sigma * lam + gains.k_i * sigma)
                )
                assert float(residual) < QUADRATIC_RESIDUAL_TOL
            count += 1


def test_criterion_6_tracking_converges_at_predicted_rate():
    with criterion(6, "tracking error, integral state, and velocity converge"):
        scn = _bundle("narrow_passage_2d")
        graph, ref = scn.graph, scn.reference_config
        gains = MANEUVER_GAINS
        spec = BearingSpec.from_configuration(graph, ref)
        lap = bearing_laplacian(graph, spec)
        report = verify_hurwitz(effective_closed_loop_matrix(lap.L_ff, gains))
        assert report.is_hurwitz
        horizon = 12.0 / abs(report.max_real_part)

        rng = np.random.default_rng(2025)
        start = ref.points.copy()
        start[graph.n_leaders:] += rng.uniform(
            -1e-3, 1e-3, size=(graph.n_followers, graph.d)
        )
        v_c = np.array([0.03, -0.02])
        scenario = Scenario(
            graph=graph,
            reference_config=ref,
            schedule=(Segment(0.0, horizon + 1.0, v_c),),
            duration=horizon,
            gains=gains,
            initial_config=Configuration(start),
            dt=1e-3,
            seed=0,
        )
        ctx = assemble(scenario)
        traj = run(ctx)

        v_l = np.tile(v_c, graph.n_leaders)
        steady_follower = np.linalg.solve(lap.L_ff, lap.L_fl @ v_l)
        xi_steady = steady_follower / gains.k_i

        assert float(traj.tracking_error[-1]) < CONVERGENCE_TOL
        assert float(np.linalg.norm(traj.xi[-1] - xi_steady)) < CONVERGENCE_TOL
        z = np.concatenate([traj.positions[-1], traj.xi[-1]])
        dp = ctx.loop.rate(z, v_l)[: graph.n * graph.d]
        split = graph.d * graph.n_leaders
        vel_residual = np.linalg.norm(dp[split:] + steady_follower)
        assert float(vel_residual) < CONVERGENCE_TOL

        # fitted decay within 10% of the slowest closed-loop mode
        mask = traj.tracking_error > 1e-10
        fit = exponential_fit(traj.times[mask], traj.tracking_error[mask])
        assert fit.r_squared >= 0.9
        assert fit.rate <= (1.0 - RATE_FIT_SLACK) * report.max_real_part
        assert fit.rate >= (1.0 + RATE_FIT_SLACK) * report.max_real_part


def _settled_rates(v_c, rate):
    """Instantaneous centroid/scale rates after a long constant segment, the
    paper's scale rate rate * s for them, the leader velocities and the Laplacian."""
    scn = _bundle("narrow_passage_2d")
    graph, ref = scn.graph, scn.reference_config
    v_l = combined_command(v_c, ref, graph.n_leaders, rate)
    scenario = Scenario(
        graph=graph,
        reference_config=ref,
        schedule=(Segment(0.0, SETTLE_DURATION + 1.0, v_c, rate),),
        duration=SETTLE_DURATION,
        gains=MANEUVER_GAINS,
        initial_config=ref,
        dt=1e-3,
        seed=0,
    )
    ctx = assemble(scenario)
    traj = run(ctx)
    lap = bearing_laplacian(graph, BearingSpec.from_configuration(graph, ref))
    z = np.concatenate([traj.positions[-1], traj.xi[-1]])
    dp = ctx.loop.rate(z, v_l)[: graph.n * graph.d]
    pts = traj.positions[-1].reshape(graph.n, graph.d)
    vel = dp.reshape(graph.n, graph.d)
    c = pts.mean(axis=0)
    c_dot = vel.mean(axis=0)
    s = float(traj.scale[-1])
    s_dot = float(np.sum((pts - c) * (vel - c_dot)) / (graph.n * s))
    return c_dot, s_dot, rate * scale(ref), v_l, lap


def test_criterion_7_translation_rates():
    with criterion(7, "translation moves the centroid and preserves scale"):
        v_c = np.array([0.25, 0.1])
        c_dot, s_dot, _, _, _ = _settled_rates(v_c, 0.0)
        assert float(np.abs(c_dot - v_c).max()) < RATE_TOL
        assert abs(s_dot) < RATE_TOL


def test_criterion_8_scaling_rates():
    with criterion(8, "scaling changes scale at the commanded rate, centroid fixed"):
        rate = -0.06
        c_dot, s_dot, predicted, _, _ = _settled_rates(np.zeros(2), rate)
        assert float(np.abs(c_dot).max()) < RATE_TOL
        assert abs(s_dot - predicted) < SCALE_RATE_TOL


def test_criterion_9_combined_maneuver_rates_and_feasibility():
    with criterion(9, "combined maneuver translates and scales simultaneously"):
        v_c = np.array([0.2, -0.1])
        rate = 0.05
        c_dot, s_dot, predicted, v_l, lap = _settled_rates(v_c, rate)
        assert float(np.abs(c_dot - v_c).max()) < RATE_TOL
        assert abs(s_dot - predicted) < SCALE_RATE_TOL

        v_star = np.concatenate([v_l, target_follower_positions(lap, v_l)])
        residual = float(np.linalg.norm(lap.matrix @ v_star))
        assert residual < FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(v_star)))


def _predicted_scale_series(scn: Scenario, times: np.ndarray) -> np.ndarray:
    """Piecewise-linear scale ramp; slope refreshes at each segment entry."""
    predicted = np.empty_like(times)
    s_entry = scale(scn.reference_config)
    for seg in scn.schedule:
        t0 = seg.t_start
        t1 = min(seg.t_end, scn.duration)
        lo = int(np.searchsorted(times, t0 - 1e-9))
        hi = int(np.searchsorted(times, t1 + 1e-9))
        predicted[lo:hi] = s_entry * (1.0 + seg.scale_rate * (times[lo:hi] - t0))
        s_entry *= 1.0 + seg.scale_rate * (t1 - t0)
    return predicted


def test_criterion_10_bundled_narrow_passage_runs():
    with criterion(10, "bundled scenarios shrink, pass, and re-expand on profile"):
        started = time.perf_counter()
        for name in BUNDLES:
            scn = _bundle(name)
            traj = run(assemble(scn))

            # formation has settled by the end of every commanded segment
            for seg in scn.schedule:
                end = min(seg.t_end, scn.duration)
                idx = int(np.searchsorted(traj.times, end - 1e-9))
                assert float(traj.bearing_error[idx]) < SEGMENT_BEARING_CEILING

            predicted = _predicted_scale_series(scn, traj.times)
            deviation = float(np.max(np.abs(traj.scale - predicted) / predicted))
            assert deviation <= RAMP_REL_TOL

            # commanded profile: shrink to half scale, then recover
            s0 = scale(scn.reference_config)
            shrink_end = int(np.searchsorted(traj.times, scn.schedule[1].t_end - 1e-9))
            expand_end = int(np.searchsorted(traj.times, scn.schedule[3].t_end - 1e-9))
            assert float(traj.scale[shrink_end]) < 0.6 * s0
            assert float(traj.scale[expand_end]) > 0.9 * s0
        assert time.perf_counter() - started < WALL_BUDGET_S


def test_criterion_11_integrator_order_and_exact_oracle():
    with criterion(11, "integrator shows 4th-order convergence to the exact flow"):
        graph = FormationGraph(n=4, d=2, edges=SQUARE_EDGES, n_leaders=2)
        ref = Configuration(SQUARE_POINTS)
        gains = Gains(3.0, 4.0)
        v_c = np.array([0.3, -0.2])
        horizon = 2.0

        rng = np.random.default_rng(77)
        start = ref.points.copy()
        start[2:] += rng.uniform(-0.05, 0.05, size=(2, 2))

        spec = BearingSpec.from_configuration(graph, ref)
        lap = bearing_laplacian(graph, spec)
        v_l = np.tile(v_c, 2)

        # exact flow of the affine closed loop on w = [p_f, xi, p_l, 1]
        nf = graph.d * graph.n_followers
        nl = graph.d * graph.n_leaders
        size = 2 * nf + nl + 1
        M = np.zeros((size, size))
        M[:nf, :nf] = -gains.k_p * lap.L_ff
        M[:nf, nf : 2 * nf] = -gains.k_i * np.eye(nf)
        M[:nf, 2 * nf : 2 * nf + nl] = -gains.k_p * lap.L_fl
        M[nf : 2 * nf, :nf] = lap.L_ff
        M[nf : 2 * nf, 2 * nf : 2 * nf + nl] = lap.L_fl
        M[2 * nf : 2 * nf + nl, -1] = v_l
        w0 = np.concatenate(
            [start[2:].reshape(-1), np.zeros(nf), start[:2].reshape(-1), [1.0]]
        )
        exact = (expm(M * horizon) @ w0)[: 2 * nf]

        def final_state(dt: float) -> np.ndarray:
            scenario = Scenario(
                graph=graph,
                reference_config=ref,
                schedule=(Segment(0.0, horizon + 1.0, v_c),),
                duration=horizon,
                gains=gains,
                initial_config=Configuration(start),
                dt=dt,
                seed=0,
            )
            traj = run(assemble(scenario))
            return np.concatenate([traj.positions[-1][nl:], traj.xi[-1]])

        err_coarse = float(np.linalg.norm(final_state(0.04) - exact))
        err_half = float(np.linalg.norm(final_state(0.02) - exact))
        ratio = err_coarse / err_half
        assert ORDER_RATIO_LOW <= ratio <= ORDER_RATIO_HIGH
        assert float(np.linalg.norm(final_state(1e-3) - exact)) < ORACLE_TOL


def test_criterion_12_deterministic_csv_output(tmp_path):
    with criterion(12, "identical scenario and seed give byte-identical CSVs"):
        scenario_path = str(bundled_scenario_path("narrow_passage_2d"))
        outputs = []
        for sub in ("first", "second"):
            outdir = tmp_path / sub
            code = cli_main(
                ["run", scenario_path, "--out", str(outdir), "--dt", "0.005",
                 "--dump-xi"]
            )
            assert code == 0
            outputs.append(outdir)
        first, second = outputs
        assert (first / "trajectory.csv").read_bytes() == (
            second / "trajectory.csv"
        ).read_bytes()
        assert (first / "xi.csv").read_bytes() == (second / "xi.csv").read_bytes()
