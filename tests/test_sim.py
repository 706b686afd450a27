"""Scenario assembly, the integration loop, and the run metrics."""

import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmv import (
    ClosedLoop,
    Configuration,
    DegenerateVector,
    DimensionMismatch,
    FormationGraph,
    Gains,
    NotLocalizable,
    NotRigid,
    Scenario,
    ScheduleGap,
    Segment,
    WindowTooShort,
    assemble,
    bearing_function,
    exponential_fit,
    run,
    scale,
    step,
    target_follower_positions,
)
from bmv.sim import COORDINATE_LIMIT
from conftest import SQUARE_EDGES, SQUARE_POINTS, random_formation


def _square_scenario(**overrides):
    defaults = dict(
        graph=FormationGraph(n=4, d=2, edges=SQUARE_EDGES, n_leaders=2),
        reference_config=Configuration(SQUARE_POINTS),
        schedule=(Segment(0.0, 10.0, np.array([0.2, 0.0])),),
        duration=2.0,
        gains=Gains(k_p=2.0, k_i=1.0),
        dt=1e-3,
        seed=3,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# validation

def test_segment_validation():
    with pytest.raises(ValueError, match="end after it starts"):
        Segment(1.0, 1.0, np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        Segment(0.0, 1.0, np.array([np.nan, 0.0]))


def test_scenario_validation():
    with pytest.raises(ScheduleGap):
        _square_scenario(schedule=())
    with pytest.raises(DimensionMismatch):
        _square_scenario(schedule=(Segment(0.0, 5.0, np.zeros(3)),))
    with pytest.raises(ValueError):
        _square_scenario(duration=0.0)
    with pytest.raises(ValueError):
        _square_scenario(dt=-1e-3)
    with pytest.raises(DimensionMismatch):
        _square_scenario(initial_config=Configuration(np.zeros((3, 2))))


def test_schedule_must_tile_the_run():
    gap = (
        Segment(0.0, 1.0, np.zeros(2)),
        Segment(1.5, 3.0, np.zeros(2)),
    )
    with pytest.raises(ScheduleGap, match="uncovered"):
        assemble(_square_scenario(schedule=gap))
    overlap = (
        Segment(0.0, 1.5, np.zeros(2)),
        Segment(1.0, 3.0, np.zeros(2)),
    )
    with pytest.raises(ScheduleGap, match="overlap"):
        assemble(_square_scenario(schedule=overlap))
    short = (Segment(0.0, 1.0, np.zeros(2)),)
    with pytest.raises(ScheduleGap, match="lasts"):
        assemble(_square_scenario(schedule=short))
    early = (Segment(-1.0, 5.0, np.zeros(2)),)
    with pytest.raises(ScheduleGap, match=r"^schedule starts at -1\.0, before the run$"):
        assemble(_square_scenario(schedule=early))


def test_assemble_rejects_flexible_formation():
    graph = FormationGraph(
        n=4, d=2, edges=((0, 1), (1, 2), (2, 3), (0, 3)), n_leaders=2
    )
    with pytest.raises(NotRigid):
        assemble(_square_scenario(graph=graph))


def test_assemble_rejects_single_leader():
    graph = FormationGraph(n=4, d=2, edges=SQUARE_EDGES, n_leaders=1)
    with pytest.raises(NotLocalizable):
        assemble(_square_scenario(graph=graph))


def test_force_downgrades_structural_failures(caplog):
    graph = FormationGraph(n=4, d=2, edges=SQUARE_EDGES, n_leaders=1)
    with caplog.at_level(logging.WARNING, logger="bmv.sim"):
        ctx = assemble(_square_scenario(graph=graph), force=True)
    assert "follower block" in caplog.text
    traj = run(ctx)
    # tracking has no defined target here; the metric is flagged, not faked
    assert np.all(np.isnan(traj.tracking_error))


def test_shrinking_through_the_floor_is_an_error():
    shrink = (Segment(0.0, 10.0, np.zeros(2), scale_rate=-0.9),)
    with pytest.raises(ValueError, match="floor"):
        assemble(_square_scenario(schedule=shrink, duration=10.0))


# ---------------------------------------------------------------------------
# segment resolution

def test_segments_resolve_against_propagated_targets():
    schedule = (
        Segment(0.0, 1.0, np.array([0.5, 0.0])),
        Segment(1.0, 2.0, np.array([0.0, 0.0]), scale_rate=0.2),
    )
    ctx = assemble(_square_scenario(schedule=schedule, duration=2.0))
    first, second = ctx.segments
    # the second segment's target starts where the first segment's leaders end
    np.testing.assert_allclose(
        second.target_start.points[:2],
        first.target_start.points[:2] + np.array([0.5, 0.0]),
        atol=1e-12,
    )
    assert first.predicted_scale_rate == 0.0
    assert second.predicted_scale_rate == pytest.approx(
        0.2 * scale(second.target_start), rel=1e-12
    )


def test_default_start_perturbs_only_followers():
    ctx = assemble(_square_scenario())
    target = ctx.segments[0].target_start
    start = ctx.initial_positions.reshape(4, 2)
    np.testing.assert_array_equal(start[:2], target.points[:2])
    assert np.all(np.abs(start[2:] - target.points[2:]) > 0.0)
    assert np.max(np.abs(start[2:] - target.points[2:])) <= 0.1 * scale(target)


def test_explicit_initial_used_verbatim():
    initial = Configuration(SQUARE_POINTS + 0.01)
    ctx = assemble(_square_scenario(initial_config=initial))
    np.testing.assert_array_equal(ctx.initial_positions, initial.stacked)


def test_seed_changes_default_start():
    a = assemble(_square_scenario(seed=1)).initial_positions
    b = assemble(_square_scenario(seed=2)).initial_positions
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# integration loop

def test_equilibrium_is_a_fixed_point():
    ctx = assemble(
        _square_scenario(
            schedule=(Segment(0.0, 5.0, np.zeros(2)),),
            duration=1.0,
            initial_config=Configuration(SQUARE_POINTS),
        )
    )
    traj = run(ctx)
    drift = np.max(np.abs(traj.positions - ctx.initial_positions))
    assert drift < 1e-12
    assert np.max(traj.bearing_error) < 1e-12
    assert np.max(traj.tracking_error) < 1e-12


def test_leaders_follow_commanded_path_exactly():
    v = np.array([0.3, -0.1])
    ctx = assemble(
        _square_scenario(schedule=(Segment(0.0, 5.0, v),), duration=2.0)
    )
    traj = run(ctx)
    for k in (100, 1500, traj.times.size - 1):
        t = traj.times[k]
        expected = SQUARE_POINTS[:2] + v * t
        np.testing.assert_allclose(
            traj.positions[k].reshape(4, 2)[:2], expected, atol=1e-12
        )


def test_run_lands_exactly_on_boundaries_and_duration():
    schedule = (
        Segment(0.0, 0.75, np.zeros(2)),
        Segment(0.75, 1.3, np.array([0.1, 0.0])),
        Segment(1.3, 5.0, np.zeros(2)),
    )
    ctx = assemble(_square_scenario(schedule=schedule, duration=1.5))
    traj = run(ctx)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.5, abs=1e-12)
    for boundary in (0.75, 1.3):
        assert np.min(np.abs(traj.times - boundary)) < 1e-12
    assert np.all(np.diff(traj.times) > 0.0)


def test_metrics_match_recomputation():
    ctx = assemble(_square_scenario(duration=0.5))
    traj = run(ctx)
    for k in (0, 17, traj.times.size - 1):
        p = traj.positions[k]
        bearings = bearing_function(ctx.graph, Configuration.from_stacked(p, 2))
        np.testing.assert_allclose(
            traj.bearing_error[k],
            np.linalg.norm(
                bearings.reshape(-1, 2) - ctx.bearing_spec.vectors, axis=1
            ).sum(),
            atol=1e-14,
        )
        target = target_follower_positions(ctx.laplacian, p[:4])
        np.testing.assert_allclose(
            traj.tracking_error[k], np.linalg.norm(p[4:] - target), atol=1e-14
        )
        pts = p.reshape(4, 2)
        np.testing.assert_allclose(traj.centroid[k], pts.mean(axis=0), atol=1e-14)
        offsets = pts - pts.mean(axis=0)
        np.testing.assert_allclose(
            traj.scale[k],
            math.sqrt(np.mean(np.sum(offsets**2, axis=1))),
            atol=1e-14,
        )


def test_tracking_error_decays_in_envelope():
    ctx = assemble(_square_scenario(duration=6.0, gains=Gains(k_p=8.0, k_i=20.0)))
    traj = run(ctx)
    # not strictly monotone (the slow mode is complex), but the tail must
    # sit far below the start
    assert traj.tracking_error[-1] < 5e-3 * traj.tracking_error[0]


def test_run_is_deterministic():
    a = run(assemble(_square_scenario()))
    b = run(assemble(_square_scenario()))
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.xi, b.xi)
    np.testing.assert_array_equal(a.bearing_error, b.bearing_error)


def _counted_fill(monkeypatch, injected=None):
    """Count the calls of ClosedLoop.fill, and let ``injected`` rewrite in place
    the rows [p_l, q, eta] each call fills."""
    fill = ClosedLoop.fill
    calls = []

    def counted(self, block, *args):
        calls.append(None)
        fill(self, block, *args)
        if injected is not None:
            injected(block[1:])

    monkeypatch.setattr(ClosedLoop, "fill", counted)
    return calls


def test_metrics_reject_collocated_and_non_finite_states(monkeypatch):
    # the kept samples are measured block by block, so a run stops at the
    # first block that holds a bad one: a collocated start before any block
    calls = _counted_fill(monkeypatch)
    collocated = SQUARE_POINTS.copy()
    collocated[3] = collocated[2]
    ctx = assemble(_square_scenario(initial_config=Configuration(collocated)))
    with pytest.raises(DegenerateVector, match="agents 2 and 3"):
        run(ctx)
    assert calls == []
    # a dt far past RK4's stability limit is refused before any block
    ctx = assemble(_square_scenario(
        gains=Gains(k_p=1e3, k_i=1.0), dt=0.1, duration=100.0,
        schedule=(Segment(0.0, 100.0, np.array([0.2, 0.0])),),
    ))
    with pytest.raises(ValueError, match=r"^dt = 0\.1 is unstable: one RK4 step multiplies a "
                                         r"mode by up to .*; the largest stable dt is about "):
        run(ctx)
    assert calls == []

    def poisoned(rows):
        rows[5] = np.nan

    # a state gone non-finite in the first of the 16 blocks ends the run there
    calls = _counted_fill(monkeypatch, poisoned)
    with pytest.raises(ValueError, match="non-finite"):
        run(assemble(_square_scenario()))
    assert len(calls) == 1


def test_a_diverging_run_shows_as_a_stretched_formation(monkeypatch):
    # at dt = 0.5 the followers would run off, so the run refuses that dt
    calls = _counted_fill(monkeypatch)
    diverging = dict(gains=Gains(k_p=8.0, k_i=20.0), dt=0.5, duration=20.0,
                     schedule=(Segment(0.0, 20.0, np.array([0.2, 0.0])),))
    with pytest.raises(ValueError, match=r"^dt = 0\.5 is unstable: "):
        run(assemble(_square_scenario(**diverging)))
    assert calls == []

    def stretched(rows):
        rows[:, 4:8] *= 1e13  # q, the followers in their modal basis

    # followers stretched 1e13 times off at a stable dt: the leaders stay 1
    # apart, and their edge is the first to fall below 1e-12 of the longest
    calls = _counted_fill(monkeypatch, stretched)
    with pytest.raises(DegenerateVector) as raised:
        run(assemble(_square_scenario(**{**diverging, "dt": 0.05})))
    message = str(raised.value)
    prefix = "agents 0 and 1 are collocated (edge 0): 1 apart, with the longest edge "
    assert message.startswith(prefix) and message.endswith(" times the reference formation's")
    assert raised.value.agents == (0, 1)
    assert float(message[len(prefix):].split()[0]) > 1e11
    assert len(calls) == 1


def test_positions_too_large_to_square_end_the_run_in_one_error(monkeypatch):
    # finite states whose squares overflow name the divergence, rather than
    # warning from numpy (an error under this suite's filterwarnings)
    def grown(rows):
        rows *= 1e200

    calls = _counted_fill(monkeypatch, grown)
    with pytest.raises(ValueError) as raised:
        run(assemble(_square_scenario()))
    assert str(raised.value) == "the run diverged: its positions grew too large to square"
    assert len(calls) == 1


def test_a_run_just_past_the_coordinate_limit_completes():
    # the limit bounds what a scenario gives, not what a run may reach: the
    # unit square at 1e150 stays where it is, its followers a little beyond
    ctx = assemble(_square_scenario(
        reference_config=Configuration(COORDINATE_LIMIT * SQUARE_POINTS), duration=0.5,
        schedule=(Segment(0.0, 0.5, np.zeros(2)),),
    ))
    traj = run(ctx)
    assert np.abs(traj.positions).max() > 1.01 * COORDINATE_LIMIT
    assert np.all(np.isfinite(traj.bearing_error)) and np.all(np.isfinite(traj.scale))


def _stage_rk4_run(ctx):
    """Reference run: the schedule loop with classical RK4 written stage by
    stage on the partitioned Laplacian, independent of the simulator's model."""
    scenario = ctx.scenario
    lap, gains, dt = ctx.laplacian, scenario.gains, scenario.dt
    split = lap.d * lap.n_leaders

    def rhs(p, xi, v):
        drive = lap.L_ff @ p[split:] + lap.L_fl @ p[:split]
        return np.concatenate([v, -gains.k_p * drive - gains.k_i * xi]), drive

    p = ctx.initial_positions.copy()
    xi = np.zeros(lap.d * lap.n_followers)
    times, ps, xis = [0.0], [p], [xi]
    for seg in ctx.segments:
        t0 = max(seg.t_start, 0.0)
        t1 = min(seg.t_end, scenario.duration)
        v = seg.leader_velocity
        # n steps at t0 + k dt, the last landing on t1; it is a full step
        # when within 1e-6 dt of one
        n = math.ceil(max(0.0, t1 - t0) / dt - 1e-6)
        for k in range(1, n + 1):
            h = dt
            if k == n and abs(t1 - (t0 + (n - 1) * dt) - dt) > 1e-6 * dt:
                h = t1 - (t0 + (n - 1) * dt)
            k1p, k1x = rhs(p, xi, v)
            k2p, k2x = rhs(p + 0.5 * h * k1p, xi + 0.5 * h * k1x, v)
            k3p, k3x = rhs(p + 0.5 * h * k2p, xi + 0.5 * h * k2x, v)
            k4p, k4x = rhs(p + h * k3p, xi + h * k3x, v)
            p = p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
            xi = xi + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x)
            times.append(t1 if k == n else t0 + k * dt)
            ps.append(p)
            xis.append(xi)
    return np.array(times), np.array(ps), np.array(xis)


def test_run_matches_stage_by_stage_rk4():
    # boundaries at 0.75 and 1.3 are off the 0.004 grid: shortened steps
    schedule = (
        Segment(0.0, 0.75, np.array([0.3, 0.0])),
        Segment(0.75, 1.3, np.array([0.0, 0.2]), scale_rate=-0.1),
        Segment(1.3, 5.0, np.array([-0.1, 0.1]), scale_rate=0.05),
    )
    ctx = assemble(_square_scenario(schedule=schedule, duration=2.0, dt=0.004))
    traj = run(ctx)
    assert np.any(np.diff(traj.times) < 0.004 - 1e-9)
    times, positions, xis = _stage_rk4_run(ctx)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_allclose(traj.positions, positions, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.xi, xis, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.1, 10.0),
    b=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_run_is_equivariant_under_translation_and_scaling(a, b):
    # bearings ignore p -> a p + b, so the run maps the same way: positions
    # to a P + b, integral states to a xi, with the leaders' v_c scaled by a
    b = np.array(b)
    start = SQUARE_POINTS + np.array([[0.0, 0.0], [0.0, 0.0], [0.08, -0.05], [-0.03, 0.06]])

    def scenario(a, b):
        return _square_scenario(
            reference_config=Configuration(a * SQUARE_POINTS + b),
            initial_config=Configuration(a * start + b),
            schedule=(
                Segment(0.0, 0.3, a * np.array([0.4, -0.2])),
                Segment(0.3, 1.0, a * np.array([0.0, 0.3]), scale_rate=-0.2),
            ),
            duration=0.5,
            dt=0.01,
        )

    base = run(assemble(scenario(1.0, np.zeros(2))))
    moved = run(assemble(scenario(a, b)))
    tol = 1e-10 * (a + float(np.abs(b).max()) + 1.0)
    np.testing.assert_array_equal(moved.times, base.times)
    np.testing.assert_allclose(
        moved.positions, a * base.positions + np.tile(b, 4), rtol=0, atol=tol
    )
    np.testing.assert_allclose(moved.xi, a * base.xi, rtol=0, atol=tol)


def test_all_leader_formation_runs():
    graph = FormationGraph(n=4, d=2, edges=SQUARE_EDGES, n_leaders=4)
    scenario = _square_scenario(graph=graph, duration=0.5)
    traj = run(assemble(scenario))
    np.testing.assert_array_equal(traj.tracking_error, np.zeros(traj.times.size))
    assert traj.xi.shape[1] == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 7),
    d=st.integers(2, 3),
    leaders=st.integers(1, 7),
    k_p=st.floats(0.1, 5.0),
    k_i=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
    duration=st.floats(0.2, 3.0),
    every=st.integers(1, 20),
)
@example(seed=1, n=4, d=2, leaders=1, k_p=1.0, k_i=0.5, duration=2.93, every=7)  # forced
@example(seed=1, n=4, d=2, leaders=4, k_p=1.0, k_i=0.5, duration=2.93, every=7)  # all leaders
def test_run_keeps_every_nth_sample_of_the_full_run(seed, n, d, leaders, k_p, k_i, duration,
                                                    every):
    # over 128 steps the blocks of the integrator and the kept rows interleave
    rng = np.random.default_rng(seed)
    graph, ref = random_formation(rng, n, d, n_leaders=min(leaders, n), edge_prob=0.8)
    split = rng.uniform(0.1, 0.9) * duration
    scenario = Scenario(
        graph=graph, reference_config=ref,
        schedule=(Segment(0.0, split, rng.normal(size=d)),
                  Segment(split, duration, rng.normal(size=d), scale_rate=0.1)),
        duration=duration, gains=Gains(k_p=k_p, k_i=k_i), dt=0.01, seed=seed,
    )
    ctx = assemble(scenario, force=True)
    full, kept = run(ctx), run(ctx, every)
    at = sorted({*range(0, full.times.size, every), full.times.size - 1})
    assert kept.steps == full.steps == full.times.size - 1
    assert kept.decay == full.decay
    np.testing.assert_array_equal(kept.times, full.times[at])
    np.testing.assert_array_equal(kept.tracking_error, full.tracking_error[at])
    size = float(np.abs(full.positions).max())
    for name in ("positions", "xi"):
        expected = getattr(full, name)[at]
        bound = 1e-13 * np.abs(expected).max(initial=0.0)
        np.testing.assert_allclose(getattr(kept, name), expected, rtol=0, atol=bound)
    for name in ("bearing_error", "centroid", "scale"):
        np.testing.assert_allclose(getattr(kept, name), getattr(full, name)[at],
                                   rtol=0, atol=1e-12 * (1.0 + size))


def test_forced_run_reads_no_tracking_error_and_warns_nothing():
    # the follower touches no edge, so L_ff = 0 and every mu is exactly 0
    graph = FormationGraph(n=3, d=2, edges=((0, 1),), n_leaders=2)
    ctx = assemble(
        _square_scenario(graph=graph, reference_config=Configuration(SQUARE_POINTS[:3])),
        force=True,
    )
    assert not np.any(ctx.laplacian.localizability.eigenvalues)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(ctx, 7)
    assert np.all(np.isnan(traj.tracking_error))
    assert traj.decay is None


def test_run_rejects_a_non_positive_every():
    with pytest.raises(ValueError, match="every"):
        run(assemble(_square_scenario(duration=0.1)), 0)


def test_single_step_matches_run_start():
    ctx = assemble(_square_scenario())
    state = (ctx.initial_positions, np.zeros(4))
    p1, xi1 = step(ctx, state, 0.0, ctx.scenario.dt)
    traj = run(ctx)
    np.testing.assert_allclose(p1, traj.positions[1], atol=1e-15)
    np.testing.assert_allclose(xi1, traj.xi[1], atol=1e-15)


def test_step_uses_incoming_segment_at_boundary():
    schedule = (
        Segment(0.0, 1.0, np.zeros(2)),
        Segment(1.0, 2.0, np.array([1.0, 0.0])),
    )
    ctx = assemble(
        _square_scenario(
            schedule=schedule,
            duration=2.0,
            initial_config=Configuration(SQUARE_POINTS),
        )
    )
    state = (ctx.initial_positions, np.zeros(4))
    p, _ = step(ctx, state, 1.0, 0.5)
    moved = p.reshape(4, 2)
    np.testing.assert_allclose(moved[:2], SQUARE_POINTS[:2] + [0.5, 0.0], atol=1e-12)
    with pytest.raises(ValueError, match="outside"):
        step(ctx, state, 5.0, 0.1)


def test_trajectory_configuration_accessor():
    ctx = assemble(_square_scenario(duration=0.1))
    traj = run(ctx)
    cfg = traj.configuration(0)
    np.testing.assert_array_equal(cfg.points.reshape(-1), ctx.initial_positions)


# ---------------------------------------------------------------------------
# exponential fit

def test_exponential_fit_recovers_rate():
    rng = np.random.default_rng(59)
    t = np.linspace(0.0, 5.0, 200)
    values = 3.0 * np.exp(-2.0 * t) * np.exp(rng.normal(scale=1e-3, size=t.size))
    fit = exponential_fit(t, values)
    assert fit.rate == pytest.approx(-2.0, rel=1e-2)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-2)
    assert fit.r_squared > 0.999
    assert fit.r_squared >= 0.9


def test_exponential_fit_flags_non_decay():
    t = np.linspace(0.0, 10.0, 100)
    values = 1.0 + 0.5 * np.sin(3.0 * t) ** 2
    fit = exponential_fit(t, values)
    assert fit.r_squared < 0.9


def test_exponential_fit_window_errors():
    with pytest.raises(WindowTooShort):
        exponential_fit([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        exponential_fit([0.0, 1.0, 2.0], [1.0, 0.0, 0.5])
    with pytest.raises(DimensionMismatch):
        exponential_fit([0.0, 1.0, 2.0], [1.0, 0.5])
