"""Closed-loop scenario simulator.

A scenario bundles the formation, the gains, and a piecewise-constant leader
schedule.  Assembly front-loads every validation step: bearings are read off
the reference formation, rigidity and localizability are checked, and the
schedule is resolved segment by segment against the target formation it will
steer.  A seeded initial state is drawn when a run first reads it.  The run
itself is a classical fixed-step fourth-order Runge-Kutta loop that never
steps across a segment boundary: each segment takes a number of steps of dt
counted once from its span, the last one landing on its end.  Within a
segment the closed loop is one linear system with constant input, stepped
mode by mode along the eigenvectors of the follower block, a block of equal
steps at a time (see controller.ClosedLoop); leader paths are integrated
exactly and two runs of the same scenario agree bit for bit.  The loop is
stable for any gains, but RK4 only below a step bound: a run refuses a longer
dt before it integrates.  The tracking error is read at every step.  The kept
samples of each block are turned back and measured as soon as the block is
integrated, so a run stops at the first block whose kept samples are
non-finite, too large to square or collocated.
"""

from __future__ import annotations

import logging
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .controller import BLOCK_STEPS, ClosedLoop, Gains, largest_stable_step
from .errors import (
    DegenerateVector,
    DimensionMismatch,
    NotLocalizable,
    NotRigid,
    ScheduleGap,
    WindowTooShort,
)
from .formation import (
    BearingSpec,
    Configuration,
    FormationGraph,
    edge_bearings,
    ensure_compatible,
    sum_squares,
)
from .laplacian import BearingLaplacian, bearing_laplacian, target_follower_positions
from .maneuver import combined_command, rms_radius, scale
from .rigidity import RigidityReport, rigidity_report

logger = logging.getLogger(__name__)

DEFAULT_DT = 1e-3
DEFAULT_GAINS = Gains(k_p=1.0, k_i=0.5)

# Followers start this fraction of the formation scale away from target
# when no initial configuration is given.
PERTURBATION_FRACTION = 0.1

# Commanded shrinking may not take the target scale below this fraction of
# the reference formation's scale.
SCALE_FLOOR = 1e-3

# Largest coordinate magnitude a scenario may give or its leaders reach.  Squared
# differences of such coordinates, summed over three axes, stay far below overflow.
COORDINATE_LIMIT = 1e150

# Slack on times, as a fraction of dt: on schedule boundaries, and on a
# segment's last step, which is a full step of dt when this close to one.
TIME_TOL = 1e-6

# A run's steps, kept or not, may count at most this many state floats (512 MiB).
MAX_RUN_ELEMENTS = 1 << 26


class Segment:
    """One piece of the leader schedule, active on [t_start, t_end)."""

    def __init__(self, t_start: float, t_end: float, v_c, scale_rate: float = 0.0) -> None:
        v = np.array(v_c, dtype=float).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("segment velocity contains non-finite entries")
        v.setflags(write=False)
        self.t_start, self.t_end, self.v_c = float(t_start), float(t_end), v
        self.scale_rate = float(scale_rate)
        if not self.t_end > self.t_start:
            raise ValueError(
                f"segment must end after it starts, got [{self.t_start}, {self.t_end}]"
            )


class Scenario:
    """Everything needed to reproduce one simulation run."""

    def __init__(self, graph: FormationGraph, reference_config: Configuration, schedule,
                 duration: float, gains: Gains = DEFAULT_GAINS,
                 initial_config: Configuration | None = None, dt: float = DEFAULT_DT,
                 seed: int = 0) -> None:
        ensure_compatible(graph, reference_config)
        if initial_config is not None:
            ensure_compatible(graph, initial_config)
        if not duration > 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not 0.0 < dt:
            raise ValueError(f"dt must be positive, got {dt}")
        schedule = tuple(schedule)
        if not schedule:
            raise ScheduleGap("schedule is empty")
        for seg in schedule:
            if seg.v_c.size != graph.d:
                raise DimensionMismatch(
                    f"segment velocity has length {seg.v_c.size}, expected {graph.d}"
                )
        self.graph, self.reference_config, self.schedule = graph, reference_config, schedule
        self.duration, self.gains, self.initial_config = duration, gains, initial_config
        self.dt, self.seed = dt, seed


class ResolvedSegment(NamedTuple):
    """A schedule segment bound to the target formation it steers."""

    t_start: float
    t_end: float
    v_c: np.ndarray
    leader_velocity: np.ndarray
    target_start: Configuration
    predicted_scale_rate: float
    window: tuple[float, float]  # the part of [0, duration] it covers; may be empty


class SimContext:
    """Validated scenario with everything precomputed for stepping."""

    def __init__(self, scenario: Scenario, bearing_spec: BearingSpec,
                 laplacian: BearingLaplacian, rigidity: RigidityReport,
                 segments: tuple[ResolvedSegment, ...], loop: ClosedLoop) -> None:
        self.scenario, self.bearing_spec, self.laplacian = scenario, bearing_spec, laplacian
        self.rigidity, self.segments, self.loop = rigidity, segments, loop

    @property
    def graph(self) -> FormationGraph:
        return self.scenario.graph

    @cached_property
    def initial_positions(self) -> np.ndarray:
        """The stacked start state: the scenario's initial configuration, or
        the first target with each follower moved by a seeded uniform draw of
        up to PERTURBATION_FRACTION of its scale per axis.  Only a run reads
        it, so only a run pays for the draw and for importing numpy.random."""
        scenario = self.scenario
        if scenario.initial_config is not None:
            return scenario.initial_config.stacked.copy()
        graph, target = self.graph, self.segments[0].target_start
        rng = np.random.default_rng(scenario.seed)
        amplitude = PERTURBATION_FRACTION * scale(target)
        points = target.points.copy()
        points[graph.n_leaders :] += rng.uniform(
            -amplitude, amplitude, size=(graph.n_followers, graph.d)
        )
        return points.reshape(-1)


class Trajectory:
    """The kept samples of one run.  All arrays share the leading time axis.

    ``steps`` counts the integrated steps, kept or not, and ``decay`` is the
    ExponentialFit of the tracking error over the last integrated segment,
    or None.
    """

    def __init__(self, d: int, n: int, n_leaders: int, times, positions, xi, bearing_error,
                 tracking_error, centroid, scale, steps: int,
                 decay: ExponentialFit | None) -> None:
        self.d, self.n, self.n_leaders, self.steps, self.decay = d, n, n_leaders, steps, decay
        self.times, self.positions, self.xi = map(_read_only, (times, positions, xi))
        self.bearing_error, self.tracking_error, self.centroid, self.scale = map(
            _read_only, (bearing_error, tracking_error, centroid, scale))

    def configuration(self, k: int) -> Configuration:
        return Configuration.from_stacked(self.positions[k], self.d)


def _read_only(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


class ExponentialFit(NamedTuple):
    """Least-squares line through log(values): values ~ exp(intercept + rate*t)."""

    rate: float
    intercept: float
    r_squared: float


def structure(scenario: Scenario) -> tuple[BearingSpec, RigidityReport, BearingLaplacian]:
    """The reference formation's bearings, rigidity and Laplacian."""
    graph = scenario.graph
    ref = scenario.reference_config
    spec = BearingSpec.from_configuration(graph, ref)
    lap = bearing_laplacian(graph, spec)
    return spec, rigidity_report(graph, ref), lap


def assemble(scenario: Scenario, force: bool = False) -> SimContext:
    """Validate a scenario and precompute everything a run needs.

    Raises NotRigid or NotLocalizable when the reference formation fails the
    structural requirements, and ScheduleGap when the schedule does not tile
    [0, duration].  ``force`` downgrades the first two to warnings for
    deliberately broken experiments.
    """
    graph = scenario.graph
    ref = scenario.reference_config
    spec, rigidity, lap = structure(scenario)
    localizability = lap.localizability

    if not rigidity.is_infinitesimally_bearing_rigid:
        message = (
            f"reference formation is not infinitesimally bearing rigid "
            f"(rank {rigidity.rank}, need {rigidity.required_rank})"
        )
        if not force:
            raise NotRigid(message)
        logger.warning("%s; continuing because force=True", message)
    if not localizability.localizable:
        message = (
            f"follower block is not positive definite "
            f"(min eigenvalue {localizability.min_eigenvalue:.3e})"
        )
        if not force:
            raise NotLocalizable(message)
        logger.warning("%s; continuing because force=True", message)

    d = graph.d
    n_l = graph.n_leaders
    if scenario.initial_config is not None:
        leader_stack = scenario.initial_config.points[:n_l].reshape(-1).copy()
    else:
        leader_stack = ref.points[:n_l].reshape(-1).copy()

    can_solve = localizability.localizable
    floor = SCALE_FLOOR * scale(ref)
    slack = TIME_TOL * scenario.dt
    segments = []
    cursor = 0.0
    for k, seg in enumerate(scenario.schedule):
        if seg.t_start > cursor + slack:
            raise ScheduleGap(f"schedule leaves [{cursor}, {seg.t_start}] uncovered")
        if seg.t_start < cursor - slack:
            raise ScheduleGap(
                f"schedule starts at {seg.t_start}, before the run" if k == 0
                else f"segments overlap near t={seg.t_start} (previous ends at {cursor})"
            )
        cursor = seg.t_end
        t0, t1 = max(seg.t_start, 0.0), min(seg.t_end, scenario.duration)
        span = max(0.0, t1 - t0)
        if can_solve:
            followers = target_follower_positions(lap, leader_stack)
            target = Configuration(np.concatenate([leader_stack, followers]).reshape(-1, d))
        else:
            # Forced run on a non-localizable formation: fall back
            # to the reference shape so commands stay well defined.
            target = ref
        with np.errstate(over="ignore", invalid="ignore"):  # bounded just below
            velocity = combined_command(seg.v_c, target, n_l, seg.scale_rate)
            s_start = scale(target)
            rate = seg.scale_rate * s_start
            s_end = s_start + rate * span
            end = leader_stack + velocity * span
        if not np.all(np.abs(end) <= COORDINATE_LIMIT):
            raise ValueError(f"schedule[{k}] would carry the leaders beyond {COORDINATE_LIMIT:g}")
        if min(s_start, s_end) < floor:
            raise ValueError(
                f"segment [{seg.t_start}, {seg.t_end}] would shrink the target "
                f"scale to {min(s_start, s_end):.3e}, below the floor {floor:.3e}"
            )
        segments.append(
            ResolvedSegment(
                t_start=seg.t_start,
                t_end=seg.t_end,
                v_c=seg.v_c,
                leader_velocity=velocity,
                target_start=target,
                predicted_scale_rate=rate,
                window=(t0, t1),
            )
        )
        leader_stack = end
    if cursor < scenario.duration - slack:
        raise ScheduleGap(f"schedule ends at {cursor} but the run lasts {scenario.duration}")

    logger.info(
        "assembled scenario: n=%d d=%d m=%d rank=%d/%d lambda_min=%.3e",
        graph.n,
        d,
        graph.m,
        rigidity.rank,
        rigidity.required_rank,
        localizability.min_eigenvalue,
    )
    return SimContext(
        scenario=scenario,
        bearing_spec=spec,
        laplacian=lap,
        rigidity=rigidity,
        segments=tuple(segments),
        loop=ClosedLoop(lap, scenario.gains, scenario.dt),
    )


def step(
    ctx: SimContext, state: tuple[np.ndarray, np.ndarray], t: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One Runge-Kutta step from time t.  ``state`` is (positions, xi), stacked.

    Segments are half-open on the right, so a step starting exactly at a
    boundary uses the incoming segment's command.
    """
    p = np.asarray(state[0], dtype=float).reshape(-1)
    xi = np.asarray(state[1], dtype=float).reshape(-1)
    slack = TIME_TOL * ctx.scenario.dt
    started = [seg for seg in ctx.segments if seg.t_start <= t + slack]
    if not started or t > ctx.segments[-1].t_end + slack:
        raise ValueError(f"t={t} lies outside the schedule")
    seg = started[-1]
    block = np.stack([np.concatenate([p, xi])] * 2)
    ctx.loop.change_basis(block[:1], modal=True)
    ctx.loop.fill(block, seg.leader_velocity, dt)
    ctx.loop.change_basis(block[1:], modal=False)
    return block[1, : p.size], block[1, p.size :]


def _steps(ctx: SimContext, counts: list[int]):
    """Yield (segment, step size, times after each step) for every run of at
    most BLOCK_STEPS equal steps.  A segment whose window is [t0, t1] takes
    its count n of steps, at t0 + dt, t0 + 2 dt, ... and finally t1; the last
    one is t1 - (t0 + (n - 1) dt) long, or dt when within TIME_TOL dt of it."""
    dt = ctx.scenario.dt
    for seg, n in zip(ctx.segments, counts):
        if not n:
            continue
        t0, t1 = seg.window
        times = np.append(t0 + dt * np.arange(1.0, n), t1)
        last = t1 - (t0 + dt * (n - 1))
        full = n if abs(last - dt) <= TIME_TOL * dt else n - 1
        for start in range(0, full, BLOCK_STEPS):
            yield seg, dt, times[start : min(start + BLOCK_STEPS, full)]
        if full < n:
            yield seg, last, times[full:]


def _measure(ctx: SimContext, positions: np.ndarray, out: dict[str, np.ndarray],
             rows: slice) -> None:
    """Write the bearing error, centroid and scale of stacked positions into
    out[name][rows].

    Raises ValueError on non-finite positions or ones whose squares overflow,
    and DegenerateVector on collocated neighbours.
    """
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions contain non-finite entries")
    pts = positions.reshape(len(positions), ctx.graph.n, ctx.graph.d)
    try:
        with np.errstate(over="raise"):
            mismatch = edge_bearings(ctx.graph, pts) - ctx.bearing_spec.vectors
            out["bearing_error"][rows] = np.sqrt(sum_squares(mismatch)).sum(axis=-1)
            out["centroid"][rows] = pts.mean(axis=1)
            out["scale"][rows] = rms_radius(pts)
    except DegenerateVector as exc:
        raise _collocation(ctx, pts, exc) from None
    except FloatingPointError:
        raise ValueError("the run diverged: its positions grew too large to square") from None


def _collocation(ctx: SimContext, pts: np.ndarray, exc: DegenerateVector) -> DegenerateVector:
    """``exc``, which edge_bearings raised on the formations ``pts``, with the two
    agents' distance and the longest edge, as a multiple of the reference
    formation's, in the first formation it refuses: a run that diverges
    shows as an edge stretched far past the reference, not a short one."""
    for points in pts:
        try:
            edge_bearings(ctx.graph, points)
        except DegenerateVector:
            break
    ends = ctx.graph.edge_array
    longest = [np.sqrt(sum_squares(p[ends[:, 1]] - p[ends[:, 0]])).max()
               for p in (points, ctx.scenario.reference_config.points)]
    i, j = exc.agents
    return DegenerateVector(f"{exc}: {math.dist(points[i], points[j]):.3g} apart, with the "
                            f"longest edge {longest[0] / longest[1]:.3g} times the reference "
                            f"formation's", agents=exc.agents)


def run(ctx: SimContext, every: int = 1) -> Trajectory:
    """Integrate the whole schedule, keeping samples 0, every, 2*every, ...
    and the final one.

    Each segment takes ceil(span / dt - TIME_TOL) steps of the scenario dt,
    the last one shortened to land on the segment's end (see _steps).  The
    tracking error (distance of the followers from their current targets) is
    read at every step and fitted as ``decay`` over the last segment
    integrated, above 1e-13 of the reference formation's scale.  The kept
    samples also get the total bearing mismatch and the formation's centroid
    and scale, measured block by block as the run goes: the first block
    whose kept samples are non-finite or too large to square (ValueError), or
    collocated (DegenerateVector), ends the run there.  Raises ValueError
    before integrating when RK4 at the scenario dt would amplify a mode of the
    closed loop (see ClosedLoop.amplification), naming the largest stable dt,
    and when every step's state would exceed MAX_RUN_ELEMENTS floats.
    """
    if every < 1:
        raise ValueError(f"every must be at least 1, got {every}")
    dt, loop = ctx.scenario.dt, ctx.loop
    if loop.amplification > 1.0:
        raise ValueError(f"dt = {dt:g} is unstable: one RK4 step multiplies a mode by up to "
                         f"{loop.amplification:.4g}; the largest stable dt is about "
                         f"{largest_stable_step(loop.spectrum.eigenvalues, dt):.4g}")
    graph = ctx.graph
    nd = graph.n * graph.d
    width = nd + graph.d * graph.n_followers
    spans = [max(0.0, seg.window[1] - seg.window[0]) / dt for seg in ctx.segments]
    # bounded before it becomes an integer: the span of a subnormal dt is inf
    counts = [math.ceil(min(span, MAX_RUN_ELEMENTS) - TIME_TOL) for span in spans]
    steps = sum(counts)
    if not (steps + 1) * width <= MAX_RUN_ELEMENTS:
        raise ValueError(
            f"the run takes about {sum(spans):.3g} steps of {width} floats each, "
            f"more than the {MAX_RUN_ELEMENTS} floats a run may step through"
        )
    every = min(every, max(steps, 1))  # the same rows, and np.arange below stays integer
    at = np.arange(0, steps + every, every)
    at[-1] = steps
    kept = np.zeros((at.size, width))
    kept[0, :nd] = ctx.initial_positions
    metrics = {"bearing_error": np.empty(at.size), "centroid": np.empty((at.size, graph.d)),
               "scale": np.empty(at.size)}
    _measure(ctx, kept[:1, :nd], metrics, slice(0, 1))
    times = np.zeros(steps + 1)
    errors = np.empty(steps + 1)
    block = np.zeros((BLOCK_STEPS + 1, width))  # rows [p_l, q, eta]
    block[0] = kept[0]
    ctx.loop.change_basis(block[:1], modal=True)
    errors[:1] = ctx.loop.tracking_error(block[:1])
    k = 0
    for seg, h, stamps in _steps(ctx, counts):
        count = len(stamps)
        ctx.loop.fill(block[: count + 1], seg.leader_velocity, h)
        times[k + 1 : k + 1 + count] = stamps
        errors[k + 1 : k + 1 + count] = ctx.loop.tracking_error(block[1 : count + 1])
        rows = slice(*np.searchsorted(at, (k + 1, k + count + 1)))  # kept steps k+1..k+count
        kept[rows] = block[at[rows] - k]
        ctx.loop.change_basis(kept[rows], modal=False)
        _measure(ctx, kept[rows, :nd], metrics, rows)
        block[0] = block[count]
        k += count
    start = steps - next((n for n in reversed(counts) if n), 0)  # the last segment's
    fitted = errors[start:] > 1e-13 * scale(ctx.scenario.reference_config)
    try:
        decay = exponential_fit(times[start:][fitted], errors[start:][fitted])
    except WindowTooShort:
        decay = None
    return Trajectory(
        d=graph.d, n=graph.n, n_leaders=graph.n_leaders,
        times=times[at],
        positions=kept[:, :nd],
        xi=kept[:, nd:],
        tracking_error=errors[at],
        steps=steps, decay=decay, **metrics,
    )


def exponential_fit(times, values) -> ExponentialFit:
    """Fit values ~ exp(intercept + rate*t) by least squares on the logs.

    The caller chooses the window; every value in it must be positive.  A
    series that is not actually decaying shows up as a poor r_squared, not
    as an error.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    v = np.asarray(values, dtype=float).reshape(-1)
    if t.size != v.size:
        raise DimensionMismatch(
            f"times and values have different lengths ({t.size} vs {v.size})"
        )
    if t.size < 3:
        raise WindowTooShort(f"need at least 3 samples to fit, got {t.size}")
    if np.any(v <= 0.0):
        raise ValueError("values must be positive over the fit window")
    logs = np.log(v)
    rate, intercept = np.polyfit(t, logs, 1)
    predicted = intercept + rate * t
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return ExponentialFit(rate=float(rate), intercept=float(intercept), r_squared=r_squared)
