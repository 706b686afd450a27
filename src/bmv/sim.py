"""Closed-loop scenario simulator.

A scenario bundles the formation, the gains, and a piecewise-constant leader
schedule.  Assembly front-loads every validation step: bearings are read off
the reference formation, rigidity and localizability are checked, the
schedule is resolved segment by segment against the target formation it will
steer, and the initial state is fixed.  The run itself is a classical
fixed-step fourth-order Runge-Kutta loop that never steps across a segment
boundary.  Within a segment the closed loop is one linear system with
constant input, stepped mode by mode along the eigenvectors of the follower
block, a block of equal steps at a time (see controller.ClosedLoop); leader
paths are integrated exactly and two runs of the same scenario agree bit for
bit.  The tracking error is read at every step, the other metrics afterwards.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .controller import BLOCK_STEPS, ClosedLoop, Gains
from .errors import (
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

# Slack when comparing schedule boundary times.
TIME_TOL = 1e-9

# The metrics pass reads this many trajectory floats at a time, which bounds
# its temporaries on wide formations and long runs.
METRICS_BLOCK_ELEMENTS = 1 << 18

# A run's steps, kept or not, may count at most this many state floats (512 MiB).
MAX_RUN_ELEMENTS = 1 << 26


@dataclass(frozen=True)
class Segment:
    """One piece of the leader schedule, active on [t_start, t_end)."""

    t_start: float
    t_end: float
    v_c: np.ndarray
    scale_rate: float = 0.0

    def __post_init__(self) -> None:
        v = np.array(self.v_c, dtype=float).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("segment velocity contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "v_c", v)
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "scale_rate", float(self.scale_rate))
        if not self.t_end > self.t_start:
            raise ValueError(
                f"segment must end after it starts, got [{self.t_start}, {self.t_end}]"
            )


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one simulation run."""

    graph: FormationGraph
    reference_config: Configuration
    schedule: tuple[Segment, ...]
    duration: float
    gains: Gains = DEFAULT_GAINS
    initial_config: Configuration | None = None
    dt: float = DEFAULT_DT
    seed: int = 0

    def __post_init__(self) -> None:
        ensure_compatible(self.graph, self.reference_config)
        if self.initial_config is not None:
            ensure_compatible(self.graph, self.initial_config)
        if not self.duration > 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0.0 < self.dt:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if not self.schedule:
            raise ScheduleGap("schedule is empty")
        for seg in self.schedule:
            if seg.v_c.size != self.graph.d:
                raise DimensionMismatch(
                    f"segment velocity has length {seg.v_c.size}, "
                    f"expected {self.graph.d}"
                )


@dataclass(frozen=True)
class ResolvedSegment:
    """A schedule segment bound to the target formation it steers."""

    t_start: float
    t_end: float
    v_c: np.ndarray
    leader_velocity: np.ndarray
    target_start: Configuration
    predicted_scale_rate: float
    window: tuple[float, float]  # the part of [0, duration] it covers; may be empty


@dataclass(frozen=True)
class SimContext:
    """Validated scenario with everything precomputed for stepping."""

    scenario: Scenario
    bearing_spec: BearingSpec
    laplacian: BearingLaplacian
    rigidity: RigidityReport
    segments: tuple[ResolvedSegment, ...]
    initial_positions: np.ndarray = field(repr=False)
    loop: ClosedLoop = field(repr=False)

    @property
    def graph(self) -> FormationGraph:
        return self.scenario.graph


@dataclass(frozen=True)
class Trajectory:
    """The kept samples of one run.  All arrays share the leading time axis."""

    d: int
    n: int
    n_leaders: int
    times: np.ndarray
    positions: np.ndarray
    xi: np.ndarray
    bearing_error: np.ndarray
    tracking_error: np.ndarray
    centroid: np.ndarray
    scale: np.ndarray
    steps: int  # integrated, kept or not
    decay: ExponentialFit | None  # of the tracking error over the last integrated segment

    def __post_init__(self) -> None:
        for name in ("times", "positions", "xi", "bearing_error", "tracking_error",
                     "centroid", "scale"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def configuration(self, k: int) -> Configuration:
        return Configuration.from_stacked(self.positions[k], self.d)


@dataclass(frozen=True)
class ExponentialFit:
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
    segments = []
    cursor = 0.0
    for k, seg in enumerate(scenario.schedule):
        if seg.t_start > cursor + TIME_TOL:
            raise ScheduleGap(f"schedule leaves [{cursor}, {seg.t_start}] uncovered")
        if seg.t_start < cursor - TIME_TOL:
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
    if cursor < scenario.duration - TIME_TOL:
        raise ScheduleGap(f"schedule ends at {cursor} but the run lasts {scenario.duration}")

    target0 = segments[0].target_start
    if scenario.initial_config is not None:
        initial = scenario.initial_config.stacked.copy()
    else:
        rng = np.random.default_rng(scenario.seed)
        amplitude = PERTURBATION_FRACTION * scale(target0)
        points = target0.points.copy()
        points[n_l:] += rng.uniform(
            -amplitude, amplitude, size=(graph.n_followers, d)
        )
        initial = points.reshape(-1)

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
        initial_positions=initial,
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
    started = [seg for seg in ctx.segments if seg.t_start <= t + TIME_TOL]
    if not started or t > ctx.segments[-1].t_end + TIME_TOL:
        raise ValueError(f"t={t} lies outside the schedule")
    seg = started[-1]
    block = np.stack([np.concatenate([p, xi])] * 2)
    ctx.loop.change_basis(block[:1], modal=True)
    ctx.loop.fill(block, seg.leader_velocity, dt)
    ctx.loop.change_basis(block[1:], modal=False)
    return block[1, : p.size], block[1, p.size :]


def _spans(ctx: SimContext) -> list[ResolvedSegment]:
    """The segments a run integrates: those whose window is not empty."""
    return [seg for seg in ctx.segments if seg.window[1] > seg.window[0] + TIME_TOL]


def _steps(ctx: SimContext):
    """Yield (segment, step size, times after each step) for every run of at
    most BLOCK_STEPS equal steps in one segment."""
    dt = ctx.scenario.dt
    for seg in _spans(ctx):
        t0, t1 = seg.window
        t, h, times = t0, dt, []
        while t < t1 - TIME_TOL:
            size = min(dt, t1 - t)
            if times and (size != h or len(times) == BLOCK_STEPS):
                yield seg, h, times
                times = []
            h = size
            t = t + h
            if t1 - t < TIME_TOL * max(1.0, dt):
                t = t1
            times.append(t)
        if times:
            yield seg, h, times


def _metrics(ctx: SimContext, positions: np.ndarray) -> dict[str, np.ndarray]:
    """The bearing error, centroid and scale of stored positions, in blocks.

    Raises ValueError on non-finite positions and DegenerateVector on
    collocated neighbours.
    """
    graph = ctx.graph
    n, d = graph.n, graph.d
    samples = positions.shape[0]
    out = {
        "bearing_error": np.empty(samples),
        "centroid": np.empty((samples, d)),
        "scale": np.empty(samples),
    }
    rows = max(1, METRICS_BLOCK_ELEMENTS // (d * max(n, graph.m)))
    for start in range(0, samples, rows):
        block = slice(start, start + rows)
        p = positions[block]
        if not np.all(np.isfinite(p)):
            raise ValueError("positions contain non-finite entries")
        pts = p.reshape(-1, n, d)
        bearings = edge_bearings(graph, pts)
        out["bearing_error"][block] = np.sqrt(
            sum_squares(bearings - ctx.bearing_spec.vectors)
        ).sum(axis=-1)
        out["centroid"][block] = pts.mean(axis=1)
        out["scale"][block] = rms_radius(pts)
    return out


def _decay(ctx: SimContext, times: np.ndarray, errors: np.ndarray) -> ExponentialFit | None:
    """The tracking error's fit over the last integrated segment's steps above
    1e-13, or None."""
    start = max((seg.window[0] for seg in _spans(ctx)), default=0.0)
    window = (times >= start) & (errors > 1e-13)
    try:
        return exponential_fit(times[window], errors[window])
    except WindowTooShort:
        return None


def run(ctx: SimContext, every: int = 1) -> Trajectory:
    """Integrate the whole schedule, keeping samples 0, every, 2*every, ...
    and the final one.

    The step size is the scenario dt, shortened at each segment boundary so
    the integrator lands on it exactly.  The tracking error (distance of the
    followers from their current targets) is read at every step and fitted
    as ``decay``; the kept samples also get the total bearing mismatch and
    the formation's centroid and scale.  Raises ValueError before
    integrating when every step's state would exceed MAX_RUN_ELEMENTS floats.
    """
    if every < 1:
        raise ValueError(f"every must be at least 1, got {every}")
    graph = ctx.graph
    nd = graph.n * graph.d
    width = nd + graph.d * graph.n_followers
    spans = [(seg.window[1] - seg.window[0]) / ctx.scenario.dt for seg in _spans(ctx)]
    # Each segment takes at most ceil(span / dt) steps, plus one for rounding.
    rows = sum(spans) + 2 * len(spans) + 1
    if not rows * width <= MAX_RUN_ELEMENTS:
        raise ValueError(
            f"the run takes about {sum(spans):.3g} steps of {width} floats each, "
            f"more than the {MAX_RUN_ELEMENTS} floats a run may step through"
        )
    every = min(every, int(rows))  # the same rows, and np.arange below stays integer
    kept = np.zeros(((int(rows) - 1) // every + 2, width))
    times = np.zeros(int(rows))
    errors = np.empty(int(rows))
    block = np.zeros((BLOCK_STEPS + 1, width))  # rows [p_l, q, eta]
    block[0, :nd] = ctx.initial_positions
    ctx.loop.change_basis(block[:1], modal=True)
    kept[0] = block[0]
    errors[:1] = ctx.loop.tracking_error(block[:1])
    k = 0
    for seg, h, stamps in _steps(ctx):
        count = len(stamps)
        ctx.loop.fill(block[: count + 1], seg.leader_velocity, h)
        times[k + 1 : k + 1 + count] = stamps
        errors[k + 1 : k + 1 + count] = ctx.loop.tracking_error(block[1 : count + 1])
        first = -(-(k + 1) // every) * every  # the first kept step after k
        kept[first // every : (k + count) // every + 1] = block[first - k : count + 1 : every]
        block[0] = block[count]
        k += count
    at = np.arange(0, k + every, every)
    at[-1] = k
    kept = kept[: at.size]
    kept[-1] = block[0]
    ctx.loop.change_basis(kept, modal=False)
    kept[0, :nd] = ctx.initial_positions  # exactly, not through U U^T
    return Trajectory(
        d=graph.d, n=graph.n, n_leaders=graph.n_leaders,
        times=times[at],
        positions=kept[:, :nd],
        xi=kept[:, nd:],
        tracking_error=errors[at],
        steps=k,
        decay=_decay(ctx, times[: k + 1], errors[: k + 1]),
        **_metrics(ctx, kept[:, :nd]),
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
