"""Closed-loop scenario simulator.

A scenario bundles the formation, the gains, and a piecewise-constant leader
schedule.  Assembly front-loads every validation step: bearings are read off
the reference formation, rigidity and localizability are checked, and the
schedule is resolved segment by segment against the target formation it will
steer.  A seeded initial state (numpy's PCG64 stream, in plain integers) is
drawn when a run first reads it.  The run itself is a classical fixed-step
fourth-order Runge-Kutta loop that never steps across a segment boundary: each
segment takes a number of steps of dt counted once from its span, the last one
landing on its end.  Within a segment the closed loop is one linear system with
constant input, stepped mode by mode along the eigenvectors of the follower
block, a block of equal steps at a time (see controller.ClosedLoop); leader
paths are integrated exactly and two runs of the same scenario agree bit for
bit.  The loop is stable for any gains, but RK4 only below a step bound: a run
refuses a longer dt before it integrates.  The tracking error is read at every
step.  Chunks of whole blocks, however short the segments, are integrated and
their kept samples measured one chunk at a time, so a run stops at the first
chunk whose kept samples are non-finite, too large to square or collocated.
"""

from __future__ import annotations

import logging
import math
import operator
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
    COLLOCATION_FLOOR,
    EPS_DEGENERATE,
    BearingSpec,
    Configuration,
    FormationGraph,
    combined_command,
    ensure_compatible,
    scale,
    sum_squares,
)
from .laplacian import BearingLaplacian
from .rigidity import RigidityReport, required_rank, rigidity_rank, rigidity_report

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

# A run's steps, kept or not, may count at most this many state floats (512 MiB),
# and a formation's dense (d*n)-wide matrices at most this many entries.
MAX_RUN_ELEMENTS = 1 << 26

# A run fills and measures a chunk of steps at a time: whole blocks, within this many state floats.
CHUNK_FLOATS = 1 << 17


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
    target_scale: float  # scale(target_start)
    predicted_scale_rate: float
    window: tuple[float, float]  # the part of [0, duration] it covers; may be empty


class SimContext:
    """Validated scenario with everything precomputed for stepping.  Given no
    ``rigidity`` report, it makes the reference formation's when first read."""

    def __init__(self, scenario: Scenario, bearing_spec: BearingSpec,
                 laplacian: BearingLaplacian, rigidity: RigidityReport | None,
                 segments: tuple[ResolvedSegment, ...], loop: ClosedLoop) -> None:
        self.scenario, self.bearing_spec, self.laplacian = scenario, bearing_spec, laplacian
        self.segments, self.loop = segments, loop
        if rigidity is not None:
            self.rigidity = rigidity

    @cached_property
    def rigidity(self) -> RigidityReport:
        return rigidity_report(self.graph, self.scenario.reference_config)

    @property
    def graph(self) -> FormationGraph:
        return self.scenario.graph

    @cached_property
    def initial_positions(self) -> np.ndarray:
        """The stacked start state: the scenario's initial configuration, or
        the first target with each follower moved by a seeded uniform draw of
        up to PERTURBATION_FRACTION of its scale per axis: the stream of
        numpy's ``default_rng(seed).uniform``, drawn by ``_uniform`` without
        numpy.random.  Only a run reads it, so only a run pays for the draw."""
        scenario = self.scenario
        if scenario.initial_config is not None:
            return scenario.initial_config.stacked.copy()
        graph, first = self.graph, self.segments[0]
        amplitude = PERTURBATION_FRACTION * first.target_scale
        points = first.target_start.points.copy()
        draws = _uniform(scenario.seed, -amplitude, amplitude, graph.n_followers * graph.d)
        points[graph.n_leaders :] += np.reshape(draws, (graph.n_followers, graph.d))
        return points.reshape(-1)


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(const: int, mult: int):
    """numpy SeedSequence's hashmix, its hash constant starting at const."""
    def hashmix(value: int) -> int:
        nonlocal const
        value, const = value ^ const, const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _uniform(seed, low: float, high: float, size: int) -> list[float]:
    """``np.random.default_rng(seed).uniform(low, high, size)``, bit for bit:
    numpy's SeedSequence (a pool of 4 words) seeds PCG64, whose XSL-RR outputs
    become doubles.  The seed is a non-negative integer, as numpy requires."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(max(4, len(entropy))):  # the pool's words, then the entropy past it
        for dst in range(4):
            if src != dst:
                x = hashmix(pool[src] if src < 4 else entropy[src])
                x = (0xCA01F9DD * pool[dst] - 0x4973F715 * x) & _MASK32
                pool[dst] = x ^ x >> 16
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[i % 4]) for i in range(8)]
    w0, w1, w2, w3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    multiplier, increment = 0x2360ED051FC65DA44385DF649FCCF645, (w2 << 64 | w3) << 1 | 1
    # from state 0: step, add the seeded state w0:w1, step again
    state = ((increment + (w0 << 64 | w1)) * multiplier + increment) & _MASK128
    draws = []
    for _ in range(size):
        state = (state * multiplier + increment) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        draws.append(low + (high - low) * ((x >> 11) * 2.0**-53))
    return draws


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
        return Configuration(self.positions[k].reshape(-1, self.d))


def _read_only(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


class ExponentialFit(NamedTuple):
    """Least-squares line through log(values): values ~ exp(intercept + rate*t)."""

    rate: float
    intercept: float
    r_squared: float


def ensure_dense_fits(d: int, n: int, m: int) -> None:
    """Raise ValueError when a formation of n agents and m edges in d dimensions
    has dense matrices, d*n by up to d*max(n, m), of more than MAX_RUN_ELEMENTS
    entries."""
    entries = d * n * d * max(n, m)
    if entries > MAX_RUN_ELEMENTS:
        raise ValueError(f"a formation of n = {n} agents and m = {m} edges in "
                         f"d = {d} dimensions needs matrices of {entries} entries, "
                         f"more than the {MAX_RUN_ELEMENTS} it may have")


def structure(scenario: Scenario) -> tuple[BearingSpec, BearingLaplacian]:
    """The reference formation's bearings and Laplacian, after ensure_dense_fits."""
    graph = scenario.graph
    ensure_dense_fits(graph.d, graph.n, graph.m)
    spec = BearingSpec.from_configuration(graph, scenario.reference_config)
    return spec, BearingLaplacian(graph, spec)


def assemble(scenario: Scenario, force: bool = False, integrate: bool = True) -> SimContext:
    """Validate a scenario and precompute everything a run needs.

    Raises NotRigid or NotLocalizable when the reference formation fails the
    structural requirements, and ScheduleGap when the schedule does not tile
    [0, duration].  ``force`` downgrades the first two to warnings for
    deliberately broken experiments.  With ``integrate`` it computes the
    rigidity report and the modes first, so that mu and the loop read that
    one eigh.  Without it, for a caller that only reads the spectrum,
    rigidity_rank and one eigvalsh for mu; the report and the modes are made
    if and when first read.  Both contexts resolve the same segments bit for
    bit: the follower targets come from one solve either way.
    """
    graph = scenario.graph
    ref = scenario.reference_config
    spec, lap = structure(scenario)
    if integrate:
        rigidity = rigidity_report(graph, ref)
        rank = rigidity.rank
        lap.modes  # the eigh that mu and the loop then read
    else:
        rigidity, rank = None, rigidity_rank(graph, ref)
    required = required_rank(graph)
    localizability = lap.localizability

    if rank != required:
        message = (
            f"reference formation is not infinitesimally bearing rigid "
            f"(rank {rank}, need {required})"
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
    start = ref if scenario.initial_config is None else scenario.initial_config
    leader_stack = start.points[:n_l].reshape(-1).copy()

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
        if localizability.localizable:
            followers = lap.follower_map @ leader_stack
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
        segments.append(ResolvedSegment(
            t_start=seg.t_start, t_end=seg.t_end, v_c=seg.v_c, leader_velocity=velocity,
            target_start=target, target_scale=s_start, predicted_scale_rate=rate,
            window=(t0, t1)))
        leader_stack = end
    if cursor < scenario.duration - slack:
        raise ScheduleGap(f"schedule ends at {cursor} but the run lasts {scenario.duration}")

    logger.info("assembled scenario: n=%d d=%d m=%d rank=%d/%d lambda_min=%.3e", graph.n, d,
                graph.m, rank, required, localizability.min_eigenvalue)
    return SimContext(scenario=scenario, bearing_spec=spec, laplacian=lap, rigidity=rigidity,
                      segments=tuple(segments), loop=ClosedLoop(lap, scenario.gains, scenario.dt))


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


def _chunks(ctx: SimContext, counts: list[int], size: int):
    """Yield the runs of equal steps of each chunk of at most ``size`` steps, as
    (segment, step size, times after each step), whole blocks of BLOCK_STEPS
    steps but the last of a segment's steps of one size.  A segment whose window
    is [t0, t1] takes its count n of steps, at t0 + dt, ... and finally t1; the
    last one is t1 - (t0 + (n - 1) dt) long, or dt when within TIME_TOL dt of it."""
    dt, runs, room = ctx.scenario.dt, [], size
    for seg, n in zip(ctx.segments, counts):
        t0, t1 = seg.window
        times = np.append(t0 + dt * np.arange(1.0, n), t1)[:n]
        last = t1 - (t0 + dt * (n - 1))
        full = n if abs(last - dt) <= TIME_TOL * dt else n - 1
        for h, stamps in ((dt, times[:full]), (last, times[full:])):
            while stamps.size:
                if room < min(stamps.size, BLOCK_STEPS):  # not the rest, nor a whole block
                    yield runs
                    runs, room = [], size
                count = stamps.size if stamps.size <= room else room - room % BLOCK_STEPS
                runs.append((seg, h, stamps[:count]))
                room, stamps = room - count, stamps[count:]
    yield runs


def _measure(ctx: SimContext, positions: np.ndarray, out: dict[str, np.ndarray],
             groups: list[tuple[int, int]]) -> None:
    """Write the bearing error, centroid and scale of positions[a:b] into
    out[name][a:b] for the consecutive row ranges (a, b) of ``groups``, in one
    pass over an agents-major copy, with the bits of each group measured alone:
    sums over edges in order, but pairwise for a group of one row, and over
    agents pairwise for the scale.  Raises ValueError on non-finite positions
    or ones whose squares overflow, and DegenerateVector on collocated
    neighbours."""
    graph, rows = ctx.graph, slice(groups[0][0], groups[-1][1])
    x = np.ascontiguousarray(positions[rows].T).reshape(graph.n, graph.d, -1)
    if not np.all(np.isfinite(x)):
        raise ValueError("positions contain non-finite entries")
    try:
        with np.errstate(over="raise"):
            diffs = x[graph.edge_array[:, 1]] - x[graph.edge_array[:, 0]]
            norms = np.sqrt(sum_squares(diffs.transpose(0, 2, 1)))
            longest = norms.max(axis=0, initial=0.0)
            if np.any(short := norms <= np.maximum(EPS_DEGENERATE * longest, COLLOCATION_FLOOR)):
                raise _collocation(ctx, x.transpose(0, 2, 1), longest, short)
            bearings = diffs / norms[:, None] - ctx.bearing_spec.vectors[:, :, None]
            mismatch = np.sqrt(sum_squares(bearings.transpose(0, 2, 1)))
            error = np.add.reduce(mismatch, axis=0)
            alone = [a - rows.start for a, b in groups if b - a == 1]
            error[alone] = np.add.reduce(np.ascontiguousarray(mismatch[:, alone].T), 1)
            centroid = np.add.reduce(x, axis=0) / graph.n
            radii = sum_squares((x - centroid).transpose(0, 2, 1))
            scales = np.sqrt(np.add.reduce(np.ascontiguousarray(radii.T), 1) / graph.n)
    except FloatingPointError:
        raise ValueError("the run diverged: its positions grew too large to square") from None
    out["bearing_error"][rows], out["centroid"][rows], out["scale"][rows] = (
        error, centroid.T, scales)


def _collocation(ctx: SimContext, x: np.ndarray, longest: np.ndarray,
                 short: np.ndarray) -> DegenerateVector:
    """The first ``short`` edge (m, rows) of the first of formations x (n, rows, d)
    that has one, with the two agents' distance and the longest edge as a multiple
    of the reference formation's: a run that diverges shows as a stretched one."""
    row, k = divmod(int(short.T.argmax()), short.shape[0])
    (i, j), ends, ref = ctx.graph.edges[k], ctx.graph.edge_array, ctx.scenario.reference_config
    reference = np.sqrt(sum_squares(ref.points[ends[:, 1]] - ref.points[ends[:, 0]])).max()
    return DegenerateVector(f"agents {i} and {j} are collocated (edge {k}): "
                            f"{math.dist(x[i, row], x[j, row]):.3g} apart, with the "
                            f"longest edge {longest[row] / reference:.3g} times the "
                            f"reference formation's", agents=(i, j))


def kept_rows(last: int, every: int) -> np.ndarray:
    """Samples 0, k, 2k, ... below ``last``, then the final sample ``last``
    itself.  k is ``every``, at most max(last, 1)."""
    return np.append(np.arange(0, last, min(every, max(last, 1))), last)


def run(ctx: SimContext, every: int = 1) -> Trajectory:
    """Integrate the whole schedule, keeping only the samples
    kept_rows(steps, every): 0, every, 2*every, ... and the final one.

    Each segment takes ceil(span / dt - TIME_TOL) steps of the scenario dt,
    the last one shortened to land on the segment's end (see _chunks).  The
    tracking error (distance of the followers from their current targets) is
    read at every step and fitted as ``decay`` over the last segment
    integrated, above 1e-13 of the reference formation's scale.  The kept
    samples also get the total bearing mismatch and the formation's centroid
    and scale, measured a chunk (CHUNK_FLOATS) at a time as the run goes: the
    first chunk whose kept samples are non-finite or too large to square
    (ValueError), or collocated (DegenerateVector), ends the run.  Raises ValueError
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
    at = kept_rows(steps, every)
    kept = np.zeros((at.size, width))
    kept[0, :nd] = ctx.initial_positions
    metrics = {"bearing_error": np.empty(at.size), "centroid": np.empty((at.size, graph.d)),
               "scale": np.empty(at.size)}
    _measure(ctx, kept[:, :nd], metrics, [(0, 1)])
    times, errors = np.zeros(steps + 1), np.empty(steps + 1)
    size = max(1, CHUNK_FLOATS // (BLOCK_STEPS * width)) * BLOCK_STEPS
    chunk = np.zeros((size + 1, width))  # rows [p_l, q, eta]
    chunk[0] = kept[0]
    ctx.loop.change_basis(chunk[:1], modal=True)
    errors[:1] = ctx.loop.tracking_error(chunk[:1])
    k = 0
    for runs in _chunks(ctx, counts, size):
        ends = [0]  # the chunk's blocks end after these of its steps
        for seg, h, stamps in runs:
            count, first = len(stamps), ends[-1]
            ctx.loop.fill(chunk[first : first + count + 1], seg.leader_velocity, h)
            times[k + first + 1 : k + first + count + 1] = stamps
            ends += [*range(first + BLOCK_STEPS, first + count, BLOCK_STEPS), first + count]
        for a, b in zip(ends, ends[1:]):  # the products of the blocks alone, bit for bit
            errors[k + a + 1 : k + b + 1] = ctx.loop.tracking_error(chunk[a + 1 : b + 1])
        bounds = np.searchsorted(at, np.array(ends) + k + 1).tolist()  # kept rows by block
        rows, count = slice(bounds[0], bounds[-1]), ends[-1]
        kept[rows] = chunk[at[rows] - k]
        groups = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
        for a, b in groups:
            ctx.loop.change_basis(kept[a:b], modal=False)
        try:
            if groups:
                _measure(ctx, kept[:, :nd], metrics, groups)
        except ValueError:  # raised as the first group that holds a bad row would alone
            for group in groups:
                _measure(ctx, kept[:, :nd], metrics, [group])
            raise
        chunk[0], k = chunk[count], k + count
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
