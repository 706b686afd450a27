"""Command-line front end: scenario files in, result bundles out.

Scenario files are JSON; agents carry arbitrary string ids which are mapped
to internal indices (leaders first, file order preserved within each role).
``run`` writes a result bundle: trajectory.csv with full-precision values and
summary.json with the structural checks, the closed-loop spectrum, and final
metrics.  Exit codes: 0 success, 1 a validation check failed, 2 the input
could not be read or parsed.

Set BMV_LOG to debug, info, warning, error or critical, in any case, for
diagnostics on stderr; any other value is ignored.  Unset or ignored, it
leaves the warnings of ``--force`` on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .controller import Gains
from .csvtext import write_csv
from .errors import DegenerateVector, NotLocalizable, NotRigid, ParseError
from .formation import Configuration, FormationGraph
from .rigidity import required_rank, rigidity_rank
from .sim import (
    COORDINATE_LIMIT,
    DEFAULT_DT,
    DEFAULT_GAINS,
    Scenario,
    Segment,
    SimContext,
    Trajectory,
    assemble,
    ensure_dense_fits,
    kept_rows,
    run,
    structure,
)

AXES = "xyz"

# The exit code of each error a scenario can cause: it could not be read or
# parsed, or it failed validation.  _attempt maps them.
INPUT_ERRORS = (ParseError, OSError)
VALIDATION_ERRORS = (NotRigid, NotLocalizable, ValueError)

# A message echoes at most this many characters of a field path or problem.
ECHO_LIMIT = 200

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2

# The levels BMV_LOG may name.
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


class LoadedScenario(NamedTuple):
    """A scenario plus the agent labels it was written with."""

    scenario: Scenario
    labels: tuple[str, ...]


# ---------------------------------------------------------------------------
# parsing

def _fail(origin: str, field: str, problem: str) -> ParseError:
    field, problem = (
        text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."
        for text in (field, problem)
    )
    return ParseError(f"{origin}: {field}: {problem}")


def _as_number(value, origin: str, field: str, limit: float = sys.float_info.max) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(origin, field, f"expected a number, got {value!r}")
    if not abs(value) <= limit:
        raise _fail(origin, field, f"expected a finite number up to {limit:g} in magnitude, "
                                   f"got {value!r}")
    return float(value)


def _as_vector(
    value, d: int, origin: str, field: str, limit: float = sys.float_info.max
) -> list[float]:
    if not isinstance(value, list) or len(value) != d:
        raise _fail(origin, field, f"expected a list of {d} numbers, got {value!r}")
    return [_as_number(x, origin, f"{field}[{k}]", limit) for k, x in enumerate(value)]


def _as_integer(value, origin: str, field: str, low: int, high: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        bound = f"from {low} to {high}" if high < math.inf else f"no smaller than {low}"
        raise _fail(origin, field, f"expected an integer {bound}, got {value!r}")
    return value


def _as_list(value, origin: str, field: str, items: str) -> list:
    if not isinstance(value, list) or not value:
        raise _fail(origin, field, f"expected a non-empty list of {items}")
    return value


def _as_object(value, origin: str, field: str, allowed, required=()) -> dict:
    """``value`` as an object whose keys are all ``allowed`` and include every
    ``required`` one; ``field`` is its path, empty for the whole document."""
    if not isinstance(value, dict):
        raise _fail(origin, field or "document", f"expected an object, got {value!r}")
    prefix = f"{field}." if field else ""
    for key in value:
        if key not in allowed:
            raise _fail(origin, f"{prefix}{key}", "unknown field")
    for key in required:
        if key not in value:
            raise _fail(origin, f"{prefix}{key}", "missing")
    return value


# The document's fields, and those it cannot do without.
DOCUMENT_FIELDS = ("dimension", "agents", "reference_positions", "edges", "gains", "schedule",
                   "dt", "duration", "seed")
REQUIRED_FIELDS = ("dimension", "agents", "reference_positions", "edges", "schedule", "duration")


def parse_scenario(doc, origin: str = "scenario") -> LoadedScenario:
    """Build a Scenario from a decoded JSON document.

    Raises ParseError with a field path on any malformed input, and the
    ValueError of sim.ensure_dense_fits, from the lengths of ``agents`` and
    ``edges``, before it reads any agent.
    """
    doc = _as_object(doc, origin, "", DOCUMENT_FIELDS, REQUIRED_FIELDS)
    d = _as_integer(doc["dimension"], origin, "dimension", 2, len(AXES))
    agents = _as_list(doc["agents"], origin, "agents", "agents")
    pairs = _as_list(doc["edges"], origin, "edges", "id pairs")
    ensure_dense_fits(d, len(agents), len(pairs))

    leaders: list[tuple[str, list[float] | None]] = []
    followers: list[tuple[str, list[float] | None]] = []
    seen_ids: set[str] = set()
    for k, entry in enumerate(agents):
        where = f"agents[{k}]"
        entry = _as_object(entry, origin, where, ("id", "role", "initial"))
        agent_id = entry.get("id")
        if not isinstance(agent_id, str) or not agent_id:
            raise _fail(origin, f"{where}.id", f"expected a non-empty string, got {agent_id!r}")
        # it heads CSV columns, which are UTF-8 and join ids unquoted
        if any("\ud800" <= c <= "\udfff" for c in agent_id):  # lone surrogates
            raise _fail(origin, f"{where}.id", f"expected text UTF-8 can encode, got {agent_id!r}")
        if not set(agent_id).isdisjoint(',"\r\n'):
            raise _fail(origin, f"{where}.id",
                        f"expected no comma, quote or line break, got {agent_id!r}")
        if agent_id in seen_ids:
            raise _fail(origin, f"{where}.id", f"duplicate agent id {agent_id!r}")
        # two ids' columns never coincide, since each column ends in its axis
        columns = _trajectory_header((agent_id,), d)
        if len(set(columns)) < len(columns):
            raise _fail(origin, f"{where}.id",
                        f"{agent_id!r} would repeat a column of trajectory.csv")
        seen_ids.add(agent_id)
        role = entry.get("role")
        if role not in ("leader", "follower"):
            raise _fail(origin, f"{where}.role", f"expected 'leader' or 'follower', got {role!r}")
        initial = entry.get("initial")
        if initial is not None:
            initial = _as_vector(initial, d, origin, f"{where}.initial", COORDINATE_LIMIT)
        (leaders if role == "leader" else followers).append((agent_id, initial))
    if not leaders:
        raise _fail(origin, "agents", "at least one leader is required")
    ordered = leaders + followers
    labels = tuple(agent_id for agent_id, _ in ordered)
    index_of = {agent_id: k for k, agent_id in enumerate(labels)}

    refs = _as_object(doc["reference_positions"], origin, "reference_positions", index_of,
                      labels)
    reference_rows = [
        _as_vector(refs[label], d, origin, f"reference_positions.{label}", COORDINATE_LIMIT)
        for label in labels
    ]

    edges: dict[tuple[int, int], None] = {}  # in file order, tail first
    for k, pair in enumerate(pairs):
        where = f"edges[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise _fail(origin, where, f"expected a pair of agent ids, got {pair!r}")
        try:
            i, j = sorted((index_of[pair[0]], index_of[pair[1]]))
        except (KeyError, TypeError):
            raise _fail(origin, where, f"unknown agent id in {pair!r}") from None
        if i == j:
            raise _fail(origin, where, f"self-loop at agent {pair[0]!r}")
        if (i, j) in edges:
            raise _fail(origin, where, f"duplicate edge between {pair[0]!r} and {pair[1]!r}")
        edges[i, j] = None

    raw_gains = _as_object(doc.get("gains", {}), origin, "gains", ("kp", "ki"))
    kp = _as_number(raw_gains.get("kp", DEFAULT_GAINS.k_p), origin, "gains.kp")
    ki = _as_number(raw_gains.get("ki", DEFAULT_GAINS.k_i), origin, "gains.ki")
    try:
        gains = Gains(k_p=kp, k_i=ki)
    except ValueError as exc:
        raise _fail(origin, "gains", str(exc)) from None

    segments = []
    for k, entry in enumerate(_as_list(doc["schedule"], origin, "schedule", "segments")):
        where = f"schedule[{k}]"
        entry = _as_object(entry, origin, where, ("t0", "t1", "vc", "scale_rate"))
        if "t0" not in entry or "t1" not in entry:
            raise _fail(origin, where, "t0 and t1 are required")
        t0 = _as_number(entry["t0"], origin, f"{where}.t0")
        t1 = _as_number(entry["t1"], origin, f"{where}.t1")
        vc = _as_vector(entry.get("vc", [0.0] * d), d, origin, f"{where}.vc")
        rate = _as_number(entry.get("scale_rate", 0.0), origin, f"{where}.scale_rate")
        try:
            segments.append(Segment(t_start=t0, t_end=t1, v_c=vc, scale_rate=rate))
        except ValueError as exc:
            raise _fail(origin, where, str(exc)) from None

    duration = _as_number(doc["duration"], origin, "duration")
    dt = _as_number(doc.get("dt", DEFAULT_DT), origin, "dt")
    seed = _as_integer(doc.get("seed", 0), origin, "seed", 0)

    initial = [pos for _, pos in ordered if pos is not None]
    if initial and len(initial) != len(ordered):
        raise _fail(origin, "agents", "either every agent specifies 'initial' or none does")

    try:
        scenario = Scenario(
            graph=FormationGraph(n=len(ordered), d=d, edges=tuple(edges), n_leaders=len(leaders)),
            reference_config=Configuration(np.array(reference_rows)),
            schedule=tuple(segments),
            duration=duration,
            gains=gains,
            initial_config=Configuration(np.array(initial)) if initial else None,
            dt=dt,
            seed=seed,
        )
    except ValueError as exc:
        raise _fail(origin, "scenario", str(exc)) from None
    return LoadedScenario(scenario=scenario, labels=labels)


def _unique_keys(path: Path, pairs: list) -> dict:
    """A JSON object's members as a dict; ParseError on a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"{path}: duplicate key {key!r}")
        doc[key] = value
    return doc


def load_scenario(path) -> LoadedScenario:
    """Read and parse a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(path, pairs))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except ParseError:
        raise
    except ValueError as exc:  # an integer literal longer than int() reads
        raise ParseError(f"{path}: {exc}") from None
    return parse_scenario(doc, origin=str(path))


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    if not name.endswith(".json"):
        name = name + ".json"
    return Path(__file__).parent / "scenarios" / name


# ---------------------------------------------------------------------------
# result bundle

def _finite(value: float) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def _columns(labels, d: int) -> list[str]:
    """A column name per coordinate of each of ``labels`` in d dimensions."""
    return [f"{label}_{axis}" for label in labels for axis in AXES[:d]]


def _trajectory_header(labels, d: int) -> list[str]:
    """The column names of trajectory.csv for agents ``labels``."""
    return ["t", *_columns(labels, d), "bearing_error", "tracking_error",
            *_columns(["centroid"], d), "scale"]


def write_trajectory_csv(
    path: Path, traj: Trajectory, labels: tuple[str, ...], decimate: int = 1
) -> None:
    """Write the samples of ``traj`` as trajectory.csv, each value the repr of a
    float, which round-trips exactly.  Memory beyond ``traj`` is one block of
    values (see write_csv), but a ``decimate`` above 1 writes copies of only the
    samples kept_rows picks; commands decimate in ``run`` instead."""
    columns = [traj.times, traj.positions, traj.bearing_error, traj.tracking_error,
               traj.centroid, traj.scale]
    rows = kept_rows(len(traj.times) - 1, decimate) if decimate > 1 else slice(None)
    write_csv(path, _trajectory_header(labels, traj.d), [column[rows] for column in columns])


def _spectrum(ctx: SimContext) -> dict:
    """What ``bmv spectrum`` prints of ``ctx.loop.spectrum``: the eigenvalues, the
    stability verdict, the convergence horizon and ``ctx.loop.amplification``."""
    report = ctx.loop.spectrum
    slowest = report.max_real_part
    return {
        "eigenvalues": [[float(e.real), float(e.imag)] for e in report.eigenvalues],
        "max_real_part": _finite(slowest),
        "is_hurwitz": report.is_hurwitz,
        "convergence_horizon":
            12.0 / abs(slowest) if report.is_hurwitz and math.isfinite(slowest) else None,
        "max_step_amplification": _finite(ctx.loop.amplification),
    }


def _json(doc: dict) -> str:
    """Strict JSON: a non-finite float raises ValueError rather than being written."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def build_summary(ctx: SimContext, traj: Trajectory) -> dict:
    """The summary.json document of the run ``traj`` of ``ctx``."""
    scenario = ctx.scenario
    graph = scenario.graph
    loc = ctx.laplacian.localizability
    spectrum = _spectrum(ctx)
    amplification = spectrum.pop("max_step_amplification")
    fit = None if traj.decay is None else {"rate": traj.decay.rate,
                                           "r_squared": traj.decay.r_squared}
    return {
        "agents": {
            "n": graph.n,
            "d": graph.d,
            "leaders": graph.n_leaders,
            "followers": graph.n_followers,
            "edges": graph.m,
        },
        "gains": {"kp": scenario.gains.k_p, "ki": scenario.gains.k_i},
        "integration": {
            "dt": scenario.dt,
            "duration": scenario.duration,
            "seed": scenario.seed,
            "samples": traj.steps + 1,
            "max_step_amplification": amplification,
        },
        "rigidity": {
            "rank": ctx.rigidity.rank,
            "required_rank": ctx.rigidity.required_rank,
            "rigid": ctx.rigidity.is_infinitesimally_bearing_rigid,
            "null_space_dim": ctx.rigidity.null_space_dim,
            "singular_values": [float(s) for s in ctx.rigidity.singular_values],
        },
        "localizability": {
            "localizable": loc.localizable,
            "lambda_min_ff": _finite(loc.min_eigenvalue),
        },
        "spectrum": spectrum,
        "final": {
            "time": float(traj.times[-1]),
            "bearing_error": _finite(traj.bearing_error[-1]),
            "tracking_error": _finite(traj.tracking_error[-1]),
            "centroid": [float(v) for v in traj.centroid[-1]],
            "scale": float(traj.scale[-1]),
        },
        "decay_fit": fit,
        "segments": [
            {
                "t_start": seg.t_start,
                "t_end": seg.t_end,
                "v_c": [float(v) for v in seg.v_c],
                "predicted_scale_rate": seg.predicted_scale_rate,
                "target_scale_at_start": seg.target_scale,
            }
            for seg in ctx.segments
        ],
    }


# ---------------------------------------------------------------------------
# commands

def _named(labels: tuple[str, ...], func, *args):
    """func(*args), naming the agents of a collocation error by their scenario ids."""
    try:
        return func(*args)
    except DegenerateVector as exc:
        if exc.agents is None:
            raise
        i, j = exc.agents
        raise DegenerateVector(str(exc).replace(f"{i} and {j}", f"{labels[i]} and {labels[j]}"))


def _context(path, args, integrate: bool = True) -> tuple[SimContext, tuple[str, ...]]:
    """Load a scenario, apply the --dt and --seed overrides, and assemble it,
    for a run unless ``integrate`` is False (see sim.assemble)."""
    loaded = load_scenario(path)
    base = loaded.scenario
    scenario = Scenario(base.graph, base.reference_config, base.schedule, base.duration,
                        base.gains, base.initial_config,
                        base.dt if args.dt is None else args.dt,
                        base.seed if args.seed is None else args.seed)
    context = _named(loaded.labels, assemble, scenario, args.force, integrate)
    return context, loaded.labels


def _attempt(func, *args) -> tuple[int, object]:
    """(EXIT_OK, what func returns), or the exit code and message of a scenario's
    error; input errors come first, since a ParseError is also a ValueError."""
    try:
        return EXIT_OK, func(*args)
    except INPUT_ERRORS as exc:
        return EXIT_INPUT, str(exc)
    except VALIDATION_ERRORS as exc:
        return EXIT_VALIDATION, str(exc)


def cmd_check(args) -> int:
    loaded = load_scenario(args.scenario)
    graph, ref = loaded.scenario.graph, loaded.scenario.reference_config
    _, lap = _named(loaded.labels, structure, loaded.scenario)
    rank, required = rigidity_rank(graph, ref), required_rank(graph)
    rigid = rank == required
    loc = lap.localizability
    lam = loc.min_eigenvalue
    print(f"rank            = {rank}")
    print(f"required_rank   = {required}")
    print(f"rigid           = {'yes' if rigid else 'no'}")
    print(f"lambda_min_ff   = {lam:.6e}" if math.isfinite(lam) else "lambda_min_ff   = inf")
    print(f"localizable     = {'yes' if loc.localizable else 'no'}")
    rigid_word = "RIGID" if rigid else "NOT RIGID"
    loc_word = "LOCALIZABLE" if loc.localizable else "NOT LOCALIZABLE"
    print(f"verdict: {rigid_word}, {loc_word}")
    return EXIT_OK if rigid and loc.localizable else EXIT_VALIDATION


def _run_bundle(path, outdir: Path, args, dump_xi: bool = False) -> Trajectory:
    """Load, check and integrate one scenario, and write its bundle:
    trajectory.csv, summary.json and, with ``dump_xi``, xi.csv.  ``run``
    refuses an unstable dt before anything is written."""
    ctx, labels = _context(path, args)
    traj = _named(labels, run, ctx, args.decimate)
    summary = _json(build_summary(ctx, traj))
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(outdir / "trajectory.csv", traj, labels)
    (outdir / "summary.json").write_text(summary + "\n", encoding="utf-8")
    if dump_xi:
        header = ["t", *_columns(labels[traj.n_leaders :], traj.d)]
        write_csv(outdir / "xi.csv", header, [traj.times, traj.xi])
    return traj


def cmd_run(args) -> int:
    outdir = Path(args.out) if args.out else Path(Path(args.scenario).stem + "_out")
    traj = _run_bundle(args.scenario, outdir, args, dump_xi=args.dump_xi)
    print(f"bearing_error  = {traj.bearing_error[-1]:.6e}")
    print(f"tracking_error = {traj.tracking_error[-1]:.6e}")
    names = ["trajectory.csv", "summary.json"] + ["xi.csv"] * args.dump_xi
    *paths, last = [str(outdir / name) for name in names]
    print(f"wrote {', '.join(paths)} and {last}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ctx, _ = _context(args.scenario, args, integrate=False)
    print(_json(_spectrum(ctx)))
    return EXIT_OK


def _batch_one(task) -> tuple[str, int, str]:
    """Run one scenario in a worker; returns (name, exit code, message)."""
    path, outdir, args = task
    code, result = _attempt(_run_bundle, path, Path(outdir), args)
    if code == EXIT_OK:
        result = f"bearing_error={result.bearing_error[-1]:.3e}"
    return str(path), code, result


def _forked_map(func, tasks: list, workers: int) -> list:
    """``[func(task) for task in tasks]`` by this process and ``workers - 1`` forked
    children, each taking the next task number from one pipe.  A child sends its
    (number, result) pairs, or the exception that stopped it, back through a pipe
    of its own and ends; its exception is raised here once every child has ended."""
    def work() -> list:
        taken = iter(lambda: os.read(read, 4), b"")
        return [(k, func(tasks[k])) for k in (int.from_bytes(b, "little") for b in taken)]

    def feed() -> None:  # 512 bytes a write, which no pipe splits
        with contextlib.suppress(OSError), open(write, "wb", buffering=0) as pipe:
            for k in range(512, len(numbers), 512):
                pipe.write(numbers[k : k + 512])

    numbers = b"".join(k.to_bytes(4, "little") for k in range(len(tasks)))
    read, write = os.pipe()
    owned, children = [read, write], {}  # children: pid -> the read end of its result pipe
    try:
        for _ in range(workers - 1):
            back, report = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(write)  # the queue ends when the parent or its thread closes it
                    os.close(back)
                    try:
                        payload = work()
                    except BaseException as exc:  # raised again in the parent
                        payload = exc
                    with open(report, "wb") as pipe:
                        pickle.dump(payload, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(report)
            children[pid] = back
        # After every fork, so that a refused one hands out no task: 128 numbers, which
        # any pipe holds, then a thread for the rest (no child copies it; every process
        # takes numbers while it writes, so any batch passes) or just the queue's end.
        os.write(write, numbers[:512])
        (threading.Thread(target=feed, daemon=True).start if len(numbers) > 512 else feed)()
        owned.remove(write)
        results = dict(work())
        reports = [open(back, "rb", closefd=False).read() for back in children.values()]
    finally:
        for fd in owned + list(children.values()):
            os.close(fd)
        failed = [pid for pid in children if os.waitpid(pid, 0)[1]]
    if failed:
        raise RuntimeError(f"batch worker {failed[0]} ended without reporting its results")
    for payload in map(pickle.loads, reports):
        if isinstance(payload, BaseException):
            raise payload
        results.update(payload)
    return [results[k] for k in range(len(tasks))]


def _file_size(path) -> int:
    """The size of the file at path, or 0 where it cannot be read."""
    with contextlib.suppress(OSError):
        return os.stat(path).st_size
    return 0


def cmd_batch(args) -> int:
    out_root = Path(args.out)
    tasks = []
    names = set()
    for raw in args.scenarios:
        stem = name = Path(raw).stem
        k = 1
        while name in names:
            k += 1
            name = f"{stem}_{k}"
        names.add(name)
        tasks.append((raw, str(out_root / name), args))
    # largest file first, ties in input order, so that no process ends the batch alone
    order = sorted(range(len(tasks)), key=lambda k: -_file_size(tasks[k][0]))
    ordered, workers = [tasks[k] for k in order], min(args.workers, len(tasks))
    done = _forked_map(_batch_one, ordered, workers) if workers > 1 else map(_batch_one, ordered)
    worst = EXIT_OK
    for _, (name, code, message) in sorted(zip(order, done)):
        status = "ok" if code == EXIT_OK else "FAILED"
        print(f"{status:6s} {name}: {message}")
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# wiring

def _integer(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return integer


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmv",
        description="Bearing-constrained formation maneuver simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dt", type=_positive_float, default=None,
                       help="override the scenario step size")
        p.add_argument("--seed", type=_integer(0), default=None,
                       help="override the scenario seed")
        p.add_argument("--force", action="store_true",
                       help="run even if rigidity or localizability checks fail")

    p_check = sub.add_parser("check", help="validate a scenario's formation structure")
    p_check.add_argument("scenario", help="scenario JSON file")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="simulate a scenario and write a result bundle")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory (default: <scenario>_out)")
    p_run.add_argument("--decimate", type=_integer(1), default=1,
                       help="keep every Nth sample, and the final one")
    p_run.add_argument("--dump-xi", action="store_true",
                       help="also write the integral states to xi.csv")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_spec = sub.add_parser("spectrum", help="print the closed-loop spectrum as JSON")
    p_spec.add_argument("scenario", help="scenario JSON file")
    add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_batch = sub.add_parser("batch", help="run several scenarios in up to --workers processes")
    p_batch.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p_batch.add_argument("--out", default="bmv_batch_out", help="output root directory")
    p_batch.add_argument("--workers", type=_integer(1), default=1, help="parallel workers")
    p_batch.add_argument("--decimate", type=_integer(1), default=1,
                         help="keep every Nth sample, and the final one")
    add_common(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = os.environ.get("BMV_LOG", "").upper()
    if level in LOG_LEVELS or getattr(args, "force", False):
        # only then: importing logging would cost every other process about 3 ms
        import logging
        logging.basicConfig(level=level if level in LOG_LEVELS else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
    code, result = _attempt(args.func, args)
    if code != EXIT_OK:
        print(f"error: {result}", file=sys.stderr)
        return code
    return result


def script_main() -> None:
    """The ``bmv`` console script: ``main``, then flush stdout and stderr and end
    the process without interpreter teardown.  Every output file is closed by
    then and the log handler flushes each record; a failed flush of stdout is
    an input error like any other OSError of a command."""
    code = main()
    flushed, message = _attempt(sys.stdout.flush)
    if flushed != EXIT_OK:
        print(f"error: {message}", file=sys.stderr)
        code = flushed
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    script_main()
