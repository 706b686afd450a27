"""Command-line front end: scenario files in, result bundles out.

Scenario files are JSON; agents carry arbitrary string ids which are mapped
to internal indices (leaders first, file order preserved within each role).
``run`` writes a result bundle: trajectory.csv with full-precision values and
summary.json with the structural checks, the closed-loop spectrum, and final
metrics.  Exit codes: 0 success, 1 a validation check failed, 2 the input
could not be read or parsed.

Set BMV_LOG=DEBUG (or INFO, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .controller import Gains
from .errors import DegenerateVector, NotLocalizable, NotRigid, ParseError
from .formation import Configuration, FormationGraph, scale
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

logger = logging.getLogger(__name__)

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


# trajectory.csv and xi.csv write each float as repr does: the fewest
# significant digits that read back as the same float and, of those, the
# nearest to it.  _csv_keys finds them for a block of values at once in
# fixed-width arithmetic, as Ryu does (Adams, PLDI 2018).  It scales |x| to
# V = |x| 10**p in [1e16, 2e17) as a double-double, so the decimals that read
# back as x are the integers within half a float spacing of V, then takes the
# largest j with a multiple of 10**j among them and the multiple nearest V.
# Zero has texts of its own.  Any other value it cannot settle is declined,
# and repr writes it in its own slot of the text: infinities, nan, one outside
# CSV_FAST_RANGE, or an interval end or a tie within CSV_SLACK of an integer.
#
# A block's buffers take about 285 bytes a value, so the 4,096 values of a
# block, about 1.2 MB, fit a 2 MiB per-core L2 cache, where the kernel's
# hundred-odd passes over them find them.
CSV_BLOCK_VALUES = 4096
CSV_FAST_RANGE = (1e-240, 1e240)
CSV_SLACK = 1e-7
_EXPONENTS = range(math.frexp(CSV_FAST_RANGE[0])[1], math.frexp(CSV_FAST_RANGE[1])[1] + 1)
# The 32 source bytes a value's text is gathered from, by what each holds:
# '0', the 17 digits of the significand right-aligned (A the first), the
# decimal exponent's three digits X, Y, Z, then constants; '_' is unused.
_SOURCE = "0__ABCDEFGHIJKLMNOPQ_XYZ-.e+,\n\0_"
# A template per sign, digit count 1..17 and form: fixed notation with
# -3..16 digits before the point, then e+XX, e+XXX, e-XX and e-XXX.  Then
# zero's two texts.
_FORMS = 24
_FAST_KEYS = 2 * 17 * _FORMS
_SPECIALS = ("0.0", "-0.0")
_KEYS = _FAST_KEYS + len(_SPECIALS)
_WIDTH = 25  # the longest repr, "-2.2250738585072014e-308", and a separator


class _CsvTables(NamedTuple):
    scale: np.ndarray      # per biased binary exponent of |x|: 10**p as hi + lo,
                           # hi's two halves, and half the float spacing times
                           # 10**p; zero outside _EXPONENTS
    keys: np.ndarray       # per 3 (sign and biased exponent) + s: the template
                           # key of a value whose c 10**j has 16 + s digits,
                           # less _FORMS j
    exponents: np.ndarray  # and the four ASCII digits of its decimal exponent
    pow10: np.ndarray      # 10**j as int64, j = 0..18
    groups: np.ndarray     # the four ASCII digits of 0..9999, a uint32 each
    templates: np.ndarray  # the source byte of each text byte, per key, with
                           # a comma, then per key with a line feed
    constants: np.ndarray  # _SOURCE[24:] as two uint32 words


def _template(key: int) -> str:
    """The text of template ``key``, in the letters of _SOURCE."""
    if key >= _FAST_KEYS:
        return _SPECIALS[key - _FAST_KEYS]
    ndig, form = key // _FORMS % 17 + 1, key % _FORMS
    digits = "ABCDEFGHIJKLMNOPQ"[17 - ndig :]
    point = form - 3
    if form >= 20:
        negative, wide = divmod(form - 20, 2)
        text = digits[0] + ("." + digits[1:] if ndig > 1 else "") + "e" + "+-"[negative]
        text += "XYZ"[1 - wide :]
    elif point <= 0:
        text = "0." + "0" * -point + digits
    elif point < ndig:
        text = digits[:point] + "." + digits[point:]
    else:
        text = digits + "0" * (point - ndig) + ".0"
    return "-" * (key >= 17 * _FORMS) + text


@functools.cache
def _csv_tables() -> _CsvTables:
    """The formatter's tables, built on the first CSV written."""
    e = np.array(_EXPONENTS)
    p = 16 - np.floor((e - 1) * math.log10(2)).astype(np.int64)  # |x| 10**p in [1e16, 2e17)
    powers = []
    for q in range(p.min(), p.max() + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi = num / den
        n, d = hi.as_integer_ratio()
        half = hi * 134217729.0
        half -= half - hi
        powers.append((hi, (num * d - n * den) / (den * d), half, hi - half))
    biased = e + 1022  # frexp's exponent is the biased one less 1022
    scale = np.zeros((5, 2048))
    scale[:4, biased] = np.array(powers).T[:, p - p.min()]
    scale[4, biased] = np.ldexp(scale[0, biased], e - 54)
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    groups = digits.astype(np.uint8).view(np.uint32).ravel()
    # q, the decimal exponent of c's first digit, is 16 + s - 1 - p, and the
    # form follows from q alone (see _template)
    s = np.arange(3)
    q = np.zeros((2048, 3), dtype=np.int64)
    q[biased] = 15 + s - p[:, None]
    form = np.where(q > 15, 20, np.where(q < -4, 22, q + 4)) + (abs(q) >= 100)
    keys = (17 * np.arange(2)[:, None, None] + 15 + s) * _FORMS + form
    byte = str.maketrans({c: k for k, c in enumerate(_SOURCE) if c != "_"})
    texts = [_template(key) for key in range(_KEYS)]
    templates = "".join((text + sep).ljust(_WIDTH, "\0") for sep in ",\n" for text in texts)
    tables = _CsvTables(scale, keys.ravel(), np.tile(groups[abs(q)].ravel(), 2),
                        10 ** np.arange(19, dtype=np.int64), groups,
                        np.frombuffer(templates.translate(byte).encode("latin-1"),
                                      np.uint8).reshape(-1, _WIDTH),
                        np.frombuffer(_SOURCE[24:].encode("latin-1"), np.uint32))
    for table in tables:
        table.flags.writeable = False
    return tables


class _CsvBuffers(NamedTuple):
    """A file's block memory, allocated when it is opened and reused by every
    block, so that formatting a block allocates nothing on its scale."""

    table: np.ndarray    # the block's values
    key: np.ndarray      # each value's template key
    source: np.ndarray   # its 32 source bytes as eight uint32 words, the last
                         # two _SOURCE[24:], written once
    work: np.ndarray     # the kernel's scratch, _WIDTH int64 a value, then
                         # the gather index
    offsets: np.ndarray  # 32 k for value k, a column
    flags: np.ndarray    # four booleans a value
    text: bytearray      # the block's text, _WIDTH bytes a value, NUL-padded
    chars: np.ndarray    # text as uint8, a row a value


def _csv_buffers(rows: int, cols: int) -> _CsvBuffers:
    """The buffers for blocks of up to ``rows`` rows of ``cols`` values."""
    n = rows * cols
    source = np.empty((n, 8), dtype=np.uint32)
    source[:, 6:] = _csv_tables().constants
    text = bytearray(n * _WIDTH)
    return _CsvBuffers(np.empty((rows, cols)), np.empty(n, dtype=np.intp), source,
                       np.empty(_WIDTH * n, dtype=np.intp), np.arange(0, 32 * n, 32)[:, None],
                       np.empty((4, n), dtype=bool), text,
                       np.frombuffer(text, dtype=np.uint8).reshape(n, _WIDTH))


def _csv_keys(x: np.ndarray, cols: int, buf: _CsvBuffers) -> list[int]:
    """Write each value's template key to buf.key and the 32 source bytes its
    template reads to buf.source; return the indices of the declined values.
    Every step writes into ``buf``: each row of w holds one array at a time,
    reused once the array is dead, and f is w read as floats.  Each np.take
    into a buffer is mode="clip", since under the default numpy copies out.
    A where= mask costs several plain passes, so no step every block takes
    uses one."""
    tab = _csv_tables()
    size = x.size
    w = buf.work[: _WIDTH * size].reshape(_WIDTH, size)
    f = w.view(np.float64)
    ok, b1, b2, b3 = buf.flags[:, :size]
    key, source = buf.key[:size], buf.source[:size]
    # a = |x| held to CSV_FAST_RANGE, so a nan, infinite or out-of-range value
    # is ok's only trace and the arithmetic below stays finite
    a, t = f[1], f[12]
    np.abs(x, out=f[0])
    np.fmax(f[0], CSV_FAST_RANGE[0], out=a)
    np.fmin(a, CSV_FAST_RANGE[1], out=a)
    np.equal(a, f[0], out=ok)
    # the sign and biased exponent of x, times three, index the key tables
    e3 = w[3]
    np.right_shift(x.view(np.uint64), 52, out=e3.view(np.uint64))
    e3 *= 3
    # a's biased exponent indexes its scale, and a is a power of two (b2)
    # where the significand's bits are all zero
    np.right_shift(w[1], 52, out=w[2])
    hi, lo, hi_1, hi_2, above = f[4:9]
    np.take(tab.scale, w[2], axis=1, out=f[4:9], mode="clip")
    np.bitwise_and(w[1], 2**52 - 1, out=w[2])
    np.equal(w[2], 0, out=b2)
    # V = a 10**p = a (hi + lo) = d + f, with a hi exact in two parts (Dekker)
    a_1, a_2, v, r = f[9], f[10], f[11], f[13]
    np.multiply(a, 134217729.0, out=a_1)
    np.subtract(a_1, a, out=t)
    a_1 -= t
    np.subtract(a, a_1, out=a_2)
    np.multiply(a, hi, out=v)
    np.multiply(a_1, hi_1, out=r)
    r -= v
    for lhs, rhs in ((a_1, hi_2), (a_2, hi_1), (a_2, hi_2), (a, lo)):
        np.multiply(lhs, rhs, out=t)
        r += t
    whole, frac, d = f[12], f[2], w[10]
    np.floor(r, out=whole)
    np.subtract(r, whole, out=frac)
    np.copyto(w[14:16], f[11:13], casting="unsafe")
    np.add(w[14], w[15], out=d)
    # the integers that read back as x: d + [ceil(f - below), floor(f + above)],
    # where below is above but at a power of two, whose lower neighbour is
    # nearer; both ends at once, as the rows of ends
    ends = f[4:6]
    low, high = ends
    np.add(frac, above, out=high)
    if b2.any():
        np.divide(above, 2, out=above, where=b2)
    np.subtract(frac, above, out=low)
    gaps = f[6:8]
    np.rint(ends, out=gaps)
    np.subtract(ends, gaps, out=gaps)
    np.abs(gaps, out=gaps)
    np.greater_equal(gaps, CSV_SLACK, out=buf.flags[1:3, :size])
    ok &= b1
    ok &= b2
    np.ceil(low, out=gaps[0])
    np.floor(high, out=gaps[1])
    bounds = w[11:13]
    np.copyto(bounds, gaps, casting="unsafe")
    bounds += d
    lower, upper = bounds
    # j, the largest with a multiple of 10**j in [lower, upper]: most values
    # stop below 2, the rest (b2) are bisected over 2..17
    j, ti, k100 = w[9], w[13], w[14]
    np.floor_divide(upper, 10, out=ti)
    ti *= 10
    np.greater_equal(ti, lower, out=b1)
    np.floor_divide(upper, 100, out=k100)
    np.multiply(k100, 100, out=ti)
    np.greater_equal(ti, lower, out=b2)
    np.copyto(j, b1)
    rest = np.flatnonzero(b2)
    if rest.size:
        # upper - lower < 45, so 100 k100 is the one multiple of 100 in the
        # interval, and j - 2 counts the zeros that end k100: the largest i
        # with k100 / 10**i whole.  k100 < 2**51 is exact as a float, and so
        # is that test, since a quotient not whole is at least 10**-i from
        # every integer, more than its rounding error
        k, found, probe, quotient, whole = f[15:20, : rest.size]
        fits = b3[: rest.size]
        np.take(k100, rest, out=w[20, : rest.size], mode="clip")
        np.copyto(k, w[20, : rest.size])
        found.fill(1.0)  # 10**i for the largest i known to divide k
        for half in (8, 4, 2, 1):
            np.multiply(found, 10.0**half, out=probe)
            np.divide(k, probe, out=quotient)
            np.floor(quotient, out=whole)
            np.equal(quotient, whole, out=fits)
            np.copyto(found, probe, where=fits)
        np.log10(found, out=found)
        np.rint(found, out=found)
        found += 2
        j[rest] = found
    # c 10**j, the multiple nearest V; a tie is declined
    step, c, below, gap, step_f, ti, t = w[13], w[14], w[15], f[16], f[17], w[18], f[19]
    np.take(tab.pow10, j, out=step, mode="clip")
    np.floor_divide(d, step, out=c)
    np.multiply(c, step, out=below)
    np.subtract(d, below, out=ti)
    np.copyto(gap, ti)
    gap += frac
    np.copyto(step_f, step)
    np.less(below, lower, out=b1)
    np.add(below, step, out=ti)
    np.less_equal(ti, upper, out=b2)
    np.subtract(step_f, gap, out=t)
    np.less(t, gap, out=b3)
    b2 &= b3
    b1 |= b2
    c += b1
    t -= gap
    np.abs(t, out=t)
    np.greater_equal(t, CSV_SLACK, out=b1)
    ok &= b1
    # c 10**j has 16 + s digits, s = b1 + b2, and the key tables give the
    # template key and the exponent's digits of each sign, exponent and s
    np.multiply(c, step, out=ti)
    np.greater_equal(ti, 10**16, out=b1)
    np.greater_equal(ti, 10**17, out=b2)
    e3 += b1
    e3 += b2
    np.take(tab.keys, e3, out=key, mode="clip")
    np.multiply(j, _FORMS, out=ti)
    key -= ti
    words = w[19:22].view(np.uint32).reshape(6, size)
    np.take(tab.exponents, e3, out=words[5], mode="clip")
    declined = []
    if not ok.all():
        # zero has texts of its own; repr writes every other value declined
        np.equal(x, 0, out=b2)
        np.signbit(x, out=b1)
        np.add(b1, _FAST_KEYS, out=key, where=b2)
        ok |= b2
        np.logical_not(ok, out=b1)
        declined = np.flatnonzero(b1).tolist()
    key.reshape(-1, cols)[:, -1] += _KEYS
    # c's digits four at a time: c splits into its first nine digits and its
    # last eight, both of which split in two at once (a row each), and the
    # first five split once more
    digits = w[3:8]
    for num, k, quotient, remainder in ((c, 10**8, w[0], w[1]),
                                        (w[0:2], 10**4, w[2:7:4], w[5:8:2]),
                                        (w[2], 10**4, digits[0], digits[1])):
        np.floor_divide(num, k, out=quotient)
        np.multiply(quotient, k, out=remainder)
        np.subtract(num, remainder, out=remainder)
    np.take(tab.groups, digits, out=words[:5], mode="clip")
    for k, word in enumerate(words):  # a column at a time: faster than words.T
        np.copyto(source[:, k], word)
    return declined


def _csv_lines(table: np.ndarray, buf: _CsvBuffers) -> bytearray:
    """The CSV lines of a C-ordered float64 ``table``, every value written as
    repr writes it: by the numpy kernel above, in ``buf``, and a value the
    kernel declines by repr itself, in its own NUL-padded slot of the text."""
    cols = table.shape[1]
    size = table.size
    declined = _csv_keys(table.reshape(-1), cols, buf)
    chars = buf.chars[:size]
    np.take(_csv_tables().templates, buf.key[:size], axis=0, out=chars, mode="clip")
    index = buf.work[: _WIDTH * size].reshape(size, _WIDTH)
    np.copyto(index, chars)
    index += buf.offsets[:size]
    np.take(buf.source[:size].view(np.uint8).reshape(-1), index, out=chars, mode="clip")
    buf.chars[size:] = 0  # a file's last block may be shorter than the buffers
    texts = [(repr(value) + ("\n" if k % cols == cols - 1 else ",")).ljust(_WIDTH, "\0")
             for k, value in zip(declined, table.take(declined).tolist())]
    chars[declined] = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(-1, _WIDTH)
    return buf.text.translate(None, b"\0")


def _write_csv(path: Path, header: list[str], columns, decimate: int) -> None:
    """Write the header, then every ``decimate``-th sample and the final one, a
    row each, as UTF-8.  The rows are formatted and written CSV_BLOCK_VALUES
    values (at least a row) at a time in buffers allocated once, when the file
    is opened, so the memory held is one block's, however long the file."""
    last = len(columns[0]) - 1
    rows = kept_rows(last, decimate)
    block = max(1, CSV_BLOCK_VALUES // len(header))
    columns = [column.reshape(last + 1, -1) for column in columns]
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode("utf-8"))
        buf = _csv_buffers(min(block, len(rows)), len(header))
        for start in range(0, len(rows), block):
            picked = rows[start : start + block]
            table = buf.table[: len(picked)]
            parts = [column[picked.start : picked.stop : picked.step] for column in columns]
            kept = len(parts[0])
            np.concatenate(parts, axis=1, out=table[:kept])
            if kept < len(picked):  # the final sample stands for a row past it
                np.concatenate([column[last] for column in columns], out=table[kept])
            out.write(_csv_lines(table, buf))


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
    """Write the kept samples of ``traj`` as trajectory.csv: every ``decimate``-th
    and the final one, each value the repr of a float, which round-trips
    exactly.  Memory beyond ``traj`` is one block of values (see _write_csv)."""
    _write_csv(path, _trajectory_header(labels, traj.d),
               [traj.times, traj.positions, traj.bearing_error, traj.tracking_error,
                traj.centroid, traj.scale], decimate)


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
                "target_scale_at_start": scale(seg.target_start),
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
        _write_csv(outdir / "xi.csv", header, [traj.times, traj.xi], 1)
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
    workers = min(args.workers, len(tasks))
    if workers > 1:
        import concurrent.futures  # only here: every other command starts without it

        # The pool forks all its workers at the first submit, so never ask
        # for more than there are tasks.
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_one, tasks))
    else:
        results = [_batch_one(task) for task in tasks]
    worst = EXIT_OK
    for name, code, message in results:
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

    p_batch = sub.add_parser("batch", help="run several scenarios, one worker each")
    p_batch.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p_batch.add_argument("--out", default="bmv_batch_out", help="output root directory")
    p_batch.add_argument("--workers", type=_integer(1), default=1, help="parallel workers")
    p_batch.add_argument("--decimate", type=_integer(1), default=1,
                         help="keep every Nth sample, and the final one")
    add_common(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("BMV_LOG", "WARNING").upper(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
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
