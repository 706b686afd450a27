"""CSV text of float tables: every value written as repr writes it."""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Each float is written as repr writes it: the fewest significant digits
# that read back as the same float and, of those, the nearest to it.
# _csv_keys finds them for a block of values at once in fixed-width
# arithmetic, as Ryu does (Adams, PLDI 2018).  It scales |x| to
# V = |x| 10**p in [1e16, 2e17) as a double-double, so the decimals that read
# back as x are the integers within half a float spacing of V, then takes the
# largest j with a multiple of 10**j among them and the multiple nearest V.
# Zero and nan have texts of their own.  Any other value it cannot settle is
# declined, and repr writes it in its own slot of the text: infinities, one
# outside CSV_FAST_RANGE, or an interval end or a tie within CSV_SLACK of an
# integer.  tests/test_csvtext.py proves for every binary exponent that V and
# the half spacing err by far less than CSV_SLACK, so that rule is exact.
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
# zero's two texts and nan's, which reads nan's exponent digits.
_FORMS = 24
_FAST_KEYS = 2 * 17 * _FORMS
_SPECIALS = ("0.0", "-0.0", "XYZ")
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
    exponents = groups[abs(q)]
    exponents[2047] = np.frombuffer(b"0nan", np.uint32)  # nan's text; nothing settled has 2047
    byte = str.maketrans({c: k for k, c in enumerate(_SOURCE) if c != "_"})
    texts = [_template(key) for key in range(_KEYS)]
    templates = "".join((text + sep).ljust(_WIDTH, "\0") for sep in ",\n" for text in texts)
    tables = _CsvTables(scale, keys.ravel(), np.tile(exponents.ravel(), 2),
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
        # zero and nan have texts of their own; repr writes every other value declined
        np.equal(x, 0, out=b2)
        np.signbit(x, out=b1)
        np.add(b1, _FAST_KEYS, out=key, where=b2)
        ok |= b2
        np.isnan(x, out=b2)
        np.copyto(key, _FAST_KEYS + 2, where=b2)
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


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write the header, then every sample, a row each, as UTF-8: ``columns``
    hold a value or a row of values a sample, side by side in ``header``'s
    order.  The rows are formatted and written CSV_BLOCK_VALUES values (at
    least a row) at a time in buffers allocated once, when the file is opened,
    so the memory held is one block's, however long the file."""
    rows = len(columns[0])
    block = max(1, CSV_BLOCK_VALUES // len(header))
    columns = [column.reshape(rows, -1) for column in columns]
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode("utf-8"))
        buf = _csv_buffers(min(block, rows), len(header))
        for start in range(0, rows, block):
            table = buf.table[: min(block, rows - start)]
            np.concatenate([column[start : start + block] for column in columns], axis=1,
                           out=table)
            out.write(_csv_lines(table, buf))
