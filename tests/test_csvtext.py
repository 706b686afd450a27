"""The CSV writer: every value written as repr writes it, a block at a time in
buffers allocated once, and the float kernel's certificate: for every binary
exponent it takes, its tables and arithmetic settle a value only where the
text is repr's."""

import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bmv.csvtext
from bmv.csvtext import CSV_FAST_RANGE, CSV_SLACK


# The kernel scales |x| to V = v + r ~ |x| 10**p in double-double arithmetic
# and settles x by comparing V +- above (half the float spacing times 10**p)
# and V's distance to a tie with integers, declining x when one lies within
# CSV_SLACK.  So every value it settles is written exactly if V and above are
# always within far less than CSV_SLACK of exact.  The bounds below hold over
# every a in a binade [2**(e-1), 2**e), for each of the 1,596 binary
# exponents e the kernel takes, and are built in exact rational arithmetic
# from that exponent's scale entries and the kernel's operation sequence.

TWO = Fraction(2)
TINY = TWO**-1075  # half the subnormal spacing

# How far below CSV_SLACK the certified error must lie.  An interval end moves
# by at most the error of V plus that of above, and a tie's distance,
# step - 2 gap, by at most twice V's.  The comparisons themselves round
# numbers below 2**4 in magnitude, by at most 2**-50 each, and the margin
# leaves room for those many times over.  (With j >= 2 a tie's distance is at
# least 100 - 24 from zero, since the interval is at most 24 wide, so its
# larger roundings cannot bring it near CSV_SLACK.)
MARGIN = 10**6


def _exponent(x: Fraction) -> int:
    """floor(log2 |x|), for x not zero."""
    n, d = abs(x.numerator), x.denominator
    k = n.bit_length() - d.bit_length()
    return k if (n << max(-k, 0)) >= (d << max(k, 0)) else k - 1


def _half_ulp(bound: Fraction) -> Fraction:
    """The largest rounding error of a float result no larger than ``bound``:
    half the spacing below 2**(k+1), 2**k <= bound, and half the subnormal
    spacing at least."""
    return max(TWO ** (_exponent(bound) - 53), TINY) if bound else TINY


def _quantum(x: Fraction) -> Fraction:
    """The largest power of two that divides the float ``x``; zero is a
    multiple of every power, so it gets one above every float."""
    return Fraction(x.numerator & -x.numerator, x.denominator) if x else TWO**1100


def _exact(magnitude: Fraction, quantum: Fraction) -> bool:
    """Whether a result that is a multiple of ``quantum`` and no larger than
    ``magnitude`` is a float, so that computing it rounds nothing."""
    return quantum >= 2 * TINY and magnitude <= 2**53 * quantum


def _binade_errors(e: int, entries) -> tuple[Fraction, Fraction]:
    """Bounds on |V - a 10**p| and |above - 10**p 2**(e-54)| over every a in
    [2**(e-1), 2**e), from the binade's scale entries: hi, lo, hi's halves
    hi_1 and hi_2, and above."""
    hi, lo, hi_1, hi_2, above = map(Fraction, entries)
    exact = Fraction(10) ** round(math.log10(hi))  # 10**p, which hi + lo stands for
    top = TWO**e  # a < top <= 2 a
    assert 10**16 <= top / 2 * exact and top * exact <= 2 * 10**17  # V in [1e16, 2e17)
    assert hi_1 + hi_2 == hi
    assert above == hi * TWO ** (e - 54)
    # Veltkamp's split (Dekker 1971) with C = 2**27 + 1 gives a = a_1 + a_2
    # exactly: a_1 a multiple of 2**(e-26) up to 2**e, and a_2 a multiple of
    # 2**(e-53) up to 2**(e-27).  Each product of a half of a and a half of
    # hi is then a float, so the kernel computes it exactly.
    products = [(size * abs(half), step * _quantum(half))
                for size, step in ((top, top / 2**26), (top / 2**27, top / 2**53))
                for half in (hi_1, hi_2)]
    assert all(_exact(*product) for product in products)
    # v = fl(a hi) errs by at most err_v, and is a multiple of the spacing at
    # its smallest, 2**(e-1) hi.  Dekker's sums r = a_1 hi_1 - v, then + a_1
    # hi_2, + a_2 hi_1, + a_2 hi_2, equal a hi - v less the products still to
    # come, and each is a multiple of every quantum summed so far: each is
    # exact, so r = a hi - v.
    err_v = _half_ulp(top * hi)
    quantum = TWO ** (_exponent(top / 2 * hi) - 52)
    assert quantum >= 1  # v is whole, so d = v + floor(r) is exact in int64
    for k, (_, step) in enumerate(products):
        quantum = min(quantum, step)
        assert _exact(err_v + sum(size for size, _ in products[k + 1 :]), quantum)
    # then r += fl(a lo): two roundings, and hi + lo is not 10**p exactly
    t = top * abs(lo)
    bound_v = (_half_ulp(t) + _half_ulp(err_v + t + _half_ulp(t))
               + top * abs(exact - hi - lo))
    return bound_v, TWO ** (e - 54) * abs(hi - exact)


def test_the_accept_rule_is_exact_at_every_binary_exponent():
    scale = bmv.csvtext._csv_tables().scale
    exponents = bmv.csvtext._EXPONENTS
    assert len(exponents) == 1596
    worst = max(2 * bound_v + bound_above for bound_v, bound_above in
                (_binade_errors(e, scale[:, e + 1022]) for e in exponents))
    assert MARGIN * worst < CSV_SLACK, float(worst)


def test_the_shipped_tables_are_their_construction_bit_for_bit(tmp_path):
    # the tests above certify the tables the kernel reads, which come from
    # csv_tables.npy; the file must hold exactly what the construction builds,
    # and the regenerator must write that file byte for byte
    csvtext = bmv.csvtext
    shipped = csvtext._csv_tables()
    for name, built, read in zip(csvtext._CsvTables._fields, csvtext._build_csv_tables(),
                                 shipped):
        assert (read.dtype, read.shape) == (built.dtype, built.shape), name
        assert read.tobytes() == built.tobytes(), name
        assert read.flags.c_contiguous and read.flags.aligned and not read.flags.writeable
    csvtext._write_csv_tables(tmp_path / "tables.npy")
    assert (tmp_path / "tables.npy").read_bytes() == csvtext._TABLES_FILE.read_bytes()


def test_key_tables_agree_with_repr():
    # one value for each reachable (sign, binary exponent, digit count of
    # c 10**j) cell: the smallest and the largest value of each binade within
    # CSV_FAST_RANGE.  c 10**j, the digits scaled as V is, rises with |x|, so
    # these two reach every count a binade has, and neither has 16 digits.
    # Each value's template, filled with repr's digits and the exponents
    # table's, must be repr.
    csvtext = bmv.csvtext
    tables = csvtext._csv_tables()
    for e in csvtext._EXPONENTS:
        biased = e + 1022
        p = round(math.log10(tables.scale[0, biased]))
        ends = (max(math.ldexp(0.5, e), CSV_FAST_RANGE[0]),
                min(math.ldexp(1 - 2**-53, e), CSV_FAST_RANGE[1]))
        counts = []
        for sign in (0, 1):
            for x in ends:
                text = repr(-x if sign else x)
                _, digits, exponent = Decimal(text).normalize().as_tuple()
                j = exponent + p  # c 10**j is the digits scaled as V is
                s = j + len(digits) - 16  # and has 16 + s digits
                counts.append(s)
                cell = (2048 * sign + biased) * 3 + s
                key = int(tables.keys[cell]) - csvtext._FORMS * j
                letters = dict(zip("ABCDEFGHIJKLMNOPQ",
                                   "".join(map(str, digits)).rjust(17, "0")))
                letters.update(zip("XYZ", tables.exponents[cell].tobytes()[1:].decode()))
                template = csvtext._template(key)
                assert template.translate(str.maketrans(letters)) == text, (e, sign, x)
        assert counts[:2] == counts[2:] and 1 <= counts[0] <= counts[1] <= 2, e


def test_writing_a_wide_table_holds_one_block_of_values(tmp_path):
    # rows of 389 values, as wide as the widest benchmark formation's: blocks
    # are counted in values, so the writer's first call, which builds its
    # tables, stays under the same bound as the narrow one above.  A block of
    # 128 rows held 3.0 MB of text; more rows than 500 would add only time.
    probe = (
        "import sys, tracemalloc\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from bmv.csvtext import write_csv\n"
        "table = np.random.default_rng(0).standard_normal((500, 389))\n"
        "header = [f'c{k}' for k in range(389)]\n"
        "tracemalloc.start()\n"
        "write_csv(Path(sys.argv[1]), header, [table])\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = Path(bmv.__file__).resolve().parents[1]
    path = tmp_path / "wide.csv"
    peak = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=120).stdout
    lines = path.read_text().splitlines()
    table = np.random.default_rng(0).standard_normal((500, 389))[[0, -1]]
    assert [len(lines), lines[1], lines[-1]] == [501, *_repr_lines(table).splitlines()]
    assert int(peak) < 2 * 2**20, peak


def test_writing_a_table_reuses_its_block_buffers(tmp_path):
    # every block is formatted in the buffers allocated when the file is
    # opened, so no block hands memory back to the system for the next one to
    # fault in again: about 34,000 minor faults a write when each block
    # allocated its own temporaries
    probe = (
        "import resource, sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from bmv.csvtext import write_csv\n"
        "values = np.random.default_rng(0).standard_normal(400_000)\n"
        "out = Path(sys.argv[1])\n"
        "write_csv(out, [f'c{k}' for k in range(18)], [values[:180].reshape(10, 18)])\n"
        "for cols in (18, 389):\n"
        "    table = values[: values.size // cols * cols].reshape(-1, cols)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    write_csv(out, [f'c{k}' for k in range(cols)], [table])\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = Path(bmv.__file__).resolve().parents[1]
    faults = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "values.csv")],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120).stdout
    assert [int(count) < 2000 for count in faults.split()] == [True, True], faults


def _repr_lines(table: np.ndarray) -> str:
    """The CSV lines of ``table`` as repr writes each value: the specification."""
    return "".join([",".join(map(repr, row)) + "\n" for row in table.tolist()])


@settings(max_examples=100, deadline=None)
@given(table=st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.floats(), min_size=cols, max_size=cols), min_size=1, max_size=6)))
@example(table=[[math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308]])
def test_csv_values_are_their_repr(table):
    table = np.array(table, dtype=np.float64)
    lines = bmv.csvtext._csv_lines(table, bmv.csvtext._csv_buffers(*table.shape))
    assert lines == _repr_lines(table).encode()


def test_csv_values_are_their_repr_at_every_scale(tmp_path):
    # every power of two and of ten the numpy kernel takes, each with its
    # neighbours; repr's switches between fixed and exponent notation; the
    # integers around 2**53; and random bit patterns, written through the
    # writer's own blocks
    values = [float(f"1e{k}") for k in range(-240, 241)] + [2.0**k for k in range(-797, 798)]
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf),
                             [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e15],
                             2.0**53 + np.arange(-64.0, 65.0)])
    # sorted, the bit patterns the kernel declines (a fifth) share rows
    bits = np.random.default_rng(26).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = np.concatenate([values, -values, np.sort(bits.view(np.float64))])
    table = values[: values.size // 8 * 8].reshape(-1, 8)
    path = tmp_path / "values.csv"
    bmv.csvtext.write_csv(path, [f"c{k}" for k in range(8)], [table])
    header, lines = path.read_text().split("\n", 1)
    assert header == "c0,c1,c2,c3,c4,c5,c6,c7"
    assert lines == _repr_lines(table)


@pytest.mark.parametrize("block", ["one value", "37 values", "one row short", "default"])
def test_any_block_size_writes_the_same_bytes(tmp_path, monkeypatch, block):
    # the rows a decimate of 3 keeps of a table, whose final sample is off
    # the stride, with values the kernel declines and values with texts of
    # their own in the first and last rows of blocks: each block size writes
    # repr's bytes.  "one row short" leaves the final row a block of its own.
    cols = 7
    table = np.random.default_rng(28).standard_normal((200, cols)) * 10.0 ** np.arange(-3, 4)
    kept = [*range(0, 199, 3), 199]
    specials = [5e-324, 1e300, 0.0, -0.0, math.nan, math.inf, -math.inf]
    for r, row in enumerate(kept):
        if r % 5 in (0, 4) or r >= len(kept) - 2:
            table[row, r % cols] = specials[r % len(specials)]
            table[row, (r + 3) % cols] = specials[(r + 2) % len(specials)]
    values = {"one value": 1, "37 values": 37, "one row short": (len(kept) - 1) * cols,
              "default": bmv.csvtext.CSV_BLOCK_VALUES}[block]
    monkeypatch.setattr(bmv.csvtext, "CSV_BLOCK_VALUES", values)
    path = tmp_path / "table.csv"
    bmv.csvtext.write_csv(path, [f"c{k}" for k in range(cols)], [table[kept]])
    header, lines = path.read_text().split("\n", 1)
    assert header == ",".join(f"c{k}" for k in range(cols))
    assert lines == _repr_lines(table[kept])


def test_a_value_the_kernel_declines_is_written_by_repr(monkeypatch):
    # 5e-324, 1e300 and -1e-300 lie outside the kernel's range, and the
    # infinities have no template: each of them, and no neighbour, goes to
    # repr, in the first column, the last and a row of them alone; zero and
    # nan, of either sign, keep their templates
    table = np.array([[0.5, 1 / 3, 0.25], [5e-324, 2.0, -0.0], [0.0, 0.2, 1e300],
                      [-1e-300, -math.nan, math.inf], [0.1, math.nan, -math.inf]])
    written = []

    def spy(value):
        written.append(value)
        return repr(value)

    monkeypatch.setattr(bmv.csvtext, "repr", spy, raising=False)
    lines = bmv.csvtext._csv_lines(table, bmv.csvtext._csv_buffers(*table.shape))
    assert lines == _repr_lines(table).encode()
    assert [repr(value) for value in written] == [
        "5e-324", "1e+300", "-1e-300", "inf", "-inf"]
