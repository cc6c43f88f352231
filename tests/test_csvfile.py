import os

import numpy as np
import pytest

from heavytail_pa import EmptyInput, HeavytailError
from heavytail_pa.csvfile import CHUNK_ROWS, read_csv, write_csv
from conftest import traced_peak


def test_write_csv_pins_the_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("n", "x"), (np.array([0, 7, 12]), np.array([0.1, 2.0, 1e-300])),
              {"seed": 3, "mass": 0.25})
    assert path.read_text() == "# seed = 3\n# mass = 0.25\nn,x\n0,0.1\n7,2.0\n12,1e-300\n"


def _per_row(header, columns) -> str:
    """The reference formatter: str() of every cell, one row at a time."""
    row = ",".join(["{}"] * len(columns)) + "\n"
    return ",".join(header) + "\n" + "".join(map(row.format, *(np.asarray(c).tolist() for c in columns)))


INT_TYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def test_write_csv_matches_the_per_row_formatter(tmp_path):
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    ints = np.array([0, 7, -12, -1, 9, 10, -10, 99, 100, i64.min, i64.max, i64.min + 1])
    # the edges of the 4-digit groups, and every group value both leading and zero-padded
    edges = np.array([9999, 10**4, 10**8 - 1, 10**8, 10**8 + 1, -10**4, -9999, -10**8 - 1, 10**12, 10**16])
    rng = np.random.default_rng(4)
    many = CHUNK_ROWS + 123  # two chunks, the second partial
    three = 2 * CHUNK_ROWS + 5  # three chunks, the third partial
    cases = [
        (ints, ints.astype(np.float64) / 7.0),  # integer and float columns mixed
        (np.array([0, 1, 10**19, u64.max], np.uint64),),
        (np.zeros(5, np.int32), np.array([0.0, -0.0, 5e-324, np.nan, np.inf])),
        (rng.integers(-10**6, 10**6, many), rng.integers(0, 3, many).astype(np.int32), rng.random(many)),
        ([1.5, 2.0], (3, 4)),
        (np.zeros(0, np.int64), np.zeros(0)),
        (edges, np.zeros(edges.size, np.int64)),  # an all-zero column
        (np.arange(-10**5, 10**5 + 1),),
        (rng.integers(0, 10**9, three), rng.integers(-1, 1, three), rng.integers(0, 10, three, np.uint8)),
        tuple(rng.integers(np.iinfo(t).min, np.iinfo(t).max, 200, t, endpoint=True) for t in INT_TYPES),
        tuple(np.array([np.iinfo(t).min, 0, np.iinfo(t).max], t) for t in INT_TYPES),
    ]
    path = tmp_path / "t.csv"
    for columns in cases:
        header = [f"c{k}" for k in range(len(columns))]
        write_csv(path, header, columns)
        assert path.read_bytes() == _per_row(header, columns).encode()


def test_write_csv_peak_does_not_grow_with_the_rows(tmp_path):
    """Two int32 columns of 1e6 rows of up to 8 digits: the peak is a
    chunk's, under 4 MiB (about 0.85 MiB), and no larger than three
    chunks' rows need."""
    rng = np.random.default_rng(5)
    columns = rng.integers(0, 10**8, (2, 10**6), np.int32)
    write_csv(tmp_path / "t.csv", ("I", "O"), columns[:, :1])  # builds the digit-group tables
    peaks = []
    for rows in (3 * CHUNK_ROWS, 10**6):
        _, peak = traced_peak(lambda: write_csv(tmp_path / "t.csv", ("I", "O"), columns[:, :rows]))
        peaks.append(peak)
    assert peaks[1] < 4 * 2**20
    assert peaks[1] <= peaks[0] + 64 * 2**10


def test_read_csv_returns_floats_bit_exactly(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    x[:3] = 1 / 3, 5e-324, -0.0
    write_csv(path, ("i", "x"), (np.arange(x.size), x), {"k": "v"})
    data = read_csv(path, 2)
    assert np.array_equal(data[:, 0], np.arange(x.size))
    assert np.array_equal(data[:, 1], x)


ROWS = [[1, 2], [3, 4]]


def _bad(line: int, got: str) -> tuple:
    return HeavytailError, f", line {line}: expected 2 {{dtype}} values, got {got!r}"


# id, file, the int64 outcome, the float64 outcome when it differs: an
# outcome is the rows read, or the error's type and its message after the path
PARITY = [
    ("blank-mid", b"I,O\n1,2\n\n3,4\n", ROWS),
    ("blank-end", b"I,O\n1,2\n3,4\n\n\n", ROWS),
    ("crlf", b"I,O\r\n1,2\r\n3,4\r\n", ROWS),
    ("cr", b"I,O\r1,2\r3,4\r", ROWS),
    ("no-final-newline", b"I,O\n1,2\n3,4", ROWS),
    ("spaces", b"I,O\n 1 , 2 \n3,4\n", ROWS),
    ("tabs", b"I,O\n\t1,\t2\t\n3,4\n", ROWS),
    ("plus", b"I,O\n+1,2\n", [[1, 2]]),
    ("minus", b"I,O\n-1,2\n", [[-1, 2]]),
    ("empty-cell", b"I,O\n1,\n3,4\n", _bad(2, "1,")),
    ("trailing-comma", b"I,O\n1,2,\n3,4\n", _bad(2, "1,2,")),
    ("decimal", b"I,O\n1.0,2\n", _bad(2, "1.0,2"), [[1.0, 2.0]]),
    ("exponent", b"I,O\n1e3,2\n", _bad(2, "1e3,2"), [[1000.0, 2.0]]),
    ("int64-overflow", b"I,O\n1,2\n9223372036854775808,2\n", _bad(3, "9223372036854775808,2"),
     [[1.0, 2.0], [2.0**63, 2.0]]),
    ("nan", b"I,O\nnan,2\n", _bad(2, "nan,2"), [[np.nan, 2.0]]),
    ("comment-mid", b"I,O\n1,2\n# c\n3,4\n", _bad(3, "# c")),
    ("non-ascii-cell", "I,O\n1,2\n3,é\n".encode(), _bad(3, "3,é")),
    ("non-ascii-metadata", "# k = é\nI,O\n1,2\n".encode(), [[1, 2]]),
    ("bom", "\ufeffI,O\n1,2\n".encode(), [[1, 2]]),
    ("bom-metadata", "\ufeff# k = v\nI,O\n1,2\n".encode(),
     (HeavytailError, ": header '\\ufeff# k = v' is not 2 columns")),
    ("short-row", b"I,O\n1,2\n3\n", _bad(3, "3")),
    ("long-row", b"I,O\n1,2\n3,4,5\n", _bad(3, "3,4,5")),
    ("no-rows", b"I,O\n", (EmptyInput, ": no data rows")),
    ("blank-rows-only", b"I,O\n\n\n", (EmptyInput, ": no data rows")),
    ("empty-file", b"", (HeavytailError, ": header '' is not 2 columns")),
    ("metadata-only", b"# a = 1\n", (HeavytailError, ": header '' is not 2 columns")),
    ("header-columns", b"I\n1\n", (HeavytailError, ": header 'I' is not 2 columns")),
    ("metadata", b"# a = 1\n# b = 2\nI,O\n1,2\n", [[1, 2]]),
    # a whitespace-only line is a row loadtxt refuses, so it is named
    ("whitespace-line", b"I,O\n1,2\n   \n3,4\n", _bad(3, "")),
    ("not-utf8-cell", b"I,O\n1,2\n3,\xff\n", (HeavytailError, ", line 3: not UTF-8 text")),
    ("not-utf8-metadata", b"# k = \xff\nI,O\n1,2\n", (HeavytailError, ", line 1: not UTF-8 text")),
]


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("data, outcomes", [(p[1], p[2:]) for p in PARITY], ids=[p[0] for p in PARITY])
def test_read_csv_parity_matrix(tmp_path, data, outcomes, dtype):
    """Every case reads as the reader that handed loadtxt an open handle
    did, but for the last three: that reader gave a whitespace-only line
    no line number, and let a UnicodeDecodeError escape."""
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    want = outcomes[-1] if dtype is np.float64 else outcomes[0]
    if isinstance(want, tuple):
        kind, message = want
        with pytest.raises(kind) as info:
            read_csv(path, 2, dtype)
        assert type(info.value) is kind
        assert str(info.value) == f"{path}{message.format(dtype=np.dtype(dtype).name)}"
    else:
        got = read_csv(path, 2, dtype)
        assert got.dtype == dtype and np.array_equal(got, want, equal_nan=True)


def test_read_csv_names_the_first_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    rows = "".join(f"{k},{k}\n" for k in range(100_000)).encode()
    path.write_bytes(b"I,O\n" + rows + b"3,\xc3\n" + rows)  # a truncated two-byte sequence
    with pytest.raises(HeavytailError, match=f"t.csv, line {100_002}: not UTF-8 text"):
        read_csv(path, 2, np.int64)
    path.write_bytes(b"I,O\n" + rows + b"3,x\n" + rows + b"\xff\n")  # a bad row comes first
    with pytest.raises(HeavytailError, match=f"line {100_002}: expected 2 int64 values, got '3,x'"):
        read_csv(path, 2, np.int64)


def test_read_csv_hands_loadtxt_a_path(tmp_path, monkeypatch):
    """numpy reads a str path in blocks but an open handle one Python line at
    a time, about twice as slowly."""
    path = tmp_path / "t.csv"
    write_csv(path, ("I", "O"), (np.arange(5), np.arange(5)), {"k": 1})
    seen = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        seen.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    assert read_csv(path, 2, np.int64).tolist() == [[k, k] for k in range(5)]
    assert len(seen) == 1 and type(seen[0]) is str and seen[0] == os.path.abspath(path)


def test_read_csv_peak_is_the_result_plus_4_mib(tmp_path):
    """1e6 rows of two int64 columns, a 15.3 MiB result: the reader peaks
    near 18.4 MiB."""
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(6)
    columns = rng.integers(0, 10**4, (2, 10**6), np.int32)
    write_csv(path, ("I", "O"), columns, {"k": 1})
    data, peak = traced_peak(lambda: read_csv(path, 2, np.int64))
    assert np.array_equal(data, columns.T)
    assert peak < data.nbytes + 4 * 2**20
