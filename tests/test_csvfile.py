import numpy as np

from heavytail_pa.csvfile import CHUNK_ROWS, read_csv, write_csv


def test_write_csv_pins_the_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("n", "x"), (np.array([0, 7, 12]), np.array([0.1, 2.0, 1e-300])),
              {"seed": 3, "mass": 0.25})
    assert path.read_text() == "# seed = 3\n# mass = 0.25\nn,x\n0,0.1\n7,2.0\n12,1e-300\n"


def _per_row(header, columns) -> str:
    """The reference formatter: str() of every cell, one row at a time."""
    row = ",".join(["{}"] * len(columns)) + "\n"
    return ",".join(header) + "\n" + "".join(map(row.format, *(np.asarray(c).tolist() for c in columns)))


def test_write_csv_matches_the_per_row_formatter(tmp_path):
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    ints = np.array([0, 7, -12, -1, 9, 10, -10, 99, 100, i64.min, i64.max, i64.min + 1])
    rng = np.random.default_rng(4)
    many = CHUNK_ROWS + 123  # two chunks, the second partial
    cases = [
        (ints, ints.astype(np.float64) / 7.0),  # integer and float columns mixed
        (np.array([0, 1, 10**19, u64.max], np.uint64),),
        (np.zeros(5, np.int32), np.array([0.0, -0.0, 5e-324, np.nan, np.inf])),
        (rng.integers(-10**6, 10**6, many), rng.integers(0, 3, many).astype(np.int32), rng.random(many)),
        ([1.5, 2.0], (3, 4)),
        (np.zeros(0, np.int64), np.zeros(0)),
    ]
    path = tmp_path / "t.csv"
    for columns in cases:
        header = [f"c{k}" for k in range(len(columns))]
        write_csv(path, header, columns)
        assert path.read_bytes() == _per_row(header, columns).encode()


def test_read_csv_returns_floats_bit_exactly(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    x[:3] = 1 / 3, 5e-324, -0.0
    write_csv(path, ("i", "x"), (np.arange(x.size), x), {"k": "v"})
    data = read_csv(path, 2)
    assert np.array_equal(data[:, 0], np.arange(x.size))
    assert np.array_equal(data[:, 1], x)
