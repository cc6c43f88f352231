import numpy as np

from heavytail_pa.csvfile import read_csv, write_csv


def test_write_csv_pins_the_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("n", "x"), (np.array([0, 7, 12]), np.array([0.1, 2.0, 1e-300])),
              {"seed": 3, "mass": 0.25})
    assert path.read_text() == "# seed = 3\n# mass = 0.25\nn,x\n0,0.1\n7,2.0\n12,1e-300\n"


def test_read_csv_returns_floats_bit_exactly(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    x[:3] = 1 / 3, 5e-324, -0.0
    write_csv(path, ("i", "x"), (np.arange(x.size), x), {"k": "v"})
    data = read_csv(path, 2)
    assert np.array_equal(data[:, 0], np.arange(x.size))
    assert np.array_equal(data[:, 1], x)
