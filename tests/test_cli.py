import inspect
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy

from heavytail_pa import QuadratureFailure, cli, tail_measure, tauberian
from heavytail_pa.cli import main
from heavytail_pa.errors import MAX_GRID_POINTS, ResourceLimit
from heavytail_pa.csvfile import read_csv
from conftest import traced_peak


def run(argv):
    return main(argv)


def test_simulate_is_byte_reproducible(tmp_path):
    counts = tmp_path / "counts.csv"
    argv = ["simulate", "--edges", "2000", "--seed", "7", "--counts", str(counts)]
    assert run(argv) == 0
    first = counts.read_bytes()
    assert run(argv) == 0
    assert counts.read_bytes() == first


def test_simulate_writes_binary_graph(tmp_path):
    out = tmp_path / "graph.bin"
    assert run(["simulate", "--edges", "500", "--seed", "3", "--out", str(out)]) == 0
    from heavytail_pa import DirectedMultigraph

    g = DirectedMultigraph.from_binary(out)
    assert g.edge_count == 500
    g.check_invariants()


def test_analytic_pmf_and_compare(tmp_path):
    counts = tmp_path / "counts.csv"
    pmf_csv = tmp_path / "pmf.csv"
    report = tmp_path / "cmp.json"
    assert run(["simulate", "--edges", "200000", "--seed", "5", "--counts", str(counts)]) == 0
    assert run(["analytic-pmf", "--imax", "12", "--jmax", "12", "--out", str(pmf_csv)]) == 0
    text = pmf_csv.read_text()
    assert text.startswith("#")
    assert "i,j,p" in text
    meta = dict(ln[2:].split(" = ") for ln in text.splitlines() if ln.startswith("# "))
    assert float(meta["captured_mass"]) == read_csv(pmf_csv, 3)[:, 2].sum()
    assert (
        run(
            ["compare", "--counts", str(counts), "--imax", "8", "--jmax", "8",
             "--out", str(report)]
        )
        == 0
    )
    payload = json.loads(report.read_text())
    assert payload["tv_distance"] < 0.05
    assert payload["config"]["params"]["alpha"] == 0.3


def test_analytic_pmf_mass_capture(tmp_path):
    # summing the tabulated masses over an adaptive box approaches 1
    pmf_csv = tmp_path / "pmf.csv"
    assert run(["analytic-pmf", "--imax", "500", "--jmax", "500", "--out", str(pmf_csv)]) == 0
    data = read_csv(pmf_csv, 3)
    assert data[:, 2].sum() >= 0.98


def test_sample_limit_and_angular(tmp_path):
    samples = tmp_path / "samples.csv"
    angular = tmp_path / "angular.csv"
    assert run(["sample-limit", "--n", "100000", "--seed", "11", "--out", str(samples)]) == 0
    assert (
        run(
            ["angular", "--samples", str(samples), "--threshold-quantile", "0.995",
             "--bins", "8", "--out", str(angular)]
        )
        == 0
    )
    rows = read_csv(angular, 3)
    assert rows.shape == (8, 3)
    assert rows[:, 2].sum() == pytest.approx(1.0, abs=1e-9)


def test_angular_holds_one_float_array(tmp_path):
    """Beside the int32 rows (8 B per row) `angular` holds one float64 array,
    the u it sums v into and takes the quantile of, and its slices: about
    2.2 x 8 B per row, where u and a separate u + v made 3.2."""
    samples, out = tmp_path / "samples.csv", tmp_path / "angular.csv"
    n = 10**6
    assert run(["sample-limit", "--n", str(n), "--seed", "7", "--out", str(samples)]) == 0
    code, peak = traced_peak(lambda: run(["angular", "--samples", str(samples), "--out", str(out)]))
    assert code == 0
    assert peak < 2.5 * 8 * n


def test_estimate_hill_json(tmp_path, monkeypatch):
    counts = tmp_path / "counts.csv"
    out = tmp_path / "est.json"
    assert run(["simulate", "--edges", "300000", "--seed", "9", "--counts", str(counts)]) == 0
    monkeypatch.setattr(sys, "argv", ["host", "extra-arg-of-host"])
    argv = ["estimate", "--counts", str(counts), "--margin", "in", "--out", str(out)]
    assert run(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "hill"
    assert 1.3 < payload["index_estimate"] < 2.5
    assert payload["k_used"] >= 2 and payload["stderr"] > 0
    assert payload["numpy"] == np.__version__ and payload["scipy"] == scipy.__version__
    assert payload["argv"] == argv and payload["counts"] == str(counts)


def test_density_grid(tmp_path):
    out = tmp_path / "density.csv"
    assert (
        run(["density", "--component", "1", "--grid-x", "0.5,1,2", "--grid-y", "1",
             "--out", str(out)])
        == 0
    )
    rows = read_csv(out, 3)
    assert rows.shape == (3, 3)
    assert np.all(rows[:, 2] > 0)


def test_verify_uhat_reduced_grid(tmp_path):
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--check", "uhat", "--k", "3", "--h-grid", "1e2,1e4", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["check"] == "uhat"
    assert len(payload["rows"]) == 6
    assert "derived" in payload["config"]
    assert payload["config"]["numpy"] == np.__version__
    assert payload["config"]["scipy"] == scipy.__version__


def test_verify_truncation_default_protocol(tmp_path, monkeypatch):
    out = tmp_path / "trunc.json"
    monkeypatch.setattr(sys, "argv", ["host", "extra-arg-of-host"])
    argv = ["verify", "--check", "truncation", "--out", str(out)]
    assert run(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["config"]["argv"] == argv


def test_simulate_allows_tail_degenerate_params(tmp_path):
    # gamma = 0 with delta_in = 0 kills the in-degree power law, but the
    # growth dynamics remain well defined and simulate must still run
    cfg = tmp_path / "degen.cfg"
    cfg.write_text("alpha=0.4\nbeta=0.6\ngamma=0.0\ndelta_in=0.0\ndelta_out=1.0\n")
    counts = tmp_path / "counts.csv"
    assert run(["simulate", "--edges", "5000", "--params", str(cfg),
                "--counts", str(counts)]) == 0
    assert counts.exists()


def test_exit_code_on_bad_params(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha=0.5\nbeta=0.5\ngamma=0.1\ndelta_in=1\ndelta_out=1\n")
    assert run(["simulate", "--edges", "10", "--params", str(cfg)]) == 1
    assert run(["sample-limit", "--n", "-5", "--out", str(tmp_path / "s.csv")]) == 1


SAMPLES = "I,O\n" + "".join(f"{i},{i % 7}\n" for i in range(1, 2000))


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("estimate", None, None),
        ("compare", None, None),
        ("angular", None, None),
        ("estimate", "i,j,N_ij\n1,0,5\n0,x,4\n", "line 3"),
        ("compare", "i,j,N_ij\n1,0,5\n0,1\n", "line 3"),
        ("estimate", "i,j,N_ij\n1,0,-5\n", None),
        ("compare", "i,j,N_ij\n-1,0,5\n1,1,2\n", None),
        ("angular", SAMPLES + "3,x\n", "line 2001"),
        ("angular", SAMPLES + "3\n", "line 2001"),
        ("angular", SAMPLES + "3,2.5\n", "line 2001"),
        ("estimate", "i,j,N_ij\n1,0,3000000000\n", "2147483647"),
        ("angular", b"I,O\n1,2\n3,\xff\n", "in.csv, line 3: not UTF-8 text"),
        ("angular", "I,O\n1,2\n1,2147483648\n", "line 3: expected 2 int32 values, got '1,2147483648'"),
        ("estimate", b"# k = \xff\ni,j,N_ij\n1,0,5\n", "in.csv, line 1: not UTF-8 text"),
    ],
    ids=["estimate-missing", "compare-missing", "angular-missing", "bad-cell", "short-row",
         "negative-count", "negative-index", "angular-bad-cell", "angular-short-row",
         "angular-non-integer-cell", "count-above-int32", "angular-not-utf8",
         "angular-count-above-int32", "estimate-not-utf8-metadata"],
)
def test_bad_input_file_is_an_error(tmp_path, capsys, command, text, message):
    path = tmp_path / "in.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    if command == "angular":
        argv = [command, "--samples", str(path), "--threshold-quantile", "0.5"]
    else:
        argv = [command, "--counts", str(path)]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert message is None or message in err
    assert "usecols" not in err


@pytest.mark.parametrize("flag", ["--imax", "--jmax"])
@pytest.mark.parametrize("command", ["analytic-pmf", "compare"])
def test_negative_pmf_box_is_an_error(tmp_path, capsys, command, flag):
    counts = tmp_path / "in.csv"
    counts.write_text("i,j,N_ij\n1,0,5\n0,1,4\n")
    argv = [command, flag, "-1", "--out", str(tmp_path / "out")]
    assert run(argv + (["--counts", str(counts)] if command == "compare" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pmf indices must be nonnegative integers, got -1")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_huge_degree_cell_passes_through(tmp_path, command):
    # a count table is a cell list: (1e6, 1e6) is one cell, not a 1e12-cell table
    path = tmp_path / "in.csv"
    rows = "".join(f"{i},{i % 7},{1 + i % 3}\n" for i in range(1, 400))
    path.write_text("i,j,N_ij\n" + rows + "1000000,1000000,1\n")
    out = tmp_path / "out.json"
    assert run([command, "--counts", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())


def test_hill_estimate_does_not_expand_the_marginal(tmp_path):
    # the Hill fit reads its top order statistics off the count marginal: a row
    # of 1e7 nodes costs no per-node array
    path = tmp_path / "in.csv"
    rows = "".join(f"{i},{i % 7},{1 + i % 3}\n" for i in range(1, 400))
    path.write_text("i,j,N_ij\n" + rows + "1,0,10000000\n")
    out = tmp_path / "out.json"
    code, peak = traced_peak(lambda: run(["estimate", "--counts", str(path), "--out", str(out)]))
    assert code == 0 and peak < 2**22
    assert json.loads(out.read_text())["k_used"] == int(np.sqrt(10**7 + 798))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--check", "uhat", "--h-grid", "abc"], "--"),
        (["verify", "--check", "uhat", "--h-grid", "1:10:0"], "--"),
        (["density", "--grid-x", "1:2:0"], "--"),
        (["density", "--grid-x", "1e-100", "--grid-y", "1e-100"],
         "the density at (1e-100, 1e-100) overflows the float range"),
        (["density", "--grid-x", "1e-200", "--grid-y", "1e-200"],
         "the integrand e^806.91 overflows the float range"),
    ],
    ids=["not-a-number", "count-zero", "empty-grid", "density-overflow", "integrand-overflow"],
)
def test_bad_grid_is_an_error(tmp_path, capsys, argv, message):
    """A malformed grid is an error, and so is a grid point where the density
    passes the float range: the value or its integrand overflows there."""
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, spec", [
    (["density", "--grid-x", "1:-1:3"], "--grid-x", "1:-1:3"),
    (["density", "--grid-y", "1:0:3"], "--grid-y", "1:0:3"),
    (["verify", "--check", "measure", "--t-grid", "1e2:1e400:3"], "--t-grid", "1e2:1e400:3"),
    (["density", "--grid-x=-1e308:1e308:3"], "--grid-x", "-1e308:1e308:3"),
], ids=["log-end-negative", "log-end-zero", "end-past-float-range", "step-past-float-range"])
def test_grid_ends_are_checked_before_numpy_runs(tmp_path, capsys, argv, flag, spec):
    """A log grid ending at or below zero, or an end or step past the float
    range, once printed numpy's RuntimeWarning before the error line."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {flag} {spec!r} is neither lo:hi:count with "
                                       "count >= 1 nor a comma list of finite numbers\n")
    assert not out.exists()


def _refuse_large_grids(monkeypatch):
    """Fail a test that builds a grid past the cap or evaluates a density."""
    for name in ("geomspace", "linspace"):
        spaced = getattr(np, name)

        def guarded(lo, hi, count, *args, spaced=spaced, **kwargs):
            assert count <= MAX_GRID_POINTS, "built a grid past the cap"
            return spaced(lo, hi, count, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)
    monkeypatch.setattr(tail_measure.TailMeasure, "density", _fail_numerically)


CAP = MAX_GRID_POINTS


@pytest.mark.parametrize("argv, message", [
    (["density", "--grid-x", f"1:2:{CAP + 1}"], f"--grid-x has {CAP + 1} points"),
    (["verify", "--check", "measure", "--t-grid", f"0:1:{CAP + 1}"], f"--t-grid has {CAP + 1} points"),
    (["verify", "--check", "uhat", "--h-grid", ",".join(["1"] * (CAP + 1))],
     f"--h-grid has {CAP + 1} points"),
    (["density", "--grid-x", "1:2:1024", "--grid-y", "1:2:1025"],
     f"the density grid has {1024 * 1025} points"),
], ids=["log-count", "linear-count", "comma-list", "density-product"])
def test_a_grid_past_the_cap_is_refused(tmp_path, capsys, monkeypatch, argv, message):
    """A count of 10000000000 once asked np.geomspace for 80 GB, and density
    listed its x-by-y jobs before the first integral; a grid past the cap is
    refused before either."""
    _refuse_large_grids(monkeypatch)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}, past the grid cap {CAP}\n"
    assert not out.exists()


def test_a_grid_at_the_cap_is_parsed(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 4)
    assert cli._parse_points("1:8:4", "--t-grid") == [1.0, 2.0, 4.0, 8.0]
    assert cli._parse_points("0,1,2,3", "--t-grid") == [0.0, 1.0, 2.0, 3.0]
    for spec in ("1:8:5", "0,1,2,3,4"):
        with pytest.raises(ResourceLimit, match="--t-grid has 5 points, past the grid cap 4"):
            cli._parse_points(spec, "--t-grid")


def test_density_at_high_alpha_in(tmp_path):
    # alpha_in = 28.5: the density integrand only stays finite in log space
    out = tmp_path / "density.csv"
    argv = ["density", "--alpha", "0.1", "--beta", "0.1", "--gamma", "0.8", "--delta-in", "5",
            "--out", str(out)]
    assert run(argv) == 0
    dens = read_csv(out, 3)[:, 2]
    assert dens.size == 81
    assert np.all(np.isfinite(dens)) and np.all(dens > 0)


# a valid value for each verify flag but --k, which every check takes
VERIFY_FLAG_VALUES = {"--h-grid": "1,2", "--t-grid": "1,2"}
# flags verify once took: the gates are fixed in the checks, so no check takes them
DELETED_VERIFY_FLAGS = {"--rel-tol": "1e-12", "--y-grid": "0,1"}


def _refused_flag_cases() -> dict:
    """One case per (check, flag its function has no keyword for)."""
    cases = {}
    for check, fn in tauberian.CHECKS.items():
        keywords = inspect.signature(fn).parameters
        for flag, value in {**VERIFY_FLAG_VALUES, **DELETED_VERIFY_FLAGS}.items():
            if flag[2:].replace("-", "_") not in keywords:
                cases[f"{check}-{flag[2:]}"] = (["--check", check, flag, value], flag)
    return cases


REFUSED_FLAG_CASES = _refused_flag_cases()


@pytest.mark.parametrize("argv, flag", list(REFUSED_FLAG_CASES.values()), ids=list(REFUSED_FLAG_CASES))
def test_verify_rejects_flags_its_check_does_not_take(tmp_path, capsys, argv, flag):
    """A flag another check takes names the check that lacks it; a deleted
    flag is a usage error under every check."""
    out = tmp_path / "v.json"
    if flag in DELETED_VERIFY_FLAGS:
        with pytest.raises(SystemExit) as exc:
            run(["verify", *argv, "--out", str(out)])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    else:
        assert run(["verify", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err and f"--check {argv[1]}" in err
    assert not out.exists()


@pytest.mark.parametrize("t", ["0", "-1"])
@pytest.mark.parametrize("check", list(tauberian.CHECKS))
def test_verify_rejects_a_t_that_is_not_positive(tmp_path, capsys, check, t):
    grid = "--h-grid" if check == "uhat" else "--t-grid"
    out = tmp_path / "v.json"
    assert run(["verify", "--check", check, f"{grid}={t},1e3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: t must be positive, got {t}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("check, grid, values", [
    ("uhat", "--h-grid", "1e6,1e4,1e2"),
    ("marginal", "--t-grid", "1e5,1e2"),
])
def test_verify_rejects_a_grid_that_does_not_increase(tmp_path, capsys, check, grid, values):
    """A descending h grid once reported FAIL with exit 2, and a descending t
    grid passed the marginal check, which judged the largest t."""
    out = tmp_path / "v.json"
    assert run(["verify", "--check", check, grid, values, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {check}: the {grid[2:].replace('-', '_')} must be strictly "
                          f"increasing") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("check", ["uhat", "measure", "marginal"])
def test_verify_rejects_a_rel_tol_that_is_not_positive(tmp_path, capsys, check):
    """--rel-tol -1 was once refused by value; now the gate is fixed in the
    check, so --rel-tol of any value is a usage error and writes nothing."""
    out = tmp_path / "v.json"
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--check", check, "--rel-tol", "-1", "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --rel-tol -1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("y_grid, probe_y, code", [((0.0, 1.0, 2.0), 2.0, 2),
                                                   ((0.0, 4.0, 16.0), 16.0, 0)],
                         ids=["fails-at-y-2", "passes-at-y-16"])
def test_verify_truncation_probes_the_largest_y(tmp_path, monkeypatch, y_grid, probe_y, code):
    """The verdict comes from the rows at the grid's largest y, one per t."""
    monkeypatch.setattr(tauberian, "_TRUNCATION_Y", y_grid)
    out = tmp_path / "v.json"
    assert run(["verify", "--check", "truncation", "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["probe_y"] == probe_y
    ratios = [r["ratio_to_y0"] for r in report["rows"] if r["y"] == probe_y]
    assert len(ratios) == 3  # one per t of the default grid
    assert report["passed"] is all(r <= report["ratio_tol"] for r in ratios)
    assert report["passed"] is (code == 0)


def test_verify_truncation_takes_a_cut_past_the_float_range(tmp_path, capsys):
    """At k = 2 and t = 911485.99, b1(t) = 3.98e307, so the in-cut b1(t) y at
    the probe y = 8 is inf, the whole section, as it is for the measure and
    marginal checks; an integer ceiling of it raised a raw OverflowError."""
    out = tmp_path / "v.json"
    argv = ["verify", "--check", "truncation", "--delta-in", "1.169", "--k", "2",
            "--t-grid", "911485.9947920665", "--out", str(out)]
    assert run(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert [r["y"] for r in rows] == [0.0, 1.0, 2.0, 4.0, 8.0]
    assert rows[0]["ratio_to_y0"] == 1.0 and 0.0 < rows[-1]["ratio_to_y0"] < 1e-9


HIGH_ALPHA_IN_FLAGS = ["--alpha", "0.1", "--beta", "0.1", "--gamma", "0.8", "--delta-in", "5"]


def test_verify_scaling_overflow_is_an_error(tmp_path, capsys):
    # at k = 28 the out-scaling is t**(1/0.038), which overflows at t = 1e12
    argv = ["verify", "--check", "uhat", "--k", "28", "--h-grid", "1e2,1e4,1e12",
            *HIGH_ALPHA_IN_FLAGS, "--out", str(tmp_path / "v.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "t = 1e+12" in err


def _fail_numerically(*args, **kwargs):
    raise QuadratureFailure("injected")


@pytest.mark.parametrize("argv, module, name, message", [
    (["verify", "--check", "uhat", "--h-grid", "1,2"], tauberian, "uhat_limit_rhs",
     "the limit transform at lambda = (1, 1): injected"),
    (["density", "--grid-x", "1", "--grid-y", "1"], tail_measure._GammaMixture, "integral",
     "injected"),
], ids=["verify-target", "density"])
def test_a_quadrature_failure_exits_2(tmp_path, capsys, monkeypatch, argv, module, name, message):
    """A QuadratureFailure reaches main, which reports a numerical failure
    with exit code 2; a check names the target that failed."""
    monkeypatch.setattr(module, name, _fail_numerically)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


def test_verify_uhat_at_k2_passes(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--check", "uhat", "--k", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_exit_code_on_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--edges", "notanumber"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--edges", "-1"], "argument --edges: must be at least 1, got -1"),
    (["simulate", "--edges", "0"], "argument --edges: must be at least 1, got 0"),
    (["angular", "--threshold-quantile", "1.5"], "--threshold-quantile: must lie in [0, 1]"),
    (["angular", "--threshold-quantile", "nan"], "--threshold-quantile: must lie in [0, 1]"),
], ids=["edges-negative", "edges-zero", "quantile-above-1", "quantile-nan"])
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv, message):
    """--edges -1 once died in grow() with a ValueError, and a quantile of 1.5 or
    nan in np.quantile: each is refused while the flags are parsed."""
    samples = tmp_path / "s.csv"
    samples.write_text(SAMPLES)
    if argv[0] == "angular":
        argv = [*argv, "--samples", str(samples), "--out", str(tmp_path / "a.csv")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert message in err.strip().splitlines()[-1]
    assert "Traceback" not in err
    assert not (tmp_path / "a.csv").exists()


# each subcommand with its required flags; a refused flag stops the parse before any file is read
REQUIRED_FLAGS = {
    "simulate": ["--edges", "10"], "analytic-pmf": ["--out", "p.csv"],
    "sample-limit": ["--n", "10", "--out", "s.csv"], "density": ["--out", "d.csv"],
    "angular": ["--samples", "s.csv", "--out", "a.csv"], "estimate": ["--counts", "c.csv"],
    "compare": ["--counts", "c.csv"], "verify": ["--check", "uhat"],
}
UNREAD_FLAGS = ([(command, "--tolerance") for command in REQUIRED_FLAGS]
                + [(command, "--seed") for command in
                   ("analytic-pmf", "density", "angular", "compare", "verify")]
                + [("estimate", "--method"), ("estimate", "--i-min")]
                + [("verify", "--rel-tol"), ("verify", "--y-grid")])


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[" ".join(c) for c in UNREAD_FLAGS])
def test_a_flag_no_output_reads_is_a_usage_error(capsys, command, flag):
    """No subcommand takes --tolerance, and only simulate and sample-limit,
    which draw, take --seed: each once was accepted and changed nothing.
    estimate runs Hill alone, so the log-log fit's --method and --i-min
    are gone with it; verify's gates are fixed in its checks, so --rel-tol
    and --y-grid are gone too."""
    with pytest.raises(SystemExit) as exc:
        run([command, *REQUIRED_FLAGS[command], flag, "1"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--k", "0"], "need k >= 2 order statistics"),
], ids=["hill-k-0"])
def test_estimate_refuses_degenerate_orders(tmp_path, capsys, argv, message):
    """--k 0 once fell back to the default k."""
    counts = tmp_path / "in.csv"
    counts.write_text("i,j,N_ij\n" + "".join(f"{i},{i % 7},{1 + i % 3}\n" for i in range(1, 400)))
    out = tmp_path / "out.json"
    assert run(["estimate", "--counts", str(counts), *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


# the names the package exports
PUBLIC_NAMES = (
    "AngularHistogram", "DEFAULT_SEED", "DegenerateTail", "DegenerateTailSample",
    "DerivativeMeasure", "DerivedConstants", "DirectedMultigraph", "DomainError", "EmptyInput",
    "HeavytailError", "InsufficientData", "InsufficientExceedances", "InvalidK", "InvalidParams",
    "InvalidSeed", "JointCountTable", "JointPMF", "LimitDistribution", "ModelParams",
    "NonPositiveSample",
    "PMFComparison", "QuadratureFailure", "ResourceLimit", "ScalingFunctions",
    "StandardizedSample", "TailFit", "TailMeasure", "angular_histogram",
    "build_derivative_measure", "compare_pmf", "default_hill_k",
    "degree_counts", "derivative_limit_rect", "derivative_marginal_normalizer", "derive",
    "empirical_pmf", "grow", "hill_estimate", "load_params", "marginal_check",
    "measure_check", "measure_scaling", "save_params",
    "simulate", "split_probability", "standardize", "transform_scaling",
    "truncation_check", "uhat_check", "uhat_limit_rhs", "validate",
)


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    import heavytail_pa

    root = os.path.dirname(os.path.dirname(heavytail_pa.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([root, os.environ.get("PYTHONPATH", "")]))


def test_version_loads_no_scipy():
    """A cold --version imports no scipy at all, and no numpy: only the
    reports read scipy's version string, when they are written, and only
    the commands import numpy."""
    code = ("import sys\nfrom heavytail_pa.cli import main\n"
            "try:\n    main(['--version'])\nexcept SystemExit:\n    pass\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_import_skips_scipy_stats(tmp_path):
    """scipy.stats, scipy.integrate and scipy.optimize each cost a large part
    of the import time; nothing needs them.  scipy.special costs most of the
    rest: it loads only where an incomplete gamma or beta function is
    evaluated (verify's truncation, measure and marginal checks,
    TailMeasure.rect_mass), and its names still resolve on first use.  Only
    growth and the sampler load the thread pool of concurrent.futures.  The
    commands that write CSV import no scipy at all: only a JSON report
    records its version."""
    env = _fresh_env()
    probe = ("import atexit, sys; atexit.register(lambda: print(sorted(m for m in ("
             "'scipy', 'scipy.stats', 'scipy.integrate', 'scipy.optimize', 'scipy.special', "
             "'concurrent.futures') if m in sys.modules))); ")
    cli = "from heavytail_pa.cli import main; sys.exit(main(sys.argv[1:]))"

    def loaded(code, *argv):
        proc = subprocess.run([sys.executable, "-c", probe + code, *map(str, argv)], env=env,
                              capture_output=True, text=True, check=True)
        return proc.stdout.splitlines()[-1]

    counts, samples = tmp_path / "counts.csv", tmp_path / "samples.csv"
    assert run(["simulate", "--edges", "2000", "--seed", "3", "--counts", str(counts)]) == 0
    assert run(["sample-limit", "--n", "2000", "--out", str(samples)]) == 0
    assert loaded("import heavytail_pa") == "[]"
    assert loaded(cli, "--version") == "[]"
    pool = "['concurrent.futures']"  # growth's and sample-limit's CSV, without scipy
    assert loaded(cli, "simulate", "--edges", "100", "--counts", tmp_path / "c.csv") == pool
    assert loaded(cli, "estimate", "--counts", counts, "--out", tmp_path / "e.json") == "['scipy']"
    assert loaded(cli, "angular", "--samples", samples, "--threshold-quantile", "0.9",
                  "--out", tmp_path / "a.csv") == "[]"
    assert loaded(cli, "density", "--grid-x", "1", "--grid-y", "1",
                  "--out", tmp_path / "d.csv") == "[]"
    assert loaded(cli, "analytic-pmf", "--imax", "3", "--jmax", "3",
                  "--out", tmp_path / "p.csv") == "[]"
    assert loaded(cli, "sample-limit", "--n", "100", "--out", tmp_path / "s.csv") == pool
    assert loaded(cli, "compare", "--counts", counts, "--imax", "3", "--jmax", "3",
                  "--out", tmp_path / "cmp.json") == "['scipy']"
    # scipy.special itself imports concurrent.futures
    special = "['concurrent.futures', 'scipy', 'scipy.special']"
    assert loaded(cli, "verify", "--check", "truncation", "--out", tmp_path / "v.json") == special
    assert loaded(cli, "verify", "--check", "uhat", "--out", tmp_path / "u.json") == "['scipy']"
    assert loaded("from heavytail_pa import ModelParams, TailMeasure; "
                  "TailMeasure(ModelParams(0.3, 0.5, 0.2, 1.0, 1.0)).rect_mass(1, 1.0, 1.0)"
                  ) == special

    code = ("import types, heavytail_pa as pa; star = {}; "
            "exec('from heavytail_pa import *', star); "
            f"names = {PUBLIC_NAMES!r}; "
            "assert sorted(pa.__all__) == sorted(names), sorted(set(pa.__all__) ^ set(names)); "
            "assert star.keys() - {'__builtins__'} == set(names), star.keys(); "
            "assert all(getattr(pa, n) is star[n] for n in names); "
            "assert isinstance(pa.simulate, types.FunctionType), pa.simulate")
    assert loaded(code) == "[]"


# the package modules (less heavytail_pa.cli) and numpy each command loads;
# a command loads nothing that only another command runs
COMMAND_MODULES = {
    "--version": ["errors"],
    "simulate": ["census", "csvfile", "errors", "growth", "numpy", "params"],
    "estimate": ["census", "csvfile", "errors", "numpy", "params"],
    "angular": ["census", "csvfile", "errors", "numpy", "params"],
    "density": ["csvfile", "errors", "numpy", "params", "quadrature", "tail_measure"],
    "analytic-pmf": ["csvfile", "errors", "limit_dist", "numpy", "params", "quadrature",
                     "tail_measure"],
    "sample-limit": ["csvfile", "errors", "limit_dist", "numpy", "params", "quadrature",
                     "tail_measure"],
    "verify": ["errors", "limit_dist", "numpy", "params", "quadrature", "tail_measure",
               "tauberian"],
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A degree-count CSV and a sample CSV, written once for the module-load probes."""
    root = tmp_path_factory.mktemp("inputs")
    counts, samples = root / "counts.csv", root / "samples.csv"
    assert run(["simulate", "--edges", "2000", "--seed", "3", "--counts", str(counts)]) == 0
    assert run(["sample-limit", "--n", "2000", "--out", str(samples)]) == 0
    return counts, samples


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, cli_inputs, command):
    """Each command is a fresh process and pays for every module it imports;
    `import heavytail_pa` loads none, so a command loads only its own."""
    counts, samples = cli_inputs
    argv = {
        "--version": [],
        "simulate": ["--edges", "100", "--counts", tmp_path / "c.csv"],
        "estimate": ["--counts", counts, "--out", tmp_path / "e.json"],
        "angular": ["--samples", samples, "--threshold-quantile", "0.9", "--out", tmp_path / "a.csv"],
        "density": ["--grid-x", "1", "--grid-y", "1", "--out", tmp_path / "d.csv"],
        "analytic-pmf": ["--imax", "3", "--jmax", "3", "--out", tmp_path / "p.csv"],
        "sample-limit": ["--n", "100", "--out", tmp_path / "s.csv"],
        "verify": ["--check", "truncation", "--out", tmp_path / "v.json"],
    }[command]
    code = ("import atexit, sys; atexit.register(lambda: print(sorted("
            "m.removeprefix('heavytail_pa.') for m in sys.modules "
            "if m.startswith('heavytail_pa.') and m != 'heavytail_pa.cli' or m == 'numpy'))); "
            "from heavytail_pa.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, command, *map(str, argv)],
                          env=_fresh_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == repr(COMMAND_MODULES[command])


def test_package_namespace_loads_a_module_on_first_use():
    """`import heavytail_pa` loads no submodule and no numpy; reading a name
    loads its module alone, and importing a submodule leaves the names
    unchanged: heavytail_pa.simulate stays the function once census and
    growth are imported, since no module is named after an exported name."""
    code = ("import sys, types; "
            "loaded = lambda: sorted(m for m in sys.modules "
            "if m.startswith('heavytail_pa.') or m == 'numpy'); "
            "import heavytail_pa; print(loaded()); "
            "heavytail_pa.ModelParams; print(loaded()); "
            "import heavytail_pa.census, heavytail_pa.growth; "
            "assert isinstance(heavytail_pa.simulate, types.FunctionType), heavytail_pa.simulate; "
            "from heavytail_pa import simulate; assert simulate is heavytail_pa.growth.simulate")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "['heavytail_pa.errors', 'heavytail_pa.params']"]


def test_package_namespace_lists_and_refuses_names():
    import heavytail_pa

    assert len(PUBLIC_NAMES) == 51 and set(PUBLIC_NAMES) <= set(dir(heavytail_pa))
    with pytest.raises(AttributeError, match="^module 'heavytail_pa' has no attribute 'nope'$"):
        heavytail_pa.nope


VERIFY_USAGE = """\
usage: heavytail-pa verify [-h] [--params PARAMS] [--alpha ALPHA]
                           [--beta BETA] [--gamma GAMMA] [--delta-in DELTA_IN]
                           [--delta-out DELTA_OUT] --check
                           {uhat,measure,truncation,marginal} [--k K]
                           [--h-grid H_GRID] [--t-grid T_GRID] [--out OUT]
"""
VERIFY_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --params PARAMS       key=value parameter file
  --alpha ALPHA
  --beta BETA
  --gamma GAMMA
  --delta-in DELTA_IN
  --delta-out DELTA_OUT
  --check {uhat,measure,truncation,marginal}
  --k K
  --h-grid H_GRID
  --t-grid T_GRID
  --out OUT
"""


def test_verify_check_choices_print_as_before(capsys, monkeypatch):
    """--check reads tauberian.CHECKS only when argparse tests or prints a
    choice; its help and its usage error are unchanged byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERIFY_USAGE + VERIFY_OPTIONS
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--check", "nope"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == VERIFY_USAGE + (
        "heavytail-pa verify: error: argument --check: invalid choice: 'nope' "
        "(choose from 'uhat', 'measure', 'truncation', 'marginal')\n")


def test_sample_limit_past_the_draw_budget_is_refused(tmp_path, capsys, monkeypatch):
    """--n 10000000000 once asked np.empty for 40 GB; an allocation past
    the budget fails the test instead of running."""
    from heavytail_pa import limit_dist
    from heavytail_pa.errors import PAIR_BUDGET

    empty = np.empty

    def guarded(shape, *args, **kwargs):
        assert np.prod(shape) <= PAIR_BUDGET, "allocated past the draw budget"
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(limit_dist.np, "empty", guarded)
    out = tmp_path / "s.csv"
    assert run(["sample-limit", "--n", "10000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: a sample of 10000000000 draws exceeds the draw budget 200000000\n"
    assert not out.exists()
