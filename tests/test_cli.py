import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

from heavytail_pa.cli import main
from heavytail_pa.csvfile import read_csv


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


def test_estimate_hill_json(tmp_path, monkeypatch):
    counts = tmp_path / "counts.csv"
    out = tmp_path / "est.json"
    assert run(["simulate", "--edges", "300000", "--seed", "9", "--counts", str(counts)]) == 0
    monkeypatch.setattr(sys, "argv", ["host", "extra-arg-of-host"])
    argv = ["estimate", "--counts", str(counts), "--margin", "in", "--method", "hill",
            "--out", str(out)]
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
        ["verify", "--check", "uhat", "--k", "3", "--h-grid", "1e2,1e3",
         "--rel-tol", "0.15", "--out", str(out)]
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
        ("estimate", "i,j,N_ij\n1000000,1000000,1\n", "cells"),
        ("estimate", "i,j,N_ij\n1,0,3000000000\n", "2147483647"),
    ],
    ids=["estimate-missing", "compare-missing", "angular-missing", "bad-cell", "short-row",
         "negative-count", "negative-index", "angular-bad-cell", "angular-short-row",
         "huge-table", "count-above-int32"],
)
def test_bad_input_file_is_an_error(tmp_path, capsys, command, text, message):
    path = tmp_path / "in.csv"
    if text is not None:
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


def test_density_at_high_alpha_in(tmp_path):
    # alpha_in = 28.5: the density integrand only stays finite in log space
    out = tmp_path / "density.csv"
    argv = ["density", "--alpha", "0.1", "--beta", "0.1", "--gamma", "0.8", "--delta-in", "5",
            "--out", str(out)]
    assert run(argv) == 0
    dens = read_csv(out, 3)[:, 2]
    assert dens.size == 81
    assert np.all(np.isfinite(dens)) and np.all(dens > 0)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--check", "truncation", "--rel-tol", "1e-12"], "--rel-tol"),
        (["--check", "uhat", "--t-grid", "1,2", "--component", "2"], "--t-grid"),
    ],
    ids=["truncation-rel-tol", "uhat-t-grid"],
)
def test_verify_rejects_flags_its_check_does_not_take(tmp_path, capsys, argv, flag):
    assert run(["verify", *argv, "--out", str(tmp_path / "v.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and f"--check {argv[1]}" in err
    assert not (tmp_path / "v.json").exists()


HIGH_ALPHA_IN_FLAGS = ["--alpha", "0.1", "--beta", "0.1", "--gamma", "0.8", "--delta-in", "5"]


def test_verify_scaling_overflow_is_an_error(tmp_path, capsys):
    # at k = 28 the out-scaling is t**(1/0.038), which overflows at t = 1e12
    argv = ["verify", "--check", "uhat", "--k", "28", "--h-grid", "1e2,1e4,1e12",
            *HIGH_ALPHA_IN_FLAGS, "--out", str(tmp_path / "v.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "t = 1e+12" in err


def test_verify_uhat_at_k2_passes(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--check", "uhat", "--k", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_exit_code_on_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--edges", "notanumber"])
    assert exc.value.code == 1


# the names the package exported when it imported every module eagerly
PUBLIC_NAMES = (
    "AngularHistogram", "DEFAULT_QUAD", "DEFAULT_SEED", "DegenerateTail", "DegenerateTailSample",
    "DerivativeMeasure", "DerivedConstants", "DirectedMultigraph", "DomainError", "EmptyInput",
    "GrowthCase", "GrowthStepOutcome", "HeavytailError", "InsufficientData",
    "InsufficientExceedances", "InvalidK", "InvalidParams", "InvalidSeed", "JointCountTable",
    "JointPMF", "LimitDistribution", "ModelParams", "NonPositiveSample",
    "PMFComparison", "QuadratureFailure", "QuadratureSpec", "ResourceLimit", "ScalingFunctions",
    "SeedSpec", "StandardizedSample", "TailFit", "TailMeasure", "angular_histogram",
    "build_derivative_measure", "choose_by_in", "choose_by_out", "compare_pmf", "default_hill_k",
    "degree_counts", "derivative_limit_rect", "derivative_marginal_normalizer", "derive",
    "empirical_pmf", "grow", "hill_estimate", "load_params", "loglog_slope", "marginal_check",
    "marginal_condition", "measure_check", "measure_scaling", "save_params", "seed_graph",
    "simulate", "split_probability", "standardize", "step", "transform_scaling",
    "truncation_check", "truncation_condition", "uhat_check", "uhat_limit_rhs", "validate",
)


def test_package_import_skips_scipy_stats(tmp_path):
    """scipy.stats, scipy.integrate and scipy.optimize each cost a large part
    of the import time; nothing needs them.  scipy.special costs most of the
    rest: it loads only where an incomplete gamma or beta function is
    evaluated (verify, TailMeasure.rect_mass), and its names still resolve on
    first use.  The commands that use no evaluator also leave the thread pool
    of concurrent.futures unloaded."""
    import heavytail_pa

    root = os.path.dirname(os.path.dirname(heavytail_pa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([root, os.environ.get("PYTHONPATH", "")]))
    probe = ("import atexit, sys; atexit.register(lambda: print(sorted(m for m in ("
             "'scipy.stats', 'scipy.integrate', 'scipy.optimize', 'scipy.special', "
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
    assert loaded(cli, "simulate", "--edges", "100", "--counts", tmp_path / "c.csv") == "[]"
    assert loaded(cli, "estimate", "--counts", counts, "--out", tmp_path / "e.json") == "[]"
    assert loaded(cli, "angular", "--samples", samples, "--threshold-quantile", "0.9",
                  "--out", tmp_path / "a.csv") == "[]"
    assert loaded(cli, "density", "--grid-x", "1", "--grid-y", "1",
                  "--out", tmp_path / "d.csv") == "[]"
    pool = "['concurrent.futures']"
    assert loaded(cli, "analytic-pmf", "--imax", "3", "--jmax", "3",
                  "--out", tmp_path / "p.csv") == pool
    assert loaded(cli, "sample-limit", "--n", "100", "--out", tmp_path / "s.csv") == pool
    assert loaded(cli, "compare", "--counts", counts, "--imax", "3", "--jmax", "3",
                  "--out", tmp_path / "cmp.json") == pool
    # scipy.special itself imports concurrent.futures
    special = "['concurrent.futures', 'scipy.special']"
    assert loaded(cli, "verify", "--check", "truncation", "--out", tmp_path / "v.json") == special
    assert loaded("from heavytail_pa import ModelParams, TailMeasure; "
                  "TailMeasure(ModelParams(0.3, 0.5, 0.2, 1.0, 1.0)).rect_mass(1, 1.0, 1.0)"
                  ) == special

    code = ("import types, heavytail_pa as pa; star = {}; "
            "exec('from heavytail_pa import *', star); "
            f"names = {PUBLIC_NAMES!r}; "
            "assert sorted(pa.__all__) == sorted(names), sorted(set(pa.__all__) ^ set(names)); "
            "assert all(getattr(pa, n) is star[n] for n in names); "
            "assert isinstance(pa.simulate, types.FunctionType), pa.simulate")
    assert loaded(code) == special
