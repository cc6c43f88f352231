"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest bench/tests -q

They check that every workload runs, that every metric named in
BENCHMARK.json is emitted with its unit, that a wrong target fails a
check, and that the runner refuses to run without the package source.
They assert nothing about timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_and_emits_every_metric(workload):
    proc = _bench("--workload", workload, "--seed", "11", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == workloads.PER_LAYER
    assert result["metrics"]["checks_failed_frac"]["value"] == 0.0

    record = json.loads((ROOT / f".bench_out/{workload}-seed11-trace1-smoke.json").read_text())
    assert set(record["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in record["end_to_end"].values())
    assert record["spans"] and all(s["run_id"] and s["end"] >= s["start"] for s in record["spans"])
    for key in ("nproc", "cpu_model", "mem_total_mib", "python", "numpy", "scipy", "git_commit",
                "src_lines", "seed", "iteration_seeds", "thread_caps"):
        assert key in record["provenance"]


def test_untraced_run_prints_end_to_end_metrics():
    proc = _bench("--workload", "growth", "--seed", "12", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_target_fails_a_check(tmp_path):
    import heavytail_pa as pa

    growth = workloads.Growth(pa, workloads.SMOKE, tmp_path)
    checks = workloads.Checks()
    growth.check(growth.run(5, Tracer("ok", False)), checks)
    assert checks.failed == 0

    wrong = pa.ModelParams(alpha=0.1, beta=0.5, gamma=0.4, delta_in=1.0, delta_out=1.0)
    growth.dist = pa.LimitDistribution(wrong)
    growth.derived = pa.derive(wrong)
    checks = workloads.Checks()
    growth.check(growth.run(5, Tracer("wrong", False)), checks)
    failed = {r["name"] for r in checks.results if not r["ok"]}
    assert "growth.tv_10x10" in failed


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "growth", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        Span(0, None, "r", "bench.iteration", 0.0, 10.0),
        Span(1, 0, "r", "simulate.simulate", 1.0, 5.0),
        Span(2, 0, "r", "census.degree_counts", 5.0, 6.0),
        Span(3, 1, "r", "inner", 2.0, 3.0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 1.0, 3: 1.0}


def test_disabled_tracer_records_nothing():
    tr = Tracer("r", False)
    with tr.span("simulate.simulate"):
        pass
    assert tr.spans == []
