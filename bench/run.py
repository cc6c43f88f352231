"""Benchmark runner for heavytail-pa: one workload per invocation.

    python3 bench/run.py --workload growth --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the package is imported from its
``src/``.  The workload runs in a fresh child process (``workloads.py``)
with BLAS/OpenMP threads capped at the number of usable cores.  Set-up is
timed from process start to the workload's evaluators being built,
several times, and reported as the median.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from the traced iterations.  Every metric is printed by name and unit,
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count correctness checks.  The full record
(provenance, samples, checks and, when traced, every span) is written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.  Exit code 0 when
every check passed, 1 when one failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
# Units of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("HEAVYTAIL_PA_THREADS", None)
    env.pop("PYTHONOPTIMIZE", None)  # the graph-invariant check relies on asserts
    env.update({var: str(nproc) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(OUT)
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the child and any subprocess it started; they share its process group."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)


def _kill_at(proc: subprocess.Popen, deadline: float) -> threading.Timer:
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc,))
    timer.start()
    return timer


def _spawn_workload(argv: list, env: dict, deadline: float, setup_only: bool):
    """Start a workload child; return its set-up time and, unless set-up only, its result."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), *argv, "--workdir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    timer = _kill_at(proc, deadline)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        _kill_group(proc)
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RunError(f"workload child failed (exit {proc.returncode})")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def _cold_cli_version(env: dict, deadline: float) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "heavytail_pa.cli", "--version"], env=env, cwd=ROOT,
                          capture_output=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RunError(f"heavytail-pa --version exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _provenance(nproc: int, child: dict, args) -> dict:
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "mem_total_mib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        **child["versions"],
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "seed": args.seed,
        "iteration_seeds": child["iteration_seeds"],
        "thread_caps": {var: str(nproc) for var in THREAD_VARS},
        "sizes": child["sizes"],
        "smoke": args.smoke,
    }


def run(args) -> tuple[dict, dict]:
    """Run one workload; return the printed result and the full record."""
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "heavytail_pa" / "__init__.py").is_file():
        raise RunError(f"no package source at {SRC}; run from the root of a heavytail-pa checkout")
    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--smoke"] if args.smoke else [])]
    cli = args.workload == "cli_pipeline"

    def setup_only() -> float:
        if cli:
            return _cold_cli_version(env, deadline)
        return _spawn_workload(argv, env, deadline, setup_only=True)[0]

    # Set-ups before and after the workload, so that their median spans the
    # run rather than one moment of a host whose speed drifts.
    setups = [setup_only()]
    setup_s, child = _spawn_workload(argv, env, deadline, setup_only=False)
    if not cli:
        setups.append(setup_s)
    while len(setups) < SETUP_REPS:
        setups.append(setup_only())

    end_to_end = {
        "wall_s": statistics.median(child["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": child["peak_rss_mib"],
    }
    metrics = end_to_end if not args.trace else child["per_layer"]
    units = END_TO_END if not args.trace else PER_LAYER
    failed = sum(not c["ok"] for c in child["checks"])
    result = {
        "correct": failed == 0,
        "attempted": len(child["checks"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": _provenance(nproc, child, args),
        "end_to_end": end_to_end,
        "per_layer": child.get("per_layer"),
        "samples": {"setup_s": setups, "wall_s": child["walls"], "traced_wall_s": child["traced_walls"]},
        "checks": child["checks"],
        "spans": child.get("spans", []),
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure for this long (at least one iteration)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        result, record = run(args)
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    print(f"heavytail-pa benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(record["provenance"], default=float))
    samples = record["samples"]
    print(f"samples: {len(samples['wall_s'])} untraced and {len(samples['traced_wall_s'])} traced iterations, "
          f"{len(samples['setup_s'])} set-ups")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print(f"checks: {result['attempted'] - result['failed']}/{result['attempted']} passed; record in {path}")
    print(json.dumps(result, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
