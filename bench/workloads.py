"""The benchmark's four workloads, run in a child process of ``run.py``.

Each workload times calls into the package's public functions from the
outside, at canonical parameters (0.3, 0.5, 0.2, 1, 1), and checks every
output against a bound.  The child protocol is:

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--setup-only]

It builds the workload's evaluators, prints ``READY`` (the parent times
set-up up to that line), runs iterations while the next one still fits
in ``--seconds`` (at least one; with ``--trace 1`` at least one untraced
and one traced, alternating), then prints one JSON line with the
samples, the check results and the per-layer metrics.  Checks run
outside the timed part of an iteration.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import Tracer, self_times, total

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CANONICAL = dict(alpha=0.3, beta=0.5, gamma=0.2, delta_in=1.0, delta_out=1.0)

# Monte-Carlo checks fail beyond this many standard errors.  Wide enough
# to absorb the finite-size bias of the Hill estimator and of the h = 1e4
# exceedance counts (both measured below 3 SE on several seeds).
Z_MAX = 6.0

FULL = dict(
    edges=1_000_000,
    pgf_grid=(0.2, 0.5, 0.8),
    pmf_box=200,
    draws=10_000_000,
    density_grid=40,
    cli_edges=200_000,
    cli_draws=1_000_000,
)
# Sizes for the benchmark's own tests: large enough that every check
# still passes, small enough to run in seconds.  The scaling workload
# has no size to shrink; its h grid is what it measures.
SMOKE = dict(
    edges=100_000,
    pgf_grid=(0.5,),
    pmf_box=200,
    draws=1_000_000,
    density_grid=4,
    cli_edges=100_000,
    cli_draws=100_000,
)

H_GRID = (1e2, 1e4, 1e6)
RECT_CORNERS = ((1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (1, 4), (0.5, 0.5), (0.5, 2), (2, 0.5), (4, 4))
EXCEEDANCE_H = 1e4
MARGINAL_X = (0.5, 1.0, 2.0, 5.0)


def _h_label(h: float) -> str:
    return f"h{h:.0e}".replace("e+0", "e")


CLI_STEPS = (
    "version",
    "simulate",
    "estimate",
    "compare",
    "analytic_pmf",
    "sample_limit",
    "angular",
    "density",
    "verify_truncation",
    "verify_measure",
    "verify_marginal",
)
MODULES = ("simulate", "census", "limit_dist", "tail_measure", "tauberian", "cli", "bench")

PER_LAYER = {
    "simulate.grow_s": "s",
    "simulate.edges_per_s": "edges/s",
    "simulate.bytes_per_edge": "B",
    "simulate.binary_roundtrip_s": "s",
    "census.degree_counts_s": "s",
    "census.compare_s": "s",
    "census.hill_s": "s",
    "census.csv_roundtrip_s": "s",
    "limit_dist.pgf_s": "s",
    "limit_dist.pmf_table_s": "s",
    "limit_dist.pmf_cells_per_s": "cells/s",
    "limit_dist.sample_s": "s",
    "limit_dist.draws_per_s": "draws/s",
    "tail_measure.density_s": "s",
    "tail_measure.density_evals_per_s": "evals/s",
    "tail_measure.rect_mass_s": "s",
    "tail_measure.angular_s": "s",
    **{f"tauberian.transform_s.{_h_label(h)}": "s" for h in H_GRID},
    "tauberian.uhat_rhs_s": "s",
    "tauberian.measure_check_s": "s",
    "tauberian.truncation_check_s": "s",
    "tauberian.marginal_check_s": "s",
    "tauberian.uhat_err.h1e6": "frac",
    "tauberian.remainder.h1e6": "1",
    "cli.import_s": "s",
    **{f"cli.{step}_s": "s" for step in CLI_STEPS[1:]},
    "cli.bytes_written": "B",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.overhead_frac": "frac",
    "checks_failed_frac": "frac",
    "checks_total": "count",
}


class Checks:
    """Pass/fail record of one run; every check attempted is kept."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def below(self, name: str, value: float, bound: float) -> None:
        self.add(name, value < bound, f"{value:.6g} < {bound:g}")

    def z_score(self, name: str, value: float, target: float, stderr: float) -> None:
        z = (value - target) / stderr
        self.add(name, abs(z) <= Z_MAX, f"{value:.6g} vs {target:.6g}: {z:+.2f} SE (bound {Z_MAX:g})")

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def _iteration_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# -- growth -------------------------------------------------------------------


class Growth:
    """Simulation route: grow, census, compare to the limit law, round-trip files."""

    def __init__(self, pa, sizes, workdir: Path):
        self.pa = pa
        self.sizes = sizes
        self.workdir = workdir
        self.params = pa.ModelParams(**CANONICAL)
        self.dist = pa.LimitDistribution(self.params)
        self.derived = pa.derive(self.params)
        # One graph seed for every run: peak memory and census time follow
        # the largest in- and out-degree, which are heavy-tailed, so from
        # seed to seed they swing far beyond any bound (see README.md).
        self.fixed_seed = pa.DEFAULT_SEED

    def run(self, seed: int, tr: Tracer) -> dict:
        pa, n = self.pa, self.sizes["edges"]
        with tr.span("simulate.simulate", edges=n):
            g = pa.simulate(n, self.params, seed)
        with tr.span("census.degree_counts"):
            counts = pa.degree_counts(g)
        with tr.span("census.empirical_pmf"):
            emp = pa.empirical_pmf(counts)
        with tr.span("limit_dist.pmf_table", cells=11 * 11):
            table = self.dist.pmf_table(10, 10)
        with tr.span("census.compare_pmf"):
            cmp = pa.compare_pmf(emp, pa.JointPMF(table), 10, 10)
        fits = {}
        for margin, degrees in (("in", g.in_degree), ("out", g.out_degree)):
            x = degrees[degrees > 0].astype(np.float64)
            with tr.span("census.hill_estimate", margin=margin):
                fits[margin] = pa.hill_estimate(x, pa.default_hill_k(x.size))
        path = self.workdir / "graph.bin"
        with tr.span("simulate.to_binary"):
            g.to_binary(path)
        with tr.span("simulate.from_binary"):
            g2 = pa.DirectedMultigraph.from_binary(path)
        path = self.workdir / "counts.csv"
        with tr.span("census.to_csv"):
            counts.to_csv(path, metadata={"seed": seed})
        with tr.span("census.from_csv"):
            counts2 = pa.JointCountTable.from_csv(path)
        return dict(graph=g, graph2=g2, counts=counts, counts2=counts2, table=table, cmp=cmp, fits=fits)

    def check(self, out: dict, checks: Checks) -> None:
        g, d = out["graph"], self.derived
        try:
            g.check_invariants()
            checks.add("growth.graph_invariants", True)
        except AssertionError as exc:
            checks.add("growth.graph_invariants", False, repr(exc))
        g2 = out["graph2"]
        checks.add(
            "growth.binary_roundtrip",
            g2.node_count == g.node_count
            and np.array_equal(g2.tails, g.tails)
            and np.array_equal(g2.heads, g.heads)
            and np.array_equal(g2.in_degree, g.in_degree),
        )
        c1, c2 = out["counts"].counts, out["counts2"].counts
        checks.add("growth.csv_roundtrip", c1.shape == c2.shape and np.array_equal(c1, c2))
        checks.add("growth.census_total", out["counts"].total_nodes == g.node_count)
        ratio = g.node_count / g.edge_count
        one_minus_beta = 1.0 - self.params.beta
        checks.below("growth.node_ratio_rel_dev", abs(ratio / one_minus_beta - 1.0), 0.01)
        checks.below("growth.tv_10x10", out["cmp"].tv_distance, 0.02)
        for margin, target in (("in", d.alpha_in - 1.0), ("out", d.alpha_out - 1.0)):
            fit = out["fits"][margin]
            checks.z_score(f"growth.hill_{margin}", fit.index_estimate, target, fit.stderr)

    def layer(self, spans, out: dict) -> dict:
        g = out["graph"]
        grow_s = total(spans, "simulate.simulate")
        nbytes = g.tails.nbytes + g.heads.nbytes + g.in_degree.nbytes + g.out_degree.nbytes
        return {
            "simulate.grow_s": grow_s,
            "simulate.edges_per_s": g.edge_count / grow_s,
            "simulate.bytes_per_edge": nbytes / g.edge_count,
            "simulate.binary_roundtrip_s": total(spans, "simulate.to_binary")
            + total(spans, "simulate.from_binary"),
            "census.degree_counts_s": total(spans, "census.degree_counts"),
            "census.compare_s": total(spans, "census.empirical_pmf") + total(spans, "census.compare_pmf"),
            "census.hill_s": total(spans, "census.hill_estimate"),
            "census.csv_roundtrip_s": total(spans, "census.to_csv") + total(spans, "census.from_csv"),
            **_pmf_table_metrics(spans),
        }


def _pmf_table_metrics(spans) -> dict:
    pmf_s = total(spans, "limit_dist.pmf_table")
    cells = sum(s.attrs["cells"] for s in spans if s.name == "limit_dist.pmf_table")
    return {"limit_dist.pmf_table_s": pmf_s, "limit_dist.pmf_cells_per_s": cells / pmf_s}


# -- limit_law ----------------------------------------------------------------


class LimitLaw:
    """Limit-law route: pgf and pmf quadratures, the sampler, tail-measure grids."""

    def __init__(self, pa, sizes, workdir: Path):
        self.pa = pa
        self.sizes = sizes
        self.params = pa.ModelParams(**CANONICAL)
        self.dist = pa.LimitDistribution(self.params)
        self.tm = pa.TailMeasure(self.params)
        self.derived = self.tm.derived
        self.density_grid = np.geomspace(0.5, 5.0, sizes["density_grid"])

    def run(self, seed: int, tr: Tracer) -> dict:
        pa, sz = self.pa, self.sizes
        pgf = {}
        points = [(x, y) for x in sz["pgf_grid"] for y in sz["pgf_grid"]] + [(1.0, 1.0)]
        for x, y in points:
            with tr.span("limit_dist.pgf"):
                pgf[(x, y)] = self.dist.pgf(x, y)
        box = sz["pmf_box"]
        with tr.span("limit_dist.pmf_table", cells=(box + 1) ** 2):
            table = self.dist.pmf_table(box, box)
        with tr.span("limit_dist.sample", draws=sz["draws"]):
            i_draws, o_draws = self.dist.sample(sz["draws"], np.random.default_rng(seed))
        grid = self.density_grid
        with tr.span("tail_measure.density", evals=grid.size**2):
            density = np.array([[self.tm.density("combined", x, y) for y in grid] for x in grid])
        rect = []
        for x, y in RECT_CORNERS:
            with tr.span("tail_measure.rect_mass"):
                rect.append(self.tm.rect_mass("combined", x, y))
        marginal = []
        for x in MARGINAL_X:
            with tr.span("tail_measure.marginal_mass_closed_form"):
                closed = self.tm.marginal_mass_closed_form(1, x)
            with tr.span("tail_measure.rect_mass"):
                marginal.append((closed, self.tm.rect_mass(1, x, 0.0)))
        with tr.span("tail_measure.standardize"):
            std = pa.standardize((i_draws, o_draws), self.derived)
        threshold = float(np.quantile(std.u + std.v, 0.999))
        with tr.span("tail_measure.angular_histogram"):
            hist = pa.angular_histogram(std, threshold, 10)
        return dict(pgf=pgf, table=table, draws=(i_draws, o_draws), density=density, rect=rect,
                    marginal=marginal, hist=hist)

    def check(self, out: dict, checks: Checks) -> None:
        pgf, d = out["pgf"], self.derived
        checks.below("limit_law.pgf_normalization", abs(pgf[(1.0, 1.0)] - 1.0), 1e-10)
        grid = self.sizes["pgf_grid"]
        vals = np.array([[pgf[(x, y)] for y in grid] for x in grid])
        checks.add(
            "limit_law.pgf_monotone",
            np.all((vals > 0) & (vals < 1)) and np.all(np.diff(vals, axis=0) > 0) and np.all(np.diff(vals, axis=1) > 0),
        )
        table = out["table"]
        captured = float(table.sum())
        checks.add("limit_law.pmf_captured_mass", np.all(table >= 0) and 0.999 < captured <= 1.0 + 1e-12,
                   f"captured {captured:.8f}")
        i_draws, o_draws = out["draws"]
        n = i_draws.size
        inside = (i_draws <= 10) & (o_draws <= 10)
        emp = np.bincount(11 * i_draws[inside] + o_draws[inside], minlength=121).reshape(11, 11) / n
        checks.below("limit_law.sampler_tv_10x10", 0.5 * float(np.abs(emp - table[:11, :11]).sum()), 0.02)
        thr_i, thr_o = EXCEEDANCE_H**d.c1, EXCEEDANCE_H**d.c2
        for (x, y), mass in zip(RECT_CORNERS, out["rect"]):
            hits = np.count_nonzero((i_draws > thr_i * x) & (o_draws > thr_o * y))
            expected = n * mass / EXCEEDANCE_H
            checks.z_score(f"limit_law.exceedances_{x:g}_{y:g}", hits, expected, math.sqrt(expected))
        worst = max(abs(rect / closed - 1.0) for closed, rect in out["marginal"])
        checks.below("limit_law.closed_form_marginal", worst, 1e-8)
        density = out["density"]
        checks.add("limit_law.density_positive", np.all(np.isfinite(density)) and np.all(density > 0))
        checks.below("limit_law.density_homogeneity", self._homogeneity_error(density), 1e-8)
        checks.below("limit_law.angular_mass_sum", abs(float(out["hist"].masses.sum()) - 1.0), 1e-12)

    def _homogeneity_error(self, density) -> float:
        """density(c^c1 x, c^c2 y) c^(1+c1+c2) = density(x, y) at grid diagonal points."""
        d, grid = self.derived, self.density_grid
        power = 1.0 + d.c1 + d.c2
        worst = 0.0
        for k in range(0, grid.size, max(1, grid.size // 4)):
            x = y = grid[k]
            for c in (0.1, 10.0):
                scaled = self.tm.density("combined", c**d.c1 * x, c**d.c2 * y) * c**power
                worst = max(worst, abs(scaled / density[k, k] - 1.0))
        return worst

    def layer(self, spans, out: dict) -> dict:
        sample_s = total(spans, "limit_dist.sample")
        density_s = total(spans, "tail_measure.density")
        return {
            "limit_dist.pgf_s": total(spans, "limit_dist.pgf"),
            **_pmf_table_metrics(spans),
            "limit_dist.sample_s": sample_s,
            "limit_dist.draws_per_s": self.sizes["draws"] / sample_s,
            "tail_measure.density_s": density_s,
            "tail_measure.density_evals_per_s": out["density"].size / density_s,
            "tail_measure.rect_mass_s": total(spans, "tail_measure.rect_mass")
            + total(spans, "tail_measure.marginal_mass_closed_form"),
            "tail_measure.angular_s": total(spans, "tail_measure.standardize")
            + total(spans, "tail_measure.angular_histogram"),
        }


# -- scaling ------------------------------------------------------------------


class Scaling:
    """Transform and scaling route on a fresh k = 3 derivative measure per iteration.

    The protocol checks run after the h = 1e6 transform in a fixed order,
    so they see the in-object cache that call filled.
    """

    def __init__(self, pa, sizes, workdir: Path):
        self.pa = pa
        self.params = pa.ModelParams(**CANONICAL)
        self.b = pa.ScalingFunctions.for_derivative_measure(self.params, 3)
        self.measure = pa.build_derivative_measure(3, self.params)

    def run(self, seed: int, tr: Tracer) -> dict:
        pa, u = self.pa, self.measure
        transforms = {}
        for h in H_GRID:
            with tr.span("tauberian.transform_scaling", h=h):
                transforms[h] = pa.transform_scaling(u, self.b, h, 1.0, 1.0, with_report=True)
        with tr.span("tauberian.uhat_limit_rhs"):
            rhs = pa.uhat_limit_rhs(3, self.params, 1.0, 1.0)
        reports = {}
        for name, fn in (("measure", pa.measure_check), ("truncation", pa.truncation_check),
                         ("marginal", pa.marginal_check)):
            with tr.span(f"tauberian.{name}_check"):
                reports[name] = fn(self.params, k=3, measure=u)
        return dict(transforms=transforms, rhs=rhs, reports=reports)

    def next_iteration(self) -> None:
        """Replace the measure so each iteration starts with cold caches."""
        self.measure = self.pa.build_derivative_measure(3, self.params)

    def check(self, out: dict, checks: Checks) -> None:
        errs = [abs(out["transforms"][h][0] / out["rhs"] - 1.0) for h in H_GRID]
        checks.add("scaling.uhat_err_h1e6", errs[-1] <= 0.05, f"{errs[-1]:.4g} <= 0.05")
        checks.add("scaling.uhat_err_decreasing", all(b < a for a, b in zip(errs, errs[1:])),
                   ", ".join(f"{e:.3g}" for e in errs))
        for name, report in out["reports"].items():
            checks.add(f"scaling.{name}_check_passed", report["passed"] is True)

    def layer(self, spans, out: dict) -> dict:
        value, report = out["transforms"][H_GRID[-1]]
        metrics = {
            f"tauberian.transform_s.{_h_label(h)}": total(spans, "tauberian.transform_scaling", h=h)
            for h in H_GRID
        }
        metrics.update({
            "tauberian.uhat_rhs_s": total(spans, "tauberian.uhat_limit_rhs"),
            "tauberian.measure_check_s": total(spans, "tauberian.measure_check"),
            "tauberian.truncation_check_s": total(spans, "tauberian.truncation_check"),
            "tauberian.marginal_check_s": total(spans, "tauberian.marginal_check"),
            "tauberian.uhat_err.h1e6": abs(value / out["rhs"] - 1.0),
            "tauberian.remainder.h1e6": report.remainder,
        })
        return metrics


# -- cli_pipeline -------------------------------------------------------------


def _data_rows(path: Path) -> list[list[str]]:
    """Rows of a CSV written by the CLI, without '#' metadata and header."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class CliPipeline:
    """The heavytail-pa CLI as a user runs it: one subprocess per command, files between them."""

    def __init__(self, pa, sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        self.version = pa.__version__
        self.alpha_in = pa.derive(pa.ModelParams(**CANONICAL)).alpha_in

    def run(self, seed: int, tr: Tracer) -> dict:
        d, sz = self.workdir / f"cli-{seed}", self.sizes
        d.mkdir()
        sim_seed, sample_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2) >> 1)
        commands = {
            "version": ["--version"],
            "simulate": ["simulate", "--edges", str(sz["cli_edges"]), "--seed", str(sim_seed),
                         "--out", d / "graph.bin", "--counts", d / "counts.csv"],
            "estimate": ["estimate", "--counts", d / "counts.csv", "--margin", "in", "--out", d / "estimate.json"],
            "compare": ["compare", "--counts", d / "counts.csv", "--out", d / "compare.json"],
            "analytic_pmf": ["analytic-pmf", "--imax", "200", "--jmax", "200", "--out", d / "pmf.csv"],
            "sample_limit": ["sample-limit", "--n", str(sz["cli_draws"]), "--seed", str(sample_seed),
                             "--out", d / "samples.csv"],
            "angular": ["angular", "--samples", d / "samples.csv", "--out", d / "angular.csv"],
            "density": ["density", "--out", d / "density.csv"],
            **{f"verify_{c}": ["verify", "--check", c, "--out", d / f"verify_{c}.json"]
               for c in ("truncation", "measure", "marginal")},
        }
        procs = {}
        for step in CLI_STEPS:
            argv = [sys.executable, "-m", "heavytail_pa.cli", *map(str, commands[step])]
            with tr.span(f"cli.{step}"):
                procs[step] = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        written = sum(p.stat().st_size for p in d.iterdir())
        return dict(dir=d, procs=procs, bytes_written=written)

    def check(self, out: dict, checks: Checks) -> None:
        d, procs = out["dir"], out["procs"]
        for step, proc in procs.items():
            checks.add(f"cli.{step}_exit0", proc.returncode == 0, proc.stderr.strip()[-300:])
        checks.add("cli.version_string", procs["version"].stdout.strip() == self.version)
        if not all(p.returncode == 0 for p in procs.values()):
            return
        line = procs["simulate"].stdout
        ratio = float(line.split("N/n = ")[1].split(")")[0])
        checks.below("cli.node_ratio_rel_dev", abs(ratio / (1.0 - CANONICAL["beta"]) - 1.0), 0.01)
        est = json.loads((d / "estimate.json").read_text())
        checks.z_score("cli.hill_in", est["index_estimate"], self.alpha_in - 1.0, est["stderr"])
        checks.below("cli.tv_10x10", json.loads((d / "compare.json").read_text())["tv_distance"], 0.02)
        pmf = np.array([float(r[2]) for r in _data_rows(d / "pmf.csv")])
        checks.add("cli.pmf_table", pmf.size == 201 * 201 and np.all(pmf >= 0) and 0.999 < pmf.sum() <= 1 + 1e-12,
                   f"{pmf.size} cells, mass {pmf.sum():.8f}")
        checks.add("cli.sample_rows", len(_data_rows(d / "samples.csv")) == self.sizes["cli_draws"])
        masses = np.array([float(r[2]) for r in _data_rows(d / "angular.csv")])
        checks.below("cli.angular_mass_sum", abs(masses.sum() - 1.0), 1e-12)
        dens = np.array([float(r[2]) for r in _data_rows(d / "density.csv")])
        checks.add("cli.density_grid", dens.size == 81 and np.all(np.isfinite(dens)) and np.all(dens > 0))
        for c in ("truncation", "measure", "marginal"):
            report = json.loads((d / f"verify_{c}.json").read_text())
            checks.add(f"cli.verify_{c}_passed", report["passed"] is True)

    def layer(self, spans, out: dict) -> dict:
        metrics = {"cli.import_s": total(spans, "cli.version")}
        metrics.update({f"cli.{step}_s": total(spans, f"cli.{step}") for step in CLI_STEPS[1:]})
        metrics["cli.bytes_written"] = out["bytes_written"]
        return metrics


WORKLOADS = {"growth": Growth, "limit_law": LimitLaw, "scaling": Scaling, "cli_pipeline": CliPipeline}


# -- the child process ---------------------------------------------------------


def _module_self_times(spans) -> dict:
    own = self_times(spans)
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    for s in spans:
        module = s.name.split(".")[0] if s.parent_id is not None else "bench"
        out[f"{module}.self_s"] += own[s.span_id]
    return out


def _peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import heavytail_pa as pa
    import scipy

    if not Path(pa.__file__).resolve().is_relative_to(SRC):
        print(f"heavytail_pa imported from {pa.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    workload = WORKLOADS[args.workload](pa, sizes, workdir)
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(workdir)
        return 0

    checks = Checks()
    walls = {False: [], True: []}
    layers, all_spans, seeds = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        seed = getattr(workload, "fixed_seed", None) or _iteration_seed(args.seed, i)
        tr = Tracer(f"{args.workload}-{args.seed}-{i}", traced)
        if i and hasattr(workload, "next_iteration"):
            workload.next_iteration()
        t0 = time.perf_counter()
        out = None
        try:
            with tr.span("bench.iteration"):
                out = workload.run(seed, tr)
        except Exception as exc:  # a library exception is a failed check, not a crash
            checks.add(f"{args.workload}.iteration_{i}", False, repr(exc))
        walls[traced].append(time.perf_counter() - t0)
        seeds.append(seed)
        if out is not None:
            try:
                workload.check(out, checks)
            except Exception as exc:  # an output the checks cannot read is wrong
                checks.add(f"{args.workload}.outputs_{i}", False, repr(exc))
            if traced:
                layers.append({**workload.layer(tr.spans, out), **_module_self_times(tr.spans)})
                all_spans.extend(tr.as_records())
        i += 1
        # Stop before an iteration that would overrun the budget, so a run
        # lasts about --seconds whatever the iteration length.
        elapsed = time.perf_counter() - start
        if elapsed * (i + 1) / i > args.seconds and (not args.trace or (walls[False] and walls[True])):
            break

    result = {
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mib": _peak_rss_mib(),
        "checks": checks.results,
        "iteration_seeds": seeds,
        "sizes": sizes,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "heavytail_pa": pa.__version__},
    }
    if args.trace:
        per_layer = {name: 0.0 for name in PER_LAYER}
        for name in per_layer:
            vals = [lay[name] for lay in layers if name in lay]
            if vals:
                per_layer[name] = statistics.median(vals)
        if walls[False] and walls[True]:
            untraced = statistics.median(walls[False])
            per_layer["trace.overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
        per_layer["checks_total"] = len(checks.results)
        per_layer["checks_failed_frac"] = checks.failed / len(checks.results)
        result["per_layer"] = per_layer
        result["spans"] = all_spans
    shutil.rmtree(workdir)
    print(json.dumps(result, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
