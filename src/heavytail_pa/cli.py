"""Command-line interface.

Subcommands: simulate, analytic-pmf, sample-limit, density, angular,
estimate, compare, verify.  Tables, read or written, use the CSV
format of heavytail_pa.csvfile, whose reader rejects malformed rows;
structured reports are JSON.  Every report embeds its provenance: the
package, numpy and scipy versions, the argv, and where they apply the
resolved parameters, derived constants and seed; a CSV's metadata holds
the package version, parameters, derived constants and seed alone, so
the commands that write CSV import no scipy.
Only verify loads scipy.special, except for its uhat check: the other
commands need at most log Gamma, from math.lgamma.
Exit codes: 0 success, 1 validation or usage error, 2 numerical
failure.  Randomness comes only from the --seed flag of the two
commands that draw, simulate and sample-limit (default a fixed
constant, never the clock).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import DEFAULT_SEED, __version__
from .errors import HeavytailError, QuadratureFailure

if TYPE_CHECKING:
    from .params import ModelParams

# Each command imports what it runs, numpy included, so --version and the
# top-level --help load none of it and a command loads none of the others' modules.


def _resolve_params(args) -> ModelParams:
    from .params import ModelParams, load_params, validate

    if args.params:
        p = load_params(args.params)
    else:
        p = ModelParams(args.alpha, args.beta, args.gamma, args.delta_in, args.delta_out)
    return validate(p)


def _config_block(args, params: ModelParams | None = None, seed=None) -> dict:
    import numpy as np
    import scipy  # for its version alone: only a JSON report loads it

    from .params import derive

    block = {"version": __version__, "numpy": np.__version__, "scipy": scipy.__version__}
    if params is not None:
        block["params"] = params.as_dict()
        try:
            block["derived"] = derive(params).as_dict()
        except HeavytailError:
            block["derived"] = None
    if seed is not None:
        block["seed"] = seed
    block["argv"] = args.argv
    return block


def _meta_lines(params: ModelParams, seed=None) -> dict:
    from .params import derive

    flat = {"version": __version__, **params.as_dict()}
    try:
        flat.update(derive(params).as_dict())
    except HeavytailError:
        pass
    if seed is not None:
        flat["seed"] = seed
    return flat


def _add_param_flags(sub):
    sub.add_argument("--params", help="key=value parameter file")
    sub.add_argument("--alpha", type=float, default=0.3)
    sub.add_argument("--beta", type=float, default=0.5)
    sub.add_argument("--gamma", type=float, default=0.2)
    sub.add_argument("--delta-in", dest="delta_in", type=float, default=1.0)
    sub.add_argument("--delta-out", dest="delta_out", type=float, default=1.0)


def _write_json(path, payload) -> None:
    import json

    text = json.dumps(payload, indent=2, default=float)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_simulate(args) -> int:
    from .census import degree_counts
    from .growth import simulate

    params = _resolve_params(args)
    graph = simulate(args.edges, params, args.seed)
    if args.out:
        graph.to_binary(args.out)
    if args.counts:
        degree_counts(graph).to_csv(args.counts, metadata=_meta_lines(params, args.seed))
    print(
        f"simulated n={graph.edge_count} edges, N={graph.node_count} nodes "
        f"(N/n = {graph.node_count / graph.edge_count:.4f})"
    )
    return 0


def _cmd_analytic_pmf(args) -> int:
    import numpy as np

    from .csvfile import write_csv
    from .limit_dist import LimitDistribution

    params = _resolve_params(args)
    table = LimitDistribution(params).pmf_table(args.imax, args.jmax)
    meta = _meta_lines(params)
    meta["captured_mass"] = float(table.sum())
    ii, jj = np.indices(table.shape)
    write_csv(args.out, ("i", "j", "p"), (ii.ravel(), jj.ravel(), table.ravel()), meta)
    print(f"wrote {table.size} masses, captured mass {table.sum():.6f}")
    return 0


def _cmd_sample_limit(args) -> int:
    import numpy as np

    from .csvfile import write_csv
    from .limit_dist import LimitDistribution

    params = _resolve_params(args)
    i_arr, o_arr = LimitDistribution(params).sample(args.n, np.random.default_rng(args.seed))
    meta = _meta_lines(params, args.seed)
    write_csv(args.out, ("I", "O"), (i_arr, o_arr), meta)
    print(f"wrote {args.n} draws to {args.out}")
    return 0


def _parse_points(spec: str, flag: str):
    """Accept 'lo:hi:count' (log-spaced when lo > 0) or comma lists of finite numbers."""
    import numpy as np

    try:
        if ":" in spec:
            lo, hi, count = spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            if count < 1:
                raise ValueError
            pts = np.geomspace(lo, hi, count) if lo > 0 else np.linspace(lo, hi, count)
        else:
            pts = np.array([float(v) for v in spec.split(",")])
        if not np.isfinite(pts).all():
            raise ValueError
    except ValueError:
        raise HeavytailError(f"{flag} {spec!r} is neither lo:hi:count with count >= 1 "
                             "nor a comma list of finite numbers") from None
    return [float(v) for v in pts]


def _cmd_density(args) -> int:
    from .csvfile import write_csv
    from .tail_measure import TailMeasure

    params = _resolve_params(args)
    tm = TailMeasure(params)
    xs = _parse_points(args.grid_x, "--grid-x")
    ys = _parse_points(args.grid_y, "--grid-y")
    component = args.component if args.component == "combined" else int(args.component)
    meta = _meta_lines(params)
    meta["component"] = component
    jobs = [(x, y) for x in xs for y in ys]
    vals = [tm.density(component, x, y) for x, y in jobs]
    write_csv(args.out, ("x", "y", "density"), (*zip(*jobs), vals), meta)
    print(f"wrote {len(jobs)} density values to {args.out}")
    return 0


def _cmd_angular(args) -> int:
    import numpy as np

    from .census import angular_histogram, standardize
    from .csvfile import read_csv, write_csv
    from .params import derive

    params = _resolve_params(args)
    d = derive(params)
    data = read_csv(args.samples, 2, np.int32)  # degree counts, int32 as sample-limit draws them
    std = standardize((data[:, 0], data[:, 1]), d)
    # each read of u is a fresh array, and angular_histogram forms u + v itself:
    # the radius is summed into it and the quantile may reorder it
    radius = std.u
    radius += std.v
    threshold = float(np.quantile(radius, args.threshold_quantile, overwrite_input=True))
    del radius  # not held beside the histogram's slices
    hist = angular_histogram(std, threshold, args.bins)
    meta = _meta_lines(params)
    meta.update(threshold=threshold, exceedances=hist.exceedances)
    columns = (hist.bin_edges[:-1], hist.bin_edges[1:], hist.masses)
    write_csv(args.out, ("angle_lo", "angle_hi", "mass"), columns, meta)
    print(f"wrote {args.bins} angular bins ({hist.exceedances} exceedances) to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    """Hill's estimate of one margin's tail index from its top order statistics."""
    from .census import JointCountTable, default_hill_k, hill_estimate, top_order_statistics

    marg_counts = JointCountTable.from_csv(args.counts).marginal(args.margin)
    k = args.k if args.k is not None else default_hill_k(int(marg_counts[1:].sum()))
    fit = hill_estimate(top_order_statistics(marg_counts, k + 1), k)
    report = {
        "method": "hill",
        "margin": args.margin,
        "index_estimate": fit.index_estimate,
        "k_used": fit.k_used,
        "stderr": fit.stderr,
        **_config_block(args),
        "counts": args.counts,
    }
    _write_json(args.out, report)
    return 0


def _cmd_compare(args) -> int:
    from .census import JointCountTable, JointPMF, compare_pmf, empirical_pmf
    from .limit_dist import LimitDistribution

    counts = JointCountTable.from_csv(args.counts)
    emp = empirical_pmf(counts)
    params = _resolve_params(args)
    ana = JointPMF(LimitDistribution(params).pmf_table(args.imax, args.jmax))
    cmp_report = compare_pmf(emp, ana, args.imax, args.jmax)
    report = {
        "config": _config_block(args, params),
        "i_max": args.imax,
        "j_max": args.jmax,
        "tv_distance": cmp_report.tv_distance,
        "max_abs_diff": cmp_report.max_abs_diff,
        "cells": [
            {"i": i, "j": j, "diff": float(cmp_report.diff[i, j])}
            for i in range(args.imax + 1)
            for j in range(args.jmax + 1)
        ],
    }
    _write_json(args.out, report)
    print(f"TV distance on box: {cmp_report.tv_distance:.6f}")
    return 0


# verify's own flags, each a keyword of the tauberian.CHECKS functions that
# take it; of the flags a check does not take, the first in this order is named
_VERIFY_FLAGS = (("k", int), ("h_grid", str), ("rel_tol", float), ("t_grid", str),
                 ("y_grid", str))


def _cmd_verify(args) -> int:
    """Run one check; unset flags take its defaults, flags it does not take are refused."""
    import inspect

    from . import tauberian

    check = tauberian.CHECKS[args.check]
    given = {name: getattr(args, name) for name, _ in _VERIFY_FLAGS if getattr(args, name) is not None}
    extra = [name for name in given if name not in inspect.signature(check).parameters]
    if extra:
        raise HeavytailError(f"--{extra[0].replace('_', '-')} does not apply to --check {args.check}")
    params = _resolve_params(args)
    for name, value in given.items():
        if name.endswith("_grid"):
            given[name] = _parse_points(value, "--" + name.replace("_", "-"))
    report = check(params, **given)
    report["config"] = _config_block(args, params)
    _write_json(args.out, report)
    print(f"{args.check}: {'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 2


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _probability(text: str) -> float:
    """An argparse type: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:  # False for NaN too
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


class _CheckNames:
    """verify's --check choices, the keys of tauberian.CHECKS, read only
    when argparse tests or prints a choice, so building the parser loads
    no numerics."""

    def __iter__(self):
        from . import tauberian

        return iter(tauberian.CHECKS)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="heavytail-pa", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("simulate", help="grow a graph and write edge list / degree counts")
    _add_param_flags(s)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--edges", type=_positive_int, required=True,
                   help="the graph's edge count, its one-edge seed included")
    s.add_argument("--out", help="binary edge-list output path")
    s.add_argument("--counts", help="degree-count CSV output path")
    s.set_defaults(fn=_cmd_simulate)

    s = sp.add_parser("analytic-pmf", help="tabulate the limiting joint degree law")
    _add_param_flags(s)
    s.add_argument("--imax", type=int, default=200)
    s.add_argument("--jmax", type=int, default=200)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_analytic_pmf)

    s = sp.add_parser("sample-limit", help="draw iid pairs from the limiting law")
    _add_param_flags(s)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_sample_limit)

    s = sp.add_parser("density", help="tabulate tail-measure densities on a grid")
    _add_param_flags(s)
    s.add_argument("--component", choices=["1", "2", "combined"], default="combined")
    s.add_argument("--grid-x", default="0.5:5:9", help="lo:hi:count (log-spaced) or comma list")
    s.add_argument("--grid-y", default="0.5:5:9")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_density)

    s = sp.add_parser("angular", help="angular histogram of standardized samples")
    _add_param_flags(s)
    s.add_argument("--samples", required=True, help="CSV with columns I,O")
    s.add_argument("--threshold-quantile", type=_probability, default=0.999)
    s.add_argument("--bins", type=int, default=10)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_angular)

    s = sp.add_parser("estimate", help="tail-index estimates from degree counts")
    s.add_argument("--counts", required=True)
    s.add_argument("--margin", choices=["in", "out"], default="in")
    s.add_argument("--k", type=int, default=None, help="hill order statistics (default sqrt(n))")
    s.add_argument("--out", default="-")
    s.set_defaults(fn=_cmd_estimate)

    s = sp.add_parser("compare", help="empirical counts vs the analytic law on a box")
    _add_param_flags(s)
    s.add_argument("--counts", required=True)
    s.add_argument("--imax", type=int, default=10)
    s.add_argument("--jmax", type=int, default=10)
    s.add_argument("--out", default="-")
    s.set_defaults(fn=_cmd_compare)

    s = sp.add_parser("verify", help="transform/measure scaling-limit checks")
    _add_param_flags(s)
    # choices set after add_argument, whose metavar check would read them at once
    s.add_argument("--check", required=True).choices = _CheckNames()
    for name, kind in _VERIFY_FLAGS:
        s.add_argument("--" + name.replace("_", "-"), type=kind)
    s.add_argument("--out", default="-")
    s.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except QuadratureFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (HeavytailError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
