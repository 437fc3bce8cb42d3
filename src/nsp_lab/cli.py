"""Command-line interface.

Subcommands: nsc, probe, recover, width, tradeoff, mc, boundary, ce1,
suite.  Global flags: --seed, --threads, --out, --format {csv,json},
--config FILE (plain key=value lines; explicit flags override file
values).  Exit codes: 0 success, 1 criterion failure, 2 usage error.

Outputs are deterministic for a fixed config and seed: floats are printed
with 17 significant digits, JSON keys are sorted, and no timestamps are
embedded (the suite bundle, which records runtimes, is the documented
exception).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .experiments import (
    ExperimentConfig,
    _fmt,
    config_hash,
    emit_plot_data,
    mc_probability,
    verify_counterexample1,
)
from .measures import CostFunction, parse_measure
from .nsp import nsc, rrc_probe
from .solver import RecoveryProblem, solve_noiseless, solve_noisy
from .subspaces import MeasurementMatrix, null_space, read_matrix_csv
from .width import tradeoff, width_extended, width_mc
from .suite import run_suite

__all__ = ["main"]


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [float(x) for x in np.ravel(v)]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    return v


def _emit(rows, fmt, out):
    """Serialize a list of flat dicts as CSV (header + rows) or JSON."""
    rows = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        text = json.dumps(rows if len(rows) != 1 else rows[0], sort_keys=True, indent=2,
                          default=_fmt) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = list(rows[0].keys()) if rows else []
        writer.writerow(keys)
        for row in rows:
            writer.writerow([
                json.dumps(row[k]) if isinstance(row[k], (list, dict)) else _fmt(row[k])
                for k in keys
            ])
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _args_hash(args, keys) -> str:
    return config_hash({k: getattr(args, k, None) for k in keys})


def _load_config(path) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill namespace entries that are still None from the config file."""
    if getattr(args, "config", None):
        file_cfg = _load_config(args.config)
        for key, raw in file_cfg.items():
            if getattr(args, key, "missing") is None:
                setattr(args, key, raw)
    return args


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsp-lab",
        description="null-space recovery certificates, widths and robustness constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", default=None, help="key=value file; flags override")

    p = sub.add_parser("nsc", help="null space constant of a matrix null space")
    add_common(p)
    p.add_argument("--matrix", default=None, help="CSV file with a shape header")
    p.add_argument("--measure", default=None, help='e.g. "lp(p=0.5)"')
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("probe", help="perturbed-inequality violation search")
    add_common(p)
    p.add_argument("--matrix", default=None)
    p.add_argument("--measure", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("recover", help="penalty-minimizing recovery")
    add_common(p)
    p.add_argument("--matrix", default=None)
    p.add_argument("--y", default=None, help="CSV file holding the measurement vector")
    p.add_argument("--measure", default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method", choices=("descent", "irls", "enumerate"), default=None)

    p = sub.add_parser("width", help="Monte Carlo Gaussian width of the failure section")
    add_common(p)
    p.add_argument("--measure", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--d", type=float, default=None, help="also estimate the d-extended width")

    p = sub.add_parser("tradeoff", help="rate-robustness tradeoff sweep")
    add_common(p)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gamma-sweep", dest="gamma_sweep", default=None, help="lo:hi:step")

    p = sub.add_parser("mc", help="Monte Carlo recovery probabilities")
    add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--measure", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--d-grid", dest="d_grid", default=None, help="comma-separated radii")
    p.add_argument("--source", choices=("gaussian_iid", "haar_nullspace", "file"), default=None)
    p.add_argument("--matrix", default=None)

    p = sub.add_parser("boundary", help="two-parameter region map")
    add_common(p)
    p.add_argument("--measure", default=None)
    p.add_argument("--grid", default=None, help="RxC, e.g. 200x200")
    p.add_argument("--domain", default=None, help="a_max,b_max")

    p = sub.add_parser("ce1", help="verify the explicit boundary instance")
    add_common(p)
    p.add_argument("--d-list", dest="d_list", default=None, help="comma-separated radii")

    p = sub.add_parser("suite", help="run a verification suite")
    add_common(p)
    p.add_argument("--name", default=None, choices=("paper_checks", "quick"))

    return parser


def _cmd_nsc(args) -> int:
    _require(args, ["matrix", "measure", "k"])
    a = MeasurementMatrix(read_matrix_csv(args.matrix))
    cost = CostFunction(parse_measure(args.measure), a.shape[1])
    report = nsc(null_space(a), cost, int(args.k), seed=args.seed)
    _emit([{
        "config": _args_hash(args, ("command", "matrix", "measure", "k", "seed")),
        "theta": report.theta,
        "witness_z": report.witness_z,
        "witness_T": list(report.witness_T),
        "method": report.method,
        "evaluations": report.evaluations,
        "is_lower_bound": report.is_lower_bound,
    }], args.format or "json", args.out)
    return 0


def _cmd_probe(args) -> int:
    _require(args, ["matrix", "measure", "k", "d"])
    a = MeasurementMatrix(read_matrix_csv(args.matrix))
    cost = CostFunction(parse_measure(args.measure), a.shape[1])
    budget = int(args.budget) if args.budget is not None else 200_000
    probe = rrc_probe(null_space(a), cost, int(args.k), float(args.d),
                      budget=budget, seed=args.seed)
    row = {
        "config": _args_hash(args, ("command", "matrix", "measure", "k", "d", "budget", "seed")),
        "d": probe.d, "outcome": probe.outcome, "evaluations": probe.evaluations,
    }
    if probe.violation is not None:
        row.update({
            "violation_z": probe.violation.z,
            "violation_n": probe.violation.n_vec,
            "violation_T": list(probe.violation.support),
            "deficit": probe.violation.deficit,
        })
    _emit([row], args.format or "json", args.out)
    return 0


def _cmd_recover(args) -> int:
    _require(args, ["matrix", "y", "measure"])
    a = MeasurementMatrix(read_matrix_csv(args.matrix))
    y = read_matrix_csv(args.y).ravel()
    cost = CostFunction(parse_measure(args.measure), a.shape[1])
    eps = float(args.eps) if args.eps is not None else 0.0
    k = int(args.k) if args.k is not None else max(1, a.shape[0] // 2)
    problem = RecoveryProblem(a, y, eps, cost, k)
    method = args.method or "descent"
    if eps == 0.0:
        result = solve_noiseless(problem, method=method, seed=args.seed)
    else:
        result = solve_noisy(problem, method=method, seed=args.seed)
    row = {
        "config": _args_hash(args, ("command", "matrix", "y", "measure", "eps", "k", "method", "seed")),
        "x_hat": result.x_hat,
        "cost_value": result.cost_value,
        "residual": result.residual,
        "method": result.method,
        "iterations": result.iterations,
        "optimal_guaranteed": result.optimal_guaranteed,
        "note": result.note,
    }
    if result.kkt_residual is not None:
        row["kkt_residual"] = result.kkt_residual
    _emit([row], args.format or "json", args.out)
    return 0


def _cmd_width(args) -> int:
    _require(args, ["measure", "n", "k"])
    cost = CostFunction(parse_measure(args.measure), int(args.n))
    draws = int(args.draws) if args.draws is not None else 10_000
    est = width_mc(cost, int(args.k), draws=draws, seed=args.seed)
    row = {
        "config": _args_hash(args, ("command", "measure", "n", "k", "draws", "d", "seed")),
        "mean": est.mean, "std_error": est.std_error, "samples": est.samples,
        "inner_search": est.inner_search, "is_lower_bound": est.is_lower_bound,
    }
    if args.d is not None:
        ext = width_extended(cost, int(args.k), float(args.d), draws=draws, seed=args.seed)
        row.update({"extended_mean": ext.mean, "extended_std_error": ext.std_error, "d": float(args.d)})
    _emit([row], args.format or "json", args.out)
    return 0


def _parse_sweep(text: str):
    lo, hi, step = (float(tok) for tok in text.split(":"))
    if step <= 0 or hi < lo:
        raise ValueError(f"bad sweep {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _cmd_tradeoff(args) -> int:
    _require(args, ["beta"])
    beta = float(args.beta)
    if args.gamma_sweep:
        gammas = _parse_sweep(args.gamma_sweep)
    elif args.gamma is not None:
        gammas = [float(args.gamma)]
    else:
        raise ValueError("provide --gamma or --gamma-sweep")
    rows = []
    for g in gammas:
        pt = tradeoff(beta, g)
        rows.append({
            "gamma": pt.gamma,
            "delta": pt.delta,
            "C": pt.C if pt.C is not None else math.nan,
            "oracle_C": pt.oracle_constant if pt.oracle_constant is not None else math.nan,
            "gordon_bound": pt.gordon_bound,
            "config": _args_hash(args, ("command", "beta", "gamma", "gamma_sweep", "seed")),
        })
    _emit(rows, args.format or "csv", args.out)
    return 0


def _cmd_mc(args) -> int:
    _require(args, ["n", "m", "k"])
    d_grid = tuple(float(t) for t in (args.d_grid or "0.001").split(","))
    cfg = ExperimentConfig(
        n=int(args.n), m=int(args.m), k=int(args.k),
        measure=args.measure or "l1",
        trials=int(args.trials) if args.trials is not None else 1000,
        d_grid=d_grid, seed=args.seed,
        matrix_source=args.source or "gaussian_iid",
        matrix_file=args.matrix,
    )
    summary = mc_probability(cfg, threads=args.threads or 1)
    if not summary.trials:
        print(f"nsp-lab: all {summary.failures} trials failed", file=sys.stderr)
        return 1
    rows = [{
        "quantity": "erc",
        "estimate": summary.erc.p_hat,
        "ci_low": summary.erc.low,
        "ci_high": summary.erc.high,
        "trials": summary.trials,
        "boundary_fraction": summary.boundary_fraction,
        "failures": summary.failures,
        "config": config_hash(cfg.to_dict()),
    }]
    for d, ci in summary.rrc.items():
        rows.append({
            "quantity": f"rrc@d={d:g}",
            "estimate": ci.p_hat,
            "ci_low": ci.low,
            "ci_high": ci.high,
            "trials": summary.trials,
            "boundary_fraction": summary.boundary_fraction,
            "failures": summary.failures,
            "config": config_hash(cfg.to_dict()),
        })
    _emit(rows, args.format or "csv", args.out)
    return 0


def _cmd_boundary(args) -> int:
    _require(args, ["measure", "out"])
    grid_text = args.grid or "200x200"
    rows_cols = tuple(int(t) for t in grid_text.lower().split("x"))
    domain = tuple(float(t) for t in (args.domain or "2,2").split(","))
    emit_plot_data("boundary_map", args.out, seed=args.seed,
                   measure=args.measure, grid=rows_cols, domain=domain)
    return 0


def _cmd_ce1(args) -> int:
    d_list = tuple(float(t) for t in (args.d_list or "0.5,0.1,0.01,0.001").split(","))
    report = verify_counterexample1(d_list=d_list, seed=args.seed)
    cfg = _args_hash(args, ("command", "d_list", "seed"))
    rows = [{
        "config": cfg,
        "d": e.d, "t_star": e.t_star, "deficit": e.deficit,
        "epsilon": e.epsilon, "error_ratio": e.error_ratio,
        "ratio_guarantee": e.ratio_guarantee, "found": e.found,
    } for e in report.entries]
    _emit(rows, args.format or "json", args.out)
    if not report.passed:
        print("violation search FAILED for at least one radius", file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args) -> int:
    _require(args, ["name"])
    report = run_suite(args.name, seed=args.seed, out_path=args.out)
    return report.exit_status


_COMMANDS = {
    "nsc": _cmd_nsc,
    "probe": _cmd_probe,
    "recover": _cmd_recover,
    "width": _cmd_width,
    "tradeoff": _cmd_tradeoff,
    "mc": _cmd_mc,
    "boundary": _cmd_boundary,
    "ce1": _cmd_ce1,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args = _merge_config(args)
        args.seed = int(args.seed) if args.seed is not None else 0
        args.threads = int(args.threads) if args.threads is not None else 1
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"nsp-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
