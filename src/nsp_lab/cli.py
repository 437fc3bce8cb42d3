"""Command-line interface.

Subcommands: nsc, probe, recover, width, tradeoff, mc, boundary, ce1,
suite.  Global flags: --seed, --threads, --out, --format {csv,json},
--config FILE.  Each ``key=value`` line of a config file is the flag
``--key=value``, given before the command line's own flags: it has the
flag's type and choices, an unknown key exits 2, a flag on the command
line wins, and the ``config`` hash does not depend on where a value came
from.  Exit codes: 0 success, 1 criterion failure, 2 usage error.

Outputs are deterministic for a fixed config and seed: floats are printed
with 17 significant digits, JSON keys are sorted, and no timestamps are
embedded (the suite bundle, which records runtimes, is the documented
exception).  JSON output is strict: inf and nan are written as null.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .experiments import ExperimentConfig, config_hash, mc_probability, verify_counterexample1
from .measures import CostFunction, parse_measure
from .nsp import nsc, region_boundary_map, rrc_probe
from .solver import RecoveryProblem, solve_noiseless, solve_noisy
from .subspaces import MeasurementMatrix, null_space, read_matrix_csv
from .width import tradeoff, width_extended, width_mc
from .suite import run_suite

__all__ = ["main"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [float(x) for x in np.ravel(v)]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    return v


def _null_if_not_finite(v):
    """JSON has no token for inf or nan: they are written as null."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, list):
        return [_null_if_not_finite(x) for x in v]
    if isinstance(v, dict):
        return {k: _null_if_not_finite(x) for k, x in v.items()}
    return v


def _emit(rows, fmt, out):
    """Serialize a list of flat dicts as CSV (header + rows) or strict JSON."""
    rows = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        rows = _null_if_not_finite(rows)
        text = json.dumps(rows if len(rows) != 1 else rows[0], sort_keys=True, indent=2,
                          default=_fmt, allow_nan=False) + "\n"
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


def _load_config(path) -> list:
    """The flag tokens ``--key=value`` of a file of ``key=value`` lines."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            tokens.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return tokens


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _given(args, *names, **renamed) -> dict:
    """Keyword arguments for the options the user set, so that the library's
    defaults apply to the rest; ``renamed`` maps a keyword to its option."""
    pairs = [(n, n) for n in names] + list(renamed.items())
    return {kw: getattr(args, opt) for kw, opt in pairs if getattr(args, opt) is not None}


def _args_hash(args) -> str:
    """The ``config`` hash: the command, its options as parsed, and the seed."""
    names = [name for name, _ in _SUBCOMMANDS[args.command][3]]
    return config_hash({k: getattr(args, k) for k in ("command", "seed", *names)})


def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.split(","))


def _matrix_and_cost(args):
    a = MeasurementMatrix(read_matrix_csv(args.matrix))
    return a, CostFunction(parse_measure(args.measure), a.shape[1])


def _cmd_nsc(args) -> int:
    _require(args, ["matrix", "measure", "k"])
    a, cost = _matrix_and_cost(args)
    report = nsc(null_space(a), cost, args.k, seed=args.seed)
    _emit([{
        "config": _args_hash(args),
        "theta": report.theta,
        "witness_z": report.witness_z,
        "witness_T": list(report.witness_T),
        "method": report.method,
        "evaluations": report.evaluations,
        "is_lower_bound": report.is_lower_bound,
    }], args.format, args.out)
    return 0


def _cmd_probe(args) -> int:
    _require(args, ["matrix", "measure", "k", "d"])
    a, cost = _matrix_and_cost(args)
    probe = rrc_probe(null_space(a), cost, args.k, args.d, seed=args.seed,
                      **_given(args, "budget"))
    row = {
        "config": _args_hash(args),
        "d": probe.d, "outcome": probe.outcome, "evaluations": probe.evaluations,
    }
    if probe.violation is not None:
        row.update({
            "violation_z": probe.violation.z,
            "violation_n": probe.violation.n_vec,
            "violation_T": list(probe.violation.support),
            "deficit": probe.violation.deficit,
        })
    _emit([row], args.format, args.out)
    return 0


def _cmd_recover(args) -> int:
    _require(args, ["matrix", "y", "measure"])
    a, cost = _matrix_and_cost(args)
    y = read_matrix_csv(args.y).ravel()
    eps = args.eps if args.eps is not None else 0.0
    k = args.k if args.k is not None else max(1, a.shape[0] // 2)
    if eps != 0.0 and args.method is not None:
        raise ValueError("--method applies to noiseless recovery (--eps 0) only")
    solve = solve_noiseless if eps == 0.0 else solve_noisy
    result = solve(RecoveryProblem(a, y, eps, cost, k), seed=args.seed, **_given(args, "method"))
    row = {
        "config": _args_hash(args),
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
    _emit([row], args.format, args.out)
    return 0


def _cmd_width(args) -> int:
    _require(args, ["measure", "n", "k"])
    cost = CostFunction(parse_measure(args.measure), args.n)
    draws = _given(args, "draws")
    est = width_mc(cost, args.k, seed=args.seed, **draws)
    row = {
        "config": _args_hash(args),
        "mean": est.mean, "std_error": est.std_error, "samples": est.samples,
        "inner_search": est.inner_search, "is_lower_bound": est.is_lower_bound,
    }
    if args.d is not None:
        ext = width_extended(cost, args.k, args.d, seed=args.seed, **draws)
        row.update({"extended_mean": ext.mean, "extended_std_error": ext.std_error, "d": args.d})
    _emit([row], args.format, args.out)
    return 0


def _parse_sweep(text: str):
    lo, hi, step = (float(tok) for tok in text.split(":"))
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0 or hi < lo:
        raise ValueError(f"bad sweep {text!r}: need finite lo <= hi and step > 0")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _cmd_tradeoff(args) -> int:
    _require(args, ["beta"])
    if args.gamma_sweep:
        gammas = _parse_sweep(args.gamma_sweep)
    elif args.gamma is not None:
        gammas = [args.gamma]
    else:
        raise ValueError("provide --gamma or --gamma-sweep")
    rows = []
    for g in gammas:
        pt = tradeoff(args.beta, g)
        rows.append({
            "gamma": pt.gamma,
            "delta": pt.delta,
            "C": pt.C if pt.C is not None else math.nan,
            "oracle_C": pt.oracle_constant if pt.oracle_constant is not None else math.nan,
            "gordon_bound": pt.gordon_bound,
            "config": _args_hash(args),
        })
    _emit(rows, args.format, args.out)
    return 0


def _cmd_mc(args) -> int:
    _require(args, ["n", "m", "k"])
    cfg = ExperimentConfig(n=args.n, m=args.m, k=args.k, seed=args.seed,
                           **_given(args, "measure", "trials", "d_grid",
                                    matrix_source="source", matrix_file="matrix"))
    summary = mc_probability(cfg, **_given(args, "threads"))
    if not summary.trials:
        print(f"nsp-lab: all {summary.failures} trials failed", file=sys.stderr)
        return 1
    estimates = [("erc", summary.erc)] + [(f"rrc@d={d:g}", ci) for d, ci in summary.rrc.items()]
    _emit([{
        "quantity": quantity,
        "estimate": ci.p_hat,
        "ci_low": ci.low,
        "ci_high": ci.high,
        "trials": summary.trials,
        "boundary_fraction": summary.boundary_fraction,
        "failures": summary.failures,
        "config": config_hash(cfg.to_dict()),
    } for quantity, ci in estimates], args.format, args.out)
    return 0


def _cmd_boundary(args) -> int:
    _require(args, ["measure", "out"])
    grid = tuple(int(t) for t in (args.grid or "200x200").lower().split("x"))
    domain = _floats(args.domain or "2,2")
    rmap = region_boundary_map(parse_measure(args.measure), grid=grid, domain=domain)
    # gnuplot-ready columns; the hash keeps its ``kind`` key, so a map keeps its name
    digest = config_hash({"kind": "boundary_map", "seed": args.seed, "measure": args.measure,
                          "grid": grid, "domain": domain})
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# nsp-lab boundary_map\n# seed={args.seed} config={digest}\n# a b in_region_a\n")
        for a, flags in zip(rmap.a_values, rmap.region_a):
            for b, flag in zip(rmap.b_values, flags):
                fh.write(f"{_fmt(float(a))} {_fmt(float(b))} {int(flag)}\n")
    return 0


def _cmd_ce1(args) -> int:
    d_list = {"d_list": _floats(args.d_list)} if args.d_list is not None else {}
    report = verify_counterexample1(**d_list)
    cfg = _args_hash(args)
    rows = [{
        "config": cfg,
        "d": e.d, "t_star": e.t_star, "deficit": e.deficit,
        "epsilon": e.epsilon, "error_ratio": e.error_ratio,
        "ratio_guarantee": e.ratio_guarantee, "found": e.found,
    } for e in report.entries]
    _emit(rows, args.format, args.out)
    if not report.passed:
        print("violation search FAILED for at least one radius", file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args) -> int:
    _require(args, ["name"])
    report = run_suite(args.name, seed=args.seed, out_path=args.out)
    return report.exit_status


def _opt(name, type=str, choices=None, help=None):
    return name, {"type": type, "choices": choices, "help": help}


_COMMON = (_opt("seed", int), _opt("threads", int), _opt("out"),
           _opt("format", choices=("csv", "json")),
           _opt("config", help="key=value file; flags override"))

# One table per subcommand: handler, help, default output format, and the
# options (name, type, choices, help).  The table builds the parser and names
# the options of the ``config`` hash.  An option left unset stays None and
# the handler does not pass it on, so the library's own default applies.
_SUBCOMMANDS = {
    "nsc": (_cmd_nsc, "null space constant of a matrix null space", "json", (
        _opt("matrix", help="CSV file with a shape header"),
        _opt("measure", help='e.g. "lp(p=0.5)"'), _opt("k", int))),
    "probe": (_cmd_probe, "perturbed-inequality violation search", "json", (
        _opt("matrix"), _opt("measure"), _opt("k", int), _opt("d", float),
        _opt("budget", int))),
    "recover": (_cmd_recover, "penalty-minimizing recovery", "json", (
        _opt("matrix"), _opt("y", help="CSV file holding the measurement vector"),
        _opt("measure"), _opt("eps", float), _opt("k", int),
        _opt("method", choices=("descent", "irls", "enumerate"),
             help="noiseless solver, with --eps 0 only"))),
    "width": (_cmd_width, "Monte Carlo Gaussian width of the failure section", "json", (
        _opt("measure"), _opt("n", int), _opt("k", int), _opt("draws", int),
        _opt("d", float, help="also estimate the d-extended width"))),
    "tradeoff": (_cmd_tradeoff, "rate-robustness tradeoff sweep", "csv", (
        _opt("beta", float), _opt("gamma", float),
        _opt("gamma_sweep", help="lo:hi:step"))),
    "mc": (_cmd_mc, "Monte Carlo recovery probabilities", "csv", (
        _opt("n", int), _opt("m", int), _opt("k", int), _opt("measure"),
        _opt("trials", int), _opt("d_grid", _floats, help="comma-separated radii"),
        _opt("source", choices=("gaussian_iid", "haar_nullspace", "file")),
        _opt("matrix"))),
    "boundary": (_cmd_boundary, "two-parameter region map", None, (
        _opt("measure"), _opt("grid", help="RxC, e.g. 200x200"),
        _opt("domain", help="a_max,b_max"))),
    # the d-list stays text: ce1's config hash names it as written
    "ce1": (_cmd_ce1, "verify the explicit boundary instance", "json", (
        _opt("d_list", help="comma-separated radii"),)),
    "suite": (_cmd_suite, "run a verification suite", None, (
        _opt("name", choices=("paper_checks", "quick")),)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsp-lab",
        description="null-space recovery certificates, widths and robustness constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, fmt, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kwargs in _COMMON + options:
            p.add_argument("--" + name.replace("_", "-"), **kwargs)
        p.set_defaults(seed=0, format=fmt)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go first, so the command line's own flags win
            args = parser.parse_args([argv[0], *_load_config(args.config), *argv[1:]])
        return _SUBCOMMANDS[args.command][0](args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"nsp-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
