"""nsp-lab benchmark entry point.

    python3 nspbench/run.py --workload mc_certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a readable report (environment, metrics under the names
used in README.md, tail percentile, verdict digest, failure causes).
Spans of a traced run are written to ``.bench_out/``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported: the
# workloads are single-caller loops, and numpy's OpenBLAS otherwise starts
# one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from stats import summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("mc_certify", "noisy_recovery", "width_escape")
SETUP_PROBES = 5      # fresh processes timed from start to the first timed call
MAX_SECONDS = 120     # a run must end within 180 s, set-up probes included

# Workload-specific names of the end-to-end metrics, printed in the report.
ALIASES = {
    "mc_certify": {"work_per_s": "trials_per_s"},
    "noisy_recovery": {"work_per_s": "solves_per_s", "call_p50_ms": "solve_p50_ms",
                       "call_tail_ms": "solve_tail_ms"},
    "width_escape": {"work_per_s": "draws_per_s"},
}


def _parse(argv):
    p = argparse.ArgumentParser(description="nsp-lab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 0 <= args.seconds <= MAX_SECONDS:
        p.error(f"--seconds must lie in [0, {MAX_SECONDS}]")
    return args


def _import_library():
    """Import nsp_lab from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "nsp_lab", "__init__.py")):
        sys.exit(f"error: {SRC}/nsp_lab not found; run from a source checkout")
    sys.path.insert(0, SRC)
    import nsp_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(nsp_lab.__file__))) != SRC:
        sys.exit(f"error: nsp_lab imported from {nsp_lab.__file__}, not from {SRC}")
    import workloads

    return workloads


def _set_up(workload, seed):
    """Everything before the first timed call, after the imports."""
    workload.round_inputs(seed, 0)
    workload.warm_up(seed)


def _probe_setup(args) -> float:
    """Wall time of a fresh process from spawn to its first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, output {line!r})")
    return elapsed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _write_out(name, lines):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def _untraced(args, workloads, workload, setup_samples):
    run = workloads.run_workload(workload, args.seed, args.seconds)
    s = summarize(run.calls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "work_per_s": _metric(s["work_per_s"], "1/s"),
        "call_p50_ms": _metric(1e3 * s["call_p50_s"], "ms"),
        "call_tail_ms": _metric(1e3 * s["call_tail_s"], "ms"),
    }
    report = {
        "rounds": run.rounds,
        "work": s["work"],
        "busy_s": s["busy_s"],
        "setup_samples_s": setup_samples,
        "tail_percentile": s["tail_percentile"],
        "latency_samples": s["latency_samples"],
        "aliases": {alias: metrics[name]
                    for name, alias in ALIASES[args.workload].items()},
    }
    return run, s, metrics, report


def _traced(args, workloads, workload):
    from tracer import Tracer

    tracer = Tracer()
    run = workloads.run_workload(workload, args.seed, args.seconds, tracer=tracer)
    plain, traced = summarize(run.calls), summarize(run.traced_calls)
    metrics = {name: _metric(v, unit) for name, (v, unit) in run.prefix_layers.items()}
    metrics["trace.work"] = _metric(run.prefix_work, "count")
    metrics["trace.untraced_work_per_s"] = _metric(plain["work_per_s"], "1/s")
    metrics["trace.work_per_s"] = _metric(traced["work_per_s"], "1/s")
    metrics["trace.overhead_ratio"] = _metric(traced["busy_s"] / plain["busy_s"] - 1.0, "ratio")
    metrics["trace.spans"] = _metric(len(tracer.spans), "count")
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    path = _write_out(
        f"spans-{args.workload}-seed{args.seed}.jsonl",
        ({"name": sp.name, "start": sp.start - t0, "end": sp.end - t0, "parent": sp.parent,
          "op": sp.op, "fn_s": sp.fn_s} for sp in tracer.spans))
    report = {"rounds": run.rounds, "spans_file": os.path.relpath(path, ROOT),
              "verdict_mismatches": len(run.mismatches)}
    plain["causes"] += [f"traced verdict {t} differs from untraced {u}"
                        for u, t in run.mismatches]
    return run, plain, metrics, report


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_library()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        _set_up(workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_samples = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
    _set_up(workload, args.seed)
    import envinfo

    env = envinfo.environment(ROOT, SRC)
    if args.trace:
        run, s, metrics, report = _traced(args, workloads, workload)
    else:
        run, s, metrics, report = _untraced(args, workloads, workload, setup_samples)
    digest = workloads.digest(run.digest_verdicts)
    # A call that raises is a failed operation; a returned output that fails
    # its check, or a traced verdict that differs, makes the run incorrect.
    correct = s["wrong"] == 0 and not run.mismatches
    result = {"correct": correct, "attempted": s["attempted"], "failed": s["failed"],
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "digest": digest,
              "digest_calls": len(run.digest_verdicts), "report": report,
              "failure_causes": s["causes"], "result": result}
    _write_out(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", [record])

    print(f"nsp-lab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for key, value in report.items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    print(f"  ops_failed_ratio: {s['failed']}/{s['attempted']} = {s['ops_failed_ratio']:.6g}")
    for cause in s["causes"]:
        print(f"  failure: {cause}")
    print(f"digest {args.workload} {digest} over the first {len(run.digest_verdicts)} calls")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
