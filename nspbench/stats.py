"""Summary statistics for benchmark results."""

from __future__ import annotations

import statistics


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the highest nearest-rank
    percentile that still has ``beyond`` samples above it.

    The nearest-rank p-th percentile of n sorted samples is the one at
    rank ceil(p n / 100), which leaves n - rank samples beyond it; the
    highest p leaving ``beyond`` is 100 (n - beyond) / n, at rank n - beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    rank = n - beyond
    return 100.0 * rank / n, xs[rank - 1], n


def summarize(calls) -> dict:
    """Totals over benchmark calls (see ``workloads.Call``)."""
    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    wrong = sum(c.wrong for c in calls)
    busy = sum(c.seconds for c in calls)
    work = sum(c.work for c in calls)
    latencies = [c.seconds for c in calls if c.work > 0 and c.latency]
    pct, tail, n = tail_percentile(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "ops_failed_ratio": failed / attempted if attempted else 0.0,
        "busy_s": busy,
        "work": work,
        "work_per_s": work / busy,
        "call_p50_s": statistics.median(latencies),
        "call_tail_s": tail,
        "tail_percentile": pct,
        "latency_samples": n,
        "causes": [cause for c in calls for cause in c.causes],
    }
