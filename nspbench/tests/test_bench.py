"""Tests of the benchmark's own helpers.

    python3 -m pytest -q nspbench/tests
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from stats import summarize, tail_percentile  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import Call  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = list(range(1, 101))
    np.random.default_rng(0).shuffle(xs)
    assert tail_percentile(xs) == (90.0, 90, 100)
    assert tail_percentile(range(1000)) == (99.0, 989, 1000)
    pct, value, n = tail_percentile(range(11))
    assert (value, n) == (0, 11) and pct == pytest.approx(100 / 11)
    assert sum(x > tail_percentile(range(37))[1] for x in range(37)) == 10
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_self_time_subtracts_child_spans_and_penalty_time():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, fn_s=1.0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0, fn_s=0.25),
        Span("child", 5.0, 6.0, 0, 0),
        Span("other_root", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 0.75, 1.0, 1.0])


def test_tracer_records_parents_and_operation_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    tracer.call("outer", outer)
    tracer.call("inner", inner)
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", -1, 0), ("inner", 0, 0), ("inner", 0, 0), ("inner", -1, 1)]
    # outer spans ticks 0..5 and its children cover 1..2 and 3..4
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0, 1.0]


def test_ops_failed_ratio_counts_failed_outcomes_against_attempted():
    calls = [Call(0.1, 8, 8, 0, ("a",)) for _ in range(10)]
    calls.append(Call(0.2, 8, 8, 3, ("b",), ["3 trials failed"]))
    calls.append(Call(0.3, 1, 1, 1, ("c",), ["wrong"], wrong=1))
    calls.append(Call(5.0, 2, 1, 0, ("d",), latency=False))
    s = summarize(calls)
    assert (s["attempted"], s["failed"], s["wrong"]) == (90, 4, 1)
    assert (s["work"], s["latency_samples"]) == (91, 12)
    assert s["call_p50_s"] == pytest.approx(0.1)
    assert s["ops_failed_ratio"] == pytest.approx(4 / 90)
    assert s["causes"] == ["3 trials failed", "wrong"]


def test_a_raising_solve_is_a_failed_operation(monkeypatch):
    def broken(problem, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(workloads.solver, "solve_noiseless", broken)
    w = workloads.WORKLOADS["noisy_recovery"]
    calls = w.run_round(w.round_inputs(0, 0)[:1])
    noiseless = [c for c in calls if "noiseless" in c.verdict[0]]
    assert len(noiseless) == w.noiseless_per_matrix
    assert all(c.failed == 1 and c.wrong == 0 for c in noiseless)
    assert all("LinAlgError: Singular matrix" in c.causes[0] for c in noiseless)
    assert sum(c.failed for c in calls) == len(noiseless)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_digest(name):
    w = workloads.WORKLOADS[name]
    first = workloads.run_workload(w, 7, 0.0, digest_rounds=1)
    second = workloads.run_workload(w, 7, 0.0, digest_rounds=1)
    traced = workloads.run_workload(w, 7, 0.0, tracer=Tracer(), digest_rounds=1)
    assert first.rounds == second.rounds == traced.rounds == 1
    assert first.digest_verdicts
    assert (workloads.digest(first.digest_verdicts)
            == workloads.digest(second.digest_verdicts)
            == workloads.digest(traced.digest_verdicts))
    assert traced.mismatches == []
    assert [c.verdict for c in traced.traced_calls] == [c.verdict for c in traced.calls]
