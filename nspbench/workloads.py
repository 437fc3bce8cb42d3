"""The benchmark workloads.

Each workload is a closed loop with one caller: the next library call is
made when the previous one has returned, in one process, with no thread or
process pool.  Inputs come in rounds; round r is generated from
(seed, workload, r) alone, so a seed fixes every input and the verdicts of
the first rounds can be digested and compared across runs and commits.
README.md beside this file says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from nsp_lab import experiments, solver, subspaces, width
from nsp_lab.config import TOL
from nsp_lab.measures import CostFunction, parse_measure

from tracer import NullTracer

NULL_TRACER = NullTracer()


@dataclass
class Call:
    """One timed step of a workload and the checks made on its output."""

    seconds: float     # wall time of the library call
    work: int          # trials, solves or Gaussian draws; 0 for set-up steps
    attempted: int     # checked outcomes
    failed: int        # outcomes that raised or failed a check
    verdict: tuple     # discrete outcomes, digested across runs
    causes: list = field(default_factory=list)
    wrong: int = 0     # outcomes returned but failing a check (a subset of failed)
    latency: bool = True   # a sample of the latency percentiles (when work > 0)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _library_seed(rng) -> int:
    return int(rng.integers(2**32))


class McCertify:
    """``mc_probability`` batches: reduces the ``probability_equality`` criterion."""

    name = "mc_certify"
    tag = 1
    d_grid = (1e-3,)
    # (label, n, m, k, measure, trials per batch, batches per round).  The
    # headline config carries most trials; the others reach a null space of
    # dimension 1 and the 61-point scale grid of non-homogeneous penalties.
    # Batch sizes keep every batch near the same latency.  No config has a
    # null space of dimension 3: there the two scans can disagree and
    # mc_probability raises (README.md, "Library defects kept out of the
    # workloads").
    mix = (
        ("l1_5_3", 5, 3, 1, "l1", 8, 5),
        ("exp_ce1_4_3", 4, 3, 1, "exp_ce1", 14, 1),
        ("mcp_zap_5_3", 5, 3, 1, "mcp_zap(alpha=2)", 4, 1),
    )

    def round_inputs(self, seed: int, r: int) -> list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag, r]))
        out = []
        for label, n, m, k, measure, trials, batches in self.mix:
            for _ in range(batches):
                cfg = experiments.ExperimentConfig(
                    n=n, m=m, k=k, measure=measure, trials=trials,
                    d_grid=self.d_grid, seed=_library_seed(rng))
                out.append((label, cfg))
        return out

    def warm_up(self, seed: int) -> None:
        seen = set()
        for label, cfg in self.round_inputs(seed, 0):
            if label not in seen:
                seen.add(label)
                experiments.mc_probability(
                    experiments.ExperimentConfig(**{**cfg.to_dict(), "trials": 1}))

    def run_round(self, inputs, tracer=NULL_TRACER) -> list[Call]:
        calls = []
        for label, cfg in inputs:
            t0 = time.perf_counter()
            try:
                summary = experiments.mc_probability(cfg)
            except Exception as exc:  # counted and reported, never fatal
                calls.append(Call(time.perf_counter() - t0, cfg.trials, cfg.trials, cfg.trials,
                                  (label, "error", type(exc).__name__),
                                  [f"{label}: {_error(exc)}"]))
                continue
            dt = time.perf_counter() - t0
            causes = []
            failed, wrong = summary.failures, 0
            if summary.failures:
                causes.append(f"{label}: {summary.failures} trials counted in "
                              "MonteCarloSummary.failures")
            if summary.trials + summary.failures != cfg.trials:
                failed = wrong = cfg.trials
                causes.append(f"{label}: {summary.trials} valid + {summary.failures} failed "
                              f"trials != {cfg.trials} attempted")
            rrc = [summary.rrc[d].successes for d in cfg.d_grid]
            boundary = round(summary.boundary_fraction * summary.trials)
            calls.append(Call(dt, cfg.trials, cfg.trials, failed,
                              (label, summary.erc.successes, rrc, boundary, summary.failures),
                              causes, wrong))
        return calls


class NoisyRecovery:
    """``solve_noisy`` on the ``robustness_bounds`` path, plus a minority of
    noiseless descent solves on the same matrices.

    The noiseless share uses the default ``descent`` method, not ``irls``:
    ``irls`` raises LinAlgError on a few percent of sparse signals (README.md,
    "Library defects kept out of the workloads"), and a workload must be one
    on which no operation fails.

    Only the noisy solves are latency samples: the percentiles then describe
    the ``robustness_bounds`` solve, and the much cheaper noiseless quarter
    cannot drag the median into the lower tail of the noisy solves.
    """

    name = "noisy_recovery"
    tag = 2
    shapes = ((6, 4), (8, 6), (5, 3))   # (n, m), one matrix of each per round
    epsilons = (1e-1, 1e-2, 1e-3)
    signals_per_eps = 2                  # 6 noisy solves per matrix, as in the criterion
    noiseless_per_matrix = 2
    noiseless_measure = "lp(p=0.5)"
    noiseless_starts = 3
    k = 1
    starts = 16
    iters = 150
    cost_tolerance = 1e-12               # relative; the two cost sums differ in order

    def round_inputs(self, seed: int, r: int) -> list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag, r]))
        out = []
        for n, m in self.shapes:
            raw = rng.standard_normal((m, n)) / math.sqrt(n)
            noisy = []
            for eps in self.epsilons:
                for _ in range(self.signals_per_eps):
                    x_bar = self._signal(rng, n)
                    v = rng.standard_normal(m)
                    v *= (1.0 - 1e-6) * eps / np.linalg.norm(v)
                    noisy.append((eps, x_bar, v, _library_seed(rng)))
            noiseless = [(self._signal(rng, n), _library_seed(rng))
                         for _ in range(self.noiseless_per_matrix)]
            out.append((raw, noisy, noiseless))
        return out

    def _signal(self, rng, n):
        x = np.zeros(n)
        x[rng.choice(n, size=self.k, replace=False)] = rng.standard_normal(self.k)
        return x

    def warm_up(self, seed: int) -> None:
        raw, noisy, noiseless = self.round_inputs(seed, 0)[0]
        a = subspaces.MeasurementMatrix(raw)
        n = raw.shape[1]
        eps, x_bar, v, lib_seed = noisy[0]
        l1 = CostFunction(parse_measure("l1"), n)
        solver.solve_noisy(solver.RecoveryProblem(a, a.entries @ x_bar + v, eps, l1, self.k),
                           seed=lib_seed, starts=self.starts, iters=2, extra_starts=[x_bar])
        x_bar, lib_seed = noiseless[0]
        half = CostFunction(parse_measure(self.noiseless_measure), n)
        solver.solve_noiseless(solver.RecoveryProblem(a, a.entries @ x_bar, 0.0, half, self.k),
                               method="descent", seed=lib_seed, starts=self.noiseless_starts)

    def _support(self, x) -> list:
        return sorted(int(i) for i in np.argsort(-np.abs(x), kind="stable")[: self.k])

    def run_round(self, inputs, tracer=NULL_TRACER) -> list[Call]:
        calls = []
        for raw, noisy, noiseless in inputs:
            m, n = raw.shape
            shape = f"{n}x{m}"
            t0 = time.perf_counter()
            try:
                a = tracer.call("subspaces.MeasurementMatrix", subspaces.MeasurementMatrix, raw)
            except ValueError as exc:
                attempted = len(noisy) + len(noiseless)
                calls.append(Call(0.0, 0, attempted, attempted, (shape, "error"),
                                  [f"{shape}: {_error(exc)}"]))
                continue
            calls.append(Call(time.perf_counter() - t0, 0, 0, 0, (shape, "matrix")))
            l1 = parse_measure("l1")
            half = parse_measure(self.noiseless_measure)
            cost = CostFunction(tracer.instrument(l1), n)
            check_cost = CostFunction(l1, n)
            for eps, x_bar, v, lib_seed in noisy:
                problem = solver.RecoveryProblem(a, a.entries @ x_bar + v, eps, cost, self.k)
                calls.append(self._solve(
                    f"{shape} eps={eps:g}", solver.solve_noisy, problem,
                    dict(seed=lib_seed, starts=self.starts, iters=self.iters,
                         extra_starts=[x_bar]),
                    eps + TOL.feasibility, check_cost.value(x_bar), latency=True))
            half_cost = CostFunction(tracer.instrument(half), n)
            for x_bar, lib_seed in noiseless:
                y = a.entries @ x_bar
                problem = solver.RecoveryProblem(a, y, 0.0, half_cost, self.k)
                calls.append(self._solve(
                    f"{shape} noiseless", solver.solve_noiseless, problem,
                    dict(method="descent", seed=lib_seed, starts=self.noiseless_starts),
                    TOL.feasibility * (1.0 + np.linalg.norm(y)), None, latency=False))
        return calls

    def _solve(self, label, fn, problem, kwargs, residual_cap, cost_cap, latency) -> Call:
        t0 = time.perf_counter()
        try:
            result = fn(problem, **kwargs)
        except Exception as exc:  # counted and reported, never fatal
            return Call(time.perf_counter() - t0, 1, 1, 1, (label, "error", type(exc).__name__),
                        [f"{label}: {_error(exc)}"], latency=latency)
        dt = time.perf_counter() - t0
        causes = []
        feasible = bool(result.residual <= residual_cap)
        if not feasible:
            causes.append(f"{label}: residual {result.residual:.3e} > {residual_cap:.3e}")
        if cost_cap is not None and result.cost_value > cost_cap * (1.0 + self.cost_tolerance):
            causes.append(f"{label}: cost {result.cost_value:.17g} exceeds the true "
                          f"signal's {cost_cap:.17g}")
        return Call(dt, 1, 1, int(bool(causes)),
                    (label, self._support(result.x_hat), feasible), causes, int(bool(causes)),
                    latency)


class WidthEscape:
    """Monte Carlo widths: reduces ``width_sanity`` and ``escape_consistency``."""

    name = "width_escape"
    tag = 3
    d = 0.1          # width_extended radius
    omega_d = 0.0    # omega_hat_bound radius, as in escape_consistency
    # (label, measure, n, k, m, draws per call).  l1 takes the exact
    # support-projection path, the others the generic line search; draw
    # counts keep every call near the same latency.
    mix = (
        ("l1_8_2", "l1", 8, 2, 6, 2400),
        ("l1_6_1", "l1", 6, 1, 4, 16000),
        ("exp_ce1_6_1", "exp_ce1", 6, 1, 4, 320),
        ("lp_8_2", "lp(p=0.5)", 8, 2, 6, 1100),
    )

    def round_inputs(self, seed: int, r: int) -> list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag, r]))
        return [(*entry, _library_seed(rng)) for entry in self.mix]

    def warm_up(self, seed: int) -> None:
        for label, measure, n, k, m, draws, lib_seed in self.round_inputs(seed, 0):
            cost = CostFunction(parse_measure(measure), n)
            width.width_mc(cost, k, draws=16, seed=lib_seed)
            width.width_extended(cost, k, self.d, draws=16, seed=lib_seed)
            width.omega_hat_bound(cost, m, k, self.omega_d, width_source="mc", draws=16,
                                  seed=lib_seed)

    def run_round(self, inputs, tracer=NULL_TRACER) -> list[Call]:
        calls = []
        for label, measure, n, k, m, draws, lib_seed in inputs:
            cost = CostFunction(tracer.instrument(parse_measure(measure)), n)
            base = None
            steps = (
                ("width_mc", lambda: width.width_mc(cost, k, draws=draws, seed=lib_seed)),
                ("width_extended",
                 lambda: width.width_extended(cost, k, self.d, draws=draws, seed=lib_seed)),
                ("omega_hat_bound",
                 lambda: width.omega_hat_bound(cost, m, k, self.omega_d, width_source="mc",
                                               draws=draws, seed=lib_seed)),
            )
            for kind, step in steps:
                tag = f"{label} {kind}"
                t0 = time.perf_counter()
                try:
                    est = step()
                except Exception as exc:  # counted and reported, never fatal
                    calls.append(Call(time.perf_counter() - t0, draws, 1, 1,
                                      (tag, "error", type(exc).__name__),
                                      [f"{tag}: {_error(exc)}"]))
                    continue
                dt = time.perf_counter() - t0
                causes = self._check(kind, tag, est, base, n, k, m, draws)
                if kind == "width_mc":
                    base = est
                if kind == "omega_hat_bound":
                    verdict = (tag, est.width_source)
                else:
                    verdict = (tag, est.inner_search, est.is_lower_bound)
                calls.append(Call(dt, draws, 1, int(bool(causes)), verdict, causes,
                                  int(bool(causes))))
        return calls

    def _check(self, kind, tag, est, base, n, k, m, draws) -> list:
        """The rv_bound and width_sanity checks on one estimate; ``base`` is
        the paired width_mc estimate, None until it has returned."""
        if kind == "omega_hat_bound":
            return self._check_omega(tag, est, base, n, m)
        if est.samples != draws or not (math.isfinite(est.mean) and est.std_error > 0):
            return [f"{tag}: degenerate estimate {est}"]
        if kind == "width_mc":
            # every built-in cone used lies inside the l1 cone, whose width
            # rv_bound bounds from above
            cap = width.rv_bound(n, k)
            if est.mean > cap + 3.0 * est.std_error:
                return [f"{tag}: mean {est.mean:.6g} above rv_bound {cap:.6g}"]
        elif base is not None:
            diff = est.mean - base.mean
            lo, hi = -3.0 * base.std_error, self.d * math.sqrt(n) + 3.0 * base.std_error
            if not lo <= diff <= hi:
                return [f"{tag}: extension {diff:.6g} outside [{lo:.6g}, {hi:.6g}]"]
        return []

    def _check_omega(self, tag, est, base, n, m) -> list:
        causes = []
        if not 0.0 <= est.bound <= 1.0:
            causes.append(f"{tag}: bound {est.bound} outside [0, 1]")
        if base is not None and not math.isclose(est.width_value, base.mean, rel_tol=1e-12):
            causes.append(f"{tag}: width {est.width_value:.17g} differs from the paired "
                          f"width_mc {base.mean:.17g}")
        if est.condition_ok != (est.width_value + self.omega_d * math.sqrt(n) < math.sqrt(m)):
            causes.append(f"{tag}: condition flag inconsistent with the width")
        return causes


WORKLOADS = {w.name: w for w in (McCertify(), NoisyRecovery(), WidthEscape())}


@dataclass
class RunResult:
    calls: list               # untraced calls
    traced_calls: list        # traced copies (trace runs only)
    rounds: int
    digest_verdicts: list     # verdicts of the first ``digest_rounds`` rounds
    mismatches: list          # traced verdicts that differ from untraced ones
    prefix_layers: dict | None = None   # tracer.layer_metrics() after those rounds
    prefix_work: int = 0                # work done in those rounds


def run_workload(workload, seed: int, seconds: float, tracer=None,
                 digest_rounds: int = 2) -> RunResult:
    """Run whole rounds until ``seconds`` have passed and at least
    ``digest_rounds`` rounds are done.

    The first ``digest_rounds`` rounds have fixed inputs for a seed: their
    verdicts are digested and, in a traced run, the per-layer metrics are
    taken over them, so counts repeat exactly for a seed.  With a tracer
    every round runs twice on the same inputs, untraced and traced,
    alternating which goes first; the difference in time over the whole run
    is the tracing overhead.
    """
    result = RunResult([], [], 0, [], [])
    start = time.perf_counter()
    r = 0
    while r < digest_rounds or time.perf_counter() - start < seconds:
        inputs = workload.round_inputs(seed, r)
        if tracer is None:
            calls = workload.run_round(inputs)
        else:
            def traced():
                with tracer.installed():
                    return workload.run_round(inputs, tracer)
            if r % 2:
                traced_calls, calls = traced(), workload.run_round(inputs)
            else:
                calls, traced_calls = workload.run_round(inputs), traced()
            result.traced_calls.extend(traced_calls)
            result.mismatches.extend(
                (a.verdict, b.verdict) for a, b in zip(calls, traced_calls)
                if a.verdict != b.verdict)
        result.calls.extend(calls)
        if r < digest_rounds:
            result.digest_verdicts.extend(c.verdict for c in calls)
            result.prefix_work += sum(c.work for c in calls)
        r += 1
        if tracer is not None and r == digest_rounds:
            result.prefix_layers = tracer.layer_metrics()
    result.rounds = r
    return result


def digest(verdicts) -> str:
    blob = json.dumps(verdicts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
