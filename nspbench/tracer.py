"""Spans and counters recorded by the benchmark around calls into nsp_lab.

Tracing lives entirely in the benchmark: while a ``Tracer`` is installed it
replaces public functions in the module namespace where their caller looks
them up (``nsp_lab.experiments.erc_member``, ``nsp_lab.solver.null_space``,
...), so no span is recorded inside the library itself.  Penalty
evaluations (``measure.fn``) run ~10^3 times per Monte Carlo trial, so they
are counted and timed in aggregate instead of getting one span each; their
time is charged to the innermost open span so that self times still add up.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import time

import numpy as np

from nsp_lab import experiments, solver, width


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int       # index of the enclosing span, -1 at the root
    op: int           # benchmark call the span belongs to
    fn_s: float = 0.0  # measure.fn time spent directly inside this span


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover,
    minus the penalty-evaluation time charged to it."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered - s.fn_s)
    return out


class NullTracer:
    """Pass-through used by untraced runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def instrument(self, measure):
        return measure

    @contextlib.contextmanager
    def installed(self):
        yield self


def _count_erc(c, verdict):
    c["nsp.erc_member.boundary"] += bool(verdict.boundary)


def _count_rrc(c, probe):
    c["nsp.rrc_probe.evaluations"] += probe.evaluations
    c["nsp.rrc_probe.violated"] += bool(probe.violated)
    c["nsp.rrc_probe.budget_hit"] += probe.evaluations >= probe.search_budget


def _count_mc(c, summary):
    c["experiments.trials"] += summary.trials + summary.failures
    c["experiments.trial_failures"] += summary.failures


def _count_iterations(prefix):
    def count(c, result):
        c[prefix + ".iterations"] += result.iterations
    return count


def _count_draws(c, estimate):
    c["width.draws"] += estimate.samples


# (module, attribute, span name, counter hook).  The span name gives the
# module the function belongs to, which is the layer it is reported under.
INTERCEPTS = (
    (experiments, "mc_probability", "experiments.mc_probability", _count_mc),
    (experiments, "erc_member", "nsp.erc_member", _count_erc),
    (experiments, "rrc_probe", "nsp.rrc_probe", _count_rrc),
    (experiments, "gaussian_measurement", "subspaces.gaussian_measurement", None),
    (experiments, "sample_haar", "subspaces.sample_haar", None),
    (experiments, "null_space", "subspaces.null_space", None),
    (experiments, "MeasurementMatrix", "subspaces.MeasurementMatrix", None),
    (solver, "null_space", "subspaces.null_space", None),
    (solver, "solve_noisy", "solver.solve_noisy", _count_iterations("solver.solve_noisy")),
    (solver, "solve_noiseless", "solver.solve_noiseless",
     _count_iterations("solver.solve_noiseless")),
    (width, "width_mc", "width.width_mc", _count_draws),
    (width, "width_extended", "width.width_extended", _count_draws),
    (width, "omega_hat_bound", "width.omega_hat_bound", None),
)


class Tracer:
    """Records spans in memory; ``installed()`` swaps the intercepts in."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters = collections.Counter()
        self.fn_calls = 0
        self.fn_elements = 0
        self.fn_s = 0.0
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, hook=None, **kwargs):
        if not self._stack:   # a call made by the benchmark itself starts an operation
            self.op += 1
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if hook is not None:
            hook(self.counters, result)
        return result

    def instrument(self, measure):
        """A copy of ``measure`` whose ``fn`` is counted and timed."""
        inner = measure.fn

        def fn(t):
            t0 = self.clock()
            out = inner(t)
            dt = self.clock() - t0
            self.fn_calls += 1
            self.fn_elements += int(np.size(t))
            self.fn_s += dt
            if self._stack:
                self.spans[self._stack[-1]].fn_s += dt
            return out

        return dataclasses.replace(measure, fn=fn)

    def _traced(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, hook in INTERCEPTS:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self._traced(name, orig, hook))
            parse = experiments.parse_measure
            saved.append((experiments, "parse_measure", parse))
            experiments.parse_measure = lambda text: self.instrument(parse(text))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def layer_metrics(self) -> dict:
        """Per-layer metrics, as {name: (value, unit)}."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span, st in zip(self.spans, self_times(self.spans)):
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + st
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        sub_calls = sum(v for k, v in calls.items() if k.startswith("subspaces."))
        sub_self = sum(v for k, v in self_s.items() if k.startswith("subspaces."))
        erc = calls.get("nsp.erc_member", 0)
        rrc = calls.get("nsp.rrc_probe", 0)
        out = {
            "measures.fn.calls": (self.fn_calls, "count"),
            "measures.fn.elements": (self.fn_elements, "count"),
            "measures.fn.self_s": (self.fn_s, "s"),
            "subspaces.calls": (sub_calls, "count"),
            "subspaces.self_s": (sub_self, "s"),
            "nsp.erc_member.calls": (erc, "count"),
            "nsp.erc_member.self_s": (self_s.get("nsp.erc_member", 0.0), "s"),
            "nsp.erc_member.boundary_ratio":
                (ratio(c["nsp.erc_member.boundary"], erc), "ratio"),
            "nsp.rrc_probe.calls": (rrc, "count"),
            "nsp.rrc_probe.self_s": (self_s.get("nsp.rrc_probe", 0.0), "s"),
            "nsp.rrc_probe.evaluations": (c["nsp.rrc_probe.evaluations"], "count"),
            "nsp.rrc_probe.violated_ratio": (ratio(c["nsp.rrc_probe.violated"], rrc), "ratio"),
            "nsp.rrc_probe.budget_hit_ratio":
                (ratio(c["nsp.rrc_probe.budget_hit"], rrc), "ratio"),
            "experiments.mc_probability.self_s":
                (self_s.get("experiments.mc_probability", 0.0), "s"),
            "experiments.trials": (c["experiments.trials"], "count"),
            "experiments.trial_failures": (c["experiments.trial_failures"], "count"),
        }
        for fn in ("solve_noisy", "solve_noiseless"):
            name = "solver." + fn
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
            out[name + ".iterations"] = (c[name + ".iterations"], "count")
        for fn in ("width_mc", "width_extended"):
            name = "width." + fn
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
        out["width.omega_hat_bound.self_s"] = (self_s.get("width.omega_hat_bound", 0.0), "s")
        out["width.draws"] = (c["width.draws"], "count")
        return out
