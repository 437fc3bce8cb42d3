"""Batch verification suites.

``paper_checks`` runs every acceptance criterion of the library at its
stated tolerance and writes one JSON bundle with a pass/fail line per
criterion; ``quick`` runs the sub-minute subset.  Each criterion is a pure
function of its seed so the bundles are reproducible.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from decimal import Decimal, getcontext

import numpy as np

from .experiments import ExperimentConfig, mc_probability, verify_counterexample1
from .measures import CostFunction, builtin_measure
from .nsp import ce1_membership, nsc, nsp_check, region_boundary_map, robustness_constant, rrc_probe
from .solver import adversarial_pair, empirical_robustness
from .subspaces import gaussian_measurement, null_space, perturb_subspace, sample_haar, grassmann_distance
from .width import chi_mean, delta_positivity_threshold, omega_hat_bound, width_extended, width_mc, zeta

__all__ = ["CriterionResult", "SuiteReport", "run_suite", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.runtime_s:.2f}s)"


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "criteria": [
                {"name": r.name, "passed": r.passed, "runtime_s": r.runtime_s, "details": r.details}
                for r in self.results
            ],
        }


def _timed(fn):
    def wrapper(seed, overrides=None):
        t0 = time.perf_counter()
        passed, details = fn(seed, overrides or {})
        return CriterionResult(fn.__name__.removeprefix("criterion_"), passed,
                               time.perf_counter() - t0, details)
    wrapper.__name__ = fn.__name__
    return wrapper


def _measure(name, overrides, **params):
    if name in overrides:
        return overrides[name]
    return builtin_measure(name, params or None)


# -- 1 -----------------------------------------------------------------------

@_timed
def criterion_counterexample(seed, overrides):
    """Strict margins plus a perturbation violation at every tested radius."""
    t0 = time.perf_counter()
    report = verify_counterexample1(d_list=(0.5, 0.1, 0.01, 0.001))
    runtime = time.perf_counter() - t0
    deficits_ok = all(e.found and e.deficit > 1e-12 for e in report.entries)
    passed = (
        report.min_margin > 0
        and report.closed_form_error < 1e-9
        and deficits_ok
        and runtime < 1.0
    )
    return passed, {
        "min_margin": report.min_margin,
        "closed_form_rel_error": report.closed_form_error,
        "deficits": {f"{e.d:g}": e.deficit for e in report.entries},
        "runtime_s": runtime,
    }


# -- 2 -----------------------------------------------------------------------

@_timed
def criterion_closed_form_agreement(seed, overrides):
    """Search verdicts match the closed-form classifier on Haar lines in R^3."""
    measure = _measure("exp_ce1", overrides)
    cost = CostFunction(measure, 3)
    rng = np.random.default_rng(seed)
    band = 1e-6
    mismatches = 0
    excluded = 0
    for _ in range(1000):
        sub = sample_haar(3, 1, rng)
        closed = ce1_membership(sub)
        if abs(closed.margin) <= band:
            excluded += 1
            continue
        verdict = nsp_check(sub, cost, 1)
        inside = closed.margin > 0
        agrees = (verdict.status == "holds_strict") if inside else (verdict.status == "fails")
        if not agrees:
            mismatches += 1
    return mismatches == 0, {"mismatches": mismatches, "excluded_boundary_band": excluded}


# -- 3 -----------------------------------------------------------------------

@_timed
def criterion_nsc_exactness(seed, overrides):
    """Exact one-dimensional null space constants for the l1 cost."""
    from .subspaces import Subspace

    cost = CostFunction(_measure("l1", overrides), 3)
    cases = {
        (1.0, 1.0, 1.0): 0.5,
        (1.0, 1.0, 2.0): 1.0,
        (1.0, 2.0, 4.0): 4.0 / 3.0,
    }
    errors = {}
    ok = True
    for gen, expected in cases.items():
        report = nsc(Subspace.from_generator(np.array(gen)), cost, 1)
        err = abs(report.theta - expected)
        errors[str(gen)] = err
        ok = ok and err <= 1e-12 and not report.is_lower_bound
    return ok, {"abs_errors": errors}


# -- 4 -----------------------------------------------------------------------

@_timed
def criterion_probability_equality(seed, overrides):
    """Exact and robust recovery probabilities agree within joint CI width."""
    cfg = ExperimentConfig(n=5, m=3, k=1, measure="l1", trials=2000,
                           d_grid=(1e-3,), seed=seed)
    summary = mc_probability(cfg)
    rrc = summary.rrc[1e-3]
    gap = abs(summary.erc.p_hat - rrc.p_hat)
    budget = summary.erc.half_width + rrc.half_width
    passed = gap < budget and summary.boundary_fraction < 0.01 and summary.failures == 0
    return passed, {
        "p_erc": summary.erc.p_hat,
        "p_rrc": rrc.p_hat,
        "p_rrc_sound": summary.rrc_sound[1e-3].p_hat,
        "gap": gap,
        "ci_budget": budget,
        "boundary_fraction": summary.boundary_fraction,
    }


# -- 5 -----------------------------------------------------------------------

@_timed
def criterion_power_law_inclusion(seed, overrides):
    """theta_{l1} < 1 implies theta_{l1/2} < 1 on Haar lines (exact values)."""
    from .subspaces import Subspace

    n, k = 8, 2
    cost1 = CostFunction(_measure("l1", overrides), n)
    cost_half = CostFunction(builtin_measure("lp", p=0.5), n)
    rng = np.random.default_rng(seed)
    violations = 0
    members = 0
    for _ in range(500):
        sub = sample_haar(n, 1, rng)
        t1 = nsc(sub, cost1, k).theta
        if t1 < 1.0:
            members += 1
            if nsc(sub, cost_half, k).theta >= 1.0:
                violations += 1
    return violations == 0, {"violations": violations, "l1_members": members}


# -- 6 -----------------------------------------------------------------------

def _decimal_zeta(n: int, k: int) -> Decimal:
    getcontext().prec = 50
    ln_enk = 1 + (Decimal(n) / Decimal(k)).ln()
    return ((1 + 2 * ln_enk).ln() / (4 * ln_enk) + 1 / (24 * Decimal(k) ** 2 * ln_enk)).exp()


def _decimal_threshold(beta: int) -> Decimal:
    getcontext().prec = 50
    lnb = Decimal(beta).ln()
    ln_eb = 1 + lnb
    return 4 * (3 + 2 * lnb) * ((1 + 2 * ln_eb).ln() / (2 * ln_eb)).exp()


@_timed
def criterion_formula_fidelity(seed, overrides):
    """Width-bound correction and positivity threshold vs high precision."""
    z = zeta(1000, 10)
    z_dec = float(_decimal_zeta(1000, 10))
    thr = delta_positivity_threshold(100.0)
    thr_dec = float(_decimal_threshold(100))
    passed = (
        abs(z - 1.1181) <= 1e-3
        and abs(z - z_dec) <= 1e-12
        and abs(thr - 61.06) <= 0.1
        and abs(thr - thr_dec) <= 1e-9
    )
    return passed, {"zeta": z, "zeta_decimal": z_dec, "threshold": thr, "threshold_decimal": thr_dec}


# -- 7 -----------------------------------------------------------------------

@_timed
def criterion_width_sanity(seed, overrides):
    """Whole-sphere widths match the chi mean; extension stays in its bracket."""
    cost_of = lambda n: CostFunction(_measure("l1", overrides), n)
    details = {}
    ok = True
    for n in (2, 4, 8):
        est = width_mc(cost_of(n), k=n, draws=10_000, seed=seed)
        target = chi_mean(n)
        rel = abs(est.mean - target) / target
        details[f"chi_rel_err_n{n}"] = rel
        ok = ok and rel <= 0.02
    for n, k, d in ((4, 1, 0.1), (6, 1, 0.1), (6, 2, 0.25)):
        base = width_mc(cost_of(n), k, draws=4000, seed=seed + 1)
        ext = width_extended(cost_of(n), k, d, draws=4000, seed=seed + 1)
        diff = ext.mean - base.mean
        lo = -3 * base.std_error
        hi = d * math.sqrt(n) + 3 * base.std_error
        details[f"extension_diff_{n}_{k}_{d:g}"] = diff
        ok = ok and lo <= diff <= hi
    return ok, details


# -- 8 -----------------------------------------------------------------------

@_timed
def criterion_escape_consistency(seed, overrides):
    """Empirical avoidance fraction dominates the escape-probability bound."""
    n, m, k = 6, 4, 1
    cost = CostFunction(_measure("l1", overrides), n)
    bound = omega_hat_bound(cost, m, k, d=0.0, width_source="mc", draws=10_000, seed=seed)
    rng = np.random.default_rng(seed + 1)
    holds = 0
    samples = 10_000
    for _ in range(samples):
        sub = sample_haar(n, n - m, rng)
        if nsp_check(sub, cost, k).status == "holds_strict":
            holds += 1
    fraction = holds / samples
    return fraction >= bound.bound, {
        "fraction_avoiding": fraction,
        "bound": bound.bound,
        "width": bound.width_value,
        "bound_vacuous": bound.bound == 0.0,
    }


# -- 9 -----------------------------------------------------------------------

@_timed
def criterion_robustness_bounds(seed, overrides):
    """Solver error ratios below the direct constant; adversarial pairs above
    the converse ratio."""
    d = 0.2
    shapes = [(6, 4), (8, 6), (5, 3)]
    passes = []
    violated = []
    attempt = 0
    while (len(passes) < 50 or len(violated) < 10) and attempt < 400:
        n, m = shapes[attempt % len(shapes)]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 9, attempt]))
        a = gaussian_measurement(m, n, rng)
        cost = CostFunction(_measure("l1", overrides), n)
        probe = rrc_probe(null_space(a), cost, 1, d, budget=60_000, seed=attempt)
        if probe.violated:
            if len(violated) < 10:
                violated.append((a, cost, probe.violation))
        elif len(passes) < 50:
            passes.append((a, cost))
        attempt += 1

    worst_ratio_margin = math.inf
    bound_ok = True
    for a, cost in passes:
        cap = robustness_constant(d, a.sigma_min)
        sweep = empirical_robustness(a, cost, k=1, trials=2, epsilon_grid=(1e-1, 1e-2, 1e-3),
                                     seed=seed, starts=16, iters=150)
        worst = max(sweep.max_ratio.values())
        worst_ratio_margin = min(worst_ratio_margin, cap - worst)
        bound_ok = bound_ok and worst <= cap and all(v == 0 for v in sweep.excluded.values())

    converse_ok = True
    min_excess = math.inf
    for a, cost, witness in violated:
        pair = adversarial_pair(a, cost, 1, d, witness=witness)
        min_excess = min(min_excess, pair.ratio - pair.ratio_guarantee)
        converse_ok = converse_ok and pair.ratio > pair.ratio_guarantee

    passed = bound_ok and converse_ok and len(passes) == 50 and len(violated) >= 10
    return passed, {
        "instances_passing": len(passes),
        "instances_violated": len(violated),
        "worst_direct_margin": worst_ratio_margin,
        "min_converse_excess": min_excess,
    }


# -- comparison rules (bundled sanity; exercised by mutation testing) ---------

@_timed
def criterion_comparison_rules(seed, overrides):
    """The saturating concave penalty measure-matches the l1 cost: ratio to
    the identity non-increasing and a positive finite slope limit at zero."""
    from .measures import compare_measures

    l1 = _measure("l1", overrides)
    mcp = _measure("mcp_zap", overrides, alpha=2.0)
    exp = _measure("exp_ce1", overrides)
    rep_mcp = compare_measures(mcp, l1)
    rep_exp = compare_measures(exp, l1)
    rep_sqrt = compare_measures(builtin_measure("lp", p=0.5), l1)
    ok = (
        rep_mcp.ratio_nonincreasing
        and rep_mcp.limit_zero.status == "converged"
        and rep_mcp.limit_zero.value is not None
        and abs(rep_mcp.limit_zero.value - 4.0) < 1e-6
        and rep_exp.limit_zero.value is not None
        and abs(rep_exp.limit_zero.value - 2.0) < 1e-6
        and "dominance" in rep_sqrt.supported_rules
    )
    return ok, {
        "mcp_limit_zero": rep_mcp.limit_zero.value,
        "exp_limit_zero": rep_exp.limit_zero.value,
        "sqrt_rules": rep_sqrt.supported_rules,
    }


# -- 10 ----------------------------------------------------------------------

@_timed
def criterion_perturbation_construction(seed, overrides):
    """Constructive subspace perturbation: membership and distance bound."""
    rng = np.random.default_rng(seed)
    n, l = 6, 3
    worst_resid = 0.0
    worst_excess = -math.inf
    failures = 0
    for _ in range(10_000):
        sub = sample_haar(n, l, rng)
        z = sub.basis @ rng.standard_normal(l)
        z *= 10.0 ** rng.uniform(-2, 2) / np.linalg.norm(z)
        ratio = rng.uniform(0.0, 0.999)
        n_vec = rng.standard_normal(n)
        n_vec *= ratio * np.linalg.norm(z) / np.linalg.norm(n_vec)
        moved = perturb_subspace(sub, z, n_vec)
        resid = moved.membership_residual(z + n_vec) / np.linalg.norm(z + n_vec)
        dist = grassmann_distance(sub, moved)
        excess = dist - ratio
        worst_resid = max(worst_resid, resid)
        worst_excess = max(worst_excess, excess)
        if resid >= 1e-10 or excess > 1e-10:
            failures += 1
    return failures == 0, {"worst_residual": worst_resid, "worst_distance_excess": worst_excess}


# -- 11 ----------------------------------------------------------------------

@_timed
def criterion_region_boundary(seed, overrides):
    """Exact l1 staircase and upward closure for every built-in measure."""
    l1 = _measure("l1", overrides)
    rmap = region_boundary_map(l1, grid=(200, 200), domain=(2.0, 2.0))
    expected = (rmap.a_values[:, None] >= 1.0) | (rmap.b_values[None, :] >= 1.0)
    l1_exact = bool((rmap.region_a == expected).all())

    measures = [
        _measure("l0", overrides),
        l1,
        builtin_measure("lp", p=0.5),
        _measure("exp_ce1", overrides),
        _measure("mcp_zap", overrides, alpha=2.0),
        _measure("scad", overrides, lam=1.0, a=3.7),
    ]
    upward_violations = {}
    all_upward = rmap.upward_closed
    for meas in measures:
        grid = (200, 200) if meas.name == "l1" else (60, 60)
        rm = rmap if meas.name == "l1" else region_boundary_map(meas, grid=grid, domain=(2.0, 2.0))
        upward_violations[meas.spec_string()] = rm.upward_violations
        all_upward = all_upward and rm.upward_closed
    return l1_exact and all_upward, {
        "l1_exact": l1_exact,
        "upward_violations": upward_violations,
    }


CRITERIA = {
    "counterexample": criterion_counterexample,
    "closed_form_agreement": criterion_closed_form_agreement,
    "nsc_exactness": criterion_nsc_exactness,
    "probability_equality": criterion_probability_equality,
    "power_law_inclusion": criterion_power_law_inclusion,
    "formula_fidelity": criterion_formula_fidelity,
    "width_sanity": criterion_width_sanity,
    "escape_consistency": criterion_escape_consistency,
    "robustness_bounds": criterion_robustness_bounds,
    "perturbation_construction": criterion_perturbation_construction,
    "region_boundary": criterion_region_boundary,
    "comparison_rules": criterion_comparison_rules,
}

QUICK_SUBSET = (
    "counterexample",
    "nsc_exactness",
    "formula_fidelity",
    "comparison_rules",
    "perturbation_construction",
    "closed_form_agreement",
)


def run_suite(name: str, seed: int = 0, out_path=None, overrides: dict | None = None,
              verbose: bool = True) -> SuiteReport:
    """Run a verification suite; returns the report (exit status 0 or 1).

    ``overrides`` substitutes specific built-in measures, which exists so
    that deliberate corruptions are caught by the criteria (mutation
    testing); production runs leave it empty.
    """
    if name == "paper_checks":
        names = list(CRITERIA)
    elif name == "quick":
        names = list(QUICK_SUBSET)
    else:
        raise ValueError(f"unknown suite {name!r}; known: paper_checks, quick")
    results = []
    for crit in names:
        result = CRITERIA[crit](seed, overrides)
        results.append(result)
        if verbose:
            print(result.line())
    report = SuiteReport(name, seed, results)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
