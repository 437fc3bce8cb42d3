"""Experiment orchestration: Monte Carlo recovery probabilities and the
explicit three-dimensional boundary instance.

Every experiment is a pure function of (config, seed); per-trial generators
are derived from the run seed and the trial index, so results are
reproducible and aggregation is order-independent.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import TOL
from .measures import CostFunction, builtin_measure, parse_measure
from .nsp import (
    Violation,
    _erc_from_scan,
    _golden_max,
    _rrc_from_scan,
    _validated_scan,
)
# unused here; nspbench/tracer.py intercepts these two names on this module
from .nsp import erc_member, rrc_probe  # noqa: F401
from .solver import adversarial_pair
from .subspaces import (
    MeasurementMatrix,
    gaussian_measurement,
    null_space,
    read_matrix_csv,
    sample_haar,
)

Array = np.ndarray

__all__ = [
    "ExperimentConfig",
    "WilsonInterval",
    "MonteCarloSummary",
    "Ce1Entry",
    "Ce1Report",
    "wilson_interval",
    "mc_probability",
    "verify_counterexample1",
    "config_hash",
]

MATRIX_SOURCES = ("gaussian_iid", "haar_nullspace", "file")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m: int
    k: int
    measure: str = "l1"
    trials: int = 1000
    d_grid: tuple = (1e-3,)
    seed: int = 0
    matrix_source: str = "gaussian_iid"
    matrix_file: str | None = None
    probe_budget: int = 20_000

    def __post_init__(self):
        if not (0 < self.m < self.n):
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        if not (0 <= self.k < self.n):
            raise ValueError(f"need 0 <= k < n, got k={self.k}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not all(0 < d < math.inf for d in self.d_grid):
            raise ValueError(f"d_grid entries must be finite and positive, got {self.d_grid}")
        if self.probe_budget < 1:
            raise ValueError(f"probe_budget must be >= 1, got {self.probe_budget}")
        if self.matrix_source not in MATRIX_SOURCES:
            raise ValueError(f"matrix_source must be one of {MATRIX_SOURCES}")
        if self.matrix_source == "file" and not self.matrix_file:
            raise ValueError("matrix_source 'file' requires matrix_file")
        parse_measure(self.measure)  # fail fast on bad specs
        object.__setattr__(self, "d_grid", tuple(float(d) for d in self.d_grid))

    def to_dict(self) -> dict:
        return asdict(self)


def config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class WilsonInterval:
    """95% Wilson score interval for a binomial proportion."""

    successes: int
    trials: int
    p_hat: float
    low: float
    high: float

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0


def wilson_interval(successes: int, trials: int) -> WilsonInterval:
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"bad counts: {successes}/{trials}")
    z = 1.959963984540054  # the two-sided 95% normal quantile
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return WilsonInterval(successes, trials, p, max(0.0, center - half), min(1.0, center + half))


@dataclass
class MonteCarloSummary:
    """``rrc`` counts the trials the probe passed at each radius, an upper
    estimate of P(RRC); ``rrc_sound`` counts those among them that passed
    soundly (``passed_sound``), a lower estimate."""

    config: ExperimentConfig
    trials: int
    erc: WilsonInterval
    rrc: dict                  # d -> WilsonInterval
    boundary_fraction: float
    failures: int
    rrc_sound: dict            # d -> WilsonInterval


def _trial_subspace(cfg: ExperimentConfig, rng, fixed: MeasurementMatrix | None):
    if cfg.matrix_source == "gaussian_iid":
        return null_space(gaussian_measurement(cfg.m, cfg.n, rng))
    if cfg.matrix_source == "haar_nullspace":
        return sample_haar(cfg.n, cfg.n - cfg.m, rng)
    return null_space(fixed)


def _run_trials(cfg: ExperimentConfig, indices) -> list:
    cost = CostFunction(parse_measure(cfg.measure), cfg.n)
    fixed = None
    if cfg.matrix_source == "file":
        fixed = MeasurementMatrix(read_matrix_csv(cfg.matrix_file))
    out = []
    for idx in indices:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, int(idx)]))
        try:
            sub = _trial_subspace(cfg, rng, fixed)
            # one scan answers both questions, so the robust verdicts are
            # drawn from the same candidates as the exact-recovery verdict
            scan = _validated_scan(sub, cost, cfg.k, int(rng.integers(2**32)))
            verdict = _erc_from_scan(sub, cost, cfg.k, scan)
            outcomes = [_rrc_from_scan(sub, cost, cfg.k, d, cfg.probe_budget, scan).outcome
                        for d in cfg.d_grid]
            out.append((True, verdict.member, verdict.margin, outcomes))
        except (TypeError, AttributeError, AssertionError):
            raise           # programming errors, not certificate failures
        except Exception:   # certificate failures are counted, never silent
            out.append((False, False, math.nan, ["violated"] * len(cfg.d_grid)))
    return out


def mc_probability(cfg: ExperimentConfig, threads: int = 1) -> MonteCarloSummary:
    """Estimate exact/robust recovery probabilities over random null spaces.

    Per trial the null space is drawn (Gaussian matrix or Haar) and scanned
    once; membership of the exact-recovery set is decided from that scan,
    and the perturbation probe answers at every radius in the grid, soundly
    within the scan's certified radius and by an attack beyond it.  The
    containment of the robust set in the
    exact set is asserted trial by trial, not just in expectation.
    """
    indices = list(range(cfg.trials))
    if threads <= 1:
        rows = _run_trials(cfg, indices)
    else:
        chunks = [indices[i::threads] for i in range(threads)]
        rows_by_idx: dict[int, tuple] = {}
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(_run_trials, cfg, ch): ch for ch in chunks if ch}
            for fut in concurrent.futures.as_completed(futures):
                for idx, row in zip(futures[fut], fut.result()):
                    rows_by_idx[idx] = row
        rows = [rows_by_idx[i] for i in indices]

    failures = sum(1 for ok, *_ in rows if not ok)
    valid = [r for r in rows if r[0]]
    erc_count = sum(1 for _, member, _, _ in valid if member)
    boundary = sum(1 for _, _, margin, _ in valid if abs(margin) < TOL.mc_boundary_band)
    rrc_counts = [0] * len(cfg.d_grid)
    sound_counts = [0] * len(cfg.d_grid)
    for _, member, _, outcomes in valid:
        for j, outcome in enumerate(outcomes):
            if outcome != "violated":
                rrc_counts[j] += 1
                sound_counts[j] += outcome == "passed_sound"
                if not member:
                    raise AssertionError(
                        "robust pass on a trial outside the exact-recovery set"
                    )
    n_valid = len(valid)
    if not n_valid:  # no point estimate, vacuous intervals
        vacuous = WilsonInterval(0, 0, math.nan, 0.0, 1.0)
        per_d = {d: vacuous for d in cfg.d_grid}
        return MonteCarloSummary(cfg, 0, vacuous, per_d, math.nan, failures, per_d)
    return MonteCarloSummary(
        config=cfg,
        trials=n_valid,
        erc=wilson_interval(erc_count, n_valid),
        rrc={d: wilson_interval(rrc_counts[j], n_valid) for j, d in enumerate(cfg.d_grid)},
        boundary_fraction=boundary / n_valid,
        failures=failures,
        rrc_sound={d: wilson_interval(sound_counts[j], n_valid)
                   for j, d in enumerate(cfg.d_grid)},
    )


# ---------------------------------------------------------------------------
# The explicit boundary instance in R^3
# ---------------------------------------------------------------------------

@dataclass
class Ce1Entry:
    d: float
    t_star: float
    deficit: float
    epsilon: float
    error_ratio: float
    ratio_guarantee: float
    found: bool


@dataclass
class Ce1Report:
    """Exact recovery with strictly positive margins, robustness broken at
    every radius: the line through (1, 1, 2) under the exponential penalty.

    The strict inequality margin at amplitude t is 2F(t) - F(2t), which
    equals (1 - exp(-t))^2 and is positive for every t > 0; yet for every
    d > 0 some amplitude admits a perturbation of relative size d that
    reverses the inequality (the deficit grows like 2dt for small t).
    """

    t_grid: Array
    margins: Array
    closed_form_error: float
    min_margin: float
    entries: list
    passed: bool


def verify_counterexample1(d_list=(0.5, 0.1, 0.01, 0.001)) -> Ce1Report:
    if not d_list or any(not 0 < d < 1 for d in d_list):
        raise ValueError(f"d values must lie in (0, 1), got {d_list}")
    measure = builtin_measure("exp_ce1")
    cost = CostFunction(measure, 3)
    generator = np.array([1.0, 1.0, 2.0])

    t_grid = np.geomspace(1e-4, 10.0, 100)
    f = measure.fn
    margins = 2.0 * f(t_grid) - f(2.0 * t_grid)
    closed = np.expm1(-t_grid) ** 2
    closed_err = float(np.max(np.abs(margins - closed) / np.maximum(closed, 1e-300)))

    # measurement matrix with the given null space: rows span the complement
    q, _ = np.linalg.qr(np.column_stack([generator / np.linalg.norm(generator), np.eye(3)[:, :2]]))
    a = MeasurementMatrix(q[:, 1:].T)

    def deficits(t, d):
        # deficit of the perturbed inequality with the perturbation taking a
        # (1 - d) bite out of the first coordinate at amplitude t, per (t, d)
        vals = f(np.stack([2.0 * t, (1.0 - d) * t, t], axis=-1))
        return vals[:, 0] - vals[:, 1] - vals[:, 2]

    # the best amplitude of a grid per radius, refined for all radii in lockstep
    search = np.geomspace(1e-8, 10.0, 600)
    grid_vals = [deficits(search, d) for d in d_list]
    peaks = [int(np.argmax(vals)) for vals in grid_vals]
    radii = np.array(d_list, dtype=float)
    lts, bests = _golden_max(
        lambda lts: deficits(np.array([math.exp(lt) for lt in lts]), radii).tolist(),
        [math.log(search[max(i - 1, 0)]) for i in peaks],
        [math.log(search[min(i + 1, len(search) - 1)]) for i in peaks], iters=60)

    entries = []
    ok = True
    for d, vals, i, lt, best in zip(d_list, grid_vals, peaks, lts, bests):
        t_star = math.exp(lt)
        if best < vals[i]:
            t_star, best = float(search[i]), float(vals[i])
        found = best > 0.0
        ok = ok and found

        z = t_star * generator
        n_vec = np.array([-d * t_star, 0.0, 0.0])
        entry = Ce1Entry(d, t_star, best, math.nan, math.nan, math.nan, found)
        if found:
            witness = Violation(z, n_vec, (2,), best)
            pair = adversarial_pair(a, cost, 1, d, witness=witness)
            entry.epsilon = pair.epsilon
            entry.error_ratio = pair.ratio
            entry.ratio_guarantee = pair.ratio_guarantee
        entries.append(entry)

    passed = ok and bool((margins > 0).all())
    return Ce1Report(t_grid, margins, closed_err, float(margins.min()), entries, passed)

