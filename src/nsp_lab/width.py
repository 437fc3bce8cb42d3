"""Gaussian widths of the failure cones and the rate-robustness formulas.

The failure set of a separable penalty at sparsity k is a symmetric cone;
its spherical section K collects unit vectors whose top-k cost is at least
half the total.  A Haar-random subspace avoids K with probability governed
by the Gaussian width w(K) = E sup_{x in K} g.x, which this module
estimates by Monte Carlo.  Per draw, the supremum is exact for the l1
cost: the top-k support of |g| attains it (rearrangement), and its value
is the norm of one convex cone projection whose multiplier has a closed
form.  Other penalties get a feasible line-search lower bound from every
support of size k, in batches of a fixed number of penalty values.

Because the failure cone is a union of rays, the d-extended section is the
angular d-neighborhood of K, so its per-draw supremum follows from the
minimal angle to K by a trigonometric identity; the inequality
sup_{K_d} <= d ||g|| + sup_K is checked on every draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import ELEMENT_BUDGET
from .measures import CostFunction
from .nsp import _batches, _check_support_budget, _topk_total, robustness_constant
from .subspaces import as_rng

Array = np.ndarray

__all__ = [
    "WidthEstimate",
    "TradeoffPoint",
    "OmegaHatBound",
    "width_mc",
    "width_extended",
    "zeta",
    "rv_bound",
    "gordon_bound",
    "omega_hat_bound",
    "delta_margin",
    "delta_positivity_threshold",
    "oracle_robustness_constant",
    "tradeoff",
    "chi_mean",
]


@dataclass
class WidthEstimate:
    mean: float
    std_error: float
    samples: int
    inner_search: str        # "whole_sphere" | "support_projection" | "multistart"
    is_lower_bound: bool


def chi_mean(n: int) -> float:
    """E ||g|| for an n-dimensional standard Gaussian vector."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2))


def _sup_l1(g_abs: Array, k: int) -> Array:
    """Exact per-draw sup of g.x over the l1 failure section, 0 < k < n.

    Sorting a feasible x like a = |g| keeps it feasible and does not lower
    g.x, so the top-k support T of a attains the sup: the norm of the
    projection (a_T + t, (a_{T^c} - t)_+) of a onto the cone
    {v >= 0, sum_T v >= sum_{T^c} v}.  Its multiplier is
    t = max_j (S_j - sum_T a)/(k + j), S_j the sum of the j largest of a_{T^c}.
    """
    a = -np.sort(-g_abs, axis=0)            # descending per draw
    top, rest = a[:k], a[k:]
    s = top.sum(axis=0)
    t = ((np.cumsum(rest, axis=0) - s) / np.arange(k + 1, len(a) + 1)[:, None]).max(axis=0)
    vals = np.sqrt(((top + t) ** 2).sum(axis=0) + (np.maximum(rest - t, 0.0) ** 2).sum(axis=0))
    # t <= 0: g itself lies in the cone
    return np.where(t > 0.0, vals, np.linalg.norm(g_abs, axis=0))


# The generic search's own amplitude grid on [1e-6, 1e6], unrefined and
# coarser than the certificates' (config.SCALE_GRID_POINTS, refined), and
# its bisection steps toward g per support.
_WIDTH_SCALE_POINTS = 33
_BISECT_STEPS = 30


def _feasible_in_cone(u: Array, measure, k: int, scales: Array) -> Array:
    """Columns of u whose top-k cost reaches half the total at some scale."""
    fv = measure.fn(scales[:, None, None] * np.abs(u)[None, :, :])
    top, tot = _topk_total(fv, k, axis=1)
    return ((2.0 * top - tot) >= 0.0).any(axis=0)


def _sup_generic(g: Array, measure, k: int, scales: Array) -> Array:
    """Lower bound on the per-draw sup over the failure section of a general
    penalty: start from each support-restricted direction (always inside the
    cone) and line-search toward g along the sphere, keeping feasibility."""
    n, total_draws = g.shape
    _check_support_budget(n, k)
    masks = np.array([[i in T for i in range(n)] for T in itertools.combinations(range(n), k)])
    out = np.full(total_draws, -np.inf)
    # C(n, k) supports x _BISECT_STEPS small evaluations per batch make
    # this search bound by per-call overhead, so its batches are twice
    # as wide as the budget despite the fresh pages
    size = max(2, 2 * ELEMENT_BUDGET // (len(scales) * n))
    for start, stop in _batches(total_draws, size):
        gc = g[:, start:stop]
        gn = np.linalg.norm(gc, axis=0)
        ghat = gc / gn
        best = np.full(gc.shape[1], -np.inf)
        whole = _feasible_in_cone(ghat, measure, k, scales)
        best = np.where(whole, gn, best)
        for m in masks:
            u0 = gc * m[:, None]
            u0n = np.linalg.norm(u0, axis=0)
            degenerate = u0n < 1e-12
            if degenerate.any():
                fallback = np.zeros_like(u0)
                fallback[np.argmax(m)] = 1.0
                u0 = np.where(degenerate[None, :], fallback, u0)
                u0n = np.linalg.norm(u0, axis=0)
            u0 = u0 / u0n
            lo = np.zeros(gc.shape[1])       # feasible fraction toward ghat
            hi = np.ones(gc.shape[1])
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                u = (1.0 - mid)[None, :] * u0 + mid[None, :] * ghat
                u /= np.linalg.norm(u, axis=0)
                ok = _feasible_in_cone(u, measure, k, scales)
                lo = np.where(ok, mid, lo)
                hi = np.where(ok, hi, mid)
            u = (1.0 - lo)[None, :] * u0 + lo[None, :] * ghat
            u /= np.linalg.norm(u, axis=0)
            vals = (gc * u).sum(axis=0)
            best = np.maximum(best, vals)
        out[start:stop] = best
    return out


def _draw_sups(cost: CostFunction, k: int, draws: int, seed):
    """(g, per-draw sup, inner search label, is_lower_bound) for ``draws``
    Gaussian draws at ``seed``: the sample both width estimates share."""
    n, measure = cost.dimension, cost.measure
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    g = as_rng(seed).standard_normal((n, draws))
    if not measure.continuous:
        raise ValueError(f"width estimation requires a continuous measure, got {measure.name}")
    if k == n:
        return g, np.linalg.norm(g, axis=0), "whole_sphere", False
    if measure.homogeneity_degree == 1.0:
        return g, _sup_l1(np.abs(g), k), "support_projection", False
    if measure.is_homogeneous:
        scales = np.array([1.0])
    else:
        scales = np.geomspace(1e-6, 1e6, _WIDTH_SCALE_POINTS)
    return g, _sup_generic(g, measure, k, scales), "multistart", True


def width_mc(cost: CostFunction, k: int, draws: int = 10_000, seed: int = 0) -> WidthEstimate:
    """Monte Carlo Gaussian width of the sparsity-k failure section."""
    _, sup, label, lower = _draw_sups(cost, k, draws, seed)
    se = float(sup.std(ddof=1) / math.sqrt(draws)) if draws > 1 else math.inf
    return WidthEstimate(float(sup.mean()), se, draws, label, lower)


def width_extended(
    cost: CostFunction,
    k: int,
    d: float,
    draws: int = 10_000,
    seed: int = 0,
) -> WidthEstimate:
    """Monte Carlo width of the d-extended failure section.

    Shares the Gaussian draws of :func:`width_mc` at the same seed, so the
    two estimates are paired.  Per draw, since the failure cone is a union
    of rays through the origin, the extended supremum is
    ||g|| cos(max(0, theta - arcsin(min(d, 1)))) where theta is the angle
    between g and the section; the bound sup_{K_d} <= d ||g|| + sup_K is
    asserted for every draw.
    """
    if not (math.isfinite(d) and d >= 0):
        raise ValueError(f"need finite d >= 0, got {d}")
    g, sup, label, lower = _draw_sups(cost, k, draws, seed)
    norms = np.linalg.norm(g, axis=0)
    theta = np.arccos(np.clip(sup / norms, -1.0, 1.0))
    alpha = math.asin(min(d, 1.0))
    sup_d = norms * np.cos(np.maximum(theta - alpha, 0.0))
    if not (sup_d <= d * norms + sup + 1e-9 * np.maximum(1.0, norms)).all():
        raise AssertionError("per-draw extended-width bound violated")  # pragma: no cover
    se = float(sup_d.std(ddof=1) / math.sqrt(draws)) if draws > 1 else math.inf
    return WidthEstimate(float(sup_d.mean()), se, draws, label, lower)


# ---------------------------------------------------------------------------
# Analytic width bound and escape probability
# ---------------------------------------------------------------------------

def zeta(n: int, k: int) -> float:
    """Correction factor in the analytic l1 width bound (natural logs)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    ln_enk = 1.0 + math.log(n / k)
    return math.exp(math.log1p(2.0 * ln_enk) / (4.0 * ln_enk) + 1.0 / (24.0 * k * k * ln_enk))


def rv_bound(n: int, k: int) -> float:
    """Analytic upper bound 2 sqrt(k (3 + 2 ln(n/k))) zeta(n, k) on the l1 width."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return 2.0 * math.sqrt(k * (3.0 + 2.0 * math.log(n / k))) * zeta(n, k)


def gordon_bound(w: float, m: int) -> float:
    """Escape probability lower bound 1 - 2.5 exp(-(m/sqrt(m+1) - w)^2 / 18).

    Returns 0 when the width condition w < sqrt(m) fails or when the raw
    expression is negative, so parameter sweeps stay total.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not w < math.sqrt(m):
        return 0.0
    raw = 1.0 - 2.5 * math.exp(-((m / math.sqrt(m + 1.0) - w) ** 2) / 18.0)
    return max(0.0, raw)


@dataclass
class OmegaHatBound:
    bound: float
    width_value: float
    width_source: str
    condition_ok: bool   # w + d sqrt(n) < sqrt(m)


def omega_hat_bound(
    cost: CostFunction,
    m: int,
    k: int,
    d: float,
    width_source: str = "auto",
    draws: int = 10_000,
    seed: int = 0,
) -> OmegaHatBound:
    """Lower bound on the Haar measure of radius-d robust null spaces.

    Uses the analytic l1 width bound or a Monte Carlo width, then applies
    the escape probability at effective width w + d sqrt(n).  When the
    condition w + d sqrt(n) < sqrt(m) fails the bound is 0 and the flag
    records it.
    """
    n = cost.dimension
    if width_source == "auto":
        width_source = "rv" if cost.measure.homogeneity_degree == 1.0 else "mc"
    if width_source == "rv":
        if cost.measure.homogeneity_degree != 1.0:
            raise ValueError("the analytic width bound applies to the l1 cost only")
        w = rv_bound(n, k)
    elif width_source == "mc":
        w = width_mc(cost, k, draws=draws, seed=seed).mean
    else:
        w = float(width_source)
        width_source = "explicit"
    effective = w + d * math.sqrt(n)
    ok = effective < math.sqrt(m)
    bound = gordon_bound(effective, m) if ok else 0.0
    return OmegaHatBound(bound, w, width_source, ok)


# ---------------------------------------------------------------------------
# Linear-growth tradeoff
# ---------------------------------------------------------------------------

def delta_margin(beta: float, gamma: float) -> float:
    """Robustness margin delta(beta, gamma) in the linear-growth regime
    n = floor(beta k), m = ceil(gamma k); natural logs throughout."""
    _validate_growth(beta, gamma)
    lnb = math.log(beta)
    ln_eb = 1.0 + lnb
    bound = 2.0 * math.sqrt(3.0 + 2.0 * lnb) * math.exp(math.log1p(2.0 * ln_eb) / (4.0 * ln_eb))
    return (math.sqrt(gamma) - bound) / math.sqrt(beta)


def delta_positivity_threshold(beta: float) -> float:
    """The gamma above which delta(beta, gamma) is positive."""
    if not 1 < beta < math.inf:
        raise ValueError(f"need finite beta > 1, got {beta}")
    lnb = math.log(beta)
    ln_eb = 1.0 + lnb
    return 4.0 * (3.0 + 2.0 * lnb) * math.exp(math.log1p(2.0 * ln_eb) / (2.0 * ln_eb))


def oracle_robustness_constant(gamma: float) -> float:
    """Error constant of the support-aware least-squares oracle, 1/(1 - gamma^{-1/2})."""
    if gamma <= 1:
        raise ValueError(f"need gamma > 1, got {gamma}")
    return 1.0 / (1.0 - 1.0 / math.sqrt(gamma))


def _validate_growth(beta: float, gamma: float) -> None:
    if not math.inf > beta > gamma >= 1:
        raise ValueError(f"need finite beta > gamma >= 1, got beta={beta}, gamma={gamma}")


@dataclass
class TradeoffPoint:
    beta: float
    gamma: float
    delta: float
    C: float | None              # robustness constant, present iff delta > 0
    gordon_bound: float          # finite-size escape probability at d = TRADEOFF_D_FRACTION * delta
    oracle_constant: float | None


# The finite-size plug-in of ``tradeoff``'s escape probability.
TRADEOFF_K_REF = 200        # reference sparsity
TRADEOFF_D_FRACTION = 0.5   # perturbation radius as a fraction of delta


def tradeoff(beta: float, gamma: float) -> TradeoffPoint:
    """Evaluate the rate-robustness tradeoff at one (beta, gamma) point.

    ``gordon_bound`` reports the finite-size escape probability at the
    reference sparsity ``TRADEOFF_K_REF`` with the perturbation radius set
    to ``TRADEOFF_D_FRACTION * delta`` (0 when delta <= 0): the asymptotic
    statement is probability-one, so any finite plug-in is a convention and
    this one is recorded with the point.  ``oracle_constant`` is the
    support-aware constant, for gamma > 1.
    """
    delta = delta_margin(beta, gamma)
    c_val = robustness_constant(delta, 1.0 - math.sqrt(gamma / beta)) if delta > 0 else None
    n = int(math.floor(beta * TRADEOFF_K_REF))
    m = int(math.ceil(gamma * TRADEOFF_K_REF))
    d = TRADEOFF_D_FRACTION * max(delta, 0.0)
    gb = gordon_bound(rv_bound(n, TRADEOFF_K_REF) + d * math.sqrt(n), m)
    oracle = None
    if gamma > 1:
        oracle = oracle_robustness_constant(gamma)
    return TradeoffPoint(beta, gamma, delta, c_val, gb, oracle)
