"""Gaussian widths of the failure cones and the rate-robustness formulas.

The failure set of a separable penalty at sparsity k is a symmetric cone;
its spherical section K collects unit vectors whose top-k cost is at least
half the total.  A Haar-random subspace avoids K with probability governed
by the Gaussian width w(K) = E sup_{x in K} g.x, which this module
estimates by Monte Carlo.  Per draw, the supremum is exact for the l1
cost: the top-k support of |g| attains it (rearrangement), and its value
is the norm of one convex cone projection whose multiplier has a closed
form.  Other penalties get a feasible line-search lower bound from every
support of size k, in batches of a fixed number of penalty values.  The
estimates asked of one draw sample share its per-draw suprema.

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


def _sup_generic(g: Array, measure, k: int) -> Array:
    """Lower bound on the per-draw sup over the failure section of a general
    penalty: start from each support-restricted direction (always inside the
    cone) and line-search toward g along the sphere, keeping feasibility."""
    n, total_draws = g.shape
    masks = np.array([[i in T for i in range(n)] for T in itertools.combinations(range(n), k)])
    if measure.is_homogeneous:
        scales = np.ones(1)
    else:
        scales = np.geomspace(1e-6, 1e6, _WIDTH_SCALE_POINTS)
    out = np.full(total_draws, -np.inf)
    # a bisection step makes a few passes over (scale, n, draw) arrays, so
    # the search is bound by element passes; its batches are twice as
    # wide as the budget, and every temporary it controls lives in buffers
    # allocated once, at the widest batch, below
    spans = list(_batches(total_draws, max(2, 2 * ELEMENT_BUDGET // (len(scales) * n))))
    widest = max(stop - start for start, stop in spans)
    flat = np.empty((3, n * widest))
    scaled = np.empty(len(scales) * n * widest)
    norms = np.empty(widest)

    def feasible(u: Array, absu: Array, sc: Array) -> Array:
        """Columns of u whose top-k cost reaches half the total at some scale."""
        np.abs(u, out=absu)
        if measure.is_homogeneous:       # the lone scale 1.0 multiplies exactly
            fv = measure.fn(absu[None, :, :])
        else:
            fv = measure.fn(np.multiply(scales[:, None, None], absu[None, :, :], out=sc))
        top, tot = _topk_total(fv, k, axis=1)
        return ((2.0 * top - tot) >= 0.0).any(axis=0)

    def mix_on_sphere(u0: Array, ghat: Array, frac: Array, u: Array, tmp: Array, nrm: Array):
        """u = the normalized (1 - frac) u0 + frac ghat, with the bits of
        np.linalg.norm's sqrt(sum(u * u))."""
        np.multiply(u0, 1.0 - frac, out=u)
        np.add(u, np.multiply(ghat, frac, out=tmp), out=u)
        np.sqrt(np.add.reduce(np.multiply(u, u, out=tmp), axis=0, out=nrm), out=nrm)
        np.divide(u, nrm, out=u)

    for start, stop in spans:
        cols = stop - start
        # contiguous (n, cols) views, laid out as fresh arrays would be
        u, tmp, absu = (b[: n * cols].reshape(n, cols) for b in flat)
        sc = scaled[: len(scales) * n * cols].reshape(len(scales), n, cols)
        nrm = norms[:cols]
        gc = g[:, start:stop]
        gn = np.linalg.norm(gc, axis=0)
        ghat = gc / gn
        best = np.full(cols, -np.inf)
        whole = feasible(ghat, absu, sc)
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
            lo = np.zeros(cols)       # feasible fraction toward ghat
            hi = np.ones(cols)
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                mix_on_sphere(u0, ghat, mid, u, tmp, nrm)
                ok = feasible(u, absu, sc)
                lo = np.where(ok, mid, lo)
                hi = np.where(ok, hi, mid)
            mix_on_sphere(u0, ghat, lo, u, tmp, nrm)
            best = np.maximum(best, np.add.reduce(np.multiply(gc, u, out=tmp), axis=0))
        # rounding can put g.u a few ulps above ||g||, the sup over the sphere
        out[start:stop] = np.minimum(best, gn)
    return out


# The last int-seeded sample of _draw_sups and its key: (measure, (n, k,
# draws, seed), sample).  Holding the measure keeps its id from being
# reused while the entry lives.
_last_sample = None


def _draw_sups(cost: CostFunction, k: int, draws: int, seed):
    """(per-draw sup, per-draw ||g||, inner search label, is_lower_bound)
    for ``draws`` Gaussian draws at ``seed``: the sample that the width
    estimates share.

    The last sample drawn from an int seed is kept, read-only, and served
    again for the same measure object, dimension, k, draws and seed, so
    ``measure.fn`` must be pure.  A Generator seed always draws afresh.
    """
    global _last_sample
    n, measure = cost.dimension, cost.measure
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not measure.continuous:
        raise ValueError(f"width estimation requires a continuous measure, got {measure.name}")
    generic = k < n and measure.homogeneity_degree != 1.0
    if generic:
        _check_support_budget(n, k)
    key = (n, k, draws, int(seed)) if isinstance(seed, (int, np.integer)) else None
    held = _last_sample      # read once: a thread may replace the entry
    if key is not None and held is not None and held[0] is measure and held[1] == key:
        return held[2]
    g = as_rng(seed).standard_normal((n, draws))
    norms = np.linalg.norm(g, axis=0)
    if k == n:
        sample = norms, norms, "whole_sphere", False
    elif not generic:
        sample = _sup_l1(np.abs(g), k), norms, "support_projection", False
    else:
        sample = _sup_generic(g, measure, k), norms, "multistart", True
    for arr in sample[:2]:
        arr.setflags(write=False)
    if key is not None:
        _last_sample = measure, key, sample
    return sample


def width_mc(cost: CostFunction, k: int, draws: int = 10_000, seed: int = 0) -> WidthEstimate:
    """Monte Carlo Gaussian width of the sparsity-k failure section.

    The per-draw suprema of one (measure object, k, draws, int seed)
    sample are computed once and shared with :func:`width_extended` and
    :func:`omega_hat_bound`, so ``measure.fn`` must be pure.
    """
    sup, _, label, lower = _draw_sups(cost, k, draws, seed)
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
    two estimates are paired; after :func:`width_mc` on the same measure
    object, k, draws and int seed it reuses its per-draw suprema instead
    of searching again, so ``measure.fn`` must be pure.  Per draw, since
    the failure cone is a union of rays through the origin, the extended
    supremum is ||g|| cos(max(0, theta - arcsin(min(d, 1)))) where theta
    is the angle between g and the section; the bound
    sup_{K_d} <= d ||g|| + sup_K is asserted for every draw.
    """
    if not (math.isfinite(d) and d >= 0):
        raise ValueError(f"need finite d >= 0, got {d}")
    sup, norms, label, lower = _draw_sups(cost, k, draws, seed)
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
    records it.  The Monte Carlo width is :func:`width_mc`'s, whose
    sample of one (measure object, k, draws, int seed) is computed once,
    so ``measure.fn`` must be pure.
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
