"""Gaussian widths of the failure cones and the rate-robustness formulas.

The failure set of a separable penalty at sparsity k is a symmetric cone;
its spherical section K collects unit vectors whose top-k cost is at least
half the total.  A Haar-random subspace avoids K with probability governed
by the Gaussian width w(K) = E sup_{x in K} g.x, which this module
estimates by Monte Carlo.  Per draw, the supremum is exact for the l1
cost: the top-k support of |g| attains it (rearrangement), and its value
is the norm of one convex cone projection whose multiplier has a closed
form.  That sup is exact too for a penalty that takes l1's certificates
(:func:`nsp._l1_routed`): its failure cone lies inside l1's by dominance,
and every ray with a positive l1 deficit enters it at a small enough
amplitude, so the two sections have the same closure and the same
supremum.  Other penalties get a feasible line-search lower bound over
every support of size k: the top-k support of |g| first, then the others,
each dropped as soon as it provably cannot beat the best value found.  The
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
from .nsp import _batches, _check_support_budget, _l1_routed, _topk_total, robustness_constant
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

# The generic search retires a (support, draw) pair whose ceiling lies
# this far below its draw's best value, relative to ||g|| (see
# _sup_generic for why this changes no value).
_RETIRE_MARGIN = 1e-9


def _sup_generic(g: Array, measure, k: int) -> Array:
    """Lower bound on the per-draw sup over the failure section of a general
    penalty: from each support-restricted direction u0 (always inside the
    cone) bisect toward ghat = g/||g|| along the sphere, keeping
    feasibility; a draw's value is the best g.u found, capped at ||g||.

    The search skips only work whose outcome is known, so every value is
    that of the search over all C(n, k) supports, bit for bit:

    1. A draw whose ghat is feasible has the value ||g||.
    2. Every other draw first bisects its top-k support of |g|, the l1
       maximizer and nearly always the winner, which gives it a floor.
    3. Its other supports are then bisected in lockstep, and a pair retires
       once its ceiling lies ``_RETIRE_MARGIN`` ||g|| below the draw's best
       value.  g.u rises monotonically along the arc from u0 to ghat, so a
       pair whose feasible fraction stays below h ends below the ceiling
       ||g|| ((1-h) c + h) / sqrt((1-h)^2 + 2h(1-h) c + h^2), c = ghat.u0,
       and a retired pair's value is below the maximum.

    The retire margin lies far above rounding: g.u and the ceiling are
    sums of n terms, each good to a few ulps, so their rounding is about
    n 2^-52 of ||g||, six orders below 1e-9 at small n.

    Pairs are bisected at most ``ELEMENT_BUDGET`` / n at a time, a retired
    or finished pair's slot taken by the next.  A point of a
    non-homogeneous measure is checked at the smallest scale, and if still
    undecided at the remaining scales, in blocks of at most
    2 ``ELEMENT_BUDGET`` penalty values.
    Columns are gathered C-ordered, and no lone column is gathered: numpy
    reduces a lone column, as it does a column of an F-ordered array, in
    another order (see :func:`nsp._batches`).  ``g`` holds at least two
    draws; :func:`_draw_sups` passes a sample of one draw doubled.
    """
    n, total = g.shape
    supports = np.array(list(itertools.combinations(range(n), k)))
    n_sup = len(supports)
    masks = np.zeros((n, n_sup))
    masks[supports.T, np.arange(n_sup)] = 1.0
    if measure.is_homogeneous:
        scales = np.ones(1)
    else:
        scales = np.geomspace(1e-6, 1e6, _WIDTH_SCALE_POINTS)
    width = max(2, ELEMENT_BUDGET // n)
    rest_width = max(2, 2 * ELEMENT_BUDGET // (len(scales) * n))

    def cols(idx: Array) -> Array:
        """Column indices to gather, a lone one doubled."""
        return np.repeat(idx, 2) if len(idx) == 1 else idx

    def feasible(u: Array) -> Array:
        """Columns of u whose top-k cost reaches half the total at some scale."""
        absu = np.abs(u)
        # a homogeneous measure's lone scale 1.0 would multiply exactly
        first = absu if measure.is_homogeneous else scales[0] * absu
        top, tot = _topk_total(measure.fn(first[None]), k, axis=1)
        ok = (2.0 * top - tot >= 0.0)[0]
        rest = cols(np.flatnonzero(~ok)) if len(scales) > 1 else []
        for start, stop in _batches(len(rest), rest_width):
            block = rest[start:stop]
            fv = measure.fn(scales[1:, None, None] * np.take(absu, block, axis=1)[None])
            top, tot = _topk_total(fv, k, axis=1)
            ok[block] = ((2.0 * top - tot) >= 0.0).any(axis=0)
        return ok

    def mix(u0: Array, gh: Array, frac: Array) -> Array:
        """The normalized (1 - frac) u0 + frac gh, normalized with the bits
        of np.linalg.norm's sqrt(sum(u * u))."""
        u = u0 * (1.0 - frac)
        u += gh * frac
        u /= np.sqrt(np.add.reduce(u * u, axis=0))
        return u

    gn = np.linalg.norm(g, axis=0)
    ghat = g / gn
    best = np.full(total, -np.inf)

    def search(count: int, pair_at) -> None:
        """Bisect the (draw, support) pairs pair_at(0), ..., pair_at(count - 1)
        toward their draws' ghat, at most ``width`` at a time, a retired or
        finished pair's slot refilled with the next, and raise each draw's
        best to its pairs' final g.u."""
        # per pair: draw, feasible and infeasible fractions toward ghat,
        # ghat.u0, steps taken, u0 and ghat
        pool = [np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0),
                np.empty(0, dtype=np.intp), np.empty((n, 0)), np.empty((n, 0))]
        taken = 0
        while taken < count or len(pool[0]):
            if taken < count and len(pool[0]) < width:
                q = cols(np.arange(taken, min(count, taken + width - len(pool[0]))))
                taken = q[-1] + 1
                new_d, new_s = pair_at(q)
                v0 = np.take(g, new_d, axis=1) * np.take(masks, new_s, axis=1)
                v0n = np.sqrt(np.add.reduce(v0 * v0, axis=0))
                degenerate = np.flatnonzero(v0n < 1e-12)
                if len(degenerate):      # start from the support's first axis
                    v0[:, degenerate] = 0.0
                    v0[supports[new_s[degenerate], 0], degenerate] = 1.0
                    v0n[degenerate] = 1.0
                v0 /= v0n
                new_gh = np.take(ghat, new_d, axis=1)
                fresh = [new_d, np.zeros(len(q)), np.ones(len(q)),
                         np.add.reduce(new_gh * v0, axis=0), np.zeros(len(q), dtype=np.intp),
                         v0, new_gh]
                pool = [np.concatenate([a, b], axis=-1) for a, b in zip(pool, fresh)]
            d, lo, hi, c, steps, u0, gh = pool
            mid = 0.5 * (lo + hi)
            ok = feasible(mix(u0, gh, mid))
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
            steps += 1
            done = steps == _BISECT_STEPS
            if done.any():
                i = cols(np.flatnonzero(done))
                u = mix(np.take(u0, i, axis=1), np.take(gh, i, axis=1), lo[i])
                np.maximum.at(best, d[i], np.add.reduce(np.take(g, d[i], axis=1) * u, axis=0))
            # g.u at the infeasible fraction bounds the pair's final value
            ceiling = gn[d] * ((1.0 - hi) * c + hi) / np.sqrt(
                (1.0 - hi) ** 2 + 2.0 * hi * (1.0 - hi) * c + hi * hi)
            keep = ~done & (ceiling >= best[d] - _RETIRE_MARGIN * gn[d])
            pool = [d, lo, hi, c, steps, u0, gh]
            if not keep.all():
                i = cols(np.flatnonzero(keep))
                pool = [np.take(a, i, axis=-1) for a in pool]

    whole = np.zeros(total, dtype=bool)
    for start, stop in _batches(total, width):
        whole[start:stop] = feasible(ghat[:, start:stop])
    live = np.flatnonzero(~whole)
    # the lexicographic rank of each live draw's top-k support of |g|
    top_k = np.sort(np.argpartition(-np.abs(g[:, live]), k - 1, axis=0)[:k], axis=0)
    binom = np.array([[math.comb(i, j) for j in range(k + 1)] for i in range(n)])
    top = n_sup - 1 - binom[n - 1 - top_k, k - np.arange(k)[:, None]].sum(axis=0)
    search(len(live), lambda q: (live[q], top[q]))
    others = n_sup - 1

    def other_pair(q: Array):
        s = q % others
        return live[q // others], s + (s >= top[q // others])

    search(len(live) * others, other_pair)
    # rounding can put g.u a few ulps above ||g||, the sup over the sphere
    return np.where(whole, gn, np.minimum(best, gn))


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
    generic = k < n and measure.homogeneity_degree != 1.0 and not _l1_routed(measure)
    if generic:
        _check_support_budget(n, k)
    key = (n, k, draws, int(seed)) if isinstance(seed, (int, np.integer)) else None
    held = _last_sample      # read once: a thread may replace the entry
    if key is not None and held is not None and held[0] is measure and held[1] == key:
        return held[2]
    g = as_rng(seed).standard_normal((n, draws))
    # numpy sums a lone column in another order than a column of a wider
    # sample, so a sample of one draw is reduced as a doubled column
    g = np.repeat(g, 2, axis=1) if draws == 1 else g
    norms = np.linalg.norm(g, axis=0)
    if k == n:
        sup, label = norms, "whole_sphere"
    elif not generic:
        # in blocks of draws, so that no temporary grows with the sample;
        # every draw is reduced on its own and no block is a lone column
        sup, label = np.empty(g.shape[1]), "support_projection"
        for start, stop in _batches(g.shape[1], max(2, ELEMENT_BUDGET // n)):
            sup[start:stop] = _sup_l1(np.abs(g[:, start:stop]), k)
    else:
        sup, label = _sup_generic(g, measure, k), "multistart"
    sample = sup[:draws], norms[:draws], label, generic
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
    expression is negative, so parameter sweeps stay total.  A width is
    never negative, and a NaN one is rejected rather than read as 0.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not w >= 0:
        raise ValueError(f"need a width w >= 0, got {w}")
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
    so ``measure.fn`` must be pure.  ``d`` and an explicit width must be
    finite and non-negative.
    """
    if not (math.isfinite(d) and d >= 0):
        raise ValueError(f"need finite d >= 0, got {d}")
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
        if not (math.isfinite(w) and w >= 0):
            raise ValueError(f"need a finite explicit width >= 0, got {width_source!r}")
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
