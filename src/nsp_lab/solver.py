"""Penalty-minimizing recovery solvers and robustness experiments.

The solvers corroborate the null-space certificates; they never replace
them.  Ground truth for exact recovery is always the certificate, because
the noiseless minimization is non-convex for most penalties and descent can
stall in local minima; such results record that global optimality is not
guaranteed.  ``enumerate`` is exact among feasible candidates of sparsity
at most k.  The noisy problem under an l1 cost is convex: ``solve_noisy``
finds its minimizer by the LASSO homotopy and certifies it with the KKT
residual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .config import SUPPORT_ENUMERATION_CAP, TOL
from .measures import CostFunction
from .nsp import Violation, rrc_probe
from .nsp import _attack_candidates, _deficit_raw, _slope, _support_of
from .subspaces import MeasurementMatrix, as_rng, null_space

Array = np.ndarray

__all__ = [
    "RecoveryProblem",
    "SolveResult",
    "TrialRecord",
    "AdversarialPair",
    "RobustnessSweep",
    "solve_noiseless",
    "solve_noisy",
    "adversarial_pair",
    "empirical_robustness",
]


@dataclass(frozen=True)
class RecoveryProblem:
    """A measurement y = A x + noise with a penalty and a sparsity level."""

    matrix: MeasurementMatrix
    y: Array
    epsilon: float
    cost: CostFunction
    k: int

    def __post_init__(self):
        m, n = self.matrix.shape
        y = np.asarray(self.y, dtype=float)
        if y.shape != (m,):
            raise ValueError(f"y must have shape ({m},), got {y.shape}")
        if not np.isfinite(y).all():
            raise ValueError("y must be finite")
        if self.cost.dimension != n:
            raise ValueError(f"cost dimension {self.cost.dimension} != {n}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0 <= self.k < n:
            raise ValueError(f"need 0 <= k < n, got k={self.k}")
        object.__setattr__(self, "y", y.copy())


@dataclass
class SolveResult:
    x_hat: Array
    cost_value: float
    residual: float
    method: str
    iterations: int
    optimal_guaranteed: bool = False
    note: str = ""
    kkt_residual: float | None = None   # homotopy only; see _kkt_residual


def _grad_cost(cost: CostFunction, x: Array) -> Array:
    """Numerical subgradient of the separable cost, elementwise on an array;
    0 at coordinates pinned to zero (|x_i| < 1e-12), the kink convention."""
    ax = np.abs(x)
    g = _slope(cost.measure, ax) * np.sign(x)
    g[ax < 1e-12] = 0.0
    return g


def _enumerate_candidates(problem: RecoveryProblem, residual_tol: float):
    """Feasible least-squares candidates on every support of size <= k."""
    a = problem.matrix.entries
    y = problem.y
    n = a.shape[1]
    total = sum(math.comb(n, s) for s in range(problem.k + 1))
    if total > SUPPORT_ENUMERATION_CAP:
        raise ValueError(
            f"{total} supports exceed the enumeration cap {SUPPORT_ENUMERATION_CAP}"
        )
    out = []
    ynorm = np.linalg.norm(y)
    if ynorm <= residual_tol:
        out.append(np.zeros(n))
    for size in range(1, problem.k + 1):
        for idx in itertools.combinations(range(n), size):
            sub = a[:, list(idx)]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if np.linalg.norm(sub @ coef - y) <= residual_tol:
                x = np.zeros(n)
                x[list(idx)] = coef
                out.append(x)
    return out


def solve_noiseless(
    problem: RecoveryProblem,
    method: str = "descent",
    seed: int = 0,
    starts: int = 32,
) -> SolveResult:
    """Minimize the cost over {x : Ax = y}.

    ``descent`` parametrizes the feasible set as x0 + N w (x0 the min-norm
    solution, N the null-space basis) and runs derivative-free multistart
    minimization over w.  ``irls`` applies reweighted least squares on the
    same affine set and requires a power-law penalty.  ``enumerate`` solves
    least squares on every support of size <= k and returns the feasible
    candidate of least cost: exact among sparse candidates, blind to denser
    minimizers.
    """
    if problem.epsilon != 0:
        raise ValueError("noiseless solver requires epsilon = 0")
    a = problem.matrix
    y = problem.y
    cost = problem.cost
    res_tol = TOL.feasibility * (1.0 + np.linalg.norm(y))

    if method == "enumerate":
        cands = _enumerate_candidates(problem, res_tol)
        if not cands:
            raise ValueError("no feasible candidate of sparsity <= k exists")
        vals = [cost.value(x) for x in cands]
        i = int(np.argmin(vals))
        x = cands[i]
        return SolveResult(
            x, vals[i], float(np.linalg.norm(a.entries @ x - y)), method, len(cands),
            note="exact among candidates of sparsity <= k; denser minimizers not examined",
        )

    x0 = a.min_norm_solution(y)
    if np.linalg.norm(a.entries @ x0 - y) > res_tol:
        raise ValueError("y is not in the range of A")  # pragma: no cover
    nbasis = null_space(a).basis
    l = nbasis.shape[1]

    if method == "irls":
        p = cost.measure.homogeneity_degree
        if p is None or not 0 < p <= 1:
            raise ValueError("irls applies to power-law penalties only")
        x = x0.copy()
        mu, iters = 1.0, 0
        while True:
            q = (np.abs(x) + mu) ** (2.0 - p)
            aq = a.entries * q[None, :]
            try:
                x_new = q * (a.entries.T @ np.linalg.solve(aq @ a.entries.T, y))
            except np.linalg.LinAlgError:
                # A Q A^T turns singular once the weights collapse onto a
                # sparse iterate; every iterate solves Ax = y, so stop there
                break
            iters += 1
            done = np.linalg.norm(x_new - x) <= 1e-12 * (1.0 + np.linalg.norm(x))
            x = x_new
            if iters % 10 == 0:
                if mu <= 1e-10:
                    if done:
                        break
                mu = max(mu / 2.0, 1e-10)
            if iters >= 600:
                break
        return SolveResult(
            x, cost.value(x), float(np.linalg.norm(a.entries @ x - y)), method, iters,
            note="fixed-point iteration; global optimality not guaranteed",
        )

    if method != "descent":
        raise ValueError(f"unknown method {method!r}")

    rng = as_rng(seed)
    scale = max(1.0, float(np.linalg.norm(x0)))
    w_starts = [np.zeros(l)]
    w_starts += [rng.standard_normal(l) * scale * s for s in (0.3, 1.0, 3.0) for _ in range(max(1, starts // 3))]

    def objective(w):
        return cost.value(x0 + nbasis @ w)

    best_w, best_v, iters = np.zeros(l), objective(np.zeros(l)), 0
    for w0 in w_starts[:starts]:
        res = scipy.optimize.minimize(objective, w0, method="Powell",
                                      options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 400})
        iters += int(res.nfev)
        if res.fun < best_v:
            best_v, best_w = float(res.fun), res.x
    x = x0 + nbasis @ best_w
    return SolveResult(
        x, cost.value(x), float(np.linalg.norm(a.entries @ x - y)), method, iters,
        note="multistart local descent; global optimality not guaranteed",
    )


# ---------------------------------------------------------------------------
# Noisy solver: the exact l1 path, else projected multistart descent
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_NEWTON_STEPS = 60   # safeguard only: ill-conditioned A (cond 1e12) takes ~27

def _project_columns(a: MeasurementMatrix, x_cols: Array, y: Array, radius: float) -> Array:
    """Project each column onto {x : ||Ax - y|| <= radius} (closest point).

    Works in the SVD coordinates of A: the null-space component is
    untouched; the row-space component solves a diagonal least-distance
    problem.  Its multiplier lam is the root of the secular equation
    phi(lam) = 1/||r / (1 + lam s^2)|| - 1/radius, which safeguarded
    Newton solves for all columns at once (Moré & Sorensen, 1983).  Every
    returned column is feasible: each multiplier ends on the feasible side
    of the root, by a few geometric up-nudges or, for a column those leave
    infeasible, by the bracket search.
    """
    u, s, vrow = a.row_space_factors
    b = u.T @ y
    c = vrow @ x_cols                       # (m, S) row-space coordinates
    r = s[:, None] * c - b[:, None]
    norms = np.linalg.norm(r, axis=0)
    need = norms > radius
    if not need.any():
        return x_cols
    rn = r[:, need]
    s2 = (s * s)[:, None]

    def resid(rr, lam):
        return np.linalg.norm(rr / (1.0 + lam * s2), axis=0)

    # phi is concave and increasing, so Newton from lam = 0 rises
    # monotonically to the root and every iterate stays infeasible
    lam = np.zeros(rn.shape[1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            d = 1.0 + lam * s2
            q = rn / d
            g = np.linalg.norm(q, axis=0)
            q /= g
            step = (g / radius - 1.0) / (s2 * q * q / d).sum(axis=0)
            step[g <= radius] = 0.0
            lam += step
            if (step <= 4.0 * _EPS * lam).all():
                break
    # a radius near the underflow limit can drive lam s^2 to overflow,
    # which would put the row-space point at 0 instead of b / s: such
    # columns go through the bracket search, whose lam stays finite
    with np.errstate(over="ignore", invalid="ignore"):
        lam[~np.isfinite(lam * s2.max())] = 0.0
    # Newton stops within rounding of the root, on either side: nudge the
    # infeasible multipliers up by 4, 16, 64, ... ulps until feasible
    g = resid(rn, lam)
    for j in range(5):
        over = g > radius
        if not over.any():
            break
        lam[over] *= 1.0 + _EPS * 4.0 ** (j + 1)
        g[over] = resid(rn[:, over], lam[over])
    over = g > radius
    if over.any():
        # the nudges cannot move lam = 0: grow the multiplier until
        # feasible, then bisect, keeping the feasible side of the bracket
        ro = rn[:, over]
        hi = np.full(ro.shape[1], 1.0)
        for _ in range(70):
            too_big = resid(ro, hi) > radius
            if not too_big.any():
                break
            hi[too_big] *= 8.0
        lo = np.zeros_like(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            bad = resid(ro, mid) > radius
            lo = np.where(bad, mid, lo)
            hi = np.where(bad, hi, mid)
        lam[over] = hi
    cn = c[:, need]
    w = (cn + lam[None, :] * s[:, None] * b[:, None]) / (1.0 + lam[None, :] * s2)
    out = x_cols.copy()
    out[:, need] += vrow.T @ (w - cn)
    return out


class _PathBreakdown(Exception):
    """The homotopy cannot finish this instance; the descent takes over."""


# safeguard only: random paths at n <= 8 took at most 9 kinks, but the worst
# case grows exponentially with n (Mairal & Yu, ICML 2012)
_KINKS_PER_COLUMN = 8


def _lasso_path(a: MeasurementMatrix, y: Array, radius: float):
    """Exact minimizer of ||x||_1 subject to ||Ax - y|| <= radius.

    Returns (x, lam, kinks): x also minimizes 1/2 ||Ax - y||^2 + lam ||x||_1,
    and kinks counts the path's kinks down to lam; x = 0 with lam = inf when
    ||y|| <= radius.  Follows the piecewise-linear LASSO path x(lam) down
    from lam = ||A^T y||_inf (Osborne, Presnell & Turlach, 2000; Efron et
    al., 2004).  On an active set S with signs s, x_S(lam) = u - lam w with
    u = G^-1 A_S^T y, w = G^-1 s, G = A_S^T A_S.  An inactive index joins
    when its correlation with the residual reaches lam; an active one
    leaves when its coefficient reaches zero.  The residual e + lam f is
    affine in lam on each segment, so it crosses the radius at the root of
    a quadratic.  The path is scale-equivariant and runs on y / ||y||.
    Raises _PathBreakdown at the kink cap, on a singular G (ties), or when
    the radius lies below the rounding of the residual.
    """
    ent = a.entries
    n = ent.shape[1]
    ynorm = float(np.linalg.norm(y))
    if ynorm <= radius:
        return np.zeros(n), math.inf, 0
    y = y / ynorm
    r2 = (radius / ynorm) ** 2
    corr = ent.T @ y
    j = int(np.argmax(np.abs(corr)))
    lam = float(abs(corr[j]))
    active, signs = [j], [float(np.sign(corr[j]))]
    left, left_sign = -1, 0.0  # an index that has just left cannot rejoin with its sign
    for kinks in range(1, _KINKS_PER_COLUMN * n + 1):
        sub = ent[:, active]
        us, sv, vt = np.linalg.svd(sub, full_matrices=False)
        # numpy's matrix_rank tolerance
        if len(sv) < len(active) or sv[-1] <= sv[0] * max(sub.shape) * _EPS:
            raise _PathBreakdown(f"singular active Gram matrix on {len(active)} columns")
        s = np.array(signs)
        p = us.T @ y
        q = (vt @ s) / sv
        u = vt.T @ (p / sv)
        w = vt.T @ (q / sv)
        e = y - us @ p
        f = us @ q
        ce, cf = ent.T @ e, ent.T @ f        # correlations ce + lam cf
        # the step gamma = lam - lam' to the next join or leave
        gamma = np.full(n, math.inf)
        free = np.ones(n, dtype=bool)
        free[active] = False
        c_now = ce + lam * cf
        for sigma in (1.0, -1.0):
            rate = 1.0 - sigma * cf
            ok = free & (rate > 0.0)
            if sigma == left_sign:   # it may still reach the other sign
                ok[left] = False
            gamma[ok] = np.minimum(gamma[ok], np.maximum(lam - sigma * c_now[ok], 0.0) / rate[ok])
        shrink = s * w < 0.0                 # coefficients moving toward zero
        leave = np.full(len(active), math.inf)
        leave[shrink] = np.maximum(s * (u - lam * w), 0.0)[shrink] / -(s * w)[shrink]
        joins = int(np.argmin(gamma))
        leaves = int(np.argmin(leave))
        lam_next = max(lam - min(gamma[joins], leave[leaves]), 0.0)
        # ||e + lam f||^2 = r2 at its larger root (e is orthogonal to f)
        ee, ef, ff = e @ e, e @ f, f @ f
        if r2 > ee:
            root = (r2 - ee) / (ef + math.sqrt(ef * ef + ff * (r2 - ee)))
            if root >= lam_next:
                lam = min(root, lam)
                x = np.zeros(n)
                x[active] = (u - lam * w) * ynorm
                return x, lam * ynorm, kinks
        # once the active columns span the rows, e is the rounding of y - Ax,
        # so a join then comes from a rounding-level correlation
        joining = leave[leaves] >= gamma[joins]
        if lam_next <= 0.0 or (joining and len(active) == ent.shape[0]):
            raise _PathBreakdown("the radius lies below the rounding of the residual")
        if joining:
            active.append(joins)
            signs.append(float(np.sign(ce[joins] + lam_next * cf[joins])))
            left, left_sign = -1, 0.0
        else:
            left = active.pop(leaves)
            left_sign = signs.pop(leaves)
        lam = lam_next
    raise _PathBreakdown(f"kink cap {_KINKS_PER_COLUMN * n} reached")


def _kkt_residual(a: MeasurementMatrix, y: Array, x: Array, lam: float, radius: float) -> float:
    """Worst violation of the optimality conditions of the homotopy's x.

    With c = A^T (y - Ax): sign consistency |c_i - lam sign(x_i)| / lam on
    the support, dual feasibility (|c_i| - lam)_+ / lam off it, and
    | ||Ax - y|| - radius |.  Zero for x = 0 inside the ball (lam = inf).
    """
    if math.isinf(lam):
        return 0.0
    r = y - a.entries @ x
    c = a.entries.T @ r
    on = x != 0.0
    sign = np.abs(c[on] - lam * np.sign(x[on])).max(initial=0.0) / lam
    dual = np.maximum(np.abs(c[~on]) - lam, 0.0).max(initial=0.0) / lam
    return float(max(sign, dual, abs(np.linalg.norm(r) - radius)))


def _projected_descent(problem, radius, seed, starts, iters, extra_starts):
    """Best point and cost of multistart projected subgradient descent."""
    a = problem.matrix
    y = problem.y
    cost = problem.cost
    rng = as_rng(seed)
    n = a.shape[1]

    x0 = a.min_norm_solution(y)
    nbasis = null_space(a).basis
    cols = [x0, np.zeros(n)]
    if extra_starts:
        cols += [np.asarray(x, dtype=float) for x in extra_starts]
    try:
        cands = _enumerate_candidates(
            RecoveryProblem(a, y, 0.0, cost, problem.k), residual_tol=problem.epsilon
        )
        cols += cands[:16]
    except ValueError:
        pass
    scale = max(1.0, float(np.linalg.norm(x0)))
    while len(cols) < starts:
        cols.append(x0 + nbasis @ rng.standard_normal(nbasis.shape[1]) * 0.5 * scale)
    x = _project_columns(a, np.column_stack(cols), y, radius)

    best_x = x[:, 0].copy()
    best_v = math.inf
    for t in range(iters):
        vals = cost.measure.fn(np.abs(x)).sum(axis=0)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v = float(vals[i])
            best_x = x[:, i].copy()
        g = _grad_cost(cost, x)
        gn = np.linalg.norm(g, axis=0) + 1e-12
        xn = np.linalg.norm(x, axis=0)
        step = 0.3 * (xn + radius + 1e-12) / (gn * math.sqrt(1.0 + t))
        x = _project_columns(a, x - step[None, :] * g, y, radius)
    vals = cost.measure.fn(np.abs(x)).sum(axis=0)
    i = int(np.argmin(vals))
    if vals[i] < best_v:
        best_v, best_x = float(vals[i]), x[:, i].copy()

    # zeroing tiny coordinates often lands exactly on the sparse optimum
    polished = best_x.copy()
    polished[np.abs(polished) < 1e-10 * (1.0 + np.linalg.norm(polished))] = 0.0
    if np.linalg.norm(a.entries @ polished - y) <= radius and cost.value(polished) <= best_v:
        best_x, best_v = polished, cost.value(polished)
    return best_x, best_v


def solve_noisy(
    problem: RecoveryProblem,
    method: str = "descent",
    seed: int = 0,
    starts: int = 24,
    iters: int = 250,
    extra_starts: list | None = None,
) -> SolveResult:
    """Minimize the cost over the residual ball ||Ax - y|| <= eps(1 - 1e-9).

    The strict inequality of the problem statement is realized by the
    shrunk closed ball, which projection methods require.  The returned
    point is checked against epsilon with the solver slack
    ``TOL.feasibility * (1 + ||y||)`` for the rounding of ||Ax - y||, and a
    ValueError is raised if it lies outside.

    A 1-homogeneous cost is F(1)|t| per coordinate, so it has the l1
    minimizer: the LASSO homotopy finds it exactly (method ``homotopy``,
    ``optimal_guaranteed``, ``iterations`` the kinks followed) and reports
    its KKT residual; ``seed``, ``starts``, ``iters`` and ``extra_starts``
    go unused.  Other costs, and an l1 path that hits its kink cap, a
    singular active set or a radius below rounding (said in ``note``), run
    multistart projected subgradient descent; starts include the min-norm
    solution, zero, random null-space offsets, sparse least-squares
    candidates and any caller-provided starts.
    """
    if problem.epsilon <= 0:
        raise ValueError("noisy solver requires epsilon > 0")
    if method != "descent":
        raise ValueError(f"unknown method {method!r}")
    a = problem.matrix
    y = problem.y
    cost = problem.cost
    radius = problem.epsilon * (1.0 - TOL.strict_shrink)
    result = None
    fallback = ""
    if cost.measure.homogeneity_degree == 1.0:
        try:
            x, lam, kinks = _lasso_path(a, y, radius)
        except _PathBreakdown as exc:
            fallback = f"homotopy fell back ({exc}); "
        else:
            result = SolveResult(x, cost.value(x), 0.0, "homotopy", kinks, True,
                                 "exact l1 minimizer by the LASSO homotopy",
                                 _kkt_residual(a, y, x, lam, radius))
    if result is None:
        x, v = _projected_descent(problem, radius, seed, starts, iters, extra_starts)
        result = SolveResult(x, v, 0.0, method, iters, note=fallback
                             + "projected multistart descent; global optimality not guaranteed")

    result.residual = float(np.linalg.norm(a.entries @ result.x_hat - y))
    if not result.residual <= problem.epsilon + TOL.feasibility * (1.0 + np.linalg.norm(y)):
        raise ValueError(f"no point found within epsilon={problem.epsilon:g} of y "
                         f"(best residual {result.residual:g})")
    return result


# ---------------------------------------------------------------------------
# Adversarial construction and robustness sweeps
# ---------------------------------------------------------------------------

@dataclass
class AdversarialPair:
    """A signal/competitor pair realizing a large error-to-noise ratio.

    Built from a perturbed-inequality violation (z, n_vec, T): with
    u = z + n_vec, the signal is u restricted to T, the competitor is the
    negated complement part, and the noise is A(x_hat - x_bar)/2.  The
    competitor is feasible at noise level epsilon, costs no more than the
    signal, and its distance to the signal exceeds
    2 (1 - d) epsilon / (d sigma_max).
    """

    x_bar: Array
    x_hat: Array
    v: Array
    epsilon: float
    error: float
    ratio: float
    ratio_guarantee: float   # 2 (1 - d) / (d sigma_max), which the ratio must exceed
    violation: Violation


def adversarial_pair(
    a: MeasurementMatrix,
    cost: CostFunction,
    k: int,
    d: float,
    witness: Violation | None = None,
    seed: int = 0,
) -> AdversarialPair:
    """Construct the pair from a violation witness, probing for one if needed."""
    if not 0 < d < 1:
        raise ValueError(f"need 0 < d < 1, got {d}")
    if witness is None:
        probe = rrc_probe(null_space(a), cost, k, d, seed=seed)
        if not probe.violated:
            raise ValueError("no perturbed-inequality violation found at this radius")
        witness = probe.violation
    witness = _denullify_witness(a, cost, k, d, witness)
    u = witness.z + witness.n_vec
    n = u.size
    mask = np.zeros(n, dtype=bool)
    mask[list(witness.support)] = True
    x_bar = np.where(mask, u, 0.0)
    x_hat = np.where(mask, 0.0, -u)
    v = a.entries @ (x_hat - x_bar) / 2.0
    eps = float(np.linalg.norm(v))
    if eps <= 1e-14 * max(1.0, float(np.linalg.norm(u))) * a.sigma_max:
        raise ValueError("degenerate witness: the perturbation lies in the null space")
    error = float(np.linalg.norm(x_hat - x_bar))
    guarantee = 2.0 * (1.0 - d) / (d * a.sigma_max)
    return AdversarialPair(x_bar, x_hat, v, eps, error, error / eps, guarantee, witness)


def _denullify_witness(a, cost, k, d, witness: Violation) -> Violation:
    """Replace a violation whose perturbation lies in the null space.

    A zero (or null-space) perturbation makes the constructed noise vanish,
    so the pair degenerates; any violated instance admits a violation with
    a nonzero noise image, found among the closed-form perturbation starts.
    """
    noise_norm = float(np.linalg.norm(a.entries @ witness.n_vec))
    scale = max(1.0, float(np.linalg.norm(witness.z + witness.n_vec))) * a.sigma_max
    if noise_norm > 1e-12 * scale:
        return witness
    z = witness.z
    measure = cost.measure
    radius = d * float(np.linalg.norm(z)) * (1.0 - TOL.strict_shrink)
    best = None
    best_eps = 0.0
    for n0 in _attack_candidates(z, measure, k, radius):
        nrm = np.linalg.norm(n0)
        if nrm > radius:
            n0 = n0 * (radius / nrm)
        if _deficit_raw(z + n0, measure, k) < 0.0:
            continue
        eps = float(np.linalg.norm(a.entries @ n0))
        if eps > best_eps:
            best_eps, best = eps, n0
    if best is None or best_eps <= 1e-12 * scale:
        raise ValueError("degenerate witness: the perturbation lies in the null space")
    return Violation(z, best, _support_of(z + best, measure, k), _deficit_raw(z + best, measure, k))


@dataclass
class TrialRecord:
    x_true: Array
    x_hat: Array
    error: float
    epsilon: float
    cost_gap: float
    residual: float
    converged: bool
    solver_meta: str


@dataclass
class RobustnessSweep:
    records: list = field(default_factory=list)
    max_ratio: dict = field(default_factory=dict)     # eps -> worst error/eps
    excluded: dict = field(default_factory=dict)      # eps -> non-converged count


def empirical_robustness(
    a: MeasurementMatrix,
    cost: CostFunction,
    k: int,
    trials: int,
    epsilon_grid,
    seed: int = 0,
    starts: int = 24,
    iters: int = 250,
) -> RobustnessSweep:
    """Worst observed error-to-noise ratio of the noisy solver per noise level.

    Signals are k-sparse with standard normal entries on uniform supports;
    the noise is drawn just inside the tolerance (norm eps(1 - 1e-6)) so
    the true signal itself is admissible under the strict constraint, and
    the returned cost is at or below the signal cost: an l1 cost is
    minimized exactly, and the descent for other costs has the projection
    of the true signal among its starts.  Non-converged
    trials (feasibility violations) are excluded and counted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m, n = a.shape
    sweep = RobustnessSweep()
    for ei, eps in enumerate(epsilon_grid):
        worst = 0.0
        excluded = 0
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ei, t]))
            x_bar = np.zeros(n)
            if k > 0:
                support = rng.choice(n, size=k, replace=False)
                x_bar[support] = rng.standard_normal(k)
            v = rng.standard_normal(m)
            v *= (1.0 - 1e-6) * eps / np.linalg.norm(v)
            problem = RecoveryProblem(a, a.entries @ x_bar + v, eps, cost, k)
            result = solve_noisy(problem, seed=int(rng.integers(2**32)),
                                 starts=starts, iters=iters, extra_starts=[x_bar])
            err = float(np.linalg.norm(result.x_hat - x_bar))
            converged = result.residual <= eps + TOL.feasibility
            record = TrialRecord(
                x_bar, result.x_hat, err, float(eps),
                result.cost_value - cost.value(x_bar),
                result.residual, converged, result.note,
            )
            sweep.records.append(record)
            if converged:
                worst = max(worst, err / eps)
            else:
                excluded += 1
        sweep.max_ratio[float(eps)] = worst
        sweep.excluded[float(eps)] = excluded
    return sweep
