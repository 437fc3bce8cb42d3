"""Null-space certificates for sparse recovery by separable penalties.

The central quantity is, for a unit vector z in a candidate null space and a
support T of size at most k, the split of the cost J between T and its
complement.  With q = J(z_T) / J(z), the normalized deficit 2q - 1 is
negative exactly when J(z_T) < J(z_{T^c}).  Exact recovery of all k-sparse
signals holds iff the deficit is negative for every nonzero z in the null
space and every such T; robustness at radius d additionally requires the
strict inequality to survive every perturbation n with ||n|| < d ||z||.

For homogeneous penalties the supremum over z reduces to the unit sphere of
the subspace.  For general penalties the value is scale dependent (which is
precisely what makes robustness fail on the boundary), so the search runs
over a logarithmic amplitude grid with local refinement.

For l1 no search is needed: gamma = max ||z_T||_1 / ||z||_1 and
kappa = max ||z||_2 / ||z||_1 over the null space are maxima of convex
functions over the polytope N ∩ {||z||_1 <= 1}, so both are attained on its
vertex lines, which are enumerated.  Every radius up to
r(N) = (1 - 2 gamma) / (sqrt(n) kappa) is then violation-free, for l1 and,
by the dominance rule, for every non-decreasing F with F(t)/t
non-increasing.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable

import numpy as np

from .config import (
    SCALE_GRID_HI,
    SCALE_GRID_LO,
    SCALE_GRID_POINTS,
    SUPPORT_ENUMERATION_CAP,
    TOL,
)
from .measures import CostFunction, SparsenessMeasure
from .subspaces import Subspace, as_rng

Array = np.ndarray

__all__ = [
    "NspVerdict",
    "NscReport",
    "ErcVerdict",
    "Violation",
    "RobustnessProbe",
    "RegionMap",
    "Ce1Membership",
    "nsp_check",
    "nsc",
    "erc_member",
    "rrc_probe",
    "robustness_constant",
    "converse_constant",
    "ce1_membership",
    "region_boundary_map",
]


# Search resolution, fixed for every certificate routine.
DIRECTION_GRID = 720      # angles for dim 2, random directions beyond
REFINE_PEAKS = 5          # distinct landscape peaks refined per scan
REFINE_ITERS = 36         # golden-section iterations per refinement
PROBE_CANDIDATES = 10     # (z, t) candidates attacked by the probe
ATTACK_STEPS = 60         # ascent steps per perturbation attack
BOUNDARY_CANDIDATES = 25  # log-grid witness coordinates per axis of the region map


_EPS = float(np.finfo(float).eps)
_VERTEX_CHUNK = 4096      # (l-1)-subsets whose vertex lines are solved in one batch


def _check_support_budget(n: int, k: int) -> None:
    if math.comb(n, max(k, 0)) > SUPPORT_ENUMERATION_CAP:
        raise ValueError(
            f"support space C({n},{k}) exceeds the enumeration cap "
            f"{SUPPORT_ENUMERATION_CAP}; supply a custom support sampler"
        )


def _scale_grid(measure: SparsenessMeasure) -> Array:
    if measure.is_homogeneous:
        return np.array([1.0])
    return np.geomspace(SCALE_GRID_LO, SCALE_GRID_HI, SCALE_GRID_POINTS)


def _topk_total(fv: Array, k: int, axis: int) -> tuple[Array, Array]:
    """Sum of the k largest entries along the coordinate ``axis``, and the
    full sum.  Works on one vector (axis 0) and on (scale, n, cols) batches
    (axis 1) alike; the top-k is read off one partition at n - k, or for
    k = 1 is the maximum, the same number without the partition."""
    tot = fv.sum(axis=axis)
    n = fv.shape[axis]
    if k <= 0:
        return np.zeros_like(tot), tot
    if k >= n:
        return tot, tot
    if k == 1:
        return fv.max(axis=axis), tot
    top = (slice(None),) * axis + (slice(n - k, None),)
    return np.partition(fv, n - k, axis=axis)[top].sum(axis=axis), tot


def _slope(measure: SparsenessMeasure, t: Array) -> Array:
    """Central-difference slope of F at t >= 0, step 1e-7 (1 + t), with the
    lower point clipped at 0."""
    h = 1e-7 * (1.0 + t)
    return (measure.fn(t + h) - measure.fn(np.maximum(t - h, 0.0))) / (2.0 * h)


def _q_columns(z: Array, measure: SparsenessMeasure, k: int, scales: Array, axis: int = 0):
    """q = J(z_T)/J(z) maximized over supports, per (scale, direction).

    The directions are the columns of ``z`` (axis 0 holds the coordinates)
    or its rows (axis 1).  The refinements use rows, which reproduce
    one-by-one evaluation bit for bit (see :func:`_deficit_rows`).

    For fixed z the maximizing support of size <= k is the top-k of the
    per-coordinate penalties, because moving any coordinate into T can only
    increase J(z_T) and decrease J(z_{T^c}).
    """
    fv = measure.fn(scales[:, None, None] * np.abs(z)[None, :, :])
    top, tot = _topk_total(fv, k, axis=axis + 1)
    with np.errstate(invalid="ignore"):
        q = np.where(tot > 0, top / tot, 0.0)
    return q, fv.size


def _q_single(z: Array, measure: SparsenessMeasure, k: int, scales: Array):
    """Best q over the scale grid for one direction; returns (q, scale)."""
    q, _ = _q_columns(z.reshape(-1, 1), measure, k, scales)
    i = int(np.argmax(q[:, 0]))
    return float(q[i, 0]), float(scales[i])


def _golden_steps(lo: float, hi: float, iters: int):
    """Golden-section search for the maximum on [lo, hi], as a coroutine:
    it yields each point to evaluate and is sent the value there.  After
    ``iters`` steps it yields the final bracket's midpoint."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = yield d
    yield 0.5 * (a + b)


def _golden_max(fun, lo, hi, iters: int):
    """Golden-section search for the maximum of ``fun`` on each bracket
    [lo[i], hi[i]], the brackets searched in lockstep.

    ``fun`` maps a list of points, one per bracket, to a list of values, so
    a step costs one call for all brackets.  Each bracket runs its own
    :func:`_golden_steps`, so it takes exactly the steps a search on it
    alone would take.  Returns the final brackets' midpoints and ``fun``
    there.
    """
    searches = [_golden_steps(float(a), float(b), iters) for a, b in zip(lo, hi)]
    points = [next(s) for s in searches]
    for _ in range(iters + 2):
        points = list(map(GeneratorType.send, searches, fun(points)))
    return points, fun(points)


@dataclass
class _Candidate:
    q: float
    direction: Array   # unit vector in R^n lying in the subspace
    scale: float


def _refine_scale(z_rows: Array, measure, k) -> list:
    """Candidates for the directions in the rows of ``z_rows``, best first,
    each at the amplitude maximizing q within the allowed scale window; the
    rows' brackets are refined in lockstep."""
    scales = _scale_grid(measure)
    q, _ = _q_columns(z_rows, measure, k, scales, axis=1)
    qs = q.max(axis=0).tolist()
    ts = scales[q.argmax(axis=0)].tolist()
    if scales.size > 1:
        step = math.log10(scales[1] / scales[0])
        lo = [max(math.log10(SCALE_GRID_LO), math.log10(t) - step) for t in ts]
        hi = [min(math.log10(SCALE_GRID_HI), math.log10(t) + step) for t in ts]
        abs_rows = np.abs(z_rows)
        if len(abs_rows) == 1:
            # a lone row (every line scan) skips the batch's array and list
            # building; a vector sums as a row does, so the values are equal
            row = abs_rows[0]

            def fun(lts):
                top, tot = _topk_total(measure.fn(10.0**lts[0] * row), k, axis=0)
                return [float(top / tot) if tot > 0 else 0.0]
        else:
            def fun(lts):
                amp = np.array([10.0**lt for lt in lts])
                top, tot = _topk_total(measure.fn(amp[:, None] * abs_rows), k, axis=1)
                return [p / s if s > 0 else 0.0 for p, s in zip(top.tolist(), tot.tolist())]

        for i, (lt, qb) in enumerate(zip(*_golden_max(fun, lo, hi, REFINE_ITERS))):
            if qb >= qs[i]:
                qs[i], ts[i] = qb, 10.0**lt
    cands = [_Candidate(q, z, t) for q, z, t in zip(qs, z_rows, ts)]
    cands.sort(key=lambda c: c.q, reverse=True)
    return cands


@dataclass
class _Scan:
    """One scan of a subspace: all that the ``_*_from_scan`` deciders read.

    ``exact`` says the best candidate attains the supremum of q.
    ``sound_radius`` is the certified radius, 0.0 when nothing is
    certified; None until the first probe needs it (:func:`_sound_radius`).
    ``search``, set beside the exact l1 enumeration, runs the search once
    for the probe's attack beyond the certified radius.
    """

    cands: list            # ranked _Candidate, best first
    evaluations: int
    exact: bool
    sound_radius: float | None
    search: Callable[[], tuple[list, int]] | None = None


def _dominated(measure: SparsenessMeasure) -> bool:
    """F non-decreasing with F(t)/t non-increasing: every F-violation at a
    point u is an l1 violation there.  With T the top-k support of u and
    a = min_T |u_i|, sum_T F <= (F(a)/a) ||u_T||_1 and
    sum_{T^c} F >= (F(a)/a) ||u_{T^c}||_1."""
    return measure.non_decreasing is True and measure.ratio_nonincreasing is True


def _vertex_lines(basis: Array):
    """Unit vectors on the vertex lines of N ∩ {||z||_1 <= 1}, in batches.

    A vertex has zero coordinates Z with rank B[Z] = l - 1, so it spans
    {z in N : z_S = 0} for some (l-1)-subset S of Z with rank B[S] = l - 1.
    Every (l-1)-subset is solved with one batched SVD; those rank-deficient
    by numpy's ``matrix_rank`` tolerance are skipped, which loses no vertex.
    """
    n, l = basis.shape
    if l == 1:
        yield basis.T
        return
    subsets = itertools.combinations(range(n), l - 1)
    while chunk := list(itertools.islice(subsets, _VERTEX_CHUNK)):
        _, sv, vt = np.linalg.svd(basis[np.array(chunk)])
        full = sv[:, -1] > sv[:, 0] * l * _EPS
        yield vt[full, -1, :] @ basis.T


def _l1_vertex_scan(basis: Array, k: int) -> _Scan:
    """Exact l1 scan: the vertex lines with the highest
    q = ||z_T||_1 / ||z||_1 (T the top-k support), best first, and r(N).

    gamma is the best q and kappa the largest ||z||_2 / ||z||_1 over the
    lines.  With u = z + e, ||e|| < d ||z||, the deficit
    ||u_T||_1 - ||u_{T^c}||_1 <= (2 gamma - 1) ||z||_1 + sqrt(n) ||e||_2
    is negative for every d <= r(N) = (1 - 2 gamma) / (sqrt(n) kappa).
    """
    n = basis.shape[0]
    qs, lines = np.zeros(0), np.zeros((0, n))
    kappa, scored = 0.0, 0
    for z in _vertex_lines(basis):
        if not len(z):
            continue
        top, tot = _topk_total(np.abs(z), k, axis=1)
        kappa = max(kappa, float((np.linalg.norm(z, axis=1) / tot).max()))
        scored += len(z)
        qs = np.concatenate([qs, top / tot])
        lines = np.concatenate([lines, z])
        keep = np.argsort(-qs, kind="stable")[:REFINE_PEAKS]
        qs, lines = qs[keep], lines[keep]
    gamma = float(qs[0])
    radius = max(1.0 - 2.0 * gamma, 0.0) / (math.sqrt(n) * kappa)
    cands = [_Candidate(float(q), z, 1.0) for q, z in zip(qs, lines)]
    return _Scan(cands, scored * n, True, radius)


def _scan_subspace(sub, measure, k, rng) -> _Scan:
    """Ranked (q, direction, scale) candidates over the subspace.

    A 1-homogeneous penalty (F(1)|t|) takes the exact l1 vertex enumeration
    while C(n, l-1) is within the enumeration cap.  Otherwise the search is,
    in dim 1, the generator itself; in dim 2, a half-circle angle grid with
    golden-section refinement of the best distinct peaks; in dim >= 3,
    random unit directions with hill climbing from the best starts.
    """
    l = sub.dim
    if measure.homogeneity_degree == 1.0 and l > 1 and _enumerable(sub):
        scan = _l1_vertex_scan(sub.basis, k)
        scan.search = functools.cache(lambda: _search_subspace(sub, measure, k, rng))
        return scan
    cands, evals = _search_subspace(sub, measure, k, rng)
    return _Scan(cands, evals, l == 1 and measure.is_homogeneous, None)


def _enumerable(sub) -> bool:
    return math.comb(sub.ambient_dim, sub.dim - 1) <= SUPPORT_ENUMERATION_CAP


def _sound_radius(sub, measure, k, scan) -> float:
    """The scan's certified radius, from the l1 vertex record of the
    subspace when the measure is 1-homogeneous or dominated by l1, computed
    once per scan."""
    if scan.sound_radius is None:
        certified = measure.homogeneity_degree == 1.0 or _dominated(measure)
        scan.sound_radius = (_l1_vertex_scan(sub.basis, k).sound_radius
                             if certified and _enumerable(sub) else 0.0)
    return scan.sound_radius


def _search_subspace(sub, measure, k, rng) -> tuple[list, int]:
    l = sub.dim
    scales = _scale_grid(measure)
    evals = 0

    if l == 1:
        return _refine_scale(sub.basis[:, 0][None, :], measure, k), sub.ambient_dim * scales.size

    if l == 2:
        grid = DIRECTION_GRID
        ang = np.linspace(0.0, math.pi, grid, endpoint=False)
        w = np.vstack([np.cos(ang), np.sin(ang)])
        z_cols = sub.basis @ w
        q, ev = _q_columns(z_cols, measure, k, scales)
        evals += ev
        per_col = q.max(axis=0)
        order = np.argsort(per_col)[::-1]
        peaks: list[int] = []
        min_sep = max(2, grid // 90)
        for idx in order:
            if all(min(abs(idx - p), grid - abs(idx - p)) > min_sep for p in peaks):
                peaks.append(int(idx))
            if len(peaks) >= REFINE_PEAKS:
                break

        step = math.pi / grid

        def directions(thetas):
            return np.array([sub.basis @ np.array([math.cos(t), math.sin(t)]) for t in thetas])

        def q_at_angles(thetas):
            q, _ = _q_columns(directions(thetas), measure, k, scales, axis=1)
            return q.max(axis=0).tolist()

        thetas, _ = _golden_max(q_at_angles, [ang[p] - step for p in peaks],
                                [ang[p] + step for p in peaks], REFINE_ITERS)
        z_rows = directions(thetas)
        evals += len(peaks) * REFINE_ITERS * scales.size
        return _refine_scale(z_rows, measure, k), evals

    # dim >= 3: sampled directions plus hill climbing
    w = rng.standard_normal((l, DIRECTION_GRID))
    w /= np.linalg.norm(w, axis=0)
    z_cols = sub.basis @ w
    q, ev = _q_columns(z_cols, measure, k, scales)
    evals += ev
    per_col = q.max(axis=0)
    order = np.argsort(per_col)[::-1][:REFINE_PEAKS]

    climbed = []
    for idx in order:
        wv = w[:, idx].copy()
        best_q, _ = _q_single(sub.basis @ wv, measure, k, scales)
        sigma = 0.5
        for _ in range(ATTACK_STEPS):
            prop = wv + sigma * rng.standard_normal(l)
            prop /= np.linalg.norm(prop)
            qq, _ = _q_single(sub.basis @ prop, measure, k, scales)
            evals += scales.size * sub.ambient_dim
            if qq > best_q:
                best_q, wv = qq, prop
            else:
                sigma *= 0.85
                if sigma < 1e-4:
                    break
        climbed.append(sub.basis @ wv)
    return _refine_scale(np.array(climbed), measure, k), evals


def _support_of(u: Array, measure: SparsenessMeasure, k: int) -> tuple[int, ...]:
    """The k coordinates :func:`_topk_total` sums: the top of a partition at n - k."""
    f = measure.fn(np.abs(u))
    if k <= 0:
        return ()
    if k >= u.size:
        return tuple(range(u.size))
    return tuple(sorted(int(i) for i in np.argpartition(f, u.size - k)[u.size - k:]))


def _deficit_rows(u_rows: Array, measure: SparsenessMeasure, k: int) -> Array:
    """2 J(u_T) - J(u) over the best support T, per row.  Each row's
    coordinates lie on the last, contiguous axis, where numpy sums them
    exactly as it sums a lone vector, so a batch of rows gives bit for bit
    the values of one-by-one evaluation."""
    top, tot = _topk_total(measure.fn(np.abs(u_rows)), k, axis=1)
    return 2.0 * top - tot


def _deficit_raw(u: Array, measure: SparsenessMeasure, k: int) -> float:
    return float(_deficit_rows(u[None, :], measure, k)[0])


# ---------------------------------------------------------------------------
# Exact-recovery certificates
# ---------------------------------------------------------------------------

@dataclass
class NspVerdict:
    """Outcome of the strict null-space inequality search.

    ``margin`` is the worst normalized slack min (J(z_{T^c}) - J(z_T)) / J(z)
    over the sampled search space: positive when the inequality holds with
    room, negative when a violating pair was found.
    """

    status: str                 # "holds_strict" | "fails" | "boundary"
    margin: float
    witness_z: Array
    witness_T: tuple
    evaluations: int

    @property
    def holds(self) -> bool:
        return self.status == "holds_strict"


def nsp_check(sub: Subspace, cost: CostFunction, k: int, seed: int = 0) -> NspVerdict:
    """Decide J(z_T) < J(z_{T^c}) for all nonzero z in the subspace, |T| <= k.

    Maximizes the normalized deficit over directions, amplitudes and
    supports.  ``fails`` carries a direct witness; ``holds_strict`` is
    exact for a 1-homogeneous cost within the vertex enumeration cap and
    otherwise a search result at the fixed search resolution; ``boundary``
    flags an extremal deficit inside the strictness band, where the float
    answer is not decidable.
    """
    return _nsp_from_scan(cost, k, _validated_scan(sub, cost, k, seed))


def _nsp_from_scan(cost, k, scan) -> NspVerdict:
    best = scan.cands[0]
    deficit_norm = 2.0 * best.q - 1.0
    witness = best.scale * best.direction
    support = _support_of(witness, cost.measure, k)
    if deficit_norm >= TOL.boundary_margin:
        status = "fails"
    elif deficit_norm <= -TOL.boundary_margin:
        status = "holds_strict"
    else:
        status = "boundary"
    return NspVerdict(status, -deficit_norm, witness, support, scan.evaluations)


def _validated_scan(sub, cost, k, seed) -> _Scan:
    """Check the problem, then scan the subspace once.

    The scan record is all the private ``_*_from_scan`` deciders read, so
    one scan can answer every question about a subspace.
    """
    n = sub.ambient_dim
    if cost.dimension != n:
        raise ValueError(f"cost dimension {cost.dimension} != ambient dimension {n}")
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}")
    _check_support_budget(n, k)
    return _scan_subspace(sub, cost.measure, k, as_rng(seed))


@dataclass
class NscReport:
    """The supremal support-to-complement cost ratio over a null space."""

    theta: float
    witness_z: Array
    witness_T: tuple
    method: str                # "exact_1d" | "vertex_enum" | "sphere_enum" | "multistart"
    evaluations: int
    is_lower_bound: bool

    @property
    def finite(self) -> bool:
        return math.isfinite(self.theta)


def nsc(sub: Subspace, cost: CostFunction, k: int, seed: int = 0) -> NscReport:
    """Null space constant: sup over z of the maximal J(z_T)/J(z_{T^c}).

    Exact for one-dimensional subspaces with a homogeneous penalty (a single
    direction; the maximizing support is the top-k of the coordinate
    penalties), and for a 1-homogeneous penalty in any dimension while the
    C(n, l-1) vertex lines are within the enumeration cap (``vertex_enum``).
    Otherwise the reported value is the best found and is flagged as a
    lower bound.  A ratio with vanishing denominator (z supported inside T)
    is reported as +inf.
    """
    return _nsc_from_scan(sub, cost, k, _validated_scan(sub, cost, k, seed))


def _nsc_from_scan(sub, cost, k, scan) -> NscReport:
    best = scan.cands[0]
    witness = best.scale * best.direction
    support = _support_of(witness, cost.measure, k)
    theta = best.q / (1.0 - best.q) if best.q < 1.0 else math.inf
    l = sub.dim
    if l == 1:
        method = "exact_1d"
    elif scan.exact:
        method = "vertex_enum"
    else:
        method = "sphere_enum" if l == 2 else "multistart"
    return NscReport(theta, witness, support, method, scan.evaluations, not scan.exact)


@dataclass
class ErcVerdict:
    member: bool
    margin: float
    boundary: bool
    theta: float | None
    method: str


def erc_member(sub: Subspace, cost: CostFunction, k: int, seed: int = 0) -> ErcVerdict:
    """Membership of the exact-recovery set, with a margin.

    For homogeneous penalties the test is theta < 1 with margin 1 - theta
    (exact in dimension one, and for l1 within the vertex enumeration
    cap).  For general penalties it is the strict inequality search of
    :func:`nsp_check`, whose normalized margin is returned.
    """
    return _erc_from_scan(sub, cost, k, _validated_scan(sub, cost, k, seed))


def _erc_from_scan(sub, cost, k, scan) -> ErcVerdict:
    if cost.measure.is_homogeneous:
        report = _nsc_from_scan(sub, cost, k, scan)
        margin = -math.inf if not report.finite else 1.0 - report.theta
        return ErcVerdict(
            member=report.theta < 1.0,
            margin=margin,
            boundary=abs(margin) < TOL.mc_boundary_band if report.finite else False,
            theta=report.theta,
            method=report.method,
        )
    verdict = _nsp_from_scan(cost, k, scan)
    return ErcVerdict(
        member=verdict.holds,
        margin=verdict.margin,
        boundary=abs(verdict.margin) < TOL.mc_boundary_band,
        theta=None,
        method="deficit_search",
    )


# ---------------------------------------------------------------------------
# Robustness probe
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    """A certified perturbed-inequality failure: J(u_T) >= J(u_{T^c}) at
    u = z + n_vec with z in the subspace and ||n_vec|| < d ||z||."""

    z: Array
    n_vec: Array
    support: tuple
    deficit: float


@dataclass
class RobustnessProbe:
    """Outcome of the radius-d perturbation search.

    ``violated`` is sound (the witness was verified by direct evaluation).
    ``passed_sound`` is sound too: d lies below the certified l1 radius
    ``certified_radius`` of the subspace, so no perturbation of relative
    size below d violates the inequality, for l1 and every measure it
    dominates.  ``passed_at_resolution`` is one-sided: no violation
    surfaced within the budget.  The set a pass refers to is a convention,
    surfaced in ``set_convention`` rather than silently chosen: the
    violation-free set at radius d contains the d-interior of the
    exact-recovery set and is contained in its d/(1+d)-interior, so a
    (true) pass certifies interior membership only at the smaller radius
    ``implied_interior_radius``.
    """

    d: float
    outcome: str            # "violated" | "passed_sound" | "passed_at_resolution"
    violation: Violation | None
    search_budget: int
    evaluations: int
    set_convention: str = "violation_free_at_resolution"
    certified_radius: float = 0.0

    @property
    def violated(self) -> bool:
        return self.outcome == "violated"

    @property
    def implied_interior_radius(self) -> float:
        return self.d / (1.0 + self.d)


def _attack_candidates(z, measure, k, radius):
    """Perturbation starts: sign-aligned pushes, coordinate erasures."""
    n = z.size
    f = measure.fn(np.abs(z))
    if k <= 0:
        order_t = np.array([], dtype=int)
    else:
        order_t = np.argsort(f)[::-1][:k]
    in_t = np.zeros(n, dtype=bool)
    in_t[order_t] = True
    sgn = np.where(z >= 0, 1.0, -1.0)

    cands = [np.zeros(n)]
    # grow T coordinates, shrink the rest
    s = np.where(in_t, sgn, -sgn)
    cands.append(radius * s / np.linalg.norm(s))
    # marginal-gain weighting by the numerical slope of F
    w = s * np.abs(_slope(measure, np.abs(z)))
    nw = np.linalg.norm(w)
    if nw > 0:
        cands.append(radius * w / nw)
    # erase complement coordinates, smallest first
    comp = [i for i in np.argsort(np.abs(z)) if not in_t[i]]
    erase = np.zeros(n)
    left = radius * radius
    for i in comp:
        need = z[i] * z[i]
        if need <= left:
            erase[i] = -z[i]
            left -= need
        else:
            erase[i] = -sgn[i] * math.sqrt(left)
            left = 0.0
            break
    cands.append(erase)
    # single-coordinate pushes
    for i in comp[:3]:
        e = np.zeros(n)
        e[i] = -sgn[i] * min(radius, abs(z[i]))
        cands.append(e)
    for i in order_t[:2]:
        e = np.zeros(n)
        e[i] = sgn[i] * radius
        cands.append(e)
    return cands


def _attack_quick(z, measure, k, radius):
    """Evaluate the closed-form perturbation starts only, in one batch.
    The first start of highest deficit wins; no perturbation wins ties."""
    starts = [np.zeros(z.size)]
    for n0 in _attack_candidates(z, measure, k, radius):
        nrm = np.linalg.norm(n0)
        starts.append(n0 * (radius / nrm) if nrm > radius else n0)
    vals = _deficit_rows(z + np.array(starts), measure, k)
    i = int(np.argmax(vals))
    return float(vals[i]), starts[i], len(starts)


def _attack_ascend(z, measure, k, radius, n0, steps):
    """Projected gradient ascent of the deficit over the perturbation ball.

    The 2n central differences of a step are evaluated as one batch of
    rows that reproduces a coordinate loop stepping ``cur[i]`` by +h, -2h
    and +h in place: the coordinates before i have already taken that
    round trip, which rounding need not return to where it started, so row
    i holds the drifted values before i, the stepped value at i and the
    untouched ones after it, and ``cur`` ends the step drifted.
    """
    n = z.size
    cur = n0.copy()
    val = _deficit_raw(z + cur, measure, k)
    evals = 1
    step = 0.25 * radius
    h = 1e-6 * radius
    # per (row, coordinate): 0 untouched, 1 stepped up, 2 stepped down, 3 drifted
    lower = np.tri(n, k=-1, dtype=int) * 3
    pick = np.vstack([lower + np.eye(n, dtype=int), lower + 2 * np.eye(n, dtype=int)])
    coord = np.arange(n)
    for _ in range(steps):
        up = cur + h
        dn = up - 2 * h
        drift = dn + h
        vals = _deficit_rows(z + np.stack([cur, up, dn, drift])[pick, coord], measure, k)
        grad = (vals[:n] - vals[n:]) / (2 * h)
        cur = drift
        evals += 2 * n
        gn = np.linalg.norm(grad)
        if gn == 0:
            break
        prop = cur + step * grad / gn
        nrm = np.linalg.norm(prop)
        if nrm > radius:
            prop *= radius / nrm
        pv = _deficit_raw(z + prop, measure, k)
        evals += 1
        if pv > val:
            cur, val = prop, pv
        else:
            step *= 0.5
            if step < 1e-12 * radius:
                break
    return val, cur, evals


def rrc_probe(
    sub: Subspace,
    cost: CostFunction,
    k: int,
    d: float,
    budget: int = 200_000,
    seed: int = 0,
) -> RobustnessProbe:
    """Search for a perturbed-inequality violation at radius d.

    Scans the deficit landscape over the subspace.  A radius within the
    certified l1 radius of the subspace passes soundly with no search
    (``passed_sound``); otherwise the best candidates are attacked with
    perturbations from the open ball of radius d ||z||.  A returned
    violation is re-verified by direct evaluation; a ``passed_at_resolution``
    only certifies that the budgeted search found nothing.
    """
    if not 0 < d < math.inf:
        raise ValueError(f"need finite d > 0, got {d}")
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    return _rrc_from_scan(sub, cost, k, d, budget, _validated_scan(sub, cost, k, seed))


def _rrc_from_scan(sub, cost, k, d, budget, scan) -> RobustnessProbe:
    measure = cost.measure
    shrink = 1.0 - TOL.strict_shrink
    cands, evals = scan.cands, scan.evaluations
    sound_radius = _sound_radius(sub, measure, k, scan)

    if d <= sound_radius * shrink:
        return RobustnessProbe(d, "passed_sound", None, budget, evals, "violation_free",
                               sound_radius)

    def outcome(name, violation=None):
        return RobustnessProbe(d, name, violation, budget, evals, certified_radius=sound_radius)

    def make_violation(z, n_vec):
        deficit = _deficit_raw(z + n_vec, measure, k)
        support = _support_of(z + n_vec, measure, k)
        if deficit < 0.0:
            return None
        if np.linalg.norm(n_vec) >= d * np.linalg.norm(z):
            return None
        if not sub.contains(z):
            return None
        return Violation(z, n_vec, support, deficit)

    # unperturbed failures first: any nonnegative deficit already violates
    for cand in cands[:PROBE_CANDIDATES]:
        z = cand.scale * cand.direction
        if 2.0 * cand.q - 1.0 >= 0.0:
            v = make_violation(z, np.zeros(z.size))
            if v is not None:
                return outcome("violated", v)

    # the vertex lines maximize the unperturbed deficit, but an attack from
    # them misses violations that one from the search's candidates finds
    # (the worst perturbed point lies off the vertices), so beyond the
    # certified radius the attack starts from the search's candidates
    if scan.search is not None:
        cands, ev = scan.search()
        evals += ev

    # phase 1: cheap closed-form perturbations on every (direction, scale)
    # pair; for scale-sensitive penalties the violating amplitude may differ
    # from the amplitude maximizing the unperturbed deficit
    scale_grid = _scale_grid(measure)
    pairs = []
    for cand in cands[:PROBE_CANDIDATES]:
        if measure.is_homogeneous:
            trial_scales = [cand.scale]
        else:
            trial_scales = sorted(set(scale_grid[:: max(1, scale_grid.size // 24)]) | {cand.scale})
        for t in trial_scales:
            z = t * cand.direction
            radius = d * float(np.linalg.norm(z)) * shrink
            val, n_vec, ev = _attack_quick(z, measure, k, radius)
            evals += ev
            if val >= 0.0:
                v = make_violation(z, n_vec)
                if v is not None:
                    return outcome("violated", v)
            pairs.append((val / max(radius, 1e-300), z, radius, n_vec))
            if evals >= budget:
                return outcome("passed_at_resolution")

    # phase 2: gradient ascent from the most promising pairs only
    pairs.sort(key=lambda p: p[0], reverse=True)
    for _, z, radius, n0 in pairs[:4]:
        val, n_vec, ev = _attack_ascend(z, measure, k, radius, n0, ATTACK_STEPS)
        evals += ev
        if val >= 0.0:
            v = make_violation(z, n_vec)
            if v is not None:
                return outcome("violated", v)
        if evals >= budget:
            break
    return outcome("passed_at_resolution")


def robustness_constant(d: float, sigma_min: float) -> float:
    """Recovery-error constant guaranteed by radius-d robustness: 2(1+d)/(d sigma_min)."""
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"need finite d > 0, got {d}")
    if not (math.isfinite(sigma_min) and sigma_min > 0):
        raise ValueError(f"need finite sigma_min > 0, got {sigma_min}")
    return 2.0 * (1.0 + d) / (d * sigma_min)


def converse_constant(d: float, sigma_max: float) -> float:
    """Constant below which robustness forces radius-d membership: 2(1-2d)/(d sigma_max)."""
    if not 0 < d < 0.5:
        raise ValueError(f"need 0 < d < 1/2, got {d}")
    if not (math.isfinite(sigma_max) and sigma_max > 0):
        raise ValueError(f"need finite sigma_max > 0, got {sigma_max}")
    return 2.0 * (1.0 - 2.0 * d) / (d * sigma_max)


# ---------------------------------------------------------------------------
# Closed-form oracle for the exponential measure on lines in R^3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ce1Membership:
    """Closed-form recovery-set classification of a line in R^3 under the
    exponential measure at sparsity one: inside iff 2 max|g_i| <= sum|g_i|."""

    verdict: str   # "interior" | "boundary" | "outside"
    margin: float  # sum|g| - 2 max|g| for the unit generator

    @property
    def in_omega(self) -> bool:
        return self.verdict != "outside"


def ce1_membership(sub: Subspace) -> Ce1Membership:
    """Classify a line in R^3; a margin within 1e-12 of zero is ``boundary``."""
    if sub.ambient_dim != 3 or sub.dim != 1:
        raise ValueError("classifier applies to lines in R^3 only")
    g = np.abs(sub.basis[:, 0])
    margin = float(g.sum() - 2.0 * g.max())
    if margin > 1e-12:
        verdict = "interior"
    elif margin < -1e-12:
        verdict = "outside"
    else:
        verdict = "boundary"
    return Ce1Membership(verdict, margin)


# ---------------------------------------------------------------------------
# Two-parameter region map
# ---------------------------------------------------------------------------

@dataclass
class RegionMap:
    """Grid classification of (a, b) by satisfiability of
    F(x) + F(y) <= F(a x + b y) for some (x, y) >= 0, (x, y) != 0.

    ``region_a[i, j]`` is True when a witness exists at (a_values[i],
    b_values[j]).  ``upward_closed`` records whether the found region is
    closed upward in both parameters, as it must be for a non-decreasing
    penalty.
    """

    a_values: Array
    b_values: Array
    region_a: Array
    upward_closed: bool
    upward_violations: int
    candidates_used: int


def region_boundary_map(
    measure: SparsenessMeasure,
    grid: tuple[int, int] = (200, 200),
    domain: tuple[float, float] = (2.0, 2.0),
) -> RegionMap:
    """Classify an (a, b) grid by searching witnesses (x, y) on a log grid.

    The witness search uses pure evaluation (axis candidates, the diagonal
    and a log-log product grid), so a point is classified into region A as
    soon as one candidate satisfies the inequality; no tolerance is added,
    which keeps the boundary exact for exactly-representable cases.
    """
    rows, cols = grid
    if rows < 2 or cols < 2:
        raise ValueError(f"grid must be at least 2x2, got {grid}")
    a_max, b_max = domain
    if not (0 < a_max < math.inf and 0 < b_max < math.inf):
        raise ValueError(f"domain bounds must be finite and positive, got {domain}")

    a_vals = np.linspace(0.0, a_max, rows)
    b_vals = np.linspace(0.0, b_max, cols)
    a_col = a_vals[:, None]
    b_row = b_vals[None, :]

    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, BOUNDARY_CANDIDATES)])
    region = np.zeros((rows, cols), dtype=bool)
    used = 0
    for x in xs:
        for y in xs:
            if x == 0.0 and y == 0.0:
                continue
            fxy = measure.fn(np.array([x, y]))
            lhs = float(fxy[0] + fxy[1])
            rhs = measure.fn(np.abs(a_col * x + b_row * y))
            np.logical_or(region, rhs >= lhs, out=region)
            used += 1

    ok_rows = (region[:-1, :] <= region[1:, :]).all()
    ok_cols = (region[:, :-1] <= region[:, 1:]).all()
    violations = int((region[:-1, :] > region[1:, :]).sum() + (region[:, :-1] > region[:, 1:]).sum())
    return RegionMap(a_vals, b_vals, region, bool(ok_rows and ok_cols), violations, used)
