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

The same lines decide the power laws F(1)|t|^p below p = 1 (``l0``,
``lp``).  At k = 1, max |z_i|^p / sum_j |z_j|^p over N is
1 / (1 + min{sum_{j != i} |z_j|^p : z in N, z_i = 1}); that objective is
concave on each orthant piece of the affine set and bounded below, so its
minimum lies at a vertex of a piece (Rockafellar, Convex Analysis,
Cor. 32.3.4), and such a vertex has l - 1 zero coordinates: it is on a
vertex line.  Under l0 the ratio grows as the support shrinks, and every z
in N contains the support of a vertex line, so the lines are exact at
every k.  For lp at k >= 2 the best line is a lower bound.

Such an F whose F(t)/t also tends to a finite c > 0 at 0+ (the limit
``SparsenessMeasure.slope_at_zero``; ``exp_ce1``, ``mcp_zap``, ``scad``)
takes l1's certificates: an F-violation at u is an l1 violation there,
and an l1 deficit delta > 0 at u is an F-deficit c t delta + o(t) at t u.
So theta_F = theta_l1, exact as a supremum that t z approaches as t -> 0
(``nsc`` method ``l1_dominance``), the robust radii agree, and the
verdicts are l1's except inside the band around 2 gamma = 1, where F's own
search decides.  A failure is reported only once its l1 witness, scaled
down the ladder 1, 1/10, ..., 1e-15, has an F-deficit >= 0 by direct
evaluation.
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
    ELEMENT_BUDGET,
    SCALE_GRID_HI,
    SCALE_GRID_LO,
    SCALE_GRID_POINTS,
    SUPPORT_ENUMERATION_CAP,
    TOL,
)
from .measures import CostFunction, SparsenessMeasure, builtin_measure
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
_LADDER = 10.0 ** -np.arange(16)   # scales 1, 1/10, ..., 1e-15 at which an l1 witness is tried
_L1 = builtin_measure("l1")


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
    k = 1 is the maximum, and for k = 2 on many vectors the running
    largest and second largest: the same numbers without the partition,
    whose sum does not depend on the order of its two terms."""
    tot = fv.sum(axis=axis)
    n = fv.shape[axis]
    if k <= 0:
        return np.zeros_like(tot), tot
    if k >= n:
        return tot, tot
    # a partition or a reduction over a short last axis pays per vector;
    # elementwise passes over the n coordinate slices pay per element
    many = fv.size >= 32 * n * n
    at = (slice(None),) * axis
    if k == 1:
        if axis == fv.ndim - 1 and many:
            top = np.maximum(fv[..., 0], fv[..., 1])
            for i in range(2, n):
                np.maximum(top, fv[..., i], out=top)
            return top, tot
        return fv.max(axis=axis), tot
    if k == 2 and many:
        top = np.maximum(fv[at + (0,)], fv[at + (1,)])
        second = np.minimum(fv[at + (0,)], fv[at + (1,)])
        below = np.empty_like(top)
        for i in range(2, n):
            np.maximum(second, np.minimum(top, fv[at + (i,)], out=below), out=second)
            np.maximum(top, fv[at + (i,)], out=top)
        return top + second, tot
    return np.partition(fv, n - k, axis=axis)[at + (slice(n - k, None),)].sum(axis=axis), tot


def _batches(total: int, size: int):
    """(start, stop) of consecutive batches of ``size`` >= 2 columns.  A
    trailing lone column joins the batch before it, since numpy sums one
    column pairwise (n >= 8) but wider batches row by row."""
    bounds = list(range(0, total, size)) + [total]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds, bounds[1:])


def _slope(measure: SparsenessMeasure, t: Array) -> Array:
    """Central-difference slope of F at t >= 0, step 1e-7 (1 + t), with the
    lower point clipped at 0."""
    h = 1e-7 * (1.0 + t)
    return (measure.fn(t + h) - measure.fn(np.maximum(t - h, 0.0))) / (2.0 * h)


def _q_columns(z: Array, measure: SparsenessMeasure, k: int, scales: Array, axis: int = 0):
    """q = J(z_T)/J(z) maximized over supports, per (scale, direction), and
    then over the scales: returns the best q per direction and the index of
    its scale.

    The directions are the columns of ``z`` (axis 0 holds the coordinates)
    or its rows (axis 1).  The refinements use rows, which reproduce
    one-by-one evaluation bit for bit (see :func:`_deficit_rows`).  The
    penalties are evaluated in blocks of directions of at most
    ``ELEMENT_BUDGET`` values, which keeps the temporaries in cache and
    changes no value: every direction is reduced on its own, and no block
    is a lone column (:func:`_batches`).

    For fixed z the maximizing support of size <= k is the top-k of the
    per-coordinate penalties, because moving any coordinate into T can only
    increase J(z_T) and decrease J(z_{T^c}).
    """
    a = np.abs(z)
    count = a.shape[1 - axis]
    best, arg = np.empty(count), np.empty(count, dtype=np.intp)
    for lo, hi in _batches(count, max(2, ELEMENT_BUDGET // (scales.size * a.shape[axis]))):
        block = a[:, lo:hi] if axis == 0 else a[lo:hi]
        top, tot = _topk_total(measure.fn(scales[:, None, None] * block[None, :, :]), k, axis + 1)
        with np.errstate(invalid="ignore"):
            q = np.where(tot > 0, top / tot, 0.0)
        best[lo:hi] = q.max(axis=0)
        arg[lo:hi] = q.argmax(axis=0)
    return best, arg


def _q_single(z: Array, measure: SparsenessMeasure, k: int, scales: Array):
    """Best q over the scale grid for one direction; returns (q, scale)."""
    q, i = _q_columns(z.reshape(-1, 1), measure, k, scales)
    return float(q[0]), float(scales[i[0]])


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
    """A candidate per row of ``z_rows``, in row order, each at the
    amplitude maximizing q within the allowed scale window; the rows'
    brackets are refined in lockstep."""
    scales = _scale_grid(measure)
    q, i = _q_columns(z_rows, measure, k, scales, axis=1)
    qs, ts = q.tolist(), scales[i].tolist()
    if scales.size > 1:
        step = math.log10(scales[1] / scales[0])
        lo = [max(math.log10(SCALE_GRID_LO), math.log10(t) - step) for t in ts]
        hi = [min(math.log10(SCALE_GRID_HI), math.log10(t) + step) for t in ts]
        abs_rows = np.abs(z_rows)

        def fun(lts):
            amp = np.array([10.0**lt for lt in lts])
            top, tot = _topk_total(measure.fn(amp[:, None] * abs_rows), k, axis=1)
            return [p / s if s > 0 else 0.0 for p, s in zip(top.tolist(), tot.tolist())]

        for i, (lt, qb) in enumerate(zip(*_golden_max(fun, lo, hi, REFINE_ITERS))):
            if qb >= qs[i]:
                qs[i], ts[i] = qb, 10.0**lt
    return [_Candidate(q, z, t) for q, z, t in zip(qs, z_rows, ts)]


def _ranked(cands: list) -> list:
    return sorted(cands, key=lambda c: c.q, reverse=True)


@dataclass
class _Scan:
    """One scan of a subspace: all that the ``_*_from_scan`` deciders read.

    ``exact`` says the best candidate attains the supremum of q.
    ``sound_radius`` is the certified radius, set by the scan
    (:func:`_scan_subspaces`), 0.0 when nothing is certified.
    ``search``, set beside the vertex enumeration of a subspace of dim >= 2
    (which it marks), runs the search once for the probe's attack beyond
    the certified radius.  ``band_search``
    marks the l1 scan of a measure routed to l1 (:func:`_l1_routed`): it
    runs the measure's own search once, which decides inside the band
    around 2 gamma = 1.  ``decision``, set beside it, decides the scan
    off the band once (:func:`_l1_decision`).
    """

    cands: list            # ranked _Candidate, best first
    evaluations: int
    exact: bool
    sound_radius: float
    decision: Callable[[], tuple | None] | None = None
    search: Callable[[], tuple[list, int]] | None = None
    band_search: Callable[[], tuple[list, int]] | None = None


def _dominated(measure: SparsenessMeasure) -> bool:
    """F non-decreasing with F(t)/t non-increasing: every F-violation at a
    point u is an l1 violation there.  With T the top-k support of u and
    a = min_T |u_i|, sum_T F <= (F(a)/a) ||u_T||_1 and
    sum_{T^c} F >= (F(a)/a) ||u_{T^c}||_1."""
    return measure.non_decreasing is True and measure.ratio_nonincreasing is True


def _l1_routed(measure: SparsenessMeasure) -> bool:
    """A non-homogeneous F under the dominance rule whose F(t)/t tends to a
    finite c > 0 at 0+ (``slope_at_zero``) takes l1's certificates (see the
    module docstring)."""
    return (not measure.is_homogeneous and _dominated(measure)
            and measure.slope_at_zero is not None)


def _rescaled(z: Array, e: Array, measure: SparsenessMeasure, k: int):
    """(t z, t e) for the largest t on the ladder 1, 1/10, ..., 1e-15 at
    which t z + t e has an F-deficit >= 0 by direct evaluation, or None."""
    tz, te = _LADDER[:, None] * z, _LADDER[:, None] * e
    hit = np.flatnonzero(_deficit_rows(tz + te, measure, k) >= 0.0)
    return (tz[hit[0]], te[hit[0]]) if hit.size else None


def _l1_decision(cands, measure, k):
    """The verdict of a routed scan's ranked candidates off the band:
    ("holds_strict", top vertex line) when 2 gamma - 1 <= -band, by
    dominance; ("fails", witness) when 2 gamma - 1 >= band and a vertex
    line of q >= 1/2 + band, scaled down the ladder, verifies.  None
    otherwise: the measure's own search decides."""
    best = cands[0]
    if 2.0 * best.q - 1.0 <= -TOL.boundary_margin:
        return "holds_strict", best.direction
    for cand in cands:
        if 2.0 * cand.q - 1.0 >= TOL.boundary_margin:
            scaled = _rescaled(cand.direction, np.zeros(cand.direction.size), measure, k)
            if scaled is not None:
                return "fails", scaled[0]
    return None


def _vertex_lines(bases: Array):
    """Unit vectors on the vertex lines of N ∩ {||z||_1 <= 1} for each
    basis of a (T, n, l) stack, in batches of (T, c, n) lines with the
    (T, c) mask of those that count.

    A vertex has zero coordinates Z with rank B[Z] = l - 1, so it spans
    {z in N : z_S = 0} for some (l-1)-subset S of Z with rank B[S] = l - 1.
    Every (l-1)-subset is solved with one batched SVD; those rank-deficient
    by numpy's ``matrix_rank`` tolerance are masked, which loses no vertex.
    No batch holds a lone subset (:func:`_batches`), whose line numpy would
    map by a matrix-vector product, which rounds differently.
    """
    t, n, l = bases.shape
    if l == 1:
        yield bases.transpose(0, 2, 1), np.ones((t, 1), dtype=bool)
        return
    subsets = np.array(list(itertools.combinations(range(n), l - 1)))
    for lo, hi in _batches(len(subsets), max(2, _VERTEX_CHUNK // t)):
        _, sv, vt = np.linalg.svd(bases[:, subsets[lo:hi]])
        yield (np.matmul(vt[:, :, -1, :], bases.transpose(0, 2, 1)),
               sv[..., -1] > sv[..., 0] * l * _EPS)


def _power_law(measure: SparsenessMeasure) -> bool:
    """F(t) = F(1) |t|^p with 0 <= p <= 1: ``l0``, ``lp`` and ``l1``."""
    return measure.is_homogeneous and 0.0 <= measure.homogeneity_degree <= 1.0


def _vertex_scans(bases: Array, measure: SparsenessMeasure, k: int) -> list:
    """Scan of the vertex lines of each basis of a (T, n, l) stack under a
    power law (:func:`_power_law`): the lines with the highest
    q = J(z_T) / J(z) (T the top-k support), best first, and r(N).  Each
    basis is scanned as it is alone: its maxima are over its own lines, and
    a stable sort along its row ranks them, the masked ones last.

    gamma = max ||z_T||_1 / ||z||_1 and kappa = max ||z||_2 / ||z||_1 are
    read off the lines as the SVD gives them.  With u = z + e,
    ||e|| < d ||z||, the deficit
    ||u_T||_1 - ||u_{T^c}||_1 <= (2 gamma - 1) ||z||_1 + sqrt(n) ||e||_2
    is negative for every d <= r(N) = (1 - 2 gamma) / (sqrt(n) kappa), for
    l1 and every measure it dominates; otherwise no radius is certified.

    Under p = 1 the lines are ranked by that ratio, exactly (module
    docstring).  Under p < 1 a line is ranked by its own q on the copy with
    its zero coordinates set to exactly 0: the SVD leaves up to ~1e-15 on
    the l - 1 zeros of a line (and on the further zeros of a degenerate
    vertex, as integer matrices have), and (1e-15)^0.1 ~ 0.03.  A
    coordinate counts as zero within TOL.membership / (2 sqrt(n)), which
    moves the unit line by at most half the membership tolerance, so the
    copy stays in N (``Subspace.contains``).  That is exact for ``l0`` at
    every k, and for ``lp`` at k = 1 and on a line (module docstring); for
    ``lp`` at k >= 2 it is a lower bound (``exact`` False).
    """
    t, n, l = bases.shape
    p = measure.homogeneity_degree
    zero = TOL.membership / (2.0 * math.sqrt(n))
    qs, lines = np.zeros((t, 0)), np.zeros((t, 0, n))
    gamma, kappa, scored = np.zeros(t), np.zeros(t), np.zeros(t, dtype=int)
    for z, full in _vertex_lines(bases):
        top, tot = _topk_total(np.abs(z), k, axis=2)
        np.maximum(kappa, np.where(full, np.linalg.norm(z, axis=2) / tot, 0.0).max(axis=1),
                   out=kappa)
        q = top / tot
        np.maximum(gamma, np.where(full, q, 0.0).max(axis=1), out=gamma)
        scored += full.sum(axis=1)
        if p != 1.0:
            z = np.where(np.abs(z) > zero, z, 0.0)
            top, tot = _topk_total(measure.fn(np.abs(z)), k, axis=2)
            q = top / tot
        qs = np.concatenate([qs, np.where(full, q, -np.inf)], axis=1)
        lines = np.concatenate([lines, z], axis=1)
        keep = np.argsort(-qs, axis=1, kind="stable")[:, :REFINE_PEAKS]
        qs, lines = np.take_along_axis(qs, keep, 1), np.take_along_axis(lines, keep[..., None], 1)
    certified = p == 1.0 or _dominated(measure)
    exact = p in (0.0, 1.0) or k <= 1 or l == 1
    scans = []
    for q, z, g, kap, count in zip(qs, lines, gamma.tolist(), kappa.tolist(), scored.tolist()):
        radius = max(1.0 - 2.0 * g, 0.0) / (math.sqrt(n) * kap) if certified else 0.0
        live = q > -np.inf
        cands = [_Candidate(float(v), d, 1.0) for v, d in zip(q[live], z[live])]
        scans.append(_Scan(cands, count * n, exact, radius))
    return scans


def _enumerable(sub) -> bool:
    return math.comb(sub.ambient_dim, sub.dim - 1) <= SUPPORT_ENUMERATION_CAP


def _scan_subspaces(subs, measure: SparsenessMeasure, k: int, seeds) -> list:
    """Ranked (q, direction, scale) candidates and the certified radius of
    each subspace; the subspaces share n and l, and the i-th searches on
    ``as_rng(seeds[i])``.

    While the C(n, l-1) vertex lines are within the enumeration cap, a
    power law takes the vertex scan, and so does, on l1's ranking, a
    measure routed to l1 (:func:`_l1_routed`), whose own search waits in
    ``band_search``; the lines of all the subspaces are scanned as one
    stack (:func:`_vertex_scans`).  Beside a vertex scan of a subspace of
    dim >= 2, ``search`` runs the search once for the probe's attack (a
    line's one direction is its vertex line).  Every other scan is the
    search (:func:`_search_subspace`), with the radius of the l1 vertex
    scan when the measure is dominated by l1 and the lines are within the
    cap, else none.
    """
    rngs = [as_rng(seed) for seed in seeds]
    routed, enumerable = _l1_routed(measure), _enumerable(subs[0])
    bases = np.stack([sub.basis for sub in subs])
    if not ((routed or _power_law(measure)) and enumerable):
        radii = ([scan.sound_radius for scan in _vertex_scans(bases, _L1, k)]
                 if _dominated(measure) and enumerable else [0.0] * len(subs))
        exact = subs[0].dim == 1 and measure.is_homogeneous
        return [_Scan(*_search_subspace(sub, measure, k, rng), exact, radius)
                for sub, rng, radius in zip(subs, rngs, radii)]
    ranking = _L1 if routed else measure
    scans = _vertex_scans(bases, ranking, k)
    for sub, rng, scan in zip(subs, rngs, scans):
        if sub.dim > 1:
            scan.search = functools.cache(functools.partial(_search_subspace, sub, ranking, k, rng))
        if routed:
            scan.decision = functools.cache(functools.partial(_l1_decision, scan.cands, measure, k))
            scan.band_search = functools.cache(functools.partial(_search_subspace, sub, measure, k, rng))
    return scans


_ANGLES = np.linspace(0.0, math.pi, DIRECTION_GRID, endpoint=False)
_ANGLE_DIRECTIONS = np.vstack([np.cos(_ANGLES), np.sin(_ANGLES)])


def _search_subspace(sub, measure, k, rng) -> tuple[list, int]:
    """Ranked candidates and evaluations of the search over one subspace.

    In dim 1 the candidate is the generator.  In dim 2 a half-circle angle
    grid is scanned in cache-sized blocks, the angle brackets of its best
    distinct peaks are refined in one lockstep golden-section search, and
    the refined directions' scales in one more; each bracket and each row
    is evaluated on its own, so refining them together changes no value.
    In dim >= 3, random unit directions with hill climbing from the best
    starts, on ``rng``.
    """
    n, l = sub.basis.shape
    scales = _scale_grid(measure)
    if l == 1:
        return _refine_scale(np.array([sub.basis[:, 0]]), measure, k), n * scales.size

    if l == 2:
        grid = DIRECTION_GRID
        min_sep = max(2, grid // 90)
        per_col, _ = _q_columns(sub.basis @ _ANGLE_DIRECTIONS, measure, k, scales)
        peaks: list[int] = []
        for idx in np.argsort(per_col)[::-1]:
            if all(min(abs(idx - p), grid - abs(idx - p)) > min_sep for p in peaks):
                peaks.append(int(idx))
            if len(peaks) >= REFINE_PEAKS:
                break

        def directions(thetas):
            # the basis broadcast over the angles runs, per angle, the
            # matrix-vector kernel of basis @ (cos, sin) on the basis as
            # laid out in memory, so each direction is the one it gives alone
            w = np.array([[math.cos(t), math.sin(t)] for t in thetas])[:, :, None]
            return np.matmul(sub.basis, w)[:, :, 0]

        def q_at_angles(thetas):
            return _q_columns(directions(thetas), measure, k, scales, axis=1)[0].tolist()

        step = math.pi / grid
        thetas, _ = _golden_max(q_at_angles, [_ANGLES[p] - step for p in peaks],
                                [_ANGLES[p] + step for p in peaks], REFINE_ITERS)
        cands = _refine_scale(directions(thetas), measure, k)
        return _ranked(cands), scales.size * (n * grid + len(peaks) * REFINE_ITERS)

    # dim >= 3: sampled directions plus hill climbing
    w = rng.standard_normal((l, DIRECTION_GRID))
    w /= np.linalg.norm(w, axis=0)
    z_cols = sub.basis @ w
    per_col, _ = _q_columns(z_cols, measure, k, scales)
    evals = scales.size * z_cols.size
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
            evals += scales.size * n
            if qq > best_q:
                best_q, wv = qq, prop
            else:
                sigma *= 0.85
                if sigma < 1e-4:
                    break
        climbed.append(sub.basis @ wv)
    return _ranked(_refine_scale(np.array(climbed), measure, k)), evals


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
    exact where the vertex lines are (module docstring; within the vertex
    enumeration cap, for l1, for l0, and for lp at k = 1) and otherwise a
    result at the fixed search resolution; ``boundary``
    flags an extremal deficit inside the strictness band, where the float
    answer is not decidable.  A measure routed to l1 (:func:`_l1_routed`)
    takes l1's verdict off the band, with the l1 margin 1 - 2 gamma:
    ``holds_strict`` by dominance, ``fails`` with a vertex line scaled until
    its F-deficit verifies; inside the band its own search decides.
    """
    return _nsp_from_scan(cost, k, _validated_scans([sub], cost, k, [seed])[0])


def _nsp_from_scan(cost, k, scan) -> NspVerdict:
    if scan.band_search is not None:
        decided = scan.decision()
        if decided is None:
            cands, evals = scan.band_search()
            band = _Scan(cands, scan.evaluations + evals, False, scan.sound_radius)
            return _nsp_from_scan(cost, k, band)
        status, witness = decided
        return NspVerdict(status, 1.0 - 2.0 * scan.cands[0].q, witness,
                          _support_of(witness, cost.measure, k), scan.evaluations)
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


def _validated_scans(subs, cost, k, seeds) -> list:
    """Check the problem once, as it reads only the cost, k and n, then
    scan the subspaces, which share n and l (:func:`_scan_subspaces`).

    A scan record is all the private ``_*_from_scan`` deciders read, so
    one scan can answer every question about a subspace.
    """
    _check_problem(subs[0], cost, k)
    return _scan_subspaces(subs, cost.measure, k, seeds)


def _check_problem(sub, cost, k) -> None:
    n = sub.ambient_dim
    if cost.dimension != n:
        raise ValueError(f"cost dimension {cost.dimension} != ambient dimension {n}")
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}")
    _check_support_budget(n, k)


@dataclass
class NscReport:
    """The supremal support-to-complement cost ratio over a null space."""

    theta: float
    witness_z: Array
    witness_T: tuple
    method: str                # "exact_1d" | "vertex_enum" | "l1_dominance" | "sphere_enum" | "multistart"
    evaluations: int
    is_lower_bound: bool

    @property
    def finite(self) -> bool:
        return math.isfinite(self.theta)


def nsc(sub: Subspace, cost: CostFunction, k: int, seed: int = 0) -> NscReport:
    """Null space constant: sup over z of the maximal J(z_T)/J(z_{T^c}).

    Exact for one-dimensional subspaces with a homogeneous penalty (a single
    direction; the maximizing support is the top-k of the coordinate
    penalties), and in any dimension while the C(n, l-1) vertex lines are
    within the enumeration cap (``vertex_enum``): for a 1-homogeneous
    penalty and ``l0`` at every k, and for ``lp`` at k = 1; for ``lp`` at
    k >= 2 the best vertex line is a lower bound (``is_lower_bound``).  A
    measure routed to l1 (:func:`_l1_routed`) has l1's constant within
    the cap (``l1_dominance``), exact as a supremum: the ratio tends to it
    along t times the witness as t -> 0.  Otherwise the reported value is
    the best found and is flagged as a lower bound.  A ratio with vanishing
    denominator (z supported inside T) is reported as +inf.
    """
    return _nsc_from_scan(sub, cost, k, _validated_scans([sub], cost, k, [seed])[0])


def _theta(q: float) -> float:
    return q / (1.0 - q) if q < 1.0 else math.inf


def _nsc_from_scan(sub, cost, k, scan) -> NscReport:
    best = scan.cands[0]
    witness = best.scale * best.direction
    support = _support_of(witness, cost.measure, k)
    l = sub.dim
    if scan.band_search is not None:
        method = "l1_dominance"
    elif l == 1:
        method = "exact_1d"
    elif scan.search is not None:
        method = "vertex_enum"
    else:
        method = "sphere_enum" if l == 2 else "multistart"
    return NscReport(_theta(best.q), witness, support, method, scan.evaluations, not scan.exact)


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
    (exact where :func:`nsc` is).  For general penalties it is the strict
    inequality search of :func:`nsp_check`, whose normalized margin is
    returned; a measure routed
    to l1 takes, off the band, l1's verdict and theta with the margin
    1 - 2 gamma (``l1_dominance``).
    """
    return _erc_from_scan(sub, cost, k, _validated_scans([sub], cost, k, [seed])[0])


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
    theta, method = None, "deficit_search"
    if scan.band_search is not None and scan.decision() is not None:
        # decided off the band by the l1 scan alone
        theta, method = _theta(scan.cands[0].q), "l1_dominance"
    return ErcVerdict(
        member=verdict.holds,
        margin=verdict.margin,
        boundary=abs(verdict.margin) < TOL.mc_boundary_band,
        theta=theta,
        method=method,
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
    surfaced within the budget.  The violation-free set at radius d
    contains the d-interior of the exact-recovery set and is contained in
    its d/(1+d)-interior, so a (true) pass certifies interior membership
    only at the smaller radius d/(1+d).
    """

    d: float
    outcome: str            # "violated" | "passed_sound" | "passed_at_resolution"
    violation: Violation | None
    search_budget: int
    evaluations: int
    certified_radius: float = 0.0

    @property
    def violated(self) -> bool:
        return self.outcome == "violated"


def _attack_candidates(z, measure, k, radius):
    """Perturbation starts as the rows of an (S, n) array, each clipped to
    the radius: no perturbation first, then sign-aligned pushes and
    coordinate erasures."""
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
    starts = np.array(cands)
    nrm = np.linalg.norm(starts, axis=1)
    over = nrm > radius
    starts[over] *= (radius / nrm[over])[:, None]
    return starts


def _attack_quick(z, measure, k, radius):
    """Evaluate the closed-form perturbation starts only, in one batch.
    The first start of highest deficit wins; no perturbation wins ties."""
    starts = _attack_candidates(z, measure, k, radius)
    vals = _deficit_rows(z + starts, measure, k)
    i = int(np.argmax(vals))
    return float(vals[i]), starts[i], len(starts)


def _attack_ascend(z, measure, k, radius, n0, steps):
    """Projected gradient ascent of the deficit over the perturbation ball.
    The 2n central differences of a step, at cur + h e_i and cur - h e_i,
    are evaluated as one batch."""
    n = z.size
    cur = n0.copy()
    val = _deficit_raw(z + cur, measure, k)
    evals = 1
    step = 0.25 * radius
    h = 1e-6 * radius
    offsets = np.vstack([h * np.eye(n), -h * np.eye(n)])
    for _ in range(steps):
        vals = _deficit_rows(z + (cur + offsets), measure, k)
        grad = (vals[:n] - vals[n:]) / (2 * h)
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
    perturbations from the open ball of radius d ||z||.  ``budget`` caps
    the attack's evaluations; ``evaluations`` reports the scan's and the
    attack's.  A measure routed to l1 (:func:`_l1_routed`) takes the l1
    attack off the band, whose witness (z, e) counts once some t (z + e)
    verifies under F.  A returned violation is
    re-verified by direct evaluation; a ``passed_at_resolution`` only
    certifies that the budgeted search found nothing.
    """
    if not 0 < d < math.inf:
        raise ValueError(f"need finite d > 0, got {d}")
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    return _rrc_from_scan(sub, cost, k, d, budget, _validated_scans([sub], cost, k, [seed])[0])


def _rrc_from_scan(sub, cost, k, d, budget, scan) -> RobustnessProbe:
    measure = cost.measure
    shrink = 1.0 - TOL.strict_shrink
    cands, evals, spent = scan.cands, scan.evaluations, 0   # spent: the attack's, capped by budget

    if d <= scan.sound_radius * shrink:
        return RobustnessProbe(d, "passed_sound", None, budget, evals, scan.sound_radius)

    def outcome(name, violation=None):
        return RobustnessProbe(d, name, violation, budget, evals + spent,
                               certified_radius=scan.sound_radius)

    attack, search = measure, scan.search
    if scan.band_search is not None:
        if scan.decision() is None:
            # inside the band the measure's own search and attack decide
            cands, ev = scan.band_search()
            evals += ev
            search = None
        else:
            attack = _L1

    def make_violation(z, n_vec):
        if attack is not measure:
            # an l1 witness counts once some t (z + n_vec) verifies under F
            scaled = _rescaled(z, n_vec, measure, k)
            if scaled is None:
                return None
            z, n_vec = scaled
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
    if search is not None:
        cands, ev = search()
        evals += ev

    # phase 1: cheap closed-form perturbations on every (direction, scale)
    # pair; for scale-sensitive penalties the violating amplitude may differ
    # from the amplitude maximizing the unperturbed deficit
    scale_grid = _scale_grid(attack)
    pairs = []
    for cand in cands[:PROBE_CANDIDATES]:
        if attack.is_homogeneous:
            trial_scales = [cand.scale]
        else:
            trial_scales = sorted(set(scale_grid[:: max(1, scale_grid.size // 24)]) | {cand.scale})
        for t in trial_scales:
            z = t * cand.direction
            radius = d * float(np.linalg.norm(z)) * shrink
            val, n_vec, ev = _attack_quick(z, attack, k, radius)
            spent += ev
            if val >= 0.0:
                v = make_violation(z, n_vec)
                if v is not None:
                    return outcome("violated", v)
            pairs.append((val / max(radius, 1e-300), z, radius, n_vec))
            if spent >= budget:
                return outcome("passed_at_resolution")

    # phase 2: gradient ascent from the most promising pairs only
    pairs.sort(key=lambda p: p[0], reverse=True)
    for _, z, radius, n0 in pairs[:4]:
        val, n_vec, ev = _attack_ascend(z, attack, k, radius, n0, ATTACK_STEPS)
        spent += ev
        if val >= 0.0:
            v = make_violation(z, n_vec)
            if v is not None:
                return outcome("violated", v)
        if spent >= budget:
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
