import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nsp_lab import nsp
from nsp_lab.measures import CostFunction, builtin_measure
from nsp_lab.nsp import (
    ce1_membership,
    converse_constant,
    erc_member,
    nsc,
    nsp_check,
    region_boundary_map,
    robustness_constant,
    rrc_probe,
)
from nsp_lab.subspaces import (
    Subspace,
    as_rng,
    gaussian_measurement,
    null_space,
    perturb_subspace,
    sample_haar,
)

L1 = builtin_measure("l1")
EXP = builtin_measure("exp_ce1")


def line(*coords):
    return Subspace.from_generator(np.asarray(coords, dtype=float))


def cost(measure, n):
    return CostFunction(measure, n)


def theta_line_oracle(generator, p, k):
    """Support-enumeration oracle for one-dimensional subspaces.

    For a power-law penalty the ratio is scale free, so exact rational
    arithmetic on |g_i|**p decides it; p=1 with integer generators is exact.
    """
    f = [abs(float(g)) ** p for g in generator]
    best = Fraction(0)
    n = len(f)
    for size in range(1, k + 1):
        for T in itertools.combinations(range(n), size):
            top = sum(Fraction(f[i]).limit_denominator(10**12) for i in T)
            rest = sum(Fraction(f[i]).limit_denominator(10**12) for i in range(n) if i not in T)
            if rest == 0:
                return math.inf
            best = max(best, top / rest)
    return float(best)


class TestNspCheck:
    def test_uniform_line_holds(self):
        verdict = nsp_check(line(1, 1, 1), cost(L1, 3), 1)
        assert verdict.status == "holds_strict"
        # worst ratio 1/2 translates to normalized margin 1/3
        assert verdict.margin == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_boundary_line_l1(self):
        verdict = nsp_check(line(1, 1, 2), cost(L1, 3), 1)
        assert verdict.status == "boundary"
        assert verdict.witness_T == (2,)

    def test_boundary_line_exp_measure_holds(self):
        verdict = nsp_check(line(1, 1, 2), cost(EXP, 3), 1)
        assert verdict.status == "holds_strict"
        assert verdict.margin > 0

    def test_outside_line_fails_with_witness(self):
        verdict = nsp_check(line(1, 1, 3), cost(L1, 3), 1)
        assert verdict.status == "fails"
        z, T = verdict.witness_z, verdict.witness_T
        f = np.abs(z)
        assert f[list(T)].sum() >= f.sum() - f[list(T)].sum()

    def test_k_zero_always_holds(self):
        verdict = nsp_check(line(1, 1, 3), cost(L1, 3), 0)
        assert verdict.status == "holds_strict"

    def test_validation(self):
        with pytest.raises(ValueError):
            nsp_check(line(1, 1, 2), cost(L1, 3), 3)
        with pytest.raises(ValueError):
            nsp_check(line(1, 1, 2), cost(L1, 4), 1)

    def test_support_cap(self):
        sub = sample_haar(40, 1, 0)
        with pytest.raises(ValueError):
            nsp_check(sub, cost(L1, 40), 18)


class TestNsc:
    @pytest.mark.parametrize(
        "gen,expected",
        [((1, 1, 1), 0.5), ((1, 1, 2), 1.0), ((1, 2, 4), 4.0 / 3.0)],
    )
    def test_exact_line_values(self, gen, expected):
        report = nsc(line(*gen), cost(L1, 3), 1)
        assert abs(report.theta - expected) <= 1e-12
        assert report.method == "exact_1d"
        assert not report.is_lower_bound
        assert report.theta == pytest.approx(theta_line_oracle(gen, 1.0, 1), abs=1e-12)

    def test_witness_reproduces_theta(self):
        report = nsc(line(1, 2, 4), cost(L1, 3), 1)
        z, T = report.witness_z, list(report.witness_T)
        comp = [i for i in range(3) if i not in T]
        ratio = np.abs(z)[T].sum() / np.abs(z)[comp].sum()
        assert ratio == pytest.approx(report.theta, abs=1e-9)
        assert len(T) <= 1

    def test_sparse_direction_gives_infinity(self):
        report = nsc(line(1, 0, 0), cost(L1, 3), 1)
        assert math.isinf(report.theta)
        assert report.witness_T == (0,)

    def test_random_lines_match_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            gen = rng.standard_normal(6)
            for p in (1.0, 0.5):
                report = nsc(line(*gen), cost(builtin_measure("lp", p=p), 6), 2)
                assert report.theta == pytest.approx(theta_line_oracle(gen, p, 2), rel=1e-9)

    def test_plane_lower_bound_vs_line_members(self):
        # the vertex value, exact at k = 1, and the angle-grid search, a
        # lower bound, must both reach the value of any member line of a
        # 2-plane; the search must not pass the vertex value
        rng = np.random.default_rng(11)
        sub = sample_haar(5, 2, rng)
        half = builtin_measure("lp", p=0.5)
        report = nsc(sub, cost(half, 5), 1)
        assert report.method == "vertex_enum"
        assert not report.is_lower_bound
        found = nsp._theta(nsp._search_subspace(sub, half, 1, None)[0][0].q)
        assert found <= report.theta * (1.0 + 1e-12)
        for _ in range(200):
            w = rng.standard_normal(2)
            member = sub.basis @ (w / np.linalg.norm(w))
            assert theta_line_oracle(member, 0.5, 1) <= min(report.theta, found) + 1e-6

    def test_scale_invariance_under_rebasis(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            sub = sample_haar(5, 2, rng)
            ang = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
            rebased = Subspace(sub.basis @ rot)
            t1 = nsc(sub, cost(L1, 5), 1).theta
            t2 = nsc(rebased, cost(L1, 5), 1).theta
            assert t1 == pytest.approx(t2, abs=1e-9)

    def test_multistart_on_three_dimensional_subspace(self):
        rng = np.random.default_rng(17)
        sub = sample_haar(7, 3, rng)
        half = builtin_measure("lp", p=0.5)
        report = nsc(sub, cost(half, 7), 1)
        assert report.method == "vertex_enum"
        assert not report.is_lower_bound
        # the multistart search, a lower bound, stays below the vertex value
        found = nsp._theta(nsp._search_subspace(sub, half, 1, np.random.default_rng(0))[0][0].q)
        assert found <= report.theta * (1.0 + 1e-12)
        # any member line bounds both values from below
        for _ in range(100):
            w = rng.standard_normal(3)
            member = sub.basis @ (w / np.linalg.norm(w))
            assert theta_line_oracle(member, 0.5, 1) <= min(report.theta, found) + 1e-6

    def test_theta_continuity_under_perturbation(self):
        rng = np.random.default_rng(13)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            worst = 0.0
            for trial in range(40):
                sub = sample_haar(6, 1, np.random.default_rng(1000 + trial))
                z = sub.basis[:, 0]
                n_vec = rng.standard_normal(6)
                n_vec *= 0.999 * eps / np.linalg.norm(n_vec)
                moved = perturb_subspace(sub, z, n_vec)
                t0 = nsc(sub, cost(L1, 6), 1).theta
                t1 = nsc(moved, cost(L1, 6), 1).theta
                worst = max(worst, abs(t1 - t0))
            gaps.append(worst)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2


class TestErcMember:
    def test_half_power_uniform_line(self):
        verdict = erc_member(line(1, 1, 1), cost(builtin_measure("lp", p=0.5), 3), 1)
        assert verdict.member
        assert verdict.theta == pytest.approx(0.5, abs=1e-12)

    def test_boundary_not_member_l1(self):
        verdict = erc_member(line(1, 1, 2), cost(L1, 3), 1)
        assert not verdict.member
        assert verdict.theta == pytest.approx(1.0, abs=1e-12)

    def test_boundary_member_exp(self):
        verdict = erc_member(line(1, 1, 2), cost(EXP, 3), 1)
        assert verdict.member

    def test_power_law_inclusion_on_lines(self):
        # dominance of the half power over l1 at the membership level
        rng = np.random.default_rng(14)
        half = builtin_measure("lp", p=0.5)
        for _ in range(100):
            sub = sample_haar(6, 1, rng)
            if erc_member(sub, cost(L1, 6), 1).member:
                assert erc_member(sub, cost(half, 6), 1).member


class TestRrcProbe:
    def test_exp_boundary_violated_at_all_radii(self):
        sub = line(1, 1, 2)
        for d in (0.1, 0.01):
            probe = rrc_probe(sub, cost(EXP, 3), 1, d, seed=1)
            assert probe.violated
            v = probe.violation
            u = v.z + v.n_vec
            f = EXP.fn(np.abs(u))
            t = list(v.support)
            comp = [i for i in range(3) if i not in t]
            assert f[t].sum() >= f[comp].sum() - 1e-12
            assert np.linalg.norm(v.n_vec) < d * np.linalg.norm(v.z)
            assert len(t) <= 1

    def test_uniform_line_passes_small_radius(self):
        # gamma = 1/3 and kappa = 1/sqrt(3): certified radius 1/3 > 0.05
        probe = rrc_probe(line(1, 1, 1), cost(L1, 3), 1, 0.05, seed=2)
        assert probe.outcome == "passed_sound"
        assert probe.certified_radius == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_uniform_line_pass_confirmed_by_dense_oracle(self):
        # independent dense grid over perturbations and supports
        d = 0.05
        z = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        grid = np.linspace(-d, d, 13)
        worst = -math.inf
        for n_vec in itertools.product(grid, repeat=3):
            n_vec = np.asarray(n_vec)
            if np.linalg.norm(n_vec) >= d:
                continue
            u = np.abs(z + n_vec)
            for i in range(3):
                worst = max(worst, 2 * u[i] - u.sum())
        assert worst < 0

    def test_large_radius_total_erasure_violates(self):
        probe = rrc_probe(line(1, 1, 1), cost(L1, 3), 1, 1.5, seed=3)
        assert probe.violated

    def test_erc_failure_implies_violation_at_every_radius(self):
        sub = line(1, 1, 3)
        for d in (1e-3, 1e-2, 0.1):
            assert rrc_probe(sub, cost(L1, 3), 1, d, seed=4).violated

    def test_pass_implies_membership_small_planes(self):
        rng = np.random.default_rng(15)
        for trial in range(25):
            sub = sample_haar(4, 2, np.random.default_rng(500 + trial))
            probe = rrc_probe(sub, cost(L1, 4), 1, 1e-3, seed=trial)
            if not probe.violated:
                assert erc_member(sub, cost(L1, 4), 1).member

    def test_validation(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                rrc_probe(line(1, 1, 1), cost(L1, 3), 1, bad)
        with pytest.raises(ValueError):
            rrc_probe(line(1, 1, 1), cost(L1, 3), 1, 0.1, budget=0)


class TestConstants:
    def test_direct_formula(self):
        assert robustness_constant(1.0, 1.0) == 4.0
        assert robustness_constant(0.1, 0.5) == pytest.approx(44.0)

    def test_converse_formula(self):
        assert converse_constant(0.25, 2.0) == pytest.approx(2.0)

    def test_ranges(self):
        for d, sigma_min in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                             (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(ValueError):
                robustness_constant(d, sigma_min)
        with pytest.raises(ValueError):
            converse_constant(0.5, 1.0)
        for d, sigma_max in ((0.1, 0.0), (math.nan, 1.0), (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(ValueError):
                converse_constant(d, sigma_max)


class TestCe1Membership:
    def test_examples(self):
        assert ce1_membership(line(1, 1, 2)).verdict == "boundary"
        assert ce1_membership(line(1, 1, 1)).verdict == "interior"
        assert ce1_membership(line(1, 1, 3)).verdict == "outside"

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            ce1_membership(sample_haar(4, 1, 0))
        with pytest.raises(ValueError):
            ce1_membership(sample_haar(3, 2, 0))

    def test_agreement_with_search(self):
        rng = np.random.default_rng(16)
        c = cost(EXP, 3)
        checked = 0
        for _ in range(200):
            sub = sample_haar(3, 1, rng)
            closed = ce1_membership(sub)
            if abs(closed.margin) <= 1e-6:
                continue
            checked += 1
            verdict = nsp_check(sub, c, 1)
            if closed.margin > 0:
                assert verdict.status == "holds_strict"
            else:
                assert verdict.status == "fails"
        assert checked > 150


class TestRegionMap:
    def test_l1_staircase_is_the_axis_cross(self):
        rmap = region_boundary_map(L1, grid=(60, 60), domain=(2.0, 2.0))
        expected = (rmap.a_values[:, None] >= 1.0) | (rmap.b_values[None, :] >= 1.0)
        assert np.array_equal(rmap.region_a, expected)
        assert rmap.upward_closed

    def test_origin_in_region_b(self):
        rmap = region_boundary_map(EXP, grid=(5, 5), domain=(2.0, 2.0))
        assert not rmap.region_a[0, 0]

    def test_mcp_saturation_fills_region_a(self):
        # a saturating penalty admits equality witnesses on the plateau, so
        # every (a, b) except the origin lands in region A
        rmap = region_boundary_map(builtin_measure("mcp_zap", alpha=2.0),
                                   grid=(30, 30), domain=(1.0, 1.0))
        assert not rmap.region_a[0, 0]
        assert rmap.region_a[1:, :].all() and rmap.region_a[:, 1:].all()
        assert rmap.upward_closed

    def test_upward_closure_all_builtins(self):
        for m in (builtin_measure("l0"), L1, builtin_measure("lp", p=0.5), EXP,
                  builtin_measure("mcp_zap", alpha=2.0), builtin_measure("scad", lam=1.0, a=3.7)):
            rmap = region_boundary_map(m, grid=(25, 25), domain=(2.0, 2.0))
            assert rmap.upward_closed, m.name
            assert rmap.upward_violations == 0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            region_boundary_map(L1, grid=(1, 5))
        with pytest.raises(ValueError):
            region_boundary_map(L1, grid=(5, 5), domain=(0.0, 1.0))
        for domain in ((math.nan, 2.0), (math.inf, 2.0), (2.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                region_boundary_map(L1, grid=(5, 5), domain=domain)


# ---------------------------------------------------------------------------
# One-at-a-time references for the batched searches.  The batches must
# reproduce them bit for bit, so they are compared with ==, not a tolerance.
# ---------------------------------------------------------------------------

def searched(measure):
    """The measure without its dominance claim: its scans take the search,
    not the exact l1 scan of nsp._l1_routed."""
    return dataclasses.replace(measure, ratio_nonincreasing=None)


LP_HALF = builtin_measure("lp", p=0.5)
MCP = builtin_measure("mcp_zap", alpha=2.0)
SCAD = builtin_measure("scad")
CONTINUOUS = (L1, LP_HALF) + tuple(map(searched, (EXP, MCP, SCAD)))
GRID = CONTINUOUS[1:]   # the measures whose planes are scanned on the angle grid


def serial_golden_max(fun, lo, hi, iters):
    """Golden-section search on one bracket, ``fun`` scalar to scalar."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    mid = 0.5 * (a + b)
    return mid, fun(mid)


# The references below evaluate every direction as a lone vector, with
# measure.fn, np.partition and .sum() only, so they share no kernel with
# the code they check.  The one exception is the angle grid, whose
# directions the scan holds as the columns of one array: numpy adds a
# column's coordinates one after another, as np.add.accumulate does.

def serial_split(f, k):
    """J(u_T) over the top-k support T, and J(u), from the penalties f of u."""
    n = f.size
    top = 0.0 if k <= 0 else f.sum() if k >= n else np.partition(f, n - k)[n - k:].sum()
    return top, f.sum()


def serial_q(u, measure, k):
    top, tot = serial_split(measure.fn(np.abs(u)), k)
    return top / tot if tot > 0 else 0.0


def serial_best_scale(direction, measure, k, scales):
    """The best q over the scale grid, the first scale attaining it."""
    qs = [serial_q(t * direction, measure, k) for t in scales]
    i = int(np.argmax(qs))
    return qs[i], float(scales[i])


def serial_grid(z_cols, measure, k, scales):
    """Per column of z_cols, the best q over the scale grid, the column's
    coordinates accumulated one by one."""
    fv = measure.fn(scales[:, None, None] * np.abs(z_cols)[None, :, :])
    n = fv.shape[1]
    tot = np.add.accumulate(fv, axis=1)[:, -1, :]
    top = (np.zeros_like(tot) if k <= 0 else
           np.add.accumulate(np.partition(fv, n - k, axis=1)[:, n - k:, :], axis=1)[:, -1, :])
    with np.errstate(invalid="ignore"):
        return np.where(tot > 0, top / tot, 0.0).max(axis=0)


def serial_deficit(u, measure, k):
    """2 J(u_T) - J(u) for one vector."""
    top, tot = serial_split(measure.fn(np.abs(u)), k)
    return float(2.0 * top - tot)


def serial_ascend(z, measure, k, radius, n0, steps):
    """Projected gradient ascent with the gradient taken coordinate by
    coordinate, each difference from its own copy of ``cur``."""
    cur = n0.copy()
    val = serial_deficit(z + cur, measure, k)
    evals = 1
    step = 0.25 * radius
    h = 1e-6 * radius
    for _ in range(steps):
        grad = np.zeros(z.size)
        for i in range(z.size):
            up, dn = cur.copy(), cur.copy()
            up[i] += h
            dn[i] -= h
            grad[i] = (serial_deficit(z + up, measure, k)
                       - serial_deficit(z + dn, measure, k)) / (2 * h)
        evals += 2 * z.size
        gn = np.linalg.norm(grad)
        if gn == 0:
            break
        prop = cur + step * grad / gn
        nrm = np.linalg.norm(prop)
        if nrm > radius:
            prop *= radius / nrm
        pv = serial_deficit(z + prop, measure, k)
        evals += 1
        if pv > val:
            cur, val = prop, pv
        else:
            step *= 0.5
            if step < 1e-12 * radius:
                break
    return val, cur, evals


def serial_quick(z, measure, k, radius):
    """The closed-form perturbation starts, scored one at a time."""
    best, best_n = -math.inf, None
    starts = nsp._attack_candidates(z, measure, k, radius)
    for n0 in starts:
        val = serial_deficit(z + n0, measure, k)
        if val > best:
            best, best_n = val, n0
    return best, best_n, len(starts)


def serial_refine_scale(direction, measure, k):
    """Scale refinement of one direction."""
    scales = nsp._scale_grid(measure)
    q0, t0 = serial_best_scale(direction, measure, k, scales)
    if scales.size == 1:
        return q0, 1.0
    lg = math.log10(t0)
    step = math.log10(scales[1] / scales[0])
    lo = max(math.log10(nsp.SCALE_GRID_LO), lg - step)
    hi = min(math.log10(nsp.SCALE_GRID_HI), lg + step)

    def fun(lt):
        return serial_q(10.0**lt * direction, measure, k)

    lt_best, q_best = serial_golden_max(fun, lo, hi, nsp.REFINE_ITERS)
    if q_best >= q0:
        return float(q_best), float(10.0**lt_best)
    return q0, t0


def search_scan(sub, measure, k, rng):
    """The scan as the search alone gives it, certifying no radius."""
    cands, evals = nsp._search_subspace(sub, measure, k, rng)
    return nsp._Scan(cands, evals, sub.dim == 1 and measure.is_homogeneous, 0.0)


def each(scan):
    """``scan`` of one subspace as a stand-in for :func:`nsp._scan_subspaces`."""
    return lambda subs, measure, k, seeds: [scan(sub, measure, k, as_rng(seed))
                                            for sub, seed in zip(subs, seeds)]


def serial_scan(sub, measure, k, rng=None):
    """:func:`search_scan` with the peaks refined one at a time."""
    cands, evals = serial_search(sub, measure, k)
    return nsp._Scan(cands, evals, sub.dim == 1 and measure.is_homogeneous, 0.0)


def serial_search(sub, measure, k):
    scales = nsp._scale_grid(measure)
    if sub.dim == 1:
        direction = sub.basis[:, 0]
        q, t = serial_refine_scale(direction, measure, k)
        return [nsp._Candidate(q, direction, t)], direction.size * scales.size
    assert sub.dim == 2
    grid = nsp.DIRECTION_GRID
    ang = np.linspace(0.0, math.pi, grid, endpoint=False)
    per_col = serial_grid(sub.basis @ np.vstack([np.cos(ang), np.sin(ang)]), measure, k, scales)
    evals = scales.size * sub.ambient_dim * grid
    peaks = []
    min_sep = max(2, grid // 90)
    for idx in np.argsort(per_col)[::-1]:
        if all(min(abs(idx - p), grid - abs(idx - p)) > min_sep for p in peaks):
            peaks.append(int(idx))
        if len(peaks) >= nsp.REFINE_PEAKS:
            break

    def direction(theta):
        return sub.basis @ np.array([math.cos(theta), math.sin(theta)])

    def q_at_angle(theta):
        return serial_best_scale(direction(theta), measure, k, scales)[0]

    cands = []
    step = math.pi / grid
    for p in peaks:
        theta, _ = serial_golden_max(q_at_angle, ang[p] - step, ang[p] + step, nsp.REFINE_ITERS)
        z = direction(theta)
        qq, tt = serial_refine_scale(z, measure, k)
        evals += nsp.REFINE_ITERS * scales.size
        cands.append(nsp._Candidate(qq, z, tt))
    cands.sort(key=lambda c: c.q, reverse=True)
    return cands, evals


def draw_null_space(n, dim, rng):
    return null_space(gaussian_measurement(n - dim, n, rng))


def random_attack(rng, n):
    z = rng.standard_normal(n) * 10 ** rng.uniform(-2, 1)
    radius = 10 ** rng.uniform(-4, 0) * float(np.linalg.norm(z))
    n0 = rng.standard_normal(n)
    n0 *= rng.uniform(0.0, 1.5) * radius / np.linalg.norm(n0)
    return z, radius, n0


class TestBatchedSearch:
    def test_ascent_matches_coordinate_loop(self):
        rng = np.random.default_rng(41)
        for n in range(2, 14):
            for k in range(n):
                for measure in CONTINUOUS:
                    z, radius, n0 = random_attack(rng, n)
                    val, cur, evals = nsp._attack_ascend(z, measure, k, radius, n0, nsp.ATTACK_STEPS)
                    ref_val, ref_cur, ref_evals = serial_ascend(z, measure, k, radius, n0,
                                                                nsp.ATTACK_STEPS)
                    assert (val, evals) == (ref_val, ref_evals), (n, k, measure.name)
                    assert np.array_equal(cur, ref_cur), (n, k, measure.name)

    def test_quick_attack_matches_loop(self):
        rng = np.random.default_rng(42)
        for n in range(2, 14):
            for k in range(n):
                for measure in CONTINUOUS:
                    z, radius, _ = random_attack(rng, n)
                    val, n_vec, evals = nsp._attack_quick(z, measure, k, radius)
                    ref_val, ref_n, ref_evals = serial_quick(z, measure, k, radius)
                    assert (val, evals) == (ref_val, ref_evals)
                    assert np.array_equal(n_vec, ref_n)

    def test_quick_attack_scores_each_start_once(self):
        # the zero perturbation heads the starts, listed once, and every
        # start is one row of the one batch the quick attack evaluates
        rng = np.random.default_rng(47)
        for n in range(2, 9):
            for base in CONTINUOUS:
                rows = []

                def fn(t, base=base, rows=rows):
                    if np.ndim(t) == 2:
                        rows.append(len(t))
                    return base.fn(t)

                measure = dataclasses.replace(base, fn=fn)
                z, radius, _ = random_attack(rng, n)
                k = int(rng.integers(1, n))
                starts = nsp._attack_candidates(z, measure, k, radius)
                assert not starts[0].any() and all(row.any() for row in starts[1:])
                assert (np.linalg.norm(starts, axis=1) <= radius).all()
                rows.clear()
                assert nsp._attack_quick(z, measure, k, radius)[2] == len(starts) == sum(rows)

    def test_lockstep_golden_matches_single_searches(self):
        rng = np.random.default_rng(43)
        funs = [
            lambda x: -abs(math.sin(3.0 * x) - 0.2),
            lambda x: math.floor(4.0 * math.cos(x)),    # plateaus: fc == fd ties
            lambda x: -((x - 0.3) ** 2),
        ]
        for fun in funs:
            lo = rng.uniform(-3.0, 1.0, size=7)
            hi = lo + rng.uniform(1e-6, 4.0, size=7)
            mids, vals = nsp._golden_max(lambda xs: [fun(x) for x in xs], lo, hi, 36)
            for i in range(lo.size):
                assert (mids[i], vals[i]) == serial_golden_max(fun, float(lo[i]), float(hi[i]), 36)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_scan_matches_single_refinements(self, dim):
        rng = np.random.default_rng(44 + dim)
        for n in range(dim + 1, 14):
            for measure in CONTINUOUS if dim == 1 else GRID:
                # a Haar basis is stored by rows, a Gaussian null space by
                # columns, and BLAS rounds basis @ w differently for the two
                sub = sample_haar(n, dim, rng) if n % 2 else draw_null_space(n, dim, rng)
                k = int(rng.integers(0, min(n, 4)))
                cands, evals = nsp._search_subspace(sub, measure, k, None)
                ref, ref_evals = serial_search(sub, measure, k)
                assert evals == ref_evals
                assert [(c.q, c.scale) for c in cands] == [(c.q, c.scale) for c in ref]
                for c, r in zip(cands, ref):
                    assert np.array_equal(c.direction, r.direction)

    def test_probe_matches_single_evaluation_search(self, monkeypatch):
        # the dominance flag is cleared so that no radius is certified and
        # every probe runs its attack; both sides scan with the search,
        # which lp(p=0.7) runs on the angle grid at scale 1 (its own scans
        # take the vertex lines)
        rng = np.random.default_rng(46)
        lp07, exp, mcp, lp_half, scad = (
            dataclasses.replace(m, ratio_nonincreasing=None)
            for m in (builtin_measure("lp", p=0.7), EXP, MCP, LP_HALF, SCAD))
        cases = []
        for n, dim, measure in [(3, 1, exp), (4, 1, lp07), (4, 2, lp07), (5, 2, mcp),
                                (6, 2, lp_half), (9, 2, scad), (5, 2, exp)]:
            sub = sample_haar(n, dim, rng)
            for d in (1e-3, 0.1):
                cases.append((sub, cost(measure, n), d))
        monkeypatch.setattr(nsp, "_scan_subspaces", each(search_scan))
        batched = [rrc_probe(sub, c, 1, d, budget=20_000) for sub, c, d in cases]
        monkeypatch.setattr(nsp, "_scan_subspaces", each(serial_scan))
        monkeypatch.setattr(nsp, "_attack_quick", serial_quick)
        monkeypatch.setattr(nsp, "_attack_ascend", serial_ascend)
        for got, (sub, c, d) in zip(batched, cases):
            ref = rrc_probe(sub, c, 1, d, budget=20_000)
            assert (got.outcome, got.evaluations) == (ref.outcome, ref.evaluations)
            if ref.violated:
                assert np.array_equal(got.violation.z, ref.violation.z)
                assert np.array_equal(got.violation.n_vec, ref.violation.n_vec)
                assert got.violation.deficit == ref.violation.deficit
