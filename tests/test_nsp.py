import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

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
from nsp_lab.subspaces import Subspace, perturb_subspace, sample_haar

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
        # for a 2-plane the search must reach at least the value of any
        # member line it contains
        rng = np.random.default_rng(11)
        sub = sample_haar(5, 2, rng)
        report = nsc(sub, cost(L1, 5), 1)
        assert report.method == "sphere_enum"
        assert report.is_lower_bound
        for _ in range(200):
            w = rng.standard_normal(2)
            member = sub.basis @ (w / np.linalg.norm(w))
            assert theta_line_oracle(member, 1.0, 1) <= report.theta + 1e-6

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
        report = nsc(sub, cost(L1, 7), 1)
        assert report.method == "multistart"
        assert report.is_lower_bound
        # any member line bounds the subspace value from below
        for _ in range(100):
            w = rng.standard_normal(3)
            member = sub.basis @ (w / np.linalg.norm(w))
            assert theta_line_oracle(member, 1.0, 1) <= report.theta + 1e-6

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
        probe = rrc_probe(line(1, 1, 1), cost(L1, 3), 1, 0.05, seed=2)
        assert probe.outcome == "passed_at_resolution"

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
        assert ce1_membership(line(1, 1, 2)).in_omega
        assert not ce1_membership(line(1, 1, 3)).in_omega

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
