import math

import numpy as np
import pytest

from nsp_lab.measures import (
    CostFunction,
    SparsenessMeasure,
    builtin_measure,
    check_measure_properties,
    compare_measures,
    eval_cost,
    parse_measure,
)

CONTINUOUS_BUILTINS = [
    builtin_measure("l1"),
    builtin_measure("lp", p=0.5),
    builtin_measure("exp_ce1"),
    builtin_measure("mcp_zap", alpha=2.0),
    builtin_measure("scad", lam=1.0, a=3.7),
]


class TestBuiltins:
    def test_lp_identity(self):
        m = builtin_measure("lp", p=1.0)
        assert m(3.0) == 3.0
        assert m.name == "l1"

    def test_l0_counts_nonzeros(self):
        cost = CostFunction(builtin_measure("l0"), 3)
        assert eval_cost(cost, [0.0, 5.0, -3.0]) == 2.0

    def test_mcp_saturates_at_one(self):
        m = builtin_measure("mcp_zap", alpha=2.0)
        for x in (0.5, 0.6, 1.0, 100.0):
            assert m(x) == 1.0
        # continuous and increasing below the knee
        assert m(0.25) == pytest.approx(2 * 2 * 0.25 - 4 * 0.25**2)
        assert m(0.499999) < 1.0

    def test_scad_closed_form_segments(self):
        lam, a = 1.0, 3.7
        m = builtin_measure("scad", lam=lam, a=a)
        assert m(0.5) == pytest.approx(lam * 0.5)
        t = 2.0
        assert m(t) == pytest.approx((2 * a * lam * t - t * t - lam * lam) / (2 * (a - 1)))
        assert m(10.0) == pytest.approx(lam * lam * (a + 1) / 2)
        # junctions are continuous
        assert m(lam) == pytest.approx(lam * lam)
        assert m(a * lam) == pytest.approx(lam * lam * (a + 1) / 2)

    def test_exp_measure_value(self):
        m = builtin_measure("exp_ce1")
        assert m(1.0) == pytest.approx(1.0 + 1.0 - math.exp(-1.0), abs=1e-15)

    def test_zero_is_exactly_zero(self):
        for m in CONTINUOUS_BUILTINS + [builtin_measure("l0")]:
            assert m(0.0) == 0.0

    def test_positive_off_zero(self):
        rng = np.random.default_rng(0)
        xs = 10.0 ** rng.uniform(-8, 3, size=200)
        for m in CONTINUOUS_BUILTINS + [builtin_measure("l0")]:
            assert (m(xs) > 0).all(), m.name

    def test_declared_homogeneity(self):
        rng = np.random.default_rng(1)
        for p in (0.3, 0.5, 1.0):
            m = builtin_measure("lp", p=p)
            t = 10.0 ** rng.uniform(-3, 3, size=100)
            x = 10.0 ** rng.uniform(-3, 3, size=100)
            err = np.abs(m(t * x) - t**p * m(x))
            assert (err <= 1e-12 * m(t * x)).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            builtin_measure("lp", p=0.0)
        with pytest.raises(ValueError):
            builtin_measure("lp", p=1.5)
        with pytest.raises(ValueError):
            builtin_measure("mcp_zap", alpha=-1.0)
        with pytest.raises(ValueError):
            builtin_measure("scad", lam=1.0, a=0.5)
        with pytest.raises(ValueError):
            builtin_measure("no_such_measure")

    def test_l0_flagged_discontinuous(self):
        assert builtin_measure("l0").continuous is False
        assert all(m.continuous for m in CONTINUOUS_BUILTINS)


class TestParse:
    def test_round_trip(self):
        for text in ("l1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad(a=3.7,lam=1)"):
            m = parse_measure(text)
            assert parse_measure(m.spec_string()).spec_string() == m.spec_string()

    def test_bad_specs(self):
        for text in ("", "lp(p)", "lp(0.5)", "12bad", "lp(p=0.5"):
            with pytest.raises(ValueError):
                parse_measure(text)


class TestCost:
    def test_l1_full_sum(self):
        cost = CostFunction(builtin_measure("l1"), 3)
        assert eval_cost(cost, [1.0, 1.0, 2.0]) == 4.0

    def test_zero_vector(self):
        for m in CONTINUOUS_BUILTINS:
            cost = CostFunction(m, 4)
            assert eval_cost(cost, np.zeros(4)) == 0.0

    def test_exp_scalar(self):
        cost = CostFunction(builtin_measure("exp_ce1"), 1)
        assert eval_cost(cost, [1.0]) == pytest.approx(1.6321205588285577, abs=1e-14)

    def test_support_restriction(self):
        cost = CostFunction(builtin_measure("l1"), 4)
        x = [1.0, -2.0, 3.0, -4.0]
        assert eval_cost(cost, x, support=[1, 3]) == 6.0
        assert eval_cost(cost, x, support=[]) == 0.0

    def test_symmetry_under_signs_and_permutations(self):
        rng = np.random.default_rng(4)
        for m in CONTINUOUS_BUILTINS:
            cost = CostFunction(m, 5)
            x = rng.standard_normal(5)
            flipped = x * rng.choice([-1.0, 1.0], size=5)
            assert cost(np.abs(x)) == pytest.approx(cost(x), rel=1e-15)
            assert cost(flipped) == pytest.approx(cost(x), rel=1e-15)
            assert cost(rng.permutation(x)) == pytest.approx(cost(x), rel=1e-12)

    def test_dimension_mismatch(self):
        cost = CostFunction(builtin_measure("l1"), 3)
        with pytest.raises(ValueError):
            eval_cost(cost, [1.0, 2.0])

    def test_support_out_of_range(self):
        cost = CostFunction(builtin_measure("l1"), 3)
        with pytest.raises(IndexError):
            eval_cost(cost, [1.0, 2.0, 3.0], support=[3])


class TestPropertyChecks:
    def test_sqrt_is_subadditive(self):
        report = check_measure_properties(builtin_measure("lp", p=0.5), sample_budget=100_000)
        assert report.subadditivity_violations == 0
        assert not report.inconclusive

    def test_exp_measure_clean(self):
        report = check_measure_properties(builtin_measure("exp_ce1"), sample_budget=100_000)
        assert report.subadditivity_violations == 0
        assert report.monotonicity_violations == 0

    def test_square_violates_subadditivity(self):
        square = SparsenessMeasure("square", fn=lambda t: t * t, non_decreasing=True)
        report = check_measure_properties(square, sample_budget=10_000, domain_cap=2.0)
        assert report.subadditivity_violations > 0
        x, y = report.worst["subadditivity"].point
        assert square(x + y) > square(x) + square(y)

    def test_degenerate_budget_is_inconclusive(self):
        report = check_measure_properties(builtin_measure("l1"), sample_budget=0)
        assert report.inconclusive
        assert not report.clean

    def test_ratio_rule_chain(self):
        # If F(t)/t^p is non-increasing on the samples (p <= 1), so is
        # F(t)/t, and then no subadditivity violation exists among them.
        for m in CONTINUOUS_BUILTINS + [builtin_measure("l0")]:
            report = check_measure_properties(m, sample_budget=40_000, powers=(0.5, 1.0))
            if report.ratio_violations.get(0.5, 1) == 0:
                assert report.ratio_violations[1.0] == 0
            if report.ratio_violations[1.0] == 0:
                assert report.subadditivity_violations == 0

    def test_declared_ratio_flag_is_clean(self):
        # ratio_nonincreasing puts a measure under the l1 certified radius,
        # so every built-in that declares it must pass the sampled check
        flagged = [builtin_measure("lp", p=p) for p in (0.1, 0.3, 0.7, 1.0)] + [
            builtin_measure("mcp_zap", alpha=a) for a in (0.5, 5.0)] + [
            builtin_measure("scad", lam=0.5, a=2.5)] + CONTINUOUS_BUILTINS
        for m in flagged:
            assert m.ratio_nonincreasing is True and m.non_decreasing is True, m.spec_string()
            report = check_measure_properties(m, sample_budget=40_000, powers=(1.0,))
            assert report.clean, m.spec_string()
        assert builtin_measure("l0").ratio_nonincreasing is None

    def test_induced_metric_on_samples(self):
        rng = np.random.default_rng(7)
        for m in CONTINUOUS_BUILTINS:
            cost = CostFunction(m, 4)
            for _ in range(50):
                x, y, z = rng.standard_normal((3, 4)) * 3.0
                dxy = cost(x - y)
                assert dxy >= 0
                assert cost(x - y) == pytest.approx(cost(y - x), rel=1e-12)
                assert cost(x - z) <= cost(x - y) + cost(y - z) + 1e-9
            assert cost(np.zeros(4)) == 0.0

    def test_continuity_under_grid_refinement(self):
        # max jump over adjacent grid points shrinks as the grid refines,
        # for every built-in except the counting measure
        grids = [np.linspace(0, 3, 1 << p) for p in (8, 10, 12)]
        for m in CONTINUOUS_BUILTINS:
            jumps = [np.max(np.abs(np.diff(m(g)))) for g in grids]
            assert jumps[2] < jumps[1] < jumps[0]
        l0 = builtin_measure("l0")
        assert all(np.max(np.abs(np.diff(l0(g)))) == 1.0 for g in grids)


class TestComparisons:
    def test_sqrt_dominates_l1(self):
        report = compare_measures(builtin_measure("lp", p=0.5), builtin_measure("l1"))
        assert report.ratio_nonincreasing
        assert "dominance" in report.supported_rules

    def test_mcp_limit_at_zero(self):
        # finite-difference oracle on a geometric grid
        alpha = 2.0
        m = builtin_measure("mcp_zap", alpha=alpha)
        xs = 2.0 ** -np.arange(10, 40)
        oracle = (m(xs) / xs)[-1]
        assert oracle == pytest.approx(2 * alpha, rel=1e-6)
        report = compare_measures(m, builtin_measure("l1"))
        assert report.limit_zero.status == "converged"
        assert report.limit_zero.value == pytest.approx(2 * alpha, rel=1e-9)
        assert "measure_matched_to_power_law" in report.supported_rules

    def test_exp_limit_at_zero(self):
        m = builtin_measure("exp_ce1")
        xs = 2.0 ** -np.arange(10, 40)
        oracle = (m(xs) / xs)[-1]
        assert oracle == pytest.approx(2.0, rel=1e-6)
        report = compare_measures(m, builtin_measure("l1"))
        assert report.limit_zero.value == pytest.approx(2.0, rel=1e-9)

    def test_increasing_ratio_detected(self):
        square = SparsenessMeasure("square", fn=lambda t: t * t, non_decreasing=True)
        report = compare_measures(square, builtin_measure("l1"))
        assert not report.ratio_nonincreasing
        assert report.ratio_worst is not None

    def test_l0_ratio_diverges(self):
        report = compare_measures(builtin_measure("l0"), builtin_measure("l1"))
        assert report.limit_zero.status in ("diverged", "inconclusive")
        assert "measure_matched_to_power_law" not in report.supported_rules
