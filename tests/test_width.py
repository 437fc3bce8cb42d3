import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from nsp_lab.measures import CostFunction, builtin_measure
from nsp_lab.width import (
    chi_mean,
    delta_margin,
    delta_positivity_threshold,
    gordon_bound,
    omega_hat_bound,
    oracle_robustness_constant,
    rv_bound,
    tradeoff,
    width_extended,
    width_mc,
    zeta,
)

L1 = builtin_measure("l1")


def l1_cost(n):
    return CostFunction(L1, n)


class TestWidthMc:
    def test_whole_sphere_matches_chi_mean(self):
        # k = n makes the section the whole sphere, so the width is E||g||
        for n in (2, 4):
            est = width_mc(l1_cost(n), k=n, draws=10_000, seed=0)
            assert est.inner_search == "whole_sphere"
            assert not est.is_lower_bound
            assert abs(est.mean - chi_mean(n)) / chi_mean(n) < 0.02

    def test_n2_k1_reduces_to_whole_circle(self):
        # every point of the circle has a dominating coordinate
        full = width_mc(l1_cost(2), k=2, draws=2000, seed=1)
        half = width_mc(l1_cost(2), k=1, draws=2000, seed=1)
        assert half.mean == pytest.approx(full.mean, abs=1e-12)

    def test_estimate_below_analytic_bound(self):
        est = width_mc(l1_cost(6), k=1, draws=10_000, seed=2)
        assert est.mean + 3 * est.std_error <= rv_bound(6, 1)
        assert est.inner_search == "support_projection"

    def test_exact_inner_solver_against_brute_force(self):
        # oracle: dense angular scan of the constrained sphere sections
        rng = np.random.default_rng(3)
        n, k = 3, 1
        thetas = np.linspace(0, math.pi, 721)
        phis = np.linspace(0, 2 * math.pi, 1441)
        tg, pg = np.meshgrid(thetas, phis, indexing="ij")
        pts = np.stack([
            np.sin(tg) * np.cos(pg), np.sin(tg) * np.sin(pg), np.cos(tg)
        ]).reshape(3, -1)
        f = np.abs(pts)
        in_k = 2 * f.max(axis=0) >= f.sum(axis=0)
        sphere_k = pts[:, in_k]
        from nsp_lab.width import _sup_l1

        for _ in range(4):
            g = rng.standard_normal(3)
            exact = _sup_l1(np.abs(g).reshape(3, 1), k)[0]
            brute = float((g[:, None] * sphere_k).sum(axis=0).max())
            assert exact == pytest.approx(brute, abs=5e-4 * np.linalg.norm(g))

    def test_generic_inner_is_lower_bound(self):
        est = width_mc(CostFunction(builtin_measure("lp", p=0.5), 5), k=1, draws=400, seed=4)
        assert est.is_lower_bound
        assert est.inner_search == "multistart"
        assert 0.0 <= est.mean <= chi_mean(5)

    def test_scale_sensitive_penalty_runs(self):
        est = width_mc(CostFunction(builtin_measure("exp_ce1"), 4), k=1, draws=100, seed=9)
        assert est.is_lower_bound
        assert 0.0 <= est.mean <= chi_mean(4) + 3 * est.std_error

    def test_l0_rejected(self):
        with pytest.raises(ValueError):
            width_mc(CostFunction(builtin_measure("l0"), 4), 1, draws=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            width_mc(l1_cost(4), 0, draws=10)
        with pytest.raises(ValueError):
            width_mc(l1_cost(4), 1, draws=0)
        for d in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                width_extended(l1_cost(4), 1, d, draws=10)


class TestWidthExtended:
    def test_zero_extension_is_identical(self):
        base = width_mc(l1_cost(6), 1, draws=3000, seed=5)
        ext = width_extended(l1_cost(6), 1, 0.0, draws=3000, seed=5)
        assert ext.mean == base.mean

    def test_monotone_in_radius(self):
        vals = [width_extended(l1_cost(6), 1, d, draws=3000, seed=6).mean
                for d in (0.0, 0.1, 0.3)]
        assert vals[0] < vals[1] < vals[2]

    def test_bracket_invariant(self):
        for n, k, d in ((4, 1, 0.1), (6, 1, 0.1), (6, 2, 0.25)):
            base = width_mc(l1_cost(n), k, draws=3000, seed=7)
            ext = width_extended(l1_cost(n), k, d, draws=3000, seed=7)
            diff = ext.mean - base.mean
            assert -3 * base.std_error <= diff <= d * math.sqrt(n) + 3 * base.std_error

    def test_huge_radius_reaches_whole_sphere(self):
        ext = width_extended(l1_cost(4), 1, 1.0, draws=3000, seed=8)
        full = width_mc(l1_cost(4), 4, draws=3000, seed=8)
        assert ext.mean == pytest.approx(full.mean, abs=1e-12)


def decimal_zeta(n, k):
    getcontext().prec = 60
    ln_enk = 1 + (Decimal(n) / Decimal(k)).ln()
    return (1 + 2 * ln_enk).ln() / (4 * ln_enk) + 1 / (24 * Decimal(k) ** 2 * ln_enk)


def decimal_delta(beta, gamma):
    getcontext().prec = 60
    lnb = Decimal(beta).ln()
    ln_eb = 1 + lnb
    bound = 2 * (3 + 2 * lnb).sqrt() * ((1 + 2 * ln_eb).ln() / (4 * ln_eb)).exp()
    return (Decimal(gamma).sqrt() - bound) / Decimal(beta).sqrt()


class TestAnalyticFormulas:
    def test_zeta_reference_value(self):
        assert zeta(1000, 10) == pytest.approx(1.1181, abs=1e-3)
        assert zeta(1000, 10) == pytest.approx(float(decimal_zeta(1000, 10).exp()), abs=1e-12)

    def test_rv_bound_reference_value(self):
        assert rv_bound(1000, 10) == pytest.approx(24.71, abs=0.01)

    def test_rv_bound_monotone_in_k(self):
        vals = [rv_bound(1000, k) for k in range(1, 60)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            zeta(10, 0)
        with pytest.raises(ValueError):
            rv_bound(10, 11)


class TestGordonBound:
    def test_reference_value(self):
        assert gordon_bound(0.0, 100) == pytest.approx(0.98978, abs=1e-4)

    def test_vacuous_when_width_too_large(self):
        assert gordon_bound(10.0, 100) == 0.0
        assert gordon_bound(math.sqrt(100), 100) == 0.0

    def test_small_m_clamps_to_zero(self):
        # raw value 1 - 2.5 exp(-16/90) is negative
        assert 1 - 2.5 * math.exp(-16.0 / 90.0) < 0
        assert gordon_bound(0.0, 4) == 0.0

    def test_monotonicity(self):
        ms = [20, 50, 100, 400, 1000]
        vals = [gordon_bound(1.0, m) for m in ms]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        ws = np.linspace(0, 5, 11)
        vals = [gordon_bound(w, 400) for w in ws]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestOmegaHatBound:
    def test_condition_violated_flagged(self):
        res = omega_hat_bound(l1_cost(1000), m=500, k=10, d=0.05, width_source="rv")
        assert res.bound == 0.0
        assert not res.condition_ok

    def test_condition_ok_but_probability_clamped(self):
        # the width condition holds at m=900 yet the raw escape expression
        # is still negative, so the reported bound is the clamp at zero
        res = omega_hat_bound(l1_cost(1000), m=900, k=10, d=0.05, width_source="rv")
        assert res.condition_ok
        assert res.bound == 0.0

    def test_positive_bound(self):
        res = omega_hat_bound(l1_cost(1000), m=950, k=10, d=0.05, width_source="rv")
        assert res.condition_ok
        assert res.bound > 0.0

    def test_d_zero_reduces_to_plain_escape(self):
        res = omega_hat_bound(l1_cost(1000), m=950, k=10, d=0.0, width_source="rv")
        assert res.bound == pytest.approx(gordon_bound(rv_bound(1000, 10), 950), abs=1e-15)

    def test_mc_source(self):
        res = omega_hat_bound(l1_cost(6), m=4, k=1, d=0.0, width_source="mc",
                              draws=2000, seed=0)
        assert res.width_source == "mc"
        assert res.bound == 0.0  # vacuous at desk scale


class TestTradeoff:
    def test_positivity_threshold(self):
        thr = delta_positivity_threshold(100.0)
        assert thr == pytest.approx(61.06, abs=0.1)
        assert delta_margin(100.0, thr * (1 + 1e-12)) > 0
        assert delta_margin(100.0, thr * (1 - 1e-6)) < 0

    def test_delta_matches_decimal_reimplementation(self):
        for beta, gamma in ((100.0, 80.0), (100.0, 62.0), (50.0, 40.0)):
            assert delta_margin(beta, gamma) == pytest.approx(
                float(decimal_delta(beta, gamma)), abs=1e-12
            )

    def test_threshold_boundary_has_no_constant(self):
        thr = delta_positivity_threshold(100.0)
        pt = tradeoff(100.0, thr)
        assert abs(pt.delta) < 1e-12
        assert pt.C is None

    def test_constant_drops_past_the_threshold(self):
        # past the positivity threshold the constant falls steeply; close to
        # gamma = beta it must rise again because 1 - sqrt(gamma/beta)
        # vanishes in the denominator
        gammas = np.linspace(63, 79, 9)
        cs = [tradeoff(100.0, g).C for g in gammas]
        assert all(c is not None for c in cs)
        assert all(a > b for a, b in zip(cs, cs[1:]))
        assert tradeoff(100.0, 99.0).C > tradeoff(100.0, 80.0).C

    def test_decimal_constant_agreement(self):
        pt = tradeoff(100.0, 80.0)
        getcontext().prec = 60
        delta = decimal_delta(100.0, 80.0)
        c_dec = 2 * (1 + delta) / (delta * (1 - (Decimal(80) / Decimal(100)).sqrt()))
        assert pt.C == pytest.approx(float(c_dec), rel=1e-12)

    def test_oracle_constant(self):
        assert oracle_robustness_constant(4.0) == pytest.approx(2.0)
        pt = tradeoff(100.0, 80.0)
        assert pt.oracle_constant == pytest.approx(1.0 / (1.0 - 1.0 / math.sqrt(80.0)))
        assert pt.C > pt.oracle_constant

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_margin(10.0, 10.0)
        with pytest.raises(ValueError):
            delta_margin(10.0, 0.5)
        with pytest.raises(ValueError):
            oracle_robustness_constant(1.0)
