"""Certificates of `exp_ce1`, `mcp_zap` and `scad` read off the exact l1 scan.

All three are non-decreasing with F(t)/t non-increasing (dominance: an
F-violation at u is an l1 violation at u) and F(t)/t -> c > 0 at 0+ (an l1
deficit delta > 0 at u is an F-deficit c t delta + o(t) at t u).  So off the
boundary 2 gamma = 1 their verdicts are l1's, and every failure they report
must carry a witness whose F-deficit is >= 0 by direct evaluation.
"""

import dataclasses

import numpy as np
import pytest

from nsp_lab import nsp, width
from nsp_lab.config import TOL
from nsp_lab.experiments import ExperimentConfig, mc_probability
from nsp_lab.measures import CostFunction, SparsenessMeasure, builtin_measure
from nsp_lab.nsp import erc_member, nsc, nsp_check, rrc_probe
from nsp_lab.subspaces import MeasurementMatrix, Subspace, gaussian_measurement, null_space
from nsp_lab.width import width_extended, width_mc

L1 = builtin_measure("l1")
ROUTED = (builtin_measure("exp_ce1"), builtin_measure("mcp_zap", alpha=2.0),
          builtin_measure("scad"))
# F(t)/t = 1 + 1/sqrt(t) -> inf at 0+: dominated, yet an l1 deficit need
# not carry over to F, so F keeps its own search
SQRT_PLUS = SparsenessMeasure("sqrt_plus", lambda t: np.sqrt(t) + t, non_decreasing=True,
                              ratio_nonincreasing=True, subadditive=True)


def f_deficit(u, measure, k):
    """2 J(u_T) - J(u) over the top-k support, evaluated directly."""
    f = np.sort(measure.fn(np.abs(u)))
    return 2.0 * f[f.size - k:].sum() - f.sum()


def assert_verified(probe, sub, measure, k):
    v = probe.violation
    assert f_deficit(v.z + v.n_vec, measure, k) >= 0.0
    assert np.linalg.norm(v.n_vec) < probe.d * np.linalg.norm(v.z)
    assert sub.contains(v.z)


def l1_gap(sub, k):
    theta = nsc(sub, CostFunction(L1, sub.ambient_dim), k).theta
    return 2.0 * theta / (1.0 + theta) - 1.0


class TestNearBoundary:
    # Gaussian (6, 3, 1) draws whose l1 theta lies just above 1: 1.0015,
    # 1.00006 and 1.0014.  The 61-scale plane search called all three
    # members; the l1 vertex line, scaled down, is an F-violation.
    @pytest.mark.parametrize("seed", [1623, 1884, 3190])
    def test_fails_with_verified_witness(self, seed):
        sub = null_space(gaussian_measurement(3, 6, seed))
        assert 0.0 < l1_gap(sub, 1) < 1e-3
        for measure in ROUTED:
            cost = CostFunction(measure, 6)
            verdict = nsp_check(sub, cost, 1)
            assert verdict.status == "fails", measure.spec_string()
            assert f_deficit(verdict.witness_z, measure, 1) >= 0.0
            assert sub.contains(verdict.witness_z)
            assert not erc_member(sub, cost, 1).member
            probe = rrc_probe(sub, cost, 1, 1e-3)
            assert probe.outcome == "violated", measure.spec_string()
            assert_verified(probe, sub, measure, 1)


class TestAgreementWithL1:
    @pytest.mark.parametrize("n,m,k", [(5, 3, 1), (6, 3, 1), (7, 4, 1), (8, 4, 2)])
    def test_gaussian_draws(self, n, m, k):
        outcomes = set()
        for seed in range(12):
            sub = null_space(gaussian_measurement(m, n, seed))
            l1_cost = CostFunction(L1, n)
            ref_erc = erc_member(sub, l1_cost, k)
            ref_theta = nsc(sub, l1_cost, k).theta
            off_band = abs(l1_gap(sub, k)) >= TOL.boundary_margin
            for measure in ROUTED:
                cost = CostFunction(measure, n)
                report = nsc(sub, cost, k)
                assert report.method == "l1_dominance"
                assert not report.is_lower_bound
                assert report.theta == pytest.approx(ref_theta, rel=1e-12, abs=1e-12)
                if off_band:
                    erc = erc_member(sub, cost, k)
                    assert erc.member == ref_erc.member
                    assert (erc.theta, erc.method) == (report.theta, "l1_dominance")
                verdict = nsp_check(sub, cost, k)
                if verdict.status == "fails":
                    assert f_deficit(verdict.witness_z, measure, k) >= 0.0
                for d in (0.05, 0.2):
                    probe = rrc_probe(sub, cost, k, d, seed=seed)
                    outcomes.add(probe.outcome)
                    if probe.violated:
                        assert_verified(probe, sub, measure, k)
                    else:
                        assert ref_erc.member
        assert "violated" in outcomes

    def test_boundary_line_keeps_the_measure_search(self):
        # the line through (1, 1, 2) has gamma = 1/2 exactly: exp_ce1 holds
        # strictly there, yet every radius is violated
        sub = Subspace.from_generator(np.array([1.0, 1.0, 2.0]))
        cost = CostFunction(ROUTED[0], 3)
        assert nsp_check(sub, cost, 1).status == "holds_strict"
        assert erc_member(sub, cost, 1).method == "deficit_search"
        assert nsc(sub, cost, 1).theta == pytest.approx(1.0, rel=1e-12)
        for d in (0.1, 1e-3):
            probe = rrc_probe(sub, cost, 1, d)
            assert probe.violated
            assert_verified(probe, sub, ROUTED[0], 1)


class TestSlopeAtZero:
    def test_builtin_slopes(self):
        assert [m.slope_at_zero for m in ROUTED] == pytest.approx([2.0, 4.0, 1.0], rel=1e-12)
        for m in ROUTED + (builtin_measure("mcp_zap", alpha=0.5), builtin_measure("scad", lam=3.0)):
            assert nsp._l1_routed(m), m.spec_string()
        for m in (L1, builtin_measure("lp", p=0.5), builtin_measure("l0")):
            assert not nsp._l1_routed(m), m.spec_string()

    def test_measure_without_finite_slope_is_not_routed(self):
        assert SQRT_PLUS.slope_at_zero is None
        assert not nsp._l1_routed(SQRT_PLUS)
        sub = null_space(gaussian_measurement(3, 5, 0))
        assert nsc(sub, CostFunction(SQRT_PLUS, 5), 1).method == "sphere_enum"
        undominated = dataclasses.replace(ROUTED[2], ratio_nonincreasing=None)
        assert not nsp._l1_routed(undominated)


class TestOneDecisionPerScan:
    @pytest.mark.parametrize("spec, n, m", [("mcp_zap(alpha=2)", 5, 3), ("exp_ce1", 7, 4)])
    def test_mc_decides_each_trial_once(self, monkeypatch, spec, n, m):
        # ERC and the probe at each radius read one decision of the trial's
        # scan, whose ladder evaluations are not repeated
        calls = []
        decide = nsp._l1_decision

        def counted(*args):
            calls.append(args)
            return decide(*args)

        monkeypatch.setattr(nsp, "_l1_decision", counted)
        mc_probability(ExperimentConfig(n, m, 1, measure=spec, trials=200,
                                        d_grid=(1e-3, 0.05, 0.2)))
        assert len(calls) == 200

    def test_one_search_per_in_band_scan(self, monkeypatch):
        # the l1 theta of this null space is 1.0000000000000004, inside the
        # band: the check, ERC and the probe at three radii share one
        # search of the scan, on the measure itself, not on l1
        a = MeasurementMatrix(np.array([[1, 2, -3, 2, 0], [0, 1, -1, 3, -3],
                                        [-2, -1, 0, -1, -3]], dtype=float))
        sub, cost = null_space(a), CostFunction(ROUTED[0], 5)
        searched = []
        search = nsp._search_subspace

        def counted(sub, measure, k, seed):
            searched.append(measure.name)
            return search(sub, measure, k, seed)

        monkeypatch.setattr(nsp, "_search_subspace", counted)
        scan = nsp._validated_scans([sub], cost, 1, [0])[0]
        assert (scan.method, scan.decision) == ("l1_dominance", None)
        assert nsp._theta(scan.cands[0].q) == 1.0000000000000004
        nsp._nsp_from_scan(cost, 1, scan)
        nsp._erc_from_scan(cost, 1, scan)
        for d in (0.05, 0.1, 0.2):
            nsp._rrc_from_scan(sub, cost, 1, d, 20_000, scan)
        assert searched == ["exp_ce1"]


class TestWidth:
    # K_F lies inside K_l1 by dominance and is dense in it by the slope at
    # 0, so the per-draw sup is l1's closed form, exact

    @pytest.mark.parametrize("n, k", [(6, 1), (6, 2), (8, 2)])
    def test_routed_width_is_the_l1_width(self, n, k):
        l1_cost = CostFunction(L1, n)
        ref_sup, ref_norms, _, _ = width._draw_sups(l1_cost, k, 300, 71)
        ref_ext = width_extended(l1_cost, k, 0.1, draws=300, seed=71)
        for measure in ROUTED:
            cost = CostFunction(measure, n)
            sup, norms, label, lower = width._draw_sups(cost, k, 300, 71)
            assert np.array_equal(sup, ref_sup) and np.array_equal(norms, ref_norms)
            assert (label, lower) == ("support_projection", False)
            assert width_extended(cost, k, 0.1, draws=300, seed=71) == ref_ext

    def test_past_the_enumeration_cap(self):
        # C(40, 5) = 658,008 supports, past the cap that only the search needs
        est = width_mc(CostFunction(ROUTED[0], 40), 5, draws=50, seed=72)
        assert est == width_mc(CostFunction(L1, 40), 5, draws=50, seed=72)
        with pytest.raises(ValueError, match="enumeration cap"):
            width_mc(CostFunction(SQRT_PLUS, 40), 5, draws=50, seed=72)

    def test_measure_without_finite_slope_is_searched(self):
        est = width_mc(CostFunction(SQRT_PLUS, 6), 2, draws=40, seed=73)
        assert (est.inner_search, est.is_lower_bound) == ("multistart", True)
        assert est.mean <= width_mc(CostFunction(L1, 6), 2, draws=40, seed=73).mean + 1e-12


class TestProbeBudget:
    def test_attack_has_its_own_budget(self):
        # a copy of mcp_zap without the dominance claim scans a plane on 61
        # scales, 230,580 evaluations, ten times the budget; the attack still
        # runs both phases, and the probe reports the scan's evaluations and
        # its own
        measure = dataclasses.replace(ROUTED[1], ratio_nonincreasing=None)
        sub = null_space(gaussian_measurement(3, 5, 10))
        cost = CostFunction(measure, 5)
        scan = nsp._validated_scans([sub], cost, 1, [0])[0]
        assert scan.evaluations == 230_580
        probe = nsp._rrc_from_scan(sub, cost, 1, 0.2, 20_000, scan)
        assert probe.outcome == "passed_at_resolution"
        assert 1_000 < probe.evaluations - scan.evaluations < 20_000
        tight = nsp._rrc_from_scan(sub, cost, 1, 0.2, 100, scan)
        assert scan.evaluations + 100 <= tight.evaluations < probe.evaluations
