import math

import numpy as np
import pytest

from nsp_lab import experiments, nsp
from nsp_lab.experiments import (
    ExperimentConfig,
    config_hash,
    mc_probability,
    verify_counterexample1,
    wilson_interval,
)
from nsp_lab.measures import CostFunction, builtin_measure
from nsp_lab.nsp import ce1_membership, erc_member
from nsp_lab.subspaces import gaussian_measurement, null_space


class TestWilson:
    def test_against_quadratic_root_oracle(self):
        # the interval endpoints solve (p - p_hat)^2 = z^2 p (1 - p) / n
        z = 1.959963984540054
        for successes, trials in ((8, 10), (0, 20), (20, 20), (137, 400)):
            ci = wilson_interval(successes, trials)
            p_hat = successes / trials
            a = 1 + z * z / trials
            b = -(2 * p_hat + z * z / trials)
            c = p_hat * p_hat
            roots = sorted(np.roots([a, b, c]).real)
            assert ci.low == pytest.approx(max(0.0, roots[0]), abs=1e-12)
            assert ci.high == pytest.approx(min(1.0, roots[1]), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, m=5, k=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, m=3, k=5)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, m=3, k=1, trials=0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ExperimentConfig(n=5, m=3, k=1, d_grid=(1e-3, bad))
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, m=3, k=1, probe_budget=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, m=3, k=1, measure="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, m=3, k=1, matrix_source="file")

    def test_hash_stability(self):
        cfg = ExperimentConfig(n=5, m=3, k=1, seed=7)
        assert config_hash(cfg.to_dict()) == config_hash(cfg.to_dict())
        other = ExperimentConfig(n=5, m=3, k=1, seed=8)
        assert config_hash(cfg.to_dict()) != config_hash(other.to_dict())


class TestMonteCarlo:
    def test_small_run_invariants(self):
        cfg = ExperimentConfig(n=5, m=3, k=1, measure="l1", trials=150,
                               d_grid=(1e-3, 1e-2), seed=21)
        summary = mc_probability(cfg)
        assert summary.failures == 0
        assert summary.trials == 150
        for d, ci in summary.rrc.items():
            # robust passes cannot exceed exact passes, trial by trial
            assert ci.successes <= summary.erc.successes
            # the sound passes are a part of the passes
            assert 0 < summary.rrc_sound[d].successes <= ci.successes
        assert 0.0 <= summary.boundary_fraction <= 1.0

    def test_determinism(self):
        cfg = ExperimentConfig(n=5, m=3, k=1, trials=60, seed=3)
        s1 = mc_probability(cfg)
        s2 = mc_probability(cfg)
        assert s1.erc == s2.erc
        assert s1.rrc == s2.rrc

    def test_threads_match_serial(self):
        cfg = ExperimentConfig(n=5, m=3, k=1, trials=40, seed=5)
        serial = mc_probability(cfg, threads=1)
        parallel = mc_probability(cfg, threads=2)
        assert serial.erc == parallel.erc
        assert serial.rrc == parallel.rrc

    def test_zero_sparsity_always_recovers(self):
        cfg = ExperimentConfig(n=5, m=3, k=0, trials=50, seed=6)
        summary = mc_probability(cfg)
        assert summary.erc.p_hat == 1.0
        assert summary.rrc[1e-3].p_hat == 1.0
        assert summary.rrc_sound[1e-3].p_hat == 1.0   # gamma = 0: radius >= 1/sqrt(n)

    def test_zero_sparsity_small_shape(self):
        # the k = 0 row of a P(ERC)-against-k sweep
        summary = mc_probability(ExperimentConfig(n=4, m=2, k=0, trials=30))
        assert summary.erc.p_hat == 1.0

    def test_haar_source(self):
        cfg = ExperimentConfig(n=4, m=2, k=1, trials=50, seed=7,
                               matrix_source="haar_nullspace")
        summary = mc_probability(cfg)
        assert summary.failures == 0

    def test_file_source(self, tmp_path):
        from nsp_lab.subspaces import write_matrix_csv

        a = gaussian_measurement(3, 5, 99)
        path = tmp_path / "fixed.csv"
        write_matrix_csv(path, a.entries)
        cfg = ExperimentConfig(n=5, m=3, k=1, trials=10, seed=1,
                               matrix_source="file", matrix_file=str(path))
        summary = mc_probability(cfg)
        # one fixed matrix: every trial gives the same verdict
        assert summary.erc.p_hat in (0.0, 1.0)

    def test_dimension_three_robust_within_exact(self):
        # null spaces of dimension 3 are scanned with random directions; the
        # exact and robust verdicts of a trial must come from the same scan,
        # or a robust pass can land outside the exact-recovery set
        cfg = ExperimentConfig(n=7, m=4, k=1, measure="l1", trials=5,
                               d_grid=(1e-3,), seed=2338313444)
        summary = mc_probability(cfg)
        assert summary.failures == 0
        assert summary.rrc[1e-3].successes <= summary.erc.successes

    @pytest.mark.parametrize("d_grid", [(1e-3,), (1e-3, 1e-2, 1e-1)])
    def test_one_scan_per_trial(self, monkeypatch, d_grid):
        calls = []
        scan = nsp._scan_subspace

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(nsp, "_scan_subspace", counted)
        mc_probability(ExperimentConfig(n=5, m=3, k=1, trials=4, d_grid=d_grid, seed=2))
        assert len(calls) == 4

    @pytest.mark.parametrize("error", [TypeError, AttributeError, AssertionError, ValueError])
    def test_programming_errors_propagate(self, monkeypatch, error):
        scan = experiments._validated_scan
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise error("scan failed")
            return scan(*args)

        monkeypatch.setattr(experiments, "_validated_scan", fails_once)
        cfg = ExperimentConfig(n=5, m=3, k=1, trials=3, seed=2)
        if error is ValueError:
            # a certificate that cannot be computed is counted as a failed trial
            summary = mc_probability(cfg)
            assert (summary.failures, summary.trials) == (1, 2)
        else:
            with pytest.raises(error, match="scan failed"):
                mc_probability(cfg)

    def test_all_trials_failed(self, monkeypatch):
        def fails(*args):
            raise ValueError("scan failed")

        monkeypatch.setattr(experiments, "_validated_scan", fails)
        cfg = ExperimentConfig(n=5, m=3, k=1, trials=3, d_grid=(1e-3, 1e-2), seed=2)
        summary = mc_probability(cfg)
        assert (summary.trials, summary.failures) == (0, 3)
        for ci in (summary.erc, *summary.rrc.values(), *summary.rrc_sound.values()):
            assert (ci.successes, ci.trials, ci.low, ci.high) == (0, 0, 0.0, 1.0)
            assert math.isnan(ci.p_hat)
        assert list(summary.rrc) == list(summary.rrc_sound) == [1e-3, 1e-2]

    def test_exp_measure_matches_closed_form_stream(self):
        # same sample stream, exact agreement outside the boundary band
        measure = builtin_measure("exp_ce1")
        cost = CostFunction(measure, 3)
        rng = np.random.default_rng(8)
        agree = checked = 0
        for _ in range(200):
            sub = null_space(gaussian_measurement(2, 3, rng))
            closed = ce1_membership(sub)
            if abs(closed.margin) <= 1e-6:
                continue
            checked += 1
            member = erc_member(sub, cost, 1).member
            agree += int(member == (closed.margin > 0))
        assert agree == checked > 100


class TestCounterexampleReport:
    def test_full_report(self):
        report = verify_counterexample1()
        assert report.passed
        assert report.min_margin > 0
        assert report.closed_form_error < 1e-9
        assert len(report.t_grid) == 100
        for entry in report.entries:
            assert entry.found and entry.deficit > 1e-12
            assert entry.error_ratio > entry.ratio_guarantee

    def test_smaller_radius_needs_smaller_amplitude(self):
        report = verify_counterexample1(d_list=(0.1, 0.01, 0.001))
        stars = [e.t_star for e in report.entries]
        assert stars[0] > stars[1] > stars[2]

    def test_d_validation(self):
        with pytest.raises(ValueError):
            verify_counterexample1(d_list=())
        with pytest.raises(ValueError):
            verify_counterexample1(d_list=(1.5,))

