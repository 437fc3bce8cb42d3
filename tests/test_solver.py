import math

import numpy as np
import pytest

from nsp_lab import solver
from nsp_lab.measures import CostFunction, builtin_measure
from nsp_lab.nsp import Violation, nsc, robustness_constant, rrc_probe
from nsp_lab.solver import (
    RecoveryProblem,
    adversarial_pair,
    empirical_robustness,
    solve_noiseless,
    solve_noisy,
)
from nsp_lab.subspaces import MeasurementMatrix, Subspace, gaussian_measurement, null_space

L1 = builtin_measure("l1")


def matrix_with_null_line(generator):
    """Measurement matrix whose null space is the given line."""
    g = np.asarray(generator, dtype=float)
    g = g / np.linalg.norm(g)
    n = g.size
    q, _ = np.linalg.qr(np.column_stack([g, np.eye(n)[:, : n - 1]]))
    return MeasurementMatrix(q[:, 1:].T)


class TestNoiseless:
    def setup_method(self):
        self.a = matrix_with_null_line([1.0, 1.0, 1.0])
        self.cost = CostFunction(L1, 3)

    def test_exact_recovery_all_methods(self):
        # theta = 1/2 < 1, so the sparse signal is the unique minimizer
        x_bar = np.array([5.0, 0.0, 0.0])
        problem = RecoveryProblem(self.a, self.a.entries @ x_bar, 0.0, self.cost, 1)
        for method in ("enumerate", "descent", "irls"):
            res = solve_noiseless(problem, method=method, seed=0)
            assert np.linalg.norm(res.x_hat - x_bar) < 1e-7, method
            assert res.residual < 1e-9
            assert not res.optimal_guaranteed

    def test_zero_measurement_gives_zero(self):
        problem = RecoveryProblem(self.a, np.zeros(2), 0.0, self.cost, 1)
        for method in ("enumerate", "descent"):
            res = solve_noiseless(problem, method=method, seed=0)
            assert np.linalg.norm(res.x_hat) < 1e-9

    def test_boundary_instance_has_two_optima(self):
        a = matrix_with_null_line([1.0, 1.0, 2.0])
        cost = CostFunction(L1, 3)
        x_bar = np.array([0.0, 0.0, 2.0])
        # the competitor x_bar - (1,1,2) = (-1,-1,0) is feasible at equal cost
        problem = RecoveryProblem(a, a.entries @ x_bar, 0.0, cost, 2)
        res = solve_noiseless(problem, method="enumerate", seed=0)
        assert res.cost_value <= cost.value(x_bar) + 1e-9
        assert nsc(null_space(a), cost, 1).theta == pytest.approx(1.0, abs=1e-12)

    def test_enumerate_beats_dense_grid_oracle(self):
        # dense sampling of the feasible affine set cannot do better than the
        # sparse-candidate search on an instance whose optimum is sparse
        rng = np.random.default_rng(1)
        a = gaussian_measurement(2, 4, rng)
        cost = CostFunction(L1, 4)
        x_bar = np.zeros(4)
        x_bar[1] = 2.0
        y = a.entries @ x_bar
        problem = RecoveryProblem(a, y, 0.0, cost, 1)
        res = solve_noiseless(problem, method="enumerate", seed=0)
        x0 = a.min_norm_solution(y)
        nb = null_space(a).basis
        grid = np.linspace(-6, 6, 161)
        best = math.inf
        for w1 in grid:
            pts = x0[:, None] + nb @ np.vstack([np.full_like(grid, w1), grid])
            best = min(best, float(np.abs(pts).sum(axis=0).min()))
        assert res.cost_value <= best + 1e-9

    def test_enumerate_without_feasible_candidate(self):
        rng = np.random.default_rng(12)
        a = gaussian_measurement(2, 4, rng)
        y = rng.standard_normal(2)   # generically not in any single-column span
        problem = RecoveryProblem(a, y, 0.0, CostFunction(L1, 4), 1)
        with pytest.raises(ValueError):
            solve_noiseless(problem, method="enumerate")

    def test_irls_requires_power_law(self):
        problem = RecoveryProblem(self.a, np.zeros(2), 0.0,
                                  CostFunction(builtin_measure("exp_ce1"), 3), 1)
        with pytest.raises(ValueError):
            solve_noiseless(problem, method="irls")

    def test_irls_stops_when_weights_collapse(self):
        # A Q A^T turns singular on this one-sparse signal as the weights
        # collapse onto its support; the iterate reached is the answer
        a = MeasurementMatrix(np.array([
            [-0.3083526369908519, 0.5956622884156864, -0.558642520820243,
             -0.06734947232185345, 0.15516200276267986],
            [-0.04671014929668971, -0.3587938977888058, -0.38835545497301527,
             0.19024217067697072, -0.4608448672114656],
            [0.28900852398844445, -0.6816198697811884, -0.24819598612436924,
             0.016236546802276028, -0.5599793727401265],
        ]))
        x_bar = np.array([0.0, 0.0, 0.0, 0.0, -1.5655893713726405])
        problem = RecoveryProblem(a, a.entries @ x_bar, 0.0,
                                  CostFunction(builtin_measure("lp", p=0.5), 5), 1)
        result = solve_noiseless(problem, method="irls")
        assert np.allclose(result.x_hat, x_bar, atol=1e-9)
        assert result.residual <= 1e-9

    def test_non_finite_measurement_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RecoveryProblem(self.a, np.array([1.0, math.nan]), 0.0, self.cost, 1)

    def test_non_finite_epsilon_rejected(self):
        for eps in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="epsilon"):
                RecoveryProblem(self.a, np.zeros(2), eps, self.cost, 1)

    def test_unknown_method(self):
        problem = RecoveryProblem(self.a, np.zeros(2), 0.0, self.cost, 1)
        with pytest.raises(ValueError):
            solve_noiseless(problem, method="simplex")

    def test_epsilon_must_be_zero(self):
        problem = RecoveryProblem(self.a, np.zeros(2), 0.5, self.cost, 1)
        with pytest.raises(ValueError):
            solve_noiseless(problem)

    def test_corroboration_against_certificates(self):
        # exact line certificates vs the sparse-candidate solver
        rng = np.random.default_rng(2)
        recovered = failed = 0
        for trial in range(200):
            n = int(rng.integers(4, 9))
            gen = rng.standard_normal(n)
            sub = Subspace.from_generator(gen)
            a = matrix_with_null_line(gen)
            cost = CostFunction(L1, n)
            theta = nsc(sub, cost, 1).theta
            if theta < 0.95:
                support = int(rng.integers(n))
                x_bar = np.zeros(n)
                x_bar[support] = rng.standard_normal() + 2.0
                problem = RecoveryProblem(a, a.entries @ x_bar, 0.0, cost, 1)
                res = solve_noiseless(problem, method="enumerate", seed=trial)
                assert np.allclose(res.x_hat, x_bar, atol=1e-8)
                recovered += 1
            elif theta > 1.05:
                # the witness splits into a sparse signal and a feasible
                # competitor of strictly smaller cost: recovery must fail
                report = nsc(sub, cost, 1)
                z, T = report.witness_z, list(report.witness_T)
                x_bar = np.zeros(n)
                x_bar[T] = z[T]
                x_hat = -np.where(np.isin(np.arange(n), T), 0.0, z)
                assert np.allclose(a.entries @ x_hat, a.entries @ x_bar, atol=1e-9)
                assert cost.value(x_hat) < cost.value(x_bar)
                failed += 1
        assert recovered > 20 and failed > 20


class TestNoisy:
    def setup_method(self):
        self.a = matrix_with_null_line([1.0, 1.0, 1.0])
        self.cost = CostFunction(L1, 3)
        self.x_bar = np.array([5.0, 0.0, 0.0])

    def test_feasibility_always(self):
        rng = np.random.default_rng(3)
        for eps in (1e-1, 1e-2):
            v = rng.standard_normal(2)
            v *= 0.9 * eps / np.linalg.norm(v)
            problem = RecoveryProblem(self.a, self.a.entries @ self.x_bar + v, eps, self.cost, 1)
            res = solve_noisy(problem, seed=4)
            assert res.residual <= eps * (1 - 1e-10)

    def test_error_shrinks_with_epsilon(self):
        rng = np.random.default_rng(5)
        v_dir = rng.standard_normal(2)
        v_dir /= np.linalg.norm(v_dir)
        errors = []
        for eps in (1e-2, 1e-3, 1e-4):
            y = self.a.entries @ self.x_bar + 0.9 * eps * v_dir
            problem = RecoveryProblem(self.a, y, eps, self.cost, 1)
            res = solve_noisy(problem, seed=6)
            errors.append(np.linalg.norm(res.x_hat - self.x_bar))
        assert errors[0] > errors[1] > errors[2]
        cap = robustness_constant(0.2, self.a.sigma_min)
        assert all(err <= cap * eps for err, eps in zip(errors, (1e-2, 1e-3, 1e-4)))

    def test_zero_signal_recovered_exactly(self):
        rng = np.random.default_rng(7)
        eps = 0.05
        v = rng.standard_normal(2)
        v *= (1 - 1e-6) * eps / np.linalg.norm(v)
        problem = RecoveryProblem(self.a, v, eps, self.cost, 1)
        res = solve_noisy(problem, seed=8)
        assert np.linalg.norm(res.x_hat) < 1e-12

    def test_requires_positive_epsilon(self):
        problem = RecoveryProblem(self.a, np.zeros(2), 0.0, self.cost, 1)
        with pytest.raises(ValueError):
            solve_noisy(problem)

    def test_infeasible_output_rejected(self, monkeypatch):
        # a projection that leaves its input alone: zero, of least cost,
        # stays ||y|| away from y (lp: the descent path)
        monkeypatch.setattr(solver, "_project_columns", lambda a, x, y, radius: x)
        cost = CostFunction(builtin_measure("lp", p=0.5), 3)
        problem = RecoveryProblem(self.a, self.a.entries @ self.x_bar, 0.1, cost, 1)
        with pytest.raises(ValueError, match="within epsilon"):
            solve_noisy(problem, iters=5)

    def test_infeasible_homotopy_output_rejected(self, monkeypatch):
        # a path that returns zero, ||y|| away from y (l1: the homotopy)
        monkeypatch.setattr(solver, "_lasso_path", lambda a, y, radius: (np.zeros(3), 1.0, 1))
        problem = RecoveryProblem(self.a, self.a.entries @ self.x_bar, 0.1, self.cost, 1)
        with pytest.raises(ValueError, match="within epsilon"):
            solve_noisy(problem)

    def test_small_epsilon_accepted(self):
        # ||Ax - y|| is evaluated to within a few ulps of ||y||, far above eps
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            a = gaussian_measurement(3, 5, rng)
            y = rng.standard_normal(3)
            y *= 5.0 / np.linalg.norm(y)
            for eps in (1e-7, 1e-8, 1e-10):
                problem = RecoveryProblem(a, y, eps, CostFunction(L1, 5), 1)
                res = solve_noisy(problem, seed=seed, iters=40)
                assert res.residual <= eps + 1e-9 * (1.0 + np.linalg.norm(y))

    def test_radius_near_underflow_limit(self):
        # the multiplier overflows; the projection must still land on Ax = y
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a = MeasurementMatrix(rng.standard_normal((2, 3)))
            problem = RecoveryProblem(a, rng.standard_normal(2), 1e-310, self.cost, 1)
            res = solve_noisy(problem, iters=40)
            assert res.residual < 1e-14


def bisect_projection(a, x_cols, y, radius):
    """The growth-and-bisect projection that the Newton solve replaced."""
    u, s, vrow = a.row_space_factors
    b = u.T @ y
    c = vrow @ x_cols
    r = s[:, None] * c - b[:, None]
    need = np.linalg.norm(r, axis=0) > radius
    if not need.any():
        return x_cols
    rn = r[:, need]
    s2 = (s * s)[:, None]
    lam = np.full(rn.shape[1], 1.0)
    for _ in range(70):
        too_big = np.linalg.norm(rn / (1.0 + lam[None, :] * s2), axis=0) > radius
        if not too_big.any():
            break
        lam[too_big] *= 8.0
    hi = lam
    lo = np.zeros_like(lam)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        over = np.linalg.norm(rn / (1.0 + mid[None, :] * s2), axis=0) > radius
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    cn = c[:, need]
    w = (cn + hi[None, :] * s[:, None] * b[:, None]) / (1.0 + hi[None, :] * s2)
    out = x_cols.copy()
    out[:, need] += vrow.T @ (w - cn)
    return out


class TestProjection:
    EPS = np.finfo(float).eps

    def cases(self):
        """Random shapes, radii in [1e-4, 1] and column scales in [1e-2, 1e2];
        every other column is moved halfway to the ball's centre, so it is
        feasible on input."""
        rng = np.random.default_rng(11)
        for m, n in ((3, 5), (4, 6), (6, 8)):
            for _ in range(40):
                a = gaussian_measurement(m, n, rng)
                y = rng.standard_normal(m)
                radius = 10 ** rng.uniform(-4, 0)
                x = rng.standard_normal((n, 12)) * 10 ** rng.uniform(-2, 2, size=12)
                x0 = a.min_norm_solution(y)[:, None]
                x[:, ::2] = x0 + 0.5 * (bisect_projection(a, x, y, radius)[:, ::2] - x0)
                yield a, x, y, radius

    def test_feasible_kkt_and_matches_bisection(self):
        for a, x, y, radius in self.cases():
            p = solver._project_columns(a, x, y, radius)
            ent = a.entries
            res = np.linalg.norm(ent @ p - y[:, None], axis=0)
            # Ap - y is evaluated to within eps (||y|| + sigma_max ||p||)
            rounding = self.EPS * (np.linalg.norm(y) + a.sigma_max * np.linalg.norm(p, axis=0))
            assert (res <= radius + 256 * rounding).all()
            inside = np.linalg.norm(ent @ x - y[:, None], axis=0) <= radius
            assert inside.any() and not inside.all()
            assert np.array_equal(p[:, inside], x[:, inside])
            # KKT: x - p = mu A^T (Ap - y), mu >= 0, the constraint active
            d = (x - p)[:, ~inside]
            grad = ent.T @ (ent @ p[:, ~inside] - y[:, None])
            mu = (d * grad).sum(axis=0) / (grad * grad).sum(axis=0)
            assert (mu >= 0).all()
            # the direction of Ap - y is known to rounding / radius
            tol = 1e3 * self.EPS * (np.linalg.norm(x[:, ~inside], axis=0)
                                    + np.linalg.norm(d, axis=0) * rounding[~inside]
                                    / (self.EPS * radius))
            assert (np.linalg.norm(d - mu * grad, axis=0) <= tol).all()
            assert (np.abs(res[~inside] - radius) <= 256 * rounding[~inside]).all()
            oracle = bisect_projection(a, x, y, radius)
            scale = np.maximum(1.0, np.abs(oracle).max(axis=0))
            assert (np.abs(p - oracle).max(axis=0) <= 1e-12 * scale).all()

    def test_fallback_branch(self, monkeypatch):
        a, x, y, radius = next(self.cases())
        # a first Newton step that overflows leaves every column to the
        # bracket search, which then returns the old code's result exactly
        tiny = 1e-310
        assert np.array_equal(solver._project_columns(a, x, y, tiny),
                              bisect_projection(a, x, y, tiny))
        # without Newton steps lam stays 0, which no nudge can move
        monkeypatch.setattr(solver, "_NEWTON_STEPS", 0)
        p = solver._project_columns(a, x, y, radius)
        assert np.array_equal(p, bisect_projection(a, x, y, radius))
        assert (np.linalg.norm(a.entries @ p - y[:, None], axis=0) <= radius * (1 + 1e-12)).all()


class TestAdversarialPair:
    def test_boundary_line_ratio_exceeds_guarantee(self):
        a = matrix_with_null_line([1.0, 1.0, 2.0])
        pair = adversarial_pair(a, CostFunction(L1, 3), 1, d=0.1, seed=0)
        assert pair.ratio > pair.ratio_guarantee
        # the competitor is feasible at the constructed noise level and
        # costs no more than the signal
        y = a.entries @ pair.x_bar + pair.v
        assert np.linalg.norm(a.entries @ pair.x_hat - y) == pytest.approx(pair.epsilon, rel=1e-9)
        cost = CostFunction(L1, 3)
        assert cost.value(pair.x_hat) <= cost.value(pair.x_bar) + 1e-12

    def test_ratio_blows_up_as_radius_shrinks(self):
        # no finite constant works: the guaranteed ratio scales like 1/d
        a = matrix_with_null_line([1.0, 1.0, 2.0])
        cost = CostFunction(L1, 3)
        ratios = [adversarial_pair(a, cost, 1, d=d, seed=0).ratio for d in (0.1, 0.01, 0.001)]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 100 * ratios[0] / 2

    def test_exp_boundary_instance(self):
        a = matrix_with_null_line([1.0, 1.0, 2.0])
        cost = CostFunction(builtin_measure("exp_ce1"), 3)
        pair = adversarial_pair(a, cost, 1, d=0.1, seed=1)
        assert pair.ratio > pair.ratio_guarantee
        assert cost.value(pair.x_hat) <= cost.value(pair.x_bar) + 1e-12

    def test_zero_perturbation_witness_rejected_if_unrepairable(self):
        # a hand-made witness with n = 0 on a robust instance cannot be
        # repaired into a violation, so the construction must refuse
        a = matrix_with_null_line([1.0, 1.0, 1.0])
        z = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        fake = Violation(z, np.zeros(3), (0,), 0.0)
        with pytest.raises(ValueError):
            adversarial_pair(a, CostFunction(L1, 3), 1, d=0.01, witness=fake)

    def test_no_violation_raises(self):
        a = matrix_with_null_line([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            adversarial_pair(a, CostFunction(L1, 3), 1, d=0.05, seed=2)


class TestEmpiricalRobustness:
    def test_ratios_below_direct_bound(self):
        a = matrix_with_null_line([1.0, 1.0, 1.0])
        cost = CostFunction(L1, 3)
        d = 0.2
        probe = rrc_probe(null_space(a), cost, 1, d, seed=0)
        assert not probe.violated
        sweep = empirical_robustness(a, cost, 1, trials=3, epsilon_grid=(1e-1, 1e-2, 1e-3),
                                     seed=0, starts=12, iters=150)
        cap = robustness_constant(d, a.sigma_min)
        assert max(sweep.max_ratio.values()) <= cap
        assert all(v == 0 for v in sweep.excluded.values())

    def test_zero_sparsity_trivial(self):
        a = matrix_with_null_line([1.0, 1.0, 1.0])
        sweep = empirical_robustness(a, CostFunction(L1, 3), 0, trials=2,
                                     epsilon_grid=(1e-2,), seed=1, starts=8, iters=80)
        assert max(sweep.max_ratio.values()) < 1e-9

    def test_records_carry_feasibility(self):
        a = gaussian_measurement(3, 5, 9)
        sweep = empirical_robustness(a, CostFunction(L1, 5), 1, trials=2,
                                     epsilon_grid=(1e-2,), seed=2, starts=8, iters=100)
        for record in sweep.records:
            assert record.converged
            assert record.residual <= record.epsilon
            assert record.cost_gap <= 1e-9
