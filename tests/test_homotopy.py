"""The exact l1 noisy solver (LASSO homotopy) against a KKT enumeration oracle.

The oracle tries every support S of full column rank and every sign
pattern s on it.  On (S, s) the point x_S = u - lam w, u = G^-1 A_S^T y,
w = G^-1 s, has the residual e + lam f with e orthogonal to f, so the
residual reaches the radius at lam = sqrt((radius^2 - ||e||^2) / ||f||^2).
The pattern certifies the minimizer of ||x||_1 subject to ||Ax - y|| <= radius
when the signs of x_S are s and every correlation |A_j^T (y - Ax)| is at
most lam.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from nsp_lab import solver
from nsp_lab.config import TOL
from nsp_lab.measures import CostFunction, SparsenessMeasure, builtin_measure
from nsp_lab.solver import RecoveryProblem, solve_noisy
from nsp_lab.subspaces import MeasurementMatrix

L1 = builtin_measure("l1")
L1_DESCENT = dataclasses.replace(L1, homogeneity_degree=None)   # forces the descent


def kkt_oracle(a, y, radius):
    """The l1 minimizer over the ball, by enumeration of supports and signs."""
    m, n = a.shape
    if np.linalg.norm(y) <= radius:
        return np.zeros(n)
    best, best_cost = None, math.inf
    for size in range(1, m + 1):
        for support in itertools.combinations(range(n), size):
            sub = a[:, support]
            if np.linalg.matrix_rank(sub) < size:
                continue
            ginv = np.linalg.inv(sub.T @ sub)
            u = ginv @ (sub.T @ y)
            e = y - sub @ u
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=size))).T
            w = ginv @ signs                        # one column per pattern
            f = sub @ w
            slack = radius**2 - e @ e
            if slack <= 0:
                continue
            lam = np.sqrt(slack / (f * f).sum(axis=0))
            xs = u[:, None] - lam * w
            c = a.T @ (e[:, None] + lam * f)
            ok = ((xs * signs) > 0).all(axis=0) & (np.abs(c) <= lam * (1 + 1e-9)).all(axis=0)
            for col in np.flatnonzero(ok):
                cost = np.abs(xs[:, col]).sum()
                if cost < best_cost:
                    best_cost = cost
                    best = np.zeros(n)
                    best[list(support)] = xs[:, col]
    assert best is not None
    return best


def noisy_problem(a, y, eps, measure=L1):
    return RecoveryProblem(MeasurementMatrix(a), y, eps, CostFunction(measure, a.shape[1]), 1)


def random_cases():
    """Random (m, n) problems with 5-8 columns, sparse and dense signals
    plus noise, and radii from 1e-3 to about ||y||."""
    rng = np.random.default_rng(20)
    for _ in range(40):
        n = int(rng.integers(5, 9))
        m = int(rng.integers(2, n))
        a = rng.standard_normal((m, n)) / math.sqrt(n)
        x = np.zeros(n)
        x[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = rng.standard_normal()
        y = a @ x + 0.1 * rng.standard_normal(m)
        eps = float(np.linalg.norm(y)) * 10 ** rng.uniform(-3, 0)
        yield a, y, eps


def tie_cases():
    """Exact and near ties in the correlations that order the joins."""
    rng = np.random.default_rng(21)
    for flip in (1.0, -1.0):
        for _ in range(4):
            a = rng.standard_normal((4, 7)) / math.sqrt(7)
            y = rng.standard_normal(4)
            yhat = y / np.linalg.norm(y)
            j = int(np.argmax(np.abs(a.T @ y)))
            # column 6 mirrors column j across y: the same |correlation|
            a[:, 6] = flip * (2.0 * (a[:, j] @ yhat) * yhat - a[:, j])
            yield a, y, 0.05 * float(np.linalg.norm(y))
    # a symmetric null line: columns 1 and 2 tie along the whole path
    g = np.ones(3) / math.sqrt(3)
    q, _ = np.linalg.qr(np.column_stack([g, np.eye(3)[:, :2]]))
    a = q[:, 1:].T
    for eps in (1e-1, 1e-2, 1.0):
        yield a, a @ np.array([5.0, 0.0, 0.0]), eps


def assert_matches_oracle(a, y, eps):
    radius = eps * (1.0 - TOL.strict_shrink)
    res = solve_noisy(noisy_problem(a, y, eps))
    assert res.method == "homotopy" and res.optimal_guaranteed
    assert res.kkt_residual <= 1e-9
    ref = kkt_oracle(a, y, radius)
    ref_cost = np.abs(ref).sum()
    assert abs(res.cost_value - ref_cost) <= 1e-12 * max(ref_cost, 1e-300)
    assert np.abs(res.x_hat - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    assert res.residual <= eps
    return res


class TestAgainstOracle:
    def test_random_problems(self):
        kinks = [assert_matches_oracle(a, y, eps).iterations for a, y, eps in random_cases()]
        assert max(kinks) > 2    # some paths pass several joins or leaves

    def test_ties(self):
        for a, y, eps in tie_cases():
            assert_matches_oracle(a, y, eps)

    def test_ball_contains_zero(self):
        a, y, _ = next(random_cases())
        for eps in (np.linalg.norm(y) * (1 + 1e-6), 10 * np.linalg.norm(y)):
            res = solve_noisy(noisy_problem(a, y, eps))
            assert res.method == "homotopy" and res.iterations == 0
            assert not res.x_hat.any()
            assert res.kkt_residual == 0.0

    def test_scaled_l1_has_the_l1_minimizer(self):
        # every 1-homogeneous separable penalty is F(1)|t|
        double = SparsenessMeasure("double_l1", lambda t: 2.0 * t, non_decreasing=True,
                                   subadditive=True, homogeneity_degree=1.0)
        for a, y, eps in itertools.islice(random_cases(), 5):
            res = solve_noisy(noisy_problem(a, y, eps, double))
            ref = solve_noisy(noisy_problem(a, y, eps))
            assert res.method == "homotopy"
            assert np.array_equal(res.x_hat, ref.x_hat)
            assert res.cost_value == pytest.approx(2.0 * ref.cost_value, rel=1e-15)


class TestAgainstDescent:
    def test_cost_never_above_descent(self):
        for a, y, eps in itertools.islice(random_cases(), 12):
            exact = solve_noisy(noisy_problem(a, y, eps))
            descent = solve_noisy(noisy_problem(a, y, eps, L1_DESCENT), starts=8, iters=60)
            assert descent.method == "descent" and not descent.optimal_guaranteed
            assert descent.kkt_residual is None
            assert exact.cost_value <= descent.cost_value


class TestFallback:
    def test_kink_cap(self, monkeypatch):
        monkeypatch.setattr(solver, "_KINKS_PER_COLUMN", 0)
        a, y, eps = next(random_cases())
        res = solve_noisy(noisy_problem(a, y, eps), starts=8, iters=40)
        assert res.method == "descent" and not res.optimal_guaranteed
        assert res.kkt_residual is None
        assert "kink cap 0 reached" in res.note
        assert res.residual <= eps

    @pytest.mark.parametrize("seed", [0, 2, 3, 4])
    def test_radius_below_rounding(self, seed):
        # the active set spans the rows before the radius is reached; the
        # path then stops with the cause, not on a rounding-level join
        rng = np.random.default_rng(seed)
        a, y = rng.standard_normal((2, 3)), rng.standard_normal(2)
        res = solve_noisy(noisy_problem(a, y, 1e-310), iters=40)
        assert res.method == "descent"
        assert "homotopy fell back (the radius lies below the rounding of the residual)" in res.note
        # the descent it falls back to returns the point it always returned
        forced = solve_noisy(noisy_problem(a, y, 1e-310, L1_DESCENT), iters=40)
        assert np.array_equal(res.x_hat, forced.x_hat)

    def test_duplicate_columns(self):
        # two equal columns make every active set holding both singular
        rng = np.random.default_rng(22)
        a = rng.standard_normal((3, 6))
        a[:, 5] = a[:, 0]
        y = a[:, 0] * 2.0 + 0.01 * rng.standard_normal(3)
        res = solve_noisy(noisy_problem(a, y, 1e-3), starts=8, iters=40)
        assert res.method == "descent"
        assert "singular" in res.note
