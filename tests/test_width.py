import dataclasses
import itertools
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from nsp_lab import width
from nsp_lab.measures import CostFunction, builtin_measure, parse_measure
from nsp_lab.nsp import _dominated, _topk_total
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
        # exp_ce1 takes l1's exact sup (nsp._l1_routed); without its
        # dominance claim it is searched over the amplitudes, a lower bound
        exp_ce1 = builtin_measure("exp_ce1")
        for measure, lower in ((exp_ce1, False), (searched(exp_ce1), True)):
            est = width_mc(CostFunction(measure, 4), k=1, draws=100, seed=9)
            assert est.is_lower_bound is lower
            assert 0.0 <= est.mean <= chi_mean(4) + 3 * est.std_error

    def test_l0_rejected(self):
        with pytest.raises(ValueError):
            width_mc(CostFunction(builtin_measure("l0"), 4), 1, draws=10)

    @pytest.mark.parametrize("spec, n, k, draws", [
        ("l0", 6, 1, 10), ("l1", 6, 0, 10), ("l1", 6, 7, 10), ("l1", 6, 1, 0),
        ("lp(p=0.5)", 40, 10, 10),   # past the enumeration cap
    ])
    def test_rejection_draws_nothing(self, spec, n, k, draws):
        cost = CostFunction(parse_measure(spec), n)
        rng = np.random.default_rng(21)
        state = rng.bit_generator.state
        for call in (lambda: width_mc(cost, k, draws=draws, seed=rng),
                     lambda: width_extended(cost, k, 0.1, draws=draws, seed=rng)):
            with pytest.raises(ValueError):
                call()
            assert rng.bit_generator.state == state

    def test_bad_k_after_a_good_call_raises(self):
        cost = l1_cost(6)
        width_mc(cost, 2, draws=50, seed=22)
        for k in (0, 7):
            with pytest.raises(ValueError):
                width_mc(cost, k, draws=50, seed=22)
            with pytest.raises(ValueError):
                width_extended(cost, k, 0.1, draws=50, seed=22)

    def test_validation(self):
        with pytest.raises(ValueError):
            width_mc(l1_cost(4), 0, draws=10)
        with pytest.raises(ValueError):
            width_mc(l1_cost(4), 1, draws=0)
        for d in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                width_extended(l1_cost(4), 1, d, draws=10)


def bisect_sup_l1(g_abs, k):
    """The all-supports search that the closed form replaced: per support T
    of size k, the norm of the cone projection of |g|, its multiplier found
    by 60 bisection steps on the mass balance.  Returns the support masks
    and the (supports, draws) values."""
    n = g_abs.shape[0]
    masks = np.zeros((math.comb(n, k), n), dtype=bool)
    for i, T in enumerate(itertools.combinations(range(n), k)):
        masks[i, list(T)] = True
    mf = masks.astype(float)
    a = g_abs
    st = mf @ a
    slack = 2.0 * st - a.sum(axis=0)
    lo = np.zeros_like(st)
    hi = np.broadcast_to(a.max(axis=0), st.shape).copy()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        relu = np.maximum(a[None, :, :] - mid[:, None, :], 0.0)
        high = st + k * mid - np.einsum("sn,snd->sd", 1.0 - mf, relu) > 0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    t = 0.5 * (lo + hi)
    relu = np.maximum(a[None, :, :] - t[:, None, :], 0.0)
    comp_sq = np.einsum("sn,snd->sd", 1.0 - mf, relu**2)
    top_sq = np.einsum("sn,snd->sd", mf, (a[None, :, :] + t[:, None, :]) ** 2)
    vals = np.where(slack >= 0.0, np.linalg.norm(a, axis=0), np.sqrt(top_sq + comp_sq))
    return masks, vals


def draws_with_ties(rng, n, draws):
    """Gaussian draws, a third rounded to one decimal (ties), some entries
    exactly zero, one column of equal magnitudes and one zero column."""
    g = rng.standard_normal((n, draws))
    g[:, : draws // 3] = np.round(g[:, : draws // 3], 1)
    g[rng.random((n, draws)) < 0.1] = 0.0
    g[:, -2] = rng.choice([-1.0, 1.0], n)
    g[:, -1] = 0.0
    return g


class TestSupL1ClosedForm:
    def test_matches_all_supports_bisection(self):
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            for k in range(1, n):
                g_abs = np.abs(draws_with_ties(rng, n, 60 if n < 9 else 24))
                _, vals = bisect_sup_l1(g_abs, k)
                oracle = vals.max(axis=0)
                exact = width._sup_l1(g_abs, k)
                assert (np.abs(exact - oracle) <= 1e-15 * oracle).all(), (n, k)

    def test_top_k_support_attains_the_maximum(self):
        # rearrangement: the maximum over supports sits at the top-k of |g|
        rng = np.random.default_rng(12)
        for n, k in ((4, 1), (5, 2), (7, 3), (8, 2)):
            g_abs = np.abs(draws_with_ties(rng, n, 80))
            masks, vals = bisect_sup_l1(g_abs, k)
            top = np.zeros_like(g_abs, dtype=bool)
            np.put_along_axis(top, np.argsort(-g_abs, axis=0, kind="stable")[:k], True, axis=0)
            at_top = np.array([vals[np.flatnonzero((masks == top[:, j]).all(axis=1))[0], j]
                               for j in range(g_abs.shape[1])])
            best = vals.max(axis=0)
            assert (np.abs(at_top - best) <= 1e-15 * best).all(), (n, k)

    def test_past_the_enumeration_cap(self):
        # C(40, 10) supports exceed the cap, which only the generic search counts
        est = width_mc(l1_cost(40), k=10, draws=200, seed=0)
        assert est.inner_search == "support_projection"
        assert not est.is_lower_bound
        assert est.mean <= rv_bound(40, 10)
        with pytest.raises(ValueError, match="enumeration cap"):
            width_mc(CostFunction(builtin_measure("lp", p=0.5), 40), k=10, draws=10)


class TestGenericBatching:
    @pytest.mark.parametrize("measure", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
    def test_batch_size_does_not_change_the_estimate(self, monkeypatch, measure):
        # budget 1 gives the smallest batches, two draws each with the odd
        # draw count leaving a lone trailing column to merge
        for n, k in ((6, 1), (8, 2)):
            results = []
            for budget in (1, 10**9):
                monkeypatch.setattr(width, "ELEMENT_BUDGET", budget)
                # a fresh measure object per budget, so that neither budget
                # is served the other's sample; searched, so that the
                # generic search is what is batched
                cost = CostFunction(searched(parse_measure(measure)), n)
                results.append([width_mc(cost, k, draws=25, seed=n),
                                width_extended(cost, k, 0.1, draws=25, seed=n)])
            (small, small_ext), (large, large_ext) = results
            assert (small.mean, small.std_error) == (large.mean, large.std_error)
            assert (small_ext.mean, small_ext.std_error) == (large_ext.mean, large_ext.std_error)

    def test_batches_leave_no_lone_column(self):
        # numpy sums a lone column pairwise, so one would change its last bits
        for total in range(1, 40):
            for size in (2, 3, 5, 64):
                spans = list(width._batches(total, size))
                assert [a for a, _ in spans[1:]] == [b for _, b in spans[:-1]]
                assert spans[0][0] == 0 and spans[-1][1] == total
                assert all(b - a >= min(2, total) for a, b in spans)

    def test_top1_is_the_partition_top(self):
        self.check_top_against_partition(1)

    def test_top2_is_the_partition_top(self):
        self.check_top_against_partition(2)

    @staticmethod
    def check_top_against_partition(k):
        rng = np.random.default_rng(13)
        for axis, shape in ((0, (7, 5)), (1, (3, 6, 9)), (2, (61, 20, 5)), (1, (300, 4)),
                            (0, (5, 900)), (1, (33, 8, 40)), (2, (4, 50, 7))):
            fv = np.round(rng.random(shape), 1)   # ties
            fv[rng.random(shape) < 0.03] = np.inf
            fv[rng.random(shape) < 0.01] = np.nan
            n = fv.shape[axis]
            top = (slice(None),) * axis + (slice(n - k, None),)
            partition = np.partition(fv, n - k, axis=axis)[top].sum(axis=axis)
            got, tot = _topk_total(fv, k, axis=axis)
            assert np.array_equal(got, partition, equal_nan=True), (axis, shape)
            assert np.array_equal(tot, fv.sum(axis=axis), equal_nan=True)


def reference_sup_generic(g, measure, k):
    """The one-support-at-a-time search with fresh temporaries, its top-k
    read off np.partition: the reference of the buffered kernel."""
    n, total_draws = g.shape
    if measure.is_homogeneous:
        scales = np.array([1.0])
    else:
        scales = np.geomspace(1e-6, 1e6, width._WIDTH_SCALE_POINTS)

    def feasible(u):
        fv = measure.fn(scales[:, None, None] * np.abs(u)[None, :, :])
        top = np.partition(fv, n - k, axis=1)[:, n - k:].sum(axis=1)
        return ((2.0 * top - fv.sum(axis=1)) >= 0.0).any(axis=0)

    masks = np.array([[i in T for i in range(n)] for T in itertools.combinations(range(n), k)])
    out = np.full(total_draws, -np.inf)
    size = max(2, 2 * width.ELEMENT_BUDGET // (len(scales) * n))
    for start, stop in width._batches(total_draws, size):
        gc = g[:, start:stop]
        gn = np.linalg.norm(gc, axis=0)
        ghat = gc / gn
        best = np.where(feasible(ghat), gn, -np.inf)
        for m in masks:
            u0 = gc * m[:, None]
            u0n = np.linalg.norm(u0, axis=0)
            degenerate = u0n < 1e-12
            if degenerate.any():
                fallback = np.zeros_like(u0)
                fallback[np.argmax(m)] = 1.0
                u0 = np.where(degenerate[None, :], fallback, u0)
                u0n = np.linalg.norm(u0, axis=0)
            u0 = u0 / u0n
            lo = np.zeros(gc.shape[1])
            hi = np.ones(gc.shape[1])
            for _ in range(width._BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                u = (1.0 - mid)[None, :] * u0 + mid[None, :] * ghat
                u /= np.linalg.norm(u, axis=0)
                ok = feasible(u)
                lo = np.where(ok, mid, lo)
                hi = np.where(ok, hi, mid)
            u = (1.0 - lo)[None, :] * u0 + lo[None, :] * ghat
            u /= np.linalg.norm(u, axis=0)
            best = np.maximum(best, (gc * u).sum(axis=0))
        out[start:stop] = np.minimum(best, gn)
    return out


class TestGenericKernel:
    @pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
    @pytest.mark.parametrize("n, k", [(6, 1), (8, 2), (7, 3)])
    def test_matches_the_reference_bit_for_bit(self, monkeypatch, spec, n, k):
        measure = parse_measure(spec)
        rng = np.random.default_rng(31)
        g = rng.standard_normal((n, 11))
        g[:k, 3] = 0.0      # the support {0..k-1} of draw 3 is degenerate
        g[k:, 4] = 0.0      # draw 4 lies on that support
        # one batch of 11 draws; batches of 2, the last taking the lone
        # eleventh draw; and 7 draws in batches of 3 and 4
        per_draw = (1 if measure.is_homogeneous else width._WIDTH_SCALE_POINTS) * n
        for budget, draws, widths in ((width.ELEMENT_BUDGET, 11, [11]),
                                      (per_draw, 11, [2, 2, 2, 2, 3]),
                                      (3 * per_draw // 2 + 1, 7, [3, 4])):
            monkeypatch.setattr(width, "ELEMENT_BUDGET", budget)
            size = max(2, 2 * budget // per_draw)
            assert [b - a for a, b in width._batches(draws, size)] == widths
            got = width._sup_generic(g[:, :draws], measure, k)
            assert np.array_equal(got, reference_sup_generic(g[:, :draws], measure, k))

    @pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)"])
    @pytest.mark.parametrize("n, k", [(6, 1), (8, 2)])
    def test_many_draws_match_the_reference(self, spec, n, k):
        # at n >= 8 a column reduced in another order (a lone or F-ordered
        # one) moves last bits
        measure = parse_measure(spec)
        g = np.random.default_rng(53).standard_normal((n, 200))
        assert np.array_equal(width._sup_generic(g, measure, k),
                              reference_sup_generic(g, measure, k))

    @pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
    def test_extreme_and_degenerate_draws_match_the_reference(self, spec):
        measure = parse_measure(spec)
        rng = np.random.default_rng(59)
        g = rng.standard_normal((10, 24))
        g[:, 0] *= 1e-8
        g[:, 1] *= 1e8
        g[:, 2:6] *= np.array([1e-8, 1e8, 1e-8, 1e8])[None, :] ** rng.integers(0, 2, (10, 4))
        g[:2, 6] = 0.0      # the support {0, 1} of draw 6 is degenerate
        g[2:, 7] = 0.0      # draw 7 lies on that support
        g[[0, 3], 8] = 0.0  # and supports of draw 8 with one zero coordinate
        assert np.array_equal(width._sup_generic(g, measure, 2),
                              reference_sup_generic(g, measure, 2))

    @pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
    @pytest.mark.parametrize("n, k", [(8, 2), (6, 1)])
    def test_tied_supports_match_the_reference(self, spec, n, k):
        # a coordinate tied in magnitude with the largest makes a second
        # support a mirror of the top one; its value differs from the top
        # support's by rounding alone, so only a pair kept to its last
        # step gives the maximum bit for bit
        measure = parse_measure(spec)
        rng = np.random.default_rng(67)
        g = rng.standard_normal((n, 120))
        top = np.abs(g).argmax(axis=0)
        other = (top + 1 + rng.integers(0, n - 1, g.shape[1])) % n
        g[other, np.arange(g.shape[1])] = -g[top, np.arange(g.shape[1])]
        assert np.array_equal(width._sup_generic(g, measure, k),
                              reference_sup_generic(g, measure, k))

    @pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
    def test_a_lone_live_draw_matches_the_reference(self, spec):
        # draw 0 is feasible as it stands, so the search bisects one draw of
        # a sample of two, which must not be reduced as a lone column
        measure = parse_measure(spec)
        for seed in range(4):
            g = np.random.default_rng(seed).standard_normal((9, 2))
            g[:, 0] = 1e-3 * g[:, 0] + 10.0 * (np.arange(9) < 2)
            assert np.array_equal(width._sup_generic(g, measure, 2),
                                  reference_sup_generic(g, measure, 2))

    @pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
    @pytest.mark.parametrize("n, k", [(8, 2), (9, 1)])
    def test_a_lone_draw_matches_the_reference(self, spec, n, k):
        # a one-draw sample gives its draw the supremum and norm that the
        # reference gives it inside a wider sample, at n >= 8 too, where
        # numpy sums a lone column in another order
        cost = CostFunction(searched(parse_measure(spec)), n)
        for seed in range(3):
            sample = lone_draw_in_a_sample(n, seed)
            ref = reference_sup_generic(sample, cost.measure, k)[0]
            sup, norms, _, _ = width._draw_sups(cost, k, 1, seed)
            assert (sup[0], norms[0]) == (ref, np.linalg.norm(sample, axis=0)[0])

    @pytest.mark.parametrize("n, k", [(8, 2), (9, 1), (8, 8)])
    def test_a_lone_l1_draw_is_the_same_in_a_sample(self, n, k):
        cost = CostFunction(parse_measure("l1"), n)
        for seed in range(3):
            sample = lone_draw_in_a_sample(n, seed)
            norms = np.linalg.norm(sample, axis=0)
            ref = norms[0] if k == n else width._sup_l1(np.abs(sample), k)[0]
            sup, lone_norms, _, _ = width._draw_sups(cost, k, 1, seed)
            assert (sup[0], lone_norms[0]) == (ref, norms[0])


def lone_draw_in_a_sample(n, seed):
    """The draw of a one-draw sample at ``seed``, followed by four others."""
    g = np.random.default_rng(seed).standard_normal((n, 1))
    return np.hstack([g, np.random.default_rng(100 + seed).standard_normal((n, 4))])


class TestGenericPruning:
    def test_evaluates_a_tenth_of_the_full_search(self):
        # the full search evaluates 7,400,800 penalty values on this sample:
        # 28 supports x 30 steps x 8 coordinates x 1100 draws, and the ghat
        # check
        measure, calls = counted("lp(p=0.5)")
        width_mc(CostFunction(measure, 8), 2, draws=1100, seed=1)
        assert 0 < sum(calls) <= 7_400_800 // 10

    @pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
    @pytest.mark.parametrize("n, k", [(6, 1), (6, 2), (8, 2)])
    def test_below_the_l1_sup(self, spec, n, k):
        # every F-failure is an l1 failure (dominance), so the l1 failure
        # cone holds the F one and bounds each draw's sup
        measure = parse_measure(spec)
        assert _dominated(measure)
        g = np.random.default_rng(61).standard_normal((n, 150))
        norms = np.linalg.norm(g, axis=0)
        generic = width._sup_generic(g, measure, k)
        assert (generic <= width._sup_l1(np.abs(g), k) + 1e-12 * norms).all()


@pytest.mark.parametrize("spec", ["exp_ce1", "lp(p=0.5)", "mcp_zap(alpha=2)", "scad"])
@pytest.mark.parametrize("n, k", [(4, 1), (6, 2)])
def test_generic_sup_stays_below_the_norm(spec, n, k):
    # g.u sums to a few ulps above ||g|| for u close to g/||g||; the sup
    # over the whole sphere is ||g||, so each draw is capped there
    sup, norms, _, _ = width._draw_sups(CostFunction(searched(parse_measure(spec)), n), k, 60, 47)
    assert (sup <= norms).all()


def searched(measure):
    """The measure without its dominance claim: its widths take the generic
    search, not the exact l1 sup of nsp._l1_routed."""
    return dataclasses.replace(measure, ratio_nonincreasing=None)


def counted(spec):
    """A fresh measure parsed from ``spec`` and a list whose length counts
    the calls of its fn."""
    base = parse_measure(spec)
    calls = []

    def fn(t):
        calls.append(np.size(t))
        return base.fn(t)

    return dataclasses.replace(base, fn=fn), calls


class TestSharedSample:
    @pytest.mark.parametrize("spec, n, k", [("lp(p=0.5)", 6, 2), ("exp_ce1", 5, 1)])
    def test_paired_calls_reuse_the_sample(self, spec, n, k):
        # without the dominance claim exp_ce1 is not routed to l1, so the
        # sample reused is that of the 33-scale generic search
        cold = CostFunction(searched(parse_measure(spec)), n)
        cold_ext = width_extended(cold, k, 0.1, draws=30, seed=41)
        width_mc(CostFunction(searched(parse_measure(spec)), n), k, draws=30, seed=41)  # evicts it
        cold_omega = omega_hat_bound(cold, 4, k, 0.0, width_source="mc", draws=30, seed=41)
        measure, calls = counted(spec)
        cost = CostFunction(searched(measure), n)
        base = width_mc(cost, k, draws=30, seed=41)
        assert calls
        calls.clear()
        assert width_extended(cost, k, 0.1, draws=30, seed=41) == cold_ext
        assert omega_hat_bound(cost, 4, k, 0.0, width_source="mc", draws=30,
                               seed=41) == cold_omega
        assert base.mean == cold_omega.width_value
        assert calls == []

    def test_another_measure_object_recomputes(self):
        first, first_calls = counted("lp(p=0.5)")
        second, second_calls = counted("lp(p=0.5)")
        a = width_mc(CostFunction(first, 6), 2, draws=20, seed=42)
        b = width_mc(CostFunction(second, 6), 2, draws=20, seed=42)
        assert a == b
        assert first_calls and len(second_calls) == len(first_calls)

    def test_other_inputs_recompute(self):
        # only the last sample is kept, and a numpy integer seed is the int
        measure, calls = counted("lp(p=0.5)")
        for n, k, draws, seed, hit in ((6, 2, 20, 44, False), (6, 2, 21, 43, False),
                                       (6, 1, 20, 43, False), (7, 2, 20, 43, False),
                                       (6, 2, 20, np.int64(43), True)):
            width_mc(CostFunction(measure, 6), 2, draws=20, seed=43)
            calls.clear()
            width_mc(CostFunction(measure, n), k, draws=draws, seed=seed)
            assert bool(calls) != hit, (n, k, draws, seed)

    def test_a_generator_draws_afresh(self):
        cost = CostFunction(parse_measure("exp_ce1"), 5)
        rng = np.random.default_rng(45)
        a = width_mc(cost, 1, draws=20, seed=rng)
        b = width_mc(cost, 1, draws=20, seed=rng)
        assert a.mean != b.mean

    def test_the_sample_is_read_only(self):
        for spec, k in (("l1", 2), ("l1", 6), ("lp(p=0.5)", 2)):
            sup, norms, _, _ = width._draw_sups(CostFunction(parse_measure(spec), 6), k, 20, 46)
            for arr in (sup, norms):
                with pytest.raises(ValueError):
                    arr[0] = 0.0


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

    @pytest.mark.parametrize("spec", ["l1", "lp(p=0.5)"])
    @pytest.mark.parametrize("k, draws", [(0, 10), (-1, 10), (7, 10), (1, 0)])
    def test_shares_the_sparsity_and_draw_checks(self, spec, k, draws):
        cost = CostFunction(parse_measure(spec), 6)
        with pytest.raises(ValueError):
            width_mc(cost, k, draws=draws)
        with pytest.raises(ValueError):
            width_extended(cost, k, 0.1, draws=draws)


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

    @pytest.mark.parametrize("w", [math.nan, -1e-300, -100.0])
    def test_rejects_an_impossible_width(self, w):
        with pytest.raises(ValueError):
            gordon_bound(w, 4)

    def test_an_infinite_width_is_vacuous(self):
        assert gordon_bound(math.inf, 4) == 0.0

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

    @pytest.mark.parametrize("d", [-math.inf, math.inf, math.nan, -0.1])
    def test_rejects_a_bad_radius(self, d):
        with pytest.raises(ValueError, match="finite d >= 0"):
            omega_hat_bound(l1_cost(6), m=4, k=1, d=d, width_source="rv")

    @pytest.mark.parametrize("source", ["-5", "nan", "inf", "-inf", "-0.001"])
    def test_rejects_a_bad_explicit_width(self, source):
        with pytest.raises(ValueError, match="explicit width"):
            omega_hat_bound(l1_cost(6), m=4, k=1, d=0.1, width_source=source)

    def test_accepts_an_explicit_width(self):
        res = omega_hat_bound(l1_cost(1000), m=950, k=10, d=0.0, width_source="0")
        assert (res.width_source, res.width_value) == ("explicit", 0.0)
        assert res.bound == gordon_bound(0.0, 950)

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
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                delta_margin(bad, 2.0)
            with pytest.raises(ValueError, match="finite"):
                delta_margin(100.0, bad)
            with pytest.raises(ValueError, match="finite"):
                delta_positivity_threshold(bad)
