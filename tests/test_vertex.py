"""Exact certificates from the vertex lines of the null space, and the
certified robust radius they give.

The oracle for the l1 gamma = max ||z_T||_1 / ||z||_1 over the null space N
is one linear program per support T of size k and sign pattern s on it:
max s . z_T subject to z in N and ||z||_1 <= 1 (scipy's HiGHS).  The
maximum over (T, s) is gamma, and theta = gamma / (1 - gamma).  The oracle
for lp at k = 1 solves, per coordinate i, for the points of N with z_i = 1
and l - 1 other coordinates zero.  The oracle for the exact l1 radius rho
of a plane is the least distance from its unit vectors, on a dense angle
grid, to the polyhedral cones that make up the l1 failure cone (scipy's
NNLS), an upper bracket.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from nsp_lab import experiments, nsp
from nsp_lab.config import TOL
from nsp_lab.experiments import ExperimentConfig, mc_probability
from nsp_lab.measures import CostFunction, SparsenessMeasure, builtin_measure
from nsp_lab.nsp import nsc, nsp_check, rrc_probe
from nsp_lab.subspaces import (
    MeasurementMatrix,
    Subspace,
    gaussian_measurement,
    null_space,
    sample_haar,
)
from test_dominance import SQRT_PLUS, assert_verified

L1 = builtin_measure("l1")
DOMINATED = (builtin_measure("lp", p=0.5), builtin_measure("exp_ce1"),
             builtin_measure("mcp_zap", alpha=2.0), builtin_measure("scad"))


def lp_gamma(basis, k):
    """gamma by one LP per (T, s); variables (w, z+, z-) with B w = z+ - z-."""
    n, l = basis.shape
    a_eq = np.hstack([basis, -np.eye(n), np.eye(n)])
    a_ub = np.concatenate([np.zeros(l), np.ones(2 * n)])[None, :]
    bounds = [(None, None)] * l + [(0, None)] * (2 * n)
    best = 0.0
    for support in itertools.combinations(range(n), k):
        # N is symmetric, so the first sign can be fixed
        for signs in itertools.product((1.0, -1.0), repeat=k - 1):
            c = np.zeros(l + 2 * n)
            for i, s in zip(support, (1.0,) + signs):
                c[l + i], c[l + n + i] = -s, s
            res = linprog(c, A_ub=a_ub, b_ub=[1.0], A_eq=a_eq, b_eq=np.zeros(n),
                          bounds=bounds, method="highs")
            assert res.status == 0
            best = max(best, -res.fun)
    return best


def lp_gamma_k1(basis, p):
    """gamma at k = 1 under lp: the largest |z_i|^p / sum_j |z_j|^p over the
    points of N with z_i = 1 and l - 1 other coordinates exactly zero, each
    solved on its own.  The ratio is concave on each orthant piece of
    {z in N : z_i = 1}, so its maximum lies at a vertex of a piece, and
    every vertex is among these points."""
    n, l = basis.shape
    best = 0.0
    for i in range(n):
        for zeros in itertools.combinations([j for j in range(n) if j != i], l - 1):
            rows = basis[[i, *zeros]]
            if np.linalg.matrix_rank(rows) < l:
                continue
            z = basis @ np.linalg.solve(rows, np.eye(l)[0])
            z[list(zeros)] = 0.0
            f = np.abs(z) ** p
            best = max(best, f[i] / f.sum())
    return best


def cone_distance(z, k):
    """Distance from z to the l1 failure cone F = {2 top_k(|u|) >= ||u||_1}.
    F is symmetric in the sign of each coordinate, so the nearest point
    keeps the signs s of z.  On that orthant F is the union over supports
    T, |T| = k, of the cones spanned by s_i e_i (i in T) and
    s_i e_i + s_j e_j (i in T, j not in T), and the distance to each is the
    residual of a nonnegative least-squares fit (scipy's NNLS)."""
    n = z.size
    rays = np.eye(n) * np.where(z >= 0.0, 1.0, -1.0)
    best = math.inf
    for support in itertools.combinations(range(n), k):
        gens = [rays[i] for i in support]
        gens += [rays[i] + rays[j] for i in support for j in range(n) if j not in support]
        best = min(best, nnls(np.array(gens).T, z)[1])
    return best


def plane_distances(basis, k, lo, hi, count):
    """The least distance to F over unit z = basis (cos phi, sin phi) on a
    grid of ``count`` angles in [lo, hi], and the angle where it lies."""
    ang = np.linspace(lo, hi, count)
    dist = [cone_distance(z, k) for z in (basis @ np.vstack([np.cos(ang), np.sin(ang)])).T]
    i = int(np.argmin(dist))
    return dist[i], ang[i]


def vertex_lines(basis):
    """The lines of one basis that count, from the stacked kernel."""
    return np.vstack([z[full] for z, full in nsp._vertex_lines(basis[None])])


def orthonormal(rows):
    q, _ = np.linalg.qr(np.asarray(rows, dtype=float))
    return Subspace(q)


def forced_attack(sub, measure, k, d, seed=0):
    """The probe with its certified and exact radii set aside: the quick
    starts and the ascent run at every radius, from the candidates of the
    search the probe ran before the exact radius (on l1's ranking for l1
    and a routed measure off the band)."""
    cost = CostFunction(measure, sub.ambient_dim)
    scan = nsp._validated_scans([sub], cost, k, [seed])[0]
    scan.sound_radius, scan.rho = 0.0, None
    if scan.search is None and sub.dim > 1:
        scan.search = functools.partial(nsp._search_subspace, sub, L1, k, seed)
    return nsp._rrc_from_scan(sub, cost, k, d, 20_000, scan)


class TestExactTheta:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_lp_oracle(self, dim):
        rng = np.random.default_rng(60 + dim)
        for n in range(dim + 1, 8):
            for k in range(1, min(3, n - dim) + 1):
                sub = sample_haar(n, dim, rng)
                gamma = lp_gamma(sub.basis, k)
                report = nsc(sub, CostFunction(L1, n), k)
                assert report.method == "vertex_enum"
                assert not report.is_lower_bound
                assert report.theta == pytest.approx(gamma / (1.0 - gamma), rel=1e-12), (n, k)

    @pytest.mark.parametrize("case", ["zero_coordinate", "duplicate_rows"])
    def test_skipped_subsets_lose_no_vertex(self, case):
        # every (l-1)-subset holding the zero row, or both duplicate rows, is
        # rank-deficient and skipped; theta still matches the oracle
        rng = np.random.default_rng(70)
        n, dim = 7, 3
        for _ in range(5):
            rows = rng.standard_normal((n, dim))
            if case == "zero_coordinate":
                rows[4] = 0.0
            else:
                rows[5] = rows[1]
            sub = orthonormal(rows)
            lines = vertex_lines(sub.basis)
            assert len(lines) < math.comb(n, dim - 1)
            for k in (1, 2):
                gamma = lp_gamma(sub.basis, k)
                theta = nsc(sub, CostFunction(L1, n), k).theta
                assert theta == pytest.approx(gamma / (1.0 - gamma), rel=1e-12)

    def test_kappa_is_attained_on_a_vertex_line(self):
        rng = np.random.default_rng(71)
        for n, dim in ((5, 2), (7, 2), (6, 3), (8, 4)):
            sub = sample_haar(n, dim, rng)
            lines = vertex_lines(sub.basis)
            assert np.allclose(sub.basis @ (sub.basis.T @ lines.T), lines.T, atol=1e-12)
            kappa = (np.linalg.norm(lines, axis=1) / np.abs(lines).sum(axis=1)).max()
            if dim == 2:   # a dense circle approaches the maximum from below
                ang = np.linspace(0.0, math.pi, 400_001)
                z = sub.basis @ np.vstack([np.cos(ang), np.sin(ang)])
            else:
                z = sub.basis @ rng.standard_normal((dim, 200_000))
            ratios = np.linalg.norm(z, axis=0) / np.abs(z).sum(axis=0)
            assert ratios.max() <= kappa * (1.0 + 1e-12)
            if dim == 2:
                assert ratios.max() == pytest.approx(kappa, rel=1e-4)
            gamma = nsc(sub, CostFunction(L1, n), 1).theta
            gamma = gamma / (1.0 + gamma)
            radius = nsp._vertex_scans(sub.basis[None], L1, 1)[0].sound_radius
            assert radius == pytest.approx(max(1.0 - 2.0 * gamma, 0.0) / (math.sqrt(n) * kappa),
                                           rel=1e-12)

    def test_past_the_cap_keeps_the_search(self, monkeypatch):
        # C(6, 2) = 15 vertex lines above the cap, C(6, 1) = 6 supports below it
        monkeypatch.setattr(nsp, "SUPPORT_ENUMERATION_CAP", 10)
        sub = sample_haar(6, 3, 72)
        report = nsc(sub, CostFunction(L1, 6), 1)
        assert report.method == "multistart"
        assert report.is_lower_bound
        probe = rrc_probe(sub, CostFunction(L1, 6), 1, 1e-6)
        assert probe.outcome != "passed_sound"
        assert probe.certified_radius == 0.0


class TestCertifiedRadius:
    def test_uniform_line_radius_is_tight(self):
        # at (1, 1, 1) the sign-aligned push of length d reaches deficit 0
        # exactly at d = 1/3, so the certified radius cannot grow
        sub = Subspace.from_generator(np.array([1.0, 1.0, 1.0]))
        probe = rrc_probe(sub, CostFunction(L1, 3), 1, 1.0 / 3.0 - 1e-9)
        assert probe.outcome == "passed_sound"
        assert rrc_probe(sub, CostFunction(L1, 3), 1, 0.34).violated

    def test_forced_attack_finds_nothing_within_the_radius(self):
        rng = np.random.default_rng(73)
        certified = 0
        for trial in range(30):
            n, dim = ((5, 2), (4, 1), (6, 2), (6, 3))[trial % 4]
            sub = sample_haar(n, dim, rng)
            radius = nsp._vertex_scans(sub.basis[None], L1, 1)[0].sound_radius
            if radius == 0.0:
                continue
            certified += 1
            for measure in (L1,) + DOMINATED:
                for d in (radius * (1.0 - 1e-9), radius / 3.0):
                    probe = forced_attack(sub, measure, 1, d, seed=trial)
                    assert not probe.violated, (trial, measure.spec_string(), d, radius)
        assert certified >= 10

    def test_attack_beyond_the_radius_starts_from_the_search(self, monkeypatch):
        # past the face cap a member's probe beyond r(N) attacks the
        # search's candidates, so its verdict and witness are those of the
        # search-only probe
        monkeypatch.setattr(nsp, "_faces_enumerable", lambda n, k: False)
        rng = np.random.default_rng(75)
        cases = []
        for trial in range(40):
            n, dim = ((5, 2), (6, 2), (6, 3))[trial % 3]
            sub = sample_haar(n, dim, rng)
            radius = nsp._vertex_scans(sub.basis[None], L1, 1)[0].sound_radius
            if radius > 0.0:
                cases += [(sub, d, trial) for d in (2.0 * radius, 0.2) if d > radius]
        got = [rrc_probe(sub, CostFunction(L1, sub.ambient_dim), 1, d, seed=s)
               for sub, d, s in cases]
        monkeypatch.setattr(nsp, "_enumerable", lambda sub: False)
        outcomes = set()
        for probe, (sub, d, s) in zip(got, cases):
            ref = rrc_probe(sub, CostFunction(L1, sub.ambient_dim), 1, d, seed=s)
            assert probe.outcome == ref.outcome != "passed_sound"
            outcomes.add(probe.outcome)
            if ref.violated:
                assert np.array_equal(probe.violation.z, ref.violation.z)
                assert np.array_equal(probe.violation.n_vec, ref.violation.n_vec)
        assert outcomes == {"violated", "passed_at_resolution"}

    def test_only_declared_measures_pass_soundly(self, monkeypatch):
        sub = Subspace.from_generator(np.array([1.0, 1.0, 1.0]))
        double = SparsenessMeasure("double_l1", lambda t: 2.0 * t, homogeneity_degree=1.0)
        for measure in (L1, double, SQRT_PLUS) + DOMINATED:
            probe = rrc_probe(sub, CostFunction(measure, 3), 1, 0.1)
            assert probe.outcome == "passed_sound", measure.name
            assert probe.certified_radius == pytest.approx(1.0 / 3.0, rel=1e-12)
        undeclared = [dataclasses.replace(m, ratio_nonincreasing=None) for m in DOMINATED]
        undeclared += [dataclasses.replace(m, non_decreasing=None) for m in DOMINATED]
        undeclared += [builtin_measure("l0")]
        rng = np.random.default_rng(74)
        subs = [sub] + [sample_haar(5, dim, rng) for dim in (1, 2, 1, 2)]
        for measure in undeclared:
            for s in subs:
                probe = rrc_probe(s, CostFunction(measure, s.ambient_dim), 1, 1e-3,
                                  budget=2_000)
                assert probe.outcome != "passed_sound", measure.name
                assert probe.certified_radius == 0.0
        # a searched dominated measure takes the l1 radius within the cap
        haar, cost = sample_haar(6, 3, 1), CostFunction(SQRT_PLUS, 6)
        probe = rrc_probe(haar, cost, 1, 0.0256)
        assert probe.outcome == "passed_sound"
        assert probe.certified_radius == nsp._vertex_scans(haar.basis[None], L1, 1)[0].sound_radius
        assert probe.certified_radius == pytest.approx(0.05118, abs=1e-5)
        # C(6, 2) = 15 vertex lines above the cap, C(6, 1) = 6 supports below it
        monkeypatch.setattr(nsp, "SUPPORT_ENUMERATION_CAP", 10)
        probe = rrc_probe(haar, cost, 1, 0.0256)
        assert (probe.outcome, probe.certified_radius) == ("passed_at_resolution", 0.0)


def l1_member(sub, k):
    return nsp._vertex_scans(sub.basis[None], L1, k)[0].sound_radius > 0.0


class TestExactRadius:
    # rho = min over unit z in N of dist(z, F): the least relative
    # perturbation that carries z into F is its distance to F

    def test_matches_the_plane_oracle(self):
        # a dense angle grid gives an upper bracket, 1-Lipschitz in the
        # angle, and a finer grid around its best approaches rho
        rng = np.random.default_rng(76)
        for n, k, count in ((5, 1, 360), (5, 1, 360), (6, 1, 360), (7, 1, 360), (9, 2, 120)):
            sub = next(s for s in (sample_haar(n, 2, rng) for _ in range(50)) if l1_member(s, k))
            rho, lower, u = nsp._l1_radius(sub.basis, k)
            step = math.pi / count
            coarse, phi = plane_distances(sub.basis, k, 0.0, math.pi - step, count)
            fine, _ = plane_distances(sub.basis, k, phi - step, phi + step, 201)
            assert 0.0 < lower <= rho <= fine * (1.0 + 1e-12), (n, k)
            assert coarse - rho <= step / 2.0 and fine - rho < 1e-6, (n, k)
            # u lies in F (up to the acceptance tolerance) at angle rho to N
            assert 2.0 * np.sort(np.abs(u))[n - k:].sum() >= np.abs(u).sum() * (1.0 - 1e-9)
            assert np.linalg.norm(u - sub.basis @ (sub.basis.T @ u)) == pytest.approx(rho, rel=1e-9)

    def test_repeated_top_eigenvalue_hides_nothing(self):
        # symmetric planes with face spans whose top eigenvalue is repeated
        # and not below the maximum (35 on the first plane, 16 of them at
        # the maximum itself): an extreme ray of the eigenspace within the
        # face is the one top eigenvector of a smaller face, so rho still
        # matches the oracle
        planes = [([1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, -1, -1, -1, -1]),
                  ([1, 1, 1, 1, 1, 1], [1, -1, 1, -1, 1, -1]),
                  ([2, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 2, 1, 1, 1])]
        for rows, count in zip(planes, (35, 1, 1)):
            sub = orthonormal(np.array(rows, dtype=float).T)
            n = sub.ambient_dim
            rho = nsp._l1_radius(sub.basis, 1)[0]
            repeated = 0
            for supports, proj in nsp._face_spans(n):
                a = proj @ sub.basis[supports][:, None]
                w = np.linalg.eigvalsh(np.swapaxes(a, -1, -2) @ a)
                top = w[..., -1]
                repeated += int(((top - w[..., -2] < 1e-9) & (top > 1.0 - rho**2 - 1e-9)).sum())
            assert repeated == count
            step = math.pi / 360
            _, phi = plane_distances(sub.basis, 1, 0.0, math.pi - step, 360)
            fine, _ = plane_distances(sub.basis, 1, phi - step, phi + step, 401)
            assert rho <= fine * (1.0 + 1e-12) and fine - rho < 1e-8

    def test_witness_above_and_no_attack_below(self):
        # just above rho the constructed witness violates, verified under
        # the measure; just below it the attack of the search's candidates
        # finds nothing, and the dominated lp passes soundly
        rng = np.random.default_rng(77)
        members = 0
        for trial in range(24):
            n, dim = ((5, 2), (4, 1), (6, 2), (6, 3))[trial % 4]
            sub = sample_haar(n, dim, rng)
            if not l1_member(sub, 1):
                continue
            members += 1
            rho = nsp._l1_radius(sub.basis, 1)[0]
            for measure in (L1,) + DOMINATED[1:]:
                probe = rrc_probe(sub, CostFunction(measure, n), 1, rho * (1.0 + 1e-6))
                assert (probe.outcome, probe.exact_radius) == ("violated", rho), measure.name
                assert_verified(probe, sub, measure, 1)
                v = probe.violation
                assert np.linalg.norm(v.n_vec) / np.linalg.norm(v.z) == pytest.approx(rho, rel=1e-7)
            below = rho * (1.0 - 1e-6)
            lp = CostFunction(DOMINATED[0], n)
            assert rrc_probe(sub, lp, 1, below).outcome == "passed_sound"
            for measure in (L1,) + DOMINATED:
                assert not forced_attack(sub, measure, 1, below, seed=trial).violated, measure.name
        assert members >= 8

    def test_faces_count_against_the_cap(self):
        for n in range(2, 8):
            spans = sum(len(sup) * len(proj) for sup, proj in nsp._face_spans(n))
            assert spans == 2**n - 1 + (3**n - 1) // 2 - n
        assert [n for n in range(2, 14) if nsp._faces_enumerable(n, 1)] == list(range(2, 12))
        assert not nsp._faces_enumerable(6, 0)
        # past the face cap, within the vertex cap, the probe keeps r(N)
        # and the search, whose l1 attack a routed measure takes off the band
        sub = sample_haar(12, 2, 80)
        for measure in (L1, DOMINATED[1]):
            cost = CostFunction(measure, 12)
            scan = nsp._validated_scans([sub], cost, 1, [0])[0]
            assert scan.rho is None and scan.search is not None and 0.0 < scan.sound_radius < 0.3
            probe = rrc_probe(sub, cost, 1, 0.3)
            assert probe.violated and probe.exact_radius is None
            assert probe.evaluations > scan.evaluations
            assert_verified(probe, sub, measure, 1)

    def test_certified_radius_lies_below(self):
        rng = np.random.default_rng(78)
        for n, dim, k in ((5, 2, 1), (6, 3, 1), (7, 2, 1), (7, 3, 1), (8, 3, 2), (6, 1, 1),
                          (9, 4, 2)):
            for _ in range(6):
                sub = sample_haar(n, dim, rng)
                radius = nsp._vertex_scans(sub.basis[None], L1, k)[0].sound_radius
                rho, lower, _ = nsp._l1_radius(sub.basis, k)
                assert radius <= rho * (1.0 + 1e-12) and lower <= rho, (n, dim, k)

    def test_boundary_never_passes_soundly(self):
        # N meets the boundary of F, so rho = 0; the eigensolver reads it as
        # ~1e-8, and the lower bracket is 0: even with no vertex witness,
        # d = 1e-12 does not pass soundly, and d = 1e-6 is violated
        rng = np.random.default_rng(79)
        rows = [np.array([[1.0], [1.0], [2.0]]),
                np.array([[1.0], [-1.0], [2.0], [0.0], [0.0]])]
        rows += [np.column_stack([[1.0, 1.0, 2.0, 0.0, 0.0], rng.standard_normal(5)])
                 for _ in range(3)]
        for r in rows:
            sub = orthonormal(r)
            rho, lower, _ = nsp._l1_radius(sub.basis, 1)
            assert lower == 0.0 and rho < 1e-7
            cost = CostFunction(L1, sub.ambient_dim)
            scan = nsp._validated_scans([sub], cost, 1, [0])[0]
            scan.cands = []
            assert nsp._rrc_from_scan(sub, cost, 1, 1e-12, 20_000, scan).outcome != "passed_sound"
            probe = nsp._rrc_from_scan(sub, cost, 1, 1e-6, 20_000, scan)
            assert probe.violated
            assert_verified(probe, sub, L1, 1)

    @pytest.mark.parametrize("spec", ["l1", "exp_ce1"])
    def test_mc_non_member_never_passes_soundly(self, monkeypatch, spec):
        trials = []
        erc, rrc = experiments._erc_from_scan, experiments._rrc_from_scan

        def erc_seen(*args):
            verdict = erc(*args)
            trials.append([verdict.member])
            return verdict

        def rrc_seen(*args):
            probe = rrc(*args)
            trials[-1].append(probe.outcome)
            return probe

        monkeypatch.setattr(experiments, "_erc_from_scan", erc_seen)
        monkeypatch.setattr(experiments, "_rrc_from_scan", rrc_seen)
        summary = mc_probability(ExperimentConfig(5, 3, 1, measure=spec, trials=300,
                                                  d_grid=(1e-12,)))
        assert summary.failures == 0 and len(trials) == 300
        assert {member for member, _ in trials} == {True, False}
        assert all(member for member, outcome in trials if outcome == "passed_sound")

    @pytest.mark.parametrize("spec, n, m", [("l1", 5, 3), ("l1", 7, 4), ("exp_ce1", 6, 3)])
    def test_mc_works_out_rho_once_per_member_beyond_r(self, monkeypatch, spec, n, m):
        # non-members are decided by a vertex line, members within r(N) by
        # r(N), and none of these draws falls in the band of exp_ce1
        d_grid = (1e-3, 0.05, 0.2)
        radius, erc = nsp._l1_radius, experiments._erc_from_scan
        worked, beyond = [], []

        def counted(*args):
            worked.append(args)
            return radius(*args)

        def erc_seen(cost, k, scan):
            verdict = erc(cost, k, scan)
            beyond.append(verdict.member
                          and max(d_grid) > scan.sound_radius * (1.0 - TOL.strict_shrink))
            return verdict

        monkeypatch.setattr(nsp, "_l1_radius", counted)
        monkeypatch.setattr(experiments, "_erc_from_scan", erc_seen)
        mc_probability(ExperimentConfig(n, m, 1, measure=spec, trials=200, d_grid=d_grid))
        assert len(worked) == sum(beyond) > 0


class TestPowerLaws:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_lp_gamma_at_k1_matches_the_solve_oracle(self, p):
        rng = np.random.default_rng(80)
        measure = builtin_measure("lp", p=p)
        for n, dim in ((4, 2), (5, 2), (7, 2), (6, 3), (7, 3), (7, 4)):
            sub = sample_haar(n, dim, rng)
            gamma = lp_gamma_k1(sub.basis, p)
            report = nsc(sub, CostFunction(measure, n), 1)
            assert (report.method, report.is_lower_bound) == ("vertex_enum", False)
            assert report.theta == pytest.approx(gamma / (1.0 - gamma), rel=1e-12), (n, dim)
            if dim == 2:   # a fine angle grid never passes the oracle
                ang = np.linspace(0.0, math.pi, 200_001)
                f = np.abs(sub.basis @ np.vstack([np.cos(ang), np.sin(ang)])) ** p
                assert (f.max(axis=0) / f.sum(axis=0)).max() <= gamma * (1.0 + 1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_l0_theta_counts_the_sparsest_null_vector(self, k):
        # a Gaussian null space of dimension l has no nonzero vector with
        # more than l - 1 zeros, and the vertex lines have l - 1
        rng = np.random.default_rng(81 + k)
        l0 = builtin_measure("l0")
        for n, dim in ((6, 3), (6, 2), (7, 2), (7, 3), (8, 4)):
            sub = null_space(gaussian_measurement(n - dim, n, rng))
            report = nsc(sub, CostFunction(l0, n), k)
            assert (report.method, report.is_lower_bound) == ("vertex_enum", False)
            assert report.theta == pytest.approx(k / (n - dim + 1 - k), rel=1e-12), (n, dim)

    @pytest.mark.parametrize("p,seed", [(0.5, 5), (0.5, 6), (0.5, 8), (0.5, 17), (0.7, 14)])
    def test_a_vertex_line_fails_where_the_search_passed(self, p, seed):
        # the hill climb held these null spaces strictly, by margins of
        # 0.014 to 0.083; a vertex line violates
        c = CostFunction(builtin_measure("lp", p=p), 7)
        verdict = nsp_check(sample_haar(7, 4, np.random.default_rng(seed)), c, 1)
        assert verdict.status == "fails"
        z, support = verdict.witness_z, verdict.witness_T
        assert 2.0 * c.value(z, support) >= c.value(z)

    def test_vertex_values_are_those_of_the_zeroed_lines(self):
        # the SVD leaves ~1e-16 on a line's l - 1 zeros, and (1e-16)^0.1 is
        # 0.025: the lines are ranked as exactly zeroed copies
        p01 = builtin_measure("lp", p=0.1)
        rng = np.random.default_rng(82)
        for n, dim in ((6, 3), (7, 2), (7, 4)):
            sub = sample_haar(n, dim, rng)
            lines = vertex_lines(sub.basis)
            zeroed = lines.copy()
            np.put_along_axis(zeroed, np.argsort(np.abs(lines), axis=1)[:, :dim - 1], 0.0, axis=1)
            assert not np.array_equal(lines, zeroed)
            q = [float(f.max() / f.sum()) for f in p01.fn(np.abs(zeroed))]
            scan = nsp._scan_subspaces([sub], p01, 1, [None])[0]
            assert [c.q for c in scan.cands] == sorted(q, reverse=True)[:nsp.REFINE_PEAKS]

    def test_a_degenerate_vertex_keeps_all_its_zeros(self):
        # this integer matrix's null space holds (-2, 0, 0, 1, 1): two zeros
        # where a plane's vertex line has l - 1 = 1, so each of the two lines
        # it is enumerated from carries rounding on its other zero
        a = MeasurementMatrix(np.array([[1, 2, -3, 2, 0], [0, 1, -1, 3, -3],
                                        [-2, -1, 0, -1, -3]], dtype=float))
        sub = null_space(a)
        for measure, theta in ((builtin_measure("l0"), 0.5),
                               (builtin_measure("lp", p=0.7), 2.0 ** 0.7 / 2.0)):
            report = nsc(sub, CostFunction(measure, 5), 1)
            assert not report.is_lower_bound
            assert report.theta == pytest.approx(theta, rel=1e-14)
            assert sub.contains(report.witness_z)


def fields(verdict):
    """A verdict's fields, arrays as their bytes, to compare bit for bit."""
    return [v.tobytes() if isinstance(v, np.ndarray)
            else fields(v) if dataclasses.is_dataclass(v) else v for v in vars(verdict).values()]


def reference_scan(basis, measure, k):
    """The vertex scan of one basis as a plain loop: one matrix product for
    the lines of all full-rank (l-1)-subsets, ranked by one stable sort."""
    n, l = basis.shape
    if l == 1:
        lines = basis.T.copy()
    else:
        subsets = np.array(list(itertools.combinations(range(n), l - 1)))
        _, sv, vt = np.linalg.svd(basis[subsets])
        full = sv[:, -1] > sv[:, 0] * l * np.finfo(float).eps
        lines = vt[full, -1, :] @ basis.T
    top, tot = nsp._topk_total(np.abs(lines), k, axis=1)
    gamma = float((top / tot).max())
    kappa = float((np.linalg.norm(lines, axis=1) / tot).max())
    p = measure.homogeneity_degree
    if p != 1.0:
        zero = nsp.TOL.membership / (2.0 * math.sqrt(n))
        lines = np.where(np.abs(lines) > zero, lines, 0.0)
        top, tot = nsp._topk_total(measure.fn(np.abs(lines)), k, axis=1)
    q = top / tot
    order = np.argsort(-q, kind="stable")[:nsp.REFINE_PEAKS]
    certified = p == 1.0 or nsp._dominated(measure)
    radius = max(1.0 - 2.0 * gamma, 0.0) / (math.sqrt(n) * kappa) if certified else 0.0
    return q[order], lines[order], len(lines) * n, radius


def degenerate_bases():
    """The fixtures above whose rows are zero, repeated or integer."""
    rng = np.random.default_rng(70)
    rows = rng.standard_normal((2, 7, 3))
    rows[0, 4] = 0.0
    rows[1, 5] = rows[1, 1]
    a = MeasurementMatrix(np.array([[1, 2, -3, 2, 0], [0, 1, -1, 3, -3],
                                    [-2, -1, 0, -1, -3]], dtype=float))
    return [orthonormal(r).basis for r in rows] + [null_space(a).basis]


class TestStackedScan:
    MEASURES = (L1, builtin_measure("lp", p=0.5), builtin_measure("l0"))

    @staticmethod
    def assert_scans_match(bases, measure, k):
        scans = nsp._vertex_scans(np.stack(bases), measure, k)
        assert len(scans) == len(bases)
        for basis, scan in zip(bases, scans):
            q, lines, evals, radius = reference_scan(basis, measure, k)
            alone = nsp._vertex_scans(basis[None], measure, k)[0]
            for got in (scan, alone):
                assert [c.q for c in got.cands] == q.tolist()
                assert all(np.array_equal(c.direction, z) for c, z in zip(got.cands, lines))
                assert (got.evaluations, got.sound_radius) == (evals, radius)
                assert got.exact == alone.exact

    @pytest.mark.parametrize("measure", MEASURES + (builtin_measure("exp_ce1"), SQRT_PLUS),
                             ids=lambda m: m.spec_string())
    def test_verdicts_match_single_calls(self, measure):
        # a stack of same-shape subspaces, as escape_consistency and mc scan
        # them, decides each subspace bit for bit as the public call on it
        rng = np.random.default_rng(95)
        subs = [sample_haar(6, 3, rng) for _ in range(4)]
        seeds = [11, 12, 13, 14]
        cost = CostFunction(measure, 6)
        scans = nsp._validated_scans(subs, cost, 1, seeds)
        outcomes = set()
        for sub, seed, scan in zip(subs, seeds, scans):
            assert fields(nsp._nsp_from_scan(cost, 1, scan)) == fields(nsp_check(sub, cost, 1, seed))
            assert fields(nsp._nsc_from_scan(cost, 1, scan)) == fields(nsc(sub, cost, 1, seed))
            assert (fields(nsp._erc_from_scan(cost, 1, scan))
                    == fields(nsp.erc_member(sub, cost, 1, seed)))
            radius = scan.sound_radius
            for d in ((0.5 * radius, 2.0 * radius) if radius > 0.0 else ()) + (0.2,):
                probe = nsp._rrc_from_scan(sub, cost, 1, d, 2_000, scan)
                assert fields(probe) == fields(rrc_probe(sub, cost, 1, d, budget=2_000, seed=seed))
                outcomes.add(probe.outcome)
        # below the radius where one is certified (l0 certifies none), and beyond it
        assert ("passed_sound" in outcomes) == nsp._dominated(measure)
        assert outcomes - {"passed_sound"}

    def test_no_generator_without_a_dim_three_search(self, monkeypatch):
        # only a search in dim >= 3 draws random directions: a stack of
        # planes builds no generator, whichever decider runs on its scans,
        # the probe's attack-start searches included
        rng = np.random.default_rng(96)
        subs = [sample_haar(5, 2, rng) for _ in range(4)]
        built = []
        monkeypatch.setattr(nsp, "as_rng", built.append)
        searches = 0
        for measure in self.MEASURES + DOMINATED[1:]:
            cost = CostFunction(measure, 5)
            for sub, scan in zip(subs, nsp._validated_scans(subs, cost, 1, [21, 22, 23, 24])):
                nsp._nsp_from_scan(cost, 1, scan)
                nsp._nsc_from_scan(cost, 1, scan)
                nsp._erc_from_scan(cost, 1, scan)
                for d in (0.05, 0.5):
                    nsp._rrc_from_scan(sub, cost, 1, d, 2_000, scan)
                if scan.search is not None:
                    searches += scan.search.cache_info().currsize
        assert built == [] and searches > 0

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n,dim", [(4, 1), (5, 2), (7, 2), (6, 3), (8, 4), (9, 3),
                                       (12, 4), (11, 6)])
    def test_matches_one_basis_at_a_time(self, n, dim, k):
        rng = np.random.default_rng(90 + n + dim)
        bases = [sample_haar(n, dim, rng).basis for _ in range(3)]
        bases += [null_space(gaussian_measurement(n - dim, n, rng)).basis for _ in range(3)]
        for measure in self.MEASURES:
            self.assert_scans_match(bases, measure, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_degenerate_bases(self, k):
        bases = degenerate_bases()
        for measure in self.MEASURES:
            for basis in bases:    # one stack per shape
                self.assert_scans_match([basis, basis[::-1].copy()], measure, k)

    def test_stack_spans_several_chunks(self, monkeypatch):
        # C(12, 3) = 220 subsets per basis: 30 bases make 6600 lines, more
        # than one _VERTEX_CHUNK; a chunk of 7 cuts every basis's subsets
        # into batches of 2 and 3
        rng = np.random.default_rng(91)
        bases = [sample_haar(12, 4, rng).basis for _ in range(30)]
        assert 30 * math.comb(12, 3) > nsp._VERTEX_CHUNK
        self.assert_scans_match(bases, L1, 1)
        monkeypatch.setattr(nsp, "_VERTEX_CHUNK", 7)
        self.assert_scans_match(bases[:4], builtin_measure("lp", p=0.5), 2)
        self.assert_scans_match(degenerate_bases()[:1] * 3, L1, 2)
