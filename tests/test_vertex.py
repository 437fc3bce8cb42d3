"""Exact certificates from the vertex lines of the null space, and the
certified robust radius they give.

The oracle for the l1 gamma = max ||z_T||_1 / ||z||_1 over the null space N
is one linear program per support T of size k and sign pattern s on it:
max s . z_T subject to z in N and ||z||_1 <= 1 (scipy's HiGHS).  The
maximum over (T, s) is gamma, and theta = gamma / (1 - gamma).  The oracle
for lp at k = 1 solves, per coordinate i, for the points of N with z_i = 1
and l - 1 other coordinates zero.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from nsp_lab import nsp
from nsp_lab.measures import CostFunction, SparsenessMeasure, builtin_measure
from nsp_lab.nsp import nsc, nsp_check, rrc_probe
from nsp_lab.subspaces import (
    MeasurementMatrix,
    Subspace,
    gaussian_measurement,
    null_space,
    sample_haar,
)
from test_dominance import SQRT_PLUS

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


def vertex_lines(basis):
    """The lines of one basis that count, from the stacked kernel."""
    return np.vstack([z[full] for z, full in nsp._vertex_lines(basis[None])])


def orthonormal(rows):
    q, _ = np.linalg.qr(np.asarray(rows, dtype=float))
    return Subspace(q)


def forced_attack(sub, measure, k, d, seed=0):
    """The probe with its certified radius set aside: the quick starts and
    the ascent run at every radius."""
    cost = CostFunction(measure, sub.ambient_dim)
    scan = nsp._validated_scans([sub], cost, k, [seed])[0]
    scan.sound_radius = 0.0
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
        # a member's probe beyond r(N) attacks the search's candidates, so
        # its verdict and witness are those of the search-only probe
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
            assert fields(nsp._nsc_from_scan(sub, cost, 1, scan)) == fields(nsc(sub, cost, 1, seed))
            assert (fields(nsp._erc_from_scan(sub, cost, 1, scan))
                    == fields(nsp.erc_member(sub, cost, 1, seed)))
            radius = scan.sound_radius
            for d in ((0.5 * radius, 2.0 * radius) if radius > 0.0 else ()) + (0.2,):
                probe = nsp._rrc_from_scan(sub, cost, 1, d, 2_000, scan)
                assert fields(probe) == fields(rrc_probe(sub, cost, 1, d, budget=2_000, seed=seed))
                outcomes.add(probe.outcome)
        # below the radius where one is certified (l0 certifies none), and beyond it
        assert ("passed_sound" in outcomes) == nsp._dominated(measure)
        assert outcomes - {"passed_sound"}

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
