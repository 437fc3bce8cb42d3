import math

import numpy as np
import pytest
import scipy.stats

from nsp_lab import subspaces
from nsp_lab.subspaces import (
    MeasurementMatrix,
    Subspace,
    gaussian_measurement,
    grassmann_distance,
    null_space,
    perturb_subspace,
    read_matrix_csv,
    sample_haar,
    write_matrix_csv,
)


def line(*coords):
    return Subspace.from_generator(np.asarray(coords, dtype=float))


class TestSubspaceType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_full_dimension(self):
        with pytest.raises(ValueError):
            Subspace(np.eye(3))

    def test_from_span_orthonormalizes(self):
        sub = Subspace.from_span(np.array([[1.0, 1.0], [1.0, 2.0], [0.0, 1.0]]))
        assert sub.dim == 2 and sub.ambient_dim == 3
        gram = sub.basis.T @ sub.basis
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_rank_deficient_span_rejected(self):
        with pytest.raises(ValueError):
            Subspace.from_span(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))

    def test_membership(self):
        sub = line(1, 1, 2)
        assert sub.contains(np.array([2.0, 2.0, 4.0]))
        assert not sub.contains(np.array([1.0, 0.0, 0.0]))


class TestDistance:
    def test_identical_is_zero(self):
        sub = line(1, 2, 3)
        assert grassmann_distance(sub, sub) == 0.0

    def test_orthogonal_lines(self):
        assert grassmann_distance(line(1, 0), line(0, 1)) == 1.0

    def test_rotated_line_matches_projector_norm(self):
        theta = math.pi / 6
        a = line(1, 0)
        b = line(math.cos(theta), math.sin(theta))
        # oracle: spectral norm of the explicit projector difference
        diff = a.projector() - b.projector()
        oracle = np.linalg.svd(diff, compute_uv=False)[0]
        d = grassmann_distance(a, b)
        assert d == pytest.approx(0.5, abs=1e-14)
        assert d == pytest.approx(oracle, abs=1e-12)

    def test_line_fast_path_matches_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = sample_haar(5, 1, rng), sample_haar(5, 1, rng)
            svd_val = np.linalg.svd(a.projector() - b.projector(), compute_uv=False)[0]
            assert grassmann_distance(a, b) == pytest.approx(svd_val, abs=1e-12)

    def test_metric_properties_sampled(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            a, b, c = (sample_haar(5, 2, rng) for _ in range(3))
            dab = grassmann_distance(a, b)
            # bitwise symmetry by canonical argument ordering
            assert dab == grassmann_distance(b, a)
            assert 0.0 <= dab <= 1.0
            assert dab <= grassmann_distance(a, c) + grassmann_distance(c, b) + 1e-9

    def test_zero_iff_same_subspace(self):
        rng = np.random.default_rng(2)
        sub = sample_haar(6, 3, rng)
        # same subspace, different orthonormal basis
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rebased = Subspace(sub.basis @ q)
        assert grassmann_distance(sub, rebased) < 1e-7
        other = sample_haar(6, 3, rng)
        assert grassmann_distance(sub, other) > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grassmann_distance(line(1, 0), line(1, 0, 0))
        with pytest.raises(ValueError):
            grassmann_distance(sample_haar(4, 1, 0), sample_haar(4, 2, 0))


class TestHaarSampling:
    def test_seeded_determinism(self):
        a = sample_haar(3, 1, 42)
        b = sample_haar(3, 1, 42)
        assert np.array_equal(a.basis, b.basis)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_haar(3, 3, 0)
        with pytest.raises(ValueError):
            sample_haar(3, 0, 0)

    def test_line_angle_uniform_in_plane(self):
        rng = np.random.default_rng(5)
        angles = []
        for _ in range(10_000):
            g = sample_haar(2, 1, rng).basis[:, 0]
            angles.append(math.atan2(g[1], g[0]) % math.pi)
        stat = scipy.stats.kstest(np.asarray(angles) / math.pi, "uniform")
        assert stat.pvalue > 0.01

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        ref = sample_haar(4, 2, rng)
        plain, rotated = [], []
        for _ in range(10_000):
            sub = sample_haar(4, 2, rng)
            plain.append(grassmann_distance(sub, ref))
            sub2 = sample_haar(4, 2, rng)
            rotated.append(grassmann_distance(Subspace(rot @ sub2.basis), ref))
        stat = scipy.stats.ks_2samp(plain, rotated)
        assert stat.pvalue > 0.01


class StreamGen:
    """A stand-in generator whose standard normals are a fixed stream."""

    def __init__(self, stream):
        self.stream, self.at = np.asarray(stream, dtype=float).ravel(), 0

    def standard_normal(self, shape):
        size = math.prod(shape)
        out = self.stream[self.at:self.at + size].reshape(shape)
        self.at += size
        return out


def sequential_haar(n, l, gen):
    """sample_haar's draw as a plain loop: QR with the sign fix, up to eight
    tries."""
    for _ in range(8):
        q, r = np.linalg.qr(gen.standard_normal((n, l)))
        d = np.diag(r)
        if np.min(np.abs(d)) > 1e-12:
            return q * np.sign(d)
    raise RuntimeError("repeatedly drew a rank-deficient Gaussian matrix")


class TestStackedDraws:
    @pytest.mark.parametrize("n,l", [(6, 2), (5, 1), (9, 4), (12, 7)])
    def test_haar_stack_is_sample_haar(self, n, l):
        stacked = subspaces._haar_bases(n, l, 300, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for basis in stacked:
            ref = sample_haar(n, l, rng).basis
            assert np.array_equal(basis, ref)
            assert np.array_equal(Subspace(basis).basis, ref)

    def test_haar_stack_keeps_the_retry_rule(self):
        # draws 2, 5 and 6 have a zero column: each is skipped, as
        # sample_haar redraws it, and the later draws move up
        n, l = 5, 2
        blocks = np.random.default_rng(4).standard_normal((14, n, l))
        blocks[[2, 5, 6], :, 1] = 0.0
        gen = StreamGen(blocks)
        ref = [sequential_haar(n, l, gen) for _ in range(11)]
        assert gen.at == blocks.size
        stacked = subspaces._haar_bases(n, l, 11, StreamGen(blocks))
        assert len(stacked) == 11
        for basis, want in zip(stacked, ref):
            assert np.array_equal(basis, want)
        # eight rejected draws in a row raise, as in the loop
        blocks[3:11, :, 0] = 0.0
        with pytest.raises(RuntimeError):
            sequential_haar(n, l, StreamGen(blocks[3:]))
        with pytest.raises(RuntimeError):
            subspaces._haar_bases(n, l, 4, StreamGen(blocks))

    @pytest.mark.parametrize("m,n", [(3, 5), (1, 4), (4, 7), (6, 12)])
    def test_null_space_stack_is_measurement_matrix(self, m, n):
        stack = np.random.default_rng(5).standard_normal((40, m, n)) / math.sqrt(n)
        stack[7, 0, 1] = np.nan
        stack[11, 0] = 0.5 * stack[11, -1]     # dependent rows when m >= 2
        stack[13] = 0.0
        rejected = (7, 11, 13) if m > 1 else (7, 13)
        got = subspaces._null_spaces(stack)
        for i, sub in enumerate(got):
            if i in rejected:
                assert sub is None
                with pytest.raises(ValueError):
                    MeasurementMatrix(stack[i])
            else:
                assert np.array_equal(sub.basis, MeasurementMatrix(stack[i]).nullspace.basis)
        assert subspaces._null_spaces(stack[:0]) == []


class TestNullSpace:
    def test_one_row(self):
        a = MeasurementMatrix(np.array([[1.0, -1.0]]))
        sub = null_space(a)
        gen = sub.basis[:, 0] * np.sign(sub.basis[0, 0])
        assert np.allclose(gen, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-12)

    def test_row_sums(self):
        a = MeasurementMatrix(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))
        sub = null_space(a)
        gen = sub.basis[:, 0] * np.sign(sub.basis[0, 0])
        assert np.allclose(gen, np.ones(3) / math.sqrt(3), atol=1e-12)

    def test_random_matrix_residuals(self):
        a = gaussian_measurement(3, 5, 7)
        basis = null_space(a).basis
        assert basis.shape == (5, 2)
        assert np.max(np.abs(a.entries @ basis)) < 1e-10
        assert np.max(np.abs(basis.T @ basis - np.eye(2))) < 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            MeasurementMatrix(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MeasurementMatrix(np.array([[1.0, 0.0, bad], [0.0, 1.0, 1.0]]))

    def test_round_trip_through_complement(self):
        rng = np.random.default_rng(8)
        sub = sample_haar(6, 2, rng)
        q, _ = np.linalg.qr(np.column_stack([sub.basis, np.eye(6)[:, :4]]))
        rows = q[:, 2:].T   # orthonormal basis of the complement
        recovered = null_space(MeasurementMatrix(rows))
        assert grassmann_distance(sub, recovered) < 1e-9


class TestSingularExtremes:
    def test_padded_identity(self):
        a = MeasurementMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert (a.sigma_min, a.sigma_max) == (1.0, 1.0)

    def test_diagonal_block(self):
        a = MeasurementMatrix(np.array([[2.0, 0, 0, 0], [0, 3.0, 0, 0]]))
        smin, smax = a.sigma_min, a.sigma_max
        assert (smin, smax) == pytest.approx((2.0, 3.0))

    def test_matches_transpose_svd(self):
        a = gaussian_measurement(3, 6, 11)
        svals = np.linalg.svd(a.entries.T, compute_uv=False)
        assert (a.sigma_min, a.sigma_max) == pytest.approx((svals[-1], svals[0]), rel=1e-12)

    @pytest.mark.slow
    def test_linear_growth_asymptotics(self):
        # n = beta k, m = ceil(gamma k): smallest singular value of the
        # transpose concentrates at 1 - sqrt(gamma/beta)
        k, beta, gamma = 200, 40.0, 20.0
        n, m = int(beta * k), int(math.ceil(gamma * k))
        a = gaussian_measurement(m, n, 123)
        smin = a.sigma_min
        target = 1.0 - math.sqrt(gamma / beta)
        assert abs(smin - target) / target < 0.05


class TestPerturbation:
    def test_zero_perturbation_returns_same(self):
        sub = sample_haar(5, 2, 1)
        z = sub.basis @ np.array([1.0, 2.0])
        out = perturb_subspace(sub, z, np.zeros(5))
        assert grassmann_distance(sub, out) == 0.0

    def test_line_case_closed_form(self):
        sub = line(1, 0, 0)
        out = perturb_subspace(sub, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.1, 0.0]))
        moved = out.basis[:, 0] * np.sign(out.basis[0, 0])
        assert np.allclose(moved, np.array([1.0, 0.1, 0.0]) / math.sqrt(1.01), atol=1e-12)
        # oracle: direct projector-difference norm equals sin(atan(0.1))
        assert grassmann_distance(sub, out) == pytest.approx(math.sin(math.atan(0.1)), abs=1e-12)
        assert grassmann_distance(sub, out) <= 0.1

    def test_membership_and_distance_bound_sampled(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            sub = sample_haar(6, 3, rng)
            z = sub.basis @ rng.standard_normal(3)
            z *= 10.0 ** rng.uniform(-2, 2) / np.linalg.norm(z)
            ratio = rng.uniform(0, 0.999)
            n_vec = rng.standard_normal(6)
            n_vec *= ratio * np.linalg.norm(z) / np.linalg.norm(n_vec)
            out = perturb_subspace(sub, z, n_vec)
            target = z + n_vec
            assert out.membership_residual(target) < 1e-10 * np.linalg.norm(target)
            assert grassmann_distance(sub, out) <= ratio + 1e-10

    def test_preconditions(self):
        sub = line(1, 1, 2)
        with pytest.raises(ValueError):
            perturb_subspace(sub, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            perturb_subspace(sub, np.array([1.0, 0.0, 0.0]), np.zeros(3))
        z = np.array([1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            perturb_subspace(sub, z, 2.0 * z)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        a = np.random.default_rng(3).standard_normal((3, 5))
        path = tmp_path / "mat.csv"
        write_matrix_csv(path, a)
        assert np.array_equal(read_matrix_csv(path), a)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)
