"""Grassmannian primitives.

Subspaces of R^n are held directly as orthonormal bases; the metric is the
spectral norm of the difference of orthogonal projectors, which equals the
sine of the largest principal angle.  Haar sampling goes through a Gaussian
matrix followed by a sign-corrected QR factorization, and
:func:`perturb_subspace` carries a null-space vector into a nearby subspace
with a certified distance bound.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import TOL

Array = np.ndarray

__all__ = [
    "Subspace",
    "MeasurementMatrix",
    "grassmann_distance",
    "sample_haar",
    "null_space",
    "perturb_subspace",
    "gaussian_measurement",
    "as_rng",
    "write_matrix_csv",
    "read_matrix_csv",
]


def as_rng(seed) -> np.random.Generator:
    """Accept either a seed or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _frozen_array(arr: Array) -> Array:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Subspace:
    """An l-dimensional linear subspace of R^n as an n-by-l orthonormal basis."""

    basis: Array

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError(f"basis must be a 2-d array, got shape {b.shape}")
        n, l = b.shape
        if not 1 <= l < n:
            raise ValueError(f"need 1 <= dim < ambient_dim, got dim={l}, ambient={n}")
        gram = b.T @ b
        if np.max(np.abs(gram - np.eye(l))) > TOL.orthonormality:
            raise ValueError("basis columns are not orthonormal; use Subspace.from_span")
        object.__setattr__(self, "basis", _frozen_array(b))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def from_span(columns) -> "Subspace":
        """Orthonormalize a spanning set (QR) and wrap it."""
        m = np.atleast_2d(np.asarray(columns, dtype=float))
        if m.shape[0] < m.shape[1]:
            raise ValueError(f"expected columns spanning a subspace, got shape {m.shape}")
        q, r = np.linalg.qr(m)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
        if not keep.all():
            raise ValueError("spanning set is rank deficient")
        return Subspace(q)

    @staticmethod
    def from_generator(vector) -> "Subspace":
        """The line spanned by a single nonzero vector."""
        v = np.asarray(vector, dtype=float)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("zero vector spans no line")
        return Subspace((v / nrm).reshape(-1, 1))

    def projector(self) -> Array:
        return self.basis @ self.basis.T

    def membership_residual(self, z) -> float:
        """Norm of the component of z orthogonal to the subspace."""
        z = np.asarray(z, dtype=float)
        return float(np.linalg.norm(z - self.basis @ (self.basis.T @ z)))

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=float)
        scale = max(np.linalg.norm(z), 1e-300)
        return self.membership_residual(z) <= TOL.membership * scale


def _check_comparable(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        raise ValueError(
            f"subspaces not comparable: ({a.ambient_dim},{a.dim}) vs ({b.ambient_dim},{b.dim})"
        )


def grassmann_distance(a: Subspace, b: Subspace) -> float:
    """Spectral norm of the projector difference, in [0, 1].

    The arguments are put in a canonical order first so the result is
    bitwise symmetric in (a, b).
    """
    _check_comparable(a, b)
    if a.dim == 1:
        # sine of the angle between two lines
        c = float(a.basis[:, 0] @ b.basis[:, 0])
        return math.sqrt(max(0.0, 1.0 - min(1.0, c * c)))
    pa, pb = a.projector(), b.projector()
    if pa.tobytes() > pb.tobytes():
        pa, pb = pb, pa
    s = np.linalg.svd(pa - pb, compute_uv=False)
    return float(min(1.0, s[0]))


def sample_haar(n: int, l: int, rng=0) -> Subspace:
    """A Haar-distributed l-dimensional subspace of R^n.

    Draws an n-by-l standard Gaussian matrix and orthonormalizes by QR with
    the sign of the R diagonal folded into Q, which removes the sign bias of
    plain QR.  This matches the law of the null space of a Gaussian matrix
    of the complementary shape.  A draw with a diagonal entry of R within
    1e-12 of 0 is redrawn, up to eight times.
    """
    if not 1 <= l < n:
        raise ValueError(f"need 1 <= l < n, got l={l}, n={n}")
    return Subspace(_haar_bases(n, l, 1, as_rng(rng))[0])


def _haar_bases(n: int, l: int, count: int, gen) -> Array:
    """The bases of ``count`` successive :func:`sample_haar` draws from
    ``gen``, as one (count, n, l) stack.

    The Gaussian draws are one call, which gives the numbers of successive
    calls, and their QR factorizations one stacked call, which factors each
    matrix on its own, so every basis is sample_haar's bit for bit.  A
    rejected draw is skipped, as sample_haar redraws it, and eight rejected
    draws in a row raise, as there.
    """
    out, run = [], 0
    while count:
        q, r = np.linalg.qr(gen.standard_normal((count, n, l)))
        d = np.diagonal(r, axis1=1, axis2=2)
        ok = np.abs(d).min(axis=1) > 1e-12
        for good in ok.tolist():
            run = 0 if good else run + 1
            if run == 8:
                raise RuntimeError("repeatedly drew a rank-deficient Gaussian matrix")
        out.append((q * np.sign(d)[:, None, :])[ok])
        count -= len(out[-1])
    return out[0] if len(out) == 1 else np.concatenate(out)


def perturb_subspace(sub: Subspace, z, n_vec) -> Subspace:
    """Move ``sub`` to a nearby subspace containing z + n_vec.

    Splits ``sub`` into the line through z and its orthogonal complement
    inside the subspace, then replaces the line by span(z + n_vec).  The
    returned subspace contains z + n_vec by construction and satisfies
    grassmann_distance(sub, out) <= ||n_vec|| / ||z||.
    """
    z = np.asarray(z, dtype=float)
    n_vec = np.asarray(n_vec, dtype=float)
    zn = np.linalg.norm(z)
    if zn == 0:
        raise ValueError("z must be nonzero")
    if not sub.contains(z):
        raise ValueError("z does not lie in the subspace")
    nn = np.linalg.norm(n_vec)
    if nn >= zn:
        raise ValueError(f"need ||n_vec|| < ||z||, got {nn:.3e} >= {zn:.3e}")
    if nn == 0:
        return sub

    b = sub.basis
    l = sub.dim
    if l == 1:
        return Subspace.from_generator(z + n_vec)
    # orthonormal basis of the subspace with z as its first direction
    coeff = b.T @ (z / zn)
    q_full, _ = np.linalg.qr(np.column_stack([coeff, np.eye(l)[:, : l - 1]]))
    inside = b @ q_full[:, 1:]  # sub intersect z-perp, dimension l-1
    stacked = np.column_stack([z + n_vec, inside])
    q, r = np.linalg.qr(stacked)
    return Subspace(q * np.sign(np.diag(r)))


@dataclass(frozen=True)
class MeasurementMatrix:
    """A full-row-rank m-by-n matrix with its spectral data cached.

    Construction fails when the rows are not linearly independent.  The
    singular values of the transpose, the null space and the thin factors
    used by the solvers are computed once and reused.
    """

    entries: Array

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"entries must be 2-d, got shape {a.shape}")
        m, n = a.shape
        if m >= n:
            raise ValueError(f"need m < n for an underdetermined system, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        svals = np.linalg.svd(a, compute_uv=False)
        if not _full_row_rank(svals[0], svals[-1], m, n):
            raise ValueError("matrix is rank deficient; rows must be independent")
        object.__setattr__(self, "entries", _frozen_array(a))
        object.__setattr__(self, "_svals", _frozen_array(svals))

    @property
    def shape(self):
        return self.entries.shape

    @property
    def sigma_min(self) -> float:
        return float(self._svals[-1])

    @property
    def sigma_max(self) -> float:
        return float(self._svals[0])

    @functools.cached_property
    def _full_svd(self):
        u, s, vt = np.linalg.svd(self.entries, full_matrices=True)
        return u, s, vt

    @functools.cached_property
    def nullspace(self) -> Subspace:
        _, _, vt = self._full_svd
        return Subspace(vt[self.shape[0]:].T)

    @functools.cached_property
    def row_space_factors(self):
        """(U, s, V_row) with A = U diag(s) V_row; V_row is m-by-n."""
        u, s, vt = self._full_svd
        return u, s, vt[: self.shape[0]]

    def min_norm_solution(self, y) -> Array:
        u, s, vrow = self.row_space_factors
        y = np.asarray(y, dtype=float)
        if y.shape != (self.shape[0],):
            raise ValueError(f"y must have length {self.shape[0]}")
        return vrow.T @ ((u.T @ y) / s)


def _full_row_rank(first, last, m: int, n: int):
    """The rank rule of :class:`MeasurementMatrix`: whether m-by-n matrices
    with largest singular value ``first`` and smallest ``last`` (scalars, or
    arrays of them) have independent rows."""
    return (first != 0) & (last > max(m, n) * np.finfo(float).eps * first)


def _null_spaces(stack: Array) -> list:
    """The null space of each m-by-n matrix of a (T, m, n) stack, or None
    where :class:`MeasurementMatrix` rejects the matrix (entries not finite,
    or rows dependent).

    Two stacked SVDs, one for the rank rule and one for the null spaces.
    Each factors every matrix on its own, so each basis is that of
    ``MeasurementMatrix(a).nullspace`` bit for bit.
    """
    _, m, n = stack.shape
    out = [None] * len(stack)
    ok = np.flatnonzero(np.isfinite(stack).all(axis=(1, 2)))
    svals = np.linalg.svd(stack[ok], compute_uv=False)
    ok = ok[_full_row_rank(svals[:, 0], svals[:, -1], m, n)]
    for i, vt in zip(ok, np.linalg.svd(stack[ok])[2]):
        out[i] = Subspace(vt[m:].T)
    return out


def null_space(a: MeasurementMatrix) -> Subspace:
    """Orthonormal basis of {z : Az = 0}, dimension n - m."""
    return a.nullspace


def gaussian_measurement(m: int, n: int, rng=0) -> MeasurementMatrix:
    """An m-by-n matrix with i.i.d. N(0, 1/n) entries.

    The 1/n variance matches the normalization under which the smallest
    singular value of the transpose concentrates at 1 - sqrt(m/n).
    """
    gen = as_rng(rng)
    return MeasurementMatrix(gen.standard_normal((m, n)) / math.sqrt(n))


# ---------------------------------------------------------------------------
# Flat-file serialization
# ---------------------------------------------------------------------------

def write_matrix_csv(path, arr) -> None:
    """Row-major CSV with a shape header line ``# rows cols``."""
    a = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {a.shape[0]} {a.shape[1]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in a:
            writer.writerow([f"{v:.17g}" for v in row])


def read_matrix_csv(path) -> Array:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing shape header")
        rows, cols = (int(tok) for tok in header[1:].split())
        data = [[float(v) for v in row] for row in csv.reader(fh) if row]
    a = np.asarray(data, dtype=float)
    if a.shape != (rows, cols):
        raise ValueError(f"{path}: header says {(rows, cols)}, data is {a.shape}")
    return a
