"""Dense linear-algebra kernels: compact SVD with a rank decision and a
least-squares fit in its frame (Chan's R-SVD), the symmetric-matrix
coordinate basis, solves restricted to that subspace, and projection onto
the positive semidefinite cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupLayout
from .errors import SingularOmega2Error

__all__ = [
    "CompactSvd",
    "SymBasis",
    "SymKronOperator",
    "compact_svd",
    "psd_project",
]

# Relative condition threshold beyond which the Gram operators are treated as
# singular (identifiability failure) rather than inverted.
EPS_SING = 1e-12


@dataclass(frozen=True)
class CompactSvd:
    """Compact SVDs ``F_i = U_i @ diag(d_i) @ V_i.T`` of M stacked matrices
    and the least-squares fits of y_i on them, without U, zero-padded to k
    directions: singular values ``d`` (M, k), positive and descending;
    orthonormal right vectors ``V`` (M, k, k); numerical ranks ``r`` (M,);
    rotated responses ``c_i = U_i'y_i`` (M, k), so that ``c_i / d_i`` are
    the coefficients of y_i on ``F_i @ V_i``; and ``rss_i = |y_i - U_i c_i|^2``."""

    d: np.ndarray
    V: np.ndarray
    r: np.ndarray
    c: np.ndarray
    rss: np.ndarray


# Largest number of matrix entries gathered for one batched LAPACK call.
_SVD_CHUNK = 1 << 16


def compact_svd(F, y: np.ndarray, layout: GroupLayout) -> CompactSvd:
    """Compact SVD of each row block of F keeping only singular values
    above its rank threshold, with the least-squares fit of y in its frame.

    Parameters
    ----------
    F : ndarray of shape (n, k), or a tuple of (n, k_j) ndarrays
        Finite matrix; a tuple such as ``(X, Z)`` is read as its blocks'
        columns side by side, with no joined copy.
    y : ndarray of shape (n,)
    layout : GroupLayout
        The row blocks of M stacked matrices: matrix i is group i's rows of
        F. A singular value of matrix i is retained when it exceeds
        ``eps * max(n_i, k) * sigma_max``, with eps the machine epsilon,
        the standard numerical-rank convention.

    Returns
    -------
    CompactSvd
        ``d`` and ``c`` (M, k), ``V`` (M, k, k) C-contiguous, ``r`` and
        ``rss`` (M,).

    One Householder QR of ``[F y]`` gives ``R = [[A, b], [0, e]]``, and the
    SVD ``A = W diag(d) V'`` gives ``c = W'b`` and ``rss = e^2`` plus
    ``c_j^2`` over the directions below the threshold (Chan, *ACM TOMS* 8,
    1982). Each exact row count's matrices go to ``np.linalg.qr`` as one
    batched stack of ``_SVD_CHUNK`` gathered entries (a longer matrix is
    reduced in row pieces, each QR taking the last R on top of the next),
    and the k x k factors to batched ``np.linalg.svd`` calls. So each
    matrix's results are bitwise those of a call on its rows alone."""
    blocks = [np.asarray(b, dtype=float)
              for b in (F if isinstance(F, tuple) else (F,))]
    y = np.asarray(y, dtype=float)
    N, k = y.shape[0] if y.ndim == 1 else 0, sum(b.shape[-1] for b in blocks)
    n = layout.offsets[-1]
    if N < 1 or k < 1 or n != N or any(b.ndim != 2 or len(b) != N for b in blocks):
        raise ValueError(f"expected nonempty 2-D blocks and a response of {n} "
                         f"rows, got shapes {[b.shape for b in blocks]}, {y.shape}")
    if not all(np.isfinite(b).all() for b in blocks + [y]):
        raise ValueError("matrix or response has non-finite entries")
    first, sizes = layout.starts, layout.sizes
    M, blocks = first.size, blocks + [y[:, None]]
    # Each matrix's R = [[A, b], [0, e]] is kept in V, c and rss: A with
    # zero rows below its min(n, k), so r is capped at n below.
    V, c, rss = np.zeros((M, k, k)), np.zeros((M, k)), np.zeros(M)
    h = max(1, _SVD_CHUNK // (k + 1))  # rows gathered for one QR call
    for n in np.unique(sizes).tolist():
        bucket = np.flatnonzero(sizes == n)
        for at in range(0, bucket.size, max(1, h // n)):
            g = bucket[at:at + max(1, h // n)]
            for lo in range(0, n, h):  # a longer matrix in row pieces
                rows = first[g, None] + np.arange(lo, min(lo + h, n))
                G = np.concatenate([b[rows] for b in blocks], axis=2)
                R = np.linalg.qr(G if lo == 0 else np.concatenate(
                    [R, G], axis=1), mode="r")
            V[g, :min(n, k)], c[g, :min(n, k)] = R[:, :k, :k], R[:, :k, k]
            rss[g] = R[:, k, k] ** 2 if n > k else 0.0
    # SVDs of 4096 entries at a time: larger stacks raised the fit's peak RSS
    # (glibc's mmap threshold moves up to the largest block freed).
    d, step = np.empty((M, k)), max(1, 4096 // (k * k))
    for lo in range(0, M, step):
        W, d[lo:lo + step], Vt = np.linalg.svd(V[lo:lo + step])
        V[lo:lo + step] = Vt.swapaxes(1, 2)
        c[lo:lo + step] = (W * c[lo:lo + step, :, None]).sum(axis=1)
    tol = np.finfo(float).eps * np.maximum(sizes, k) * d[:, 0]
    r = np.minimum(sizes, np.count_nonzero(d > tol[:, None], axis=1))
    keep = np.arange(k) < r[:, None]
    # Sign convention: the largest-magnitude entry of each right singular
    # vector is positive, so factors do not depend on the LAPACK build.
    lead = np.argmax(np.abs(V), axis=1)
    flip = np.take_along_axis(V, lead[:, None], axis=1)[:, 0] < 0.0
    rss += np.where(keep, 0.0, c * c).sum(axis=1)
    d = np.where(keep, d, 0.0)
    c = np.where(keep, np.where(flip, -c, c), 0.0)
    V = np.where(keep[:, None], np.where(flip[:, None], -V, V), 0.0)
    return CompactSvd(d=d, V=V, r=r, c=c, rss=rss)


def sym(S: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return (S + S.swapaxes(-1, -2)) / 2.0


def psd_project(S: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix.

    Symmetrizes the input, then clips negative eigenvalues to exactly zero.
    Already-PSD symmetric input is returned unchanged.
    """
    S = np.asarray(S, dtype=float)
    H = sym(S)
    w, Q = np.linalg.eigh(H)
    if w.size == 0 or w[0] >= 0.0:
        return H
    w = np.where(w < 0.0, 0.0, w)
    return sym((Q * w) @ Q.T)


class SymBasis:
    """Coordinates for symmetric q x q matrices.

    The columns of ``vectors`` (q*q, q(q+1)/2) are the flattened orthonormal
    basis ``B_ii = E_ii``, ``B_ij = (E_ij + E_ji)/sqrt(2)``, i <= j in
    row-major order; in these coordinates self-adjoint operators have
    symmetric reduced matrices.
    """

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("q must be >= 1")
        self.q = int(q)
        self.dim = self.q * (self.q + 1) // 2
        rows, cols = np.triu_indices(self.q)
        coef = np.where(rows == cols, 1.0, np.sqrt(0.5))
        B = np.zeros((self.q, self.q, self.dim))
        B[rows, cols, np.arange(self.dim)] = coef
        B[cols, rows, np.arange(self.dim)] = coef
        self.vectors = B.reshape(self.q * self.q, self.dim)

    def svec_scaled(self, S: np.ndarray) -> np.ndarray:
        return self.vectors.T @ np.asarray(S, dtype=float).ravel()

    def smat_scaled(self, s: np.ndarray) -> np.ndarray:
        return (self.vectors @ np.asarray(s, dtype=float)).reshape(self.q, self.q)

    def reduced_kron_self(self, A: np.ndarray) -> np.ndarray:
        """Matrix of ``S -> sum_m A_m @ S @ A_m`` (each A_m symmetric) in
        scaled coordinates, for a stack (M, q, q) or one (q, q) matrix:
        ``B' K B`` with ``K = sum_m A_m (x) A_m`` from one einsum.
        """
        A = np.asarray(A, dtype=float).reshape(-1, self.q, self.q)
        K = np.einsum("mab,mcd->acbd", A, A).reshape(self.q ** 2, -1)
        return self.vectors.T @ K @ self.vectors


class SymKronOperator:
    """The operator ``sum_m A_m (x) A_m`` on symmetric q x q matrices for a
    stack of symmetric terms ``A`` (M, q, q), materialized only in the
    reduced q(q+1)/2 coordinate system and factored once at construction."""

    def __init__(self, terms: np.ndarray):
        self.basis = SymBasis(np.shape(terms)[-1])
        self.matrix = self.basis.reduced_kron_self(terms)
        self._w, self._Q = np.linalg.eigh(sym(self.matrix))

    @property
    def min_eig(self) -> float:
        return float(self._w[0])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``sum_m A_m S A_m = rhs`` for symmetric S; raises
        SingularOmega2Error past the condition threshold ``EPS_SING``."""
        w, Q = self._w, self._Q
        amax, amin = float(np.abs(w).max()), float(np.abs(w).min())
        if amax <= 0.0 or amin <= EPS_SING * amax:
            raise SingularOmega2Error(
                "reduced symmetric-space operator is numerically singular "
                f"(|eig| range [{amin:.3e}, {amax:.3e}]); the random-effect "
                "design does not identify all covariance components"
            )
        b = self.basis.svec_scaled(rhs)
        return self.basis.smat_scaled(Q @ ((Q.T @ b) / w))


def sym_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, of one matrix or of
    each matrix in a stack; tiny negative eigenvalues from roundoff are
    clipped to zero."""
    S = np.asarray(S, dtype=float)
    w, Q = np.linalg.eigh(sym(S))
    w = np.sqrt(np.where(w < 0.0, 0.0, w))
    return (Q * w[..., None, :]) @ Q.swapaxes(-1, -2)


def eigen_floor(S: np.ndarray, floor: float) -> np.ndarray:
    """Raise eigenvalues of a symmetric matrix to at least ``floor``."""
    S = np.asarray(S, dtype=float)
    w, Q = np.linalg.eigh(sym(S))
    w = np.where(w < floor, floor, w)
    return (Q * w) @ Q.T
