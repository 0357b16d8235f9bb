"""Dense linear-algebra kernels: compact SVD with a rank decision, the
symmetric-matrix coordinate basis, solves restricted to that subspace, and
projection onto the positive semidefinite cone.

:func:`compact_svd` also factors M stacked row blocks at once, like
:func:`hiermoment.families.fit_glm`: the blocks are bucketed by their exact
row count, and each bucket is one batched ``np.linalg.svd`` call, so no
block is zero-padded and each block's factors are bitwise those of a
one-matrix call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularOmega2Error

__all__ = [
    "CompactSvd",
    "SymBasis",
    "SymKronOperator",
    "compact_svd",
    "psd_project",
]


@dataclass(frozen=True)
class CompactSvd:
    """Compact singular value decomposition ``F = U @ diag(d) @ V.T``.

    Attributes
    ----------
    U : ndarray of shape (n, r)
        Orthonormal left singular vectors.
    d : ndarray of shape (r,)
        Strictly positive singular values, descending.
    V : ndarray of shape (k, r)
        Orthonormal right singular vectors.
    r : int
        Numerical rank; zero yields empty factors.

    The stacked form (see :func:`compact_svd` with ``starts``) holds the
    same factors zero-padded to k directions, with ``r`` an (M,) array.
    """

    U: np.ndarray
    d: np.ndarray
    V: np.ndarray
    r: int


# Largest number of matrix entries sent to one batched LAPACK call.
_SVD_CHUNK = 1 << 16


def compact_svd(
    F: np.ndarray,
    rank_tol: float | None = None,
    starts: np.ndarray | None = None,
) -> CompactSvd:
    """Compact SVD keeping only singular values above the rank threshold.

    Parameters
    ----------
    F : ndarray of shape (n, k)
        Real matrix with finite entries.
    rank_tol : float, optional
        Relative threshold; a singular value is retained when it exceeds
        ``rank_tol * max(n, k) * sigma_max``. Defaults to machine epsilon,
        the standard numerical-rank convention.
    starts : ndarray of shape (M,), optional
        First row of each of M stacked matrices: matrix i is
        ``F[starts[i]:starts[i + 1]]``, each with its own threshold.

    Returns
    -------
    CompactSvd
        For one matrix, the compact factors. With ``starts``, the stacked
        factors zero-padded to k directions: ``U`` (n, k) holds each
        matrix's left vectors in its own rows, ``d`` is (M, k), ``V`` is
        (M, k, k) and ``r`` is (M,).

    The matrices are bucketed by their exact row count and each bucket goes
    to ``np.linalg.svd`` as one (m, n_i, k) stack, at most ``_SVD_CHUNK``
    entries at a time. Every matrix of a bucket gets the same LAPACK call as
    it would alone, so its factors are bitwise those of the one-matrix call
    and depend on its own rows only.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] < 1 or F.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError("matrix has non-finite entries")
    if rank_tol is None:
        rank_tol = float(np.finfo(F.dtype).eps)
    N, k = F.shape
    first = np.zeros(1, dtype=np.intp) if starts is None \
        else np.asarray(starts, dtype=np.intp)
    sizes = np.diff(first, append=N)
    if first[0] != 0 or np.any(sizes < 1):
        raise ValueError("starts must begin at 0 and increase strictly "
                         "within the rows")
    U, d, V = np.zeros((N, k)), np.zeros((first.size, k)), \
        np.zeros((first.size, k, k))
    for n in np.unique(sizes).tolist():
        bucket = np.flatnonzero(sizes == n)
        w, step = min(n, k), max(1, _SVD_CHUNK // (n * k))
        for lo in range(0, bucket.size, step):
            g = bucket[lo:lo + step]
            rows = first[g, None] + np.arange(n)
            U[rows, :w], d[g, :w], Vt = np.linalg.svd(F[rows],
                                                      full_matrices=False)
            V[g, :, :w] = Vt.swapaxes(1, 2)
    r = np.count_nonzero(
        d > (rank_tol * np.maximum(sizes, k) * d[:, 0])[:, None], axis=1)
    keep = np.arange(k) < r[:, None]
    # Sign convention: the largest-magnitude entry of each right singular
    # vector is positive, so factors do not depend on the LAPACK build.
    lead = np.argmax(np.abs(V), axis=1)
    flip = np.take_along_axis(V, lead[:, None], axis=1)[:, 0] < 0.0
    d = np.where(keep, d, 0.0)
    V = np.where(keep[:, None], np.where(flip[:, None], -V, V), 0.0)
    np.negative(U, out=U, where=np.repeat(flip, sizes, axis=0))
    U[np.repeat(~keep, sizes, axis=0)] = 0.0
    if starts is not None:
        return CompactSvd(U=U, d=d, V=V, r=r)
    m = int(r[0])
    return CompactSvd(U=U[:, :m], d=d[0, :m], V=V[0, :, :m], r=m)


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

    def solve(self, rhs: np.ndarray, eps_sing: float = 1e-12) -> np.ndarray:
        """Solve ``sum_m A_m S A_m = rhs`` for symmetric S."""
        w, Q = self._w, self._Q
        amax, amin = float(np.abs(w).max()), float(np.abs(w).min())
        if amax <= 0.0 or amin <= eps_sing * amax:
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
