"""Dense linear-algebra kernels: compact SVD with a rank decision, the
symmetric-matrix coordinate basis, solves restricted to that subspace, and
projection onto the positive semidefinite cone."""

from __future__ import annotations

import math
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

_SQRT2 = math.sqrt(2.0)


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
    """

    U: np.ndarray
    d: np.ndarray
    V: np.ndarray
    r: int


def compact_svd(F: np.ndarray, rank_tol: float | None = None) -> CompactSvd:
    """Compact SVD keeping only singular values above the rank threshold.

    Parameters
    ----------
    F : ndarray of shape (n, k)
        Real matrix with finite entries.
    rank_tol : float, optional
        Relative threshold; a singular value is retained when it exceeds
        ``rank_tol * max(n, k) * sigma_max``. Defaults to machine epsilon,
        the standard numerical-rank convention.

    Returns
    -------
    CompactSvd
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] < 1 or F.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError("matrix has non-finite entries")
    if rank_tol is None:
        rank_tol = float(np.finfo(F.dtype).eps)
    U, d, Vt = np.linalg.svd(F, full_matrices=False)
    smax = d[0] if d.size else 0.0
    thresh = rank_tol * max(F.shape) * smax
    r = int(np.count_nonzero(d > thresh))
    U, d, V = U[:, :r], d[:r], Vt[:r].T
    # Sign convention: largest-magnitude entry of each right singular vector
    # is positive, so factors do not depend on the underlying LAPACK build.
    for j in range(r):
        lead = np.argmax(np.abs(V[:, j]))
        if V[lead, j] < 0.0:
            V[:, j] = -V[:, j]
            U[:, j] = -U[:, j]
    return CompactSvd(U=U, d=d, V=V, r=r)


def psd_project(S: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix.

    Symmetrizes the input, then clips negative eigenvalues to exactly zero.
    Already-PSD symmetric input is returned unchanged.
    """
    S = np.asarray(S, dtype=float)
    H = (S + S.T) / 2.0
    w, Q = np.linalg.eigh(H)
    if w.size == 0 or w[0] >= 0.0:
        return H
    w = np.where(w < 0.0, 0.0, w)
    P = (Q * w) @ Q.T
    return (P + P.T) / 2.0


class SymBasis:
    """Coordinates for symmetric q x q matrices.

    ``svec_scaled``/``smat_scaled`` pack and unpack the upper triangle
    (row-major) with off-diagonal coordinates multiplied by sqrt(2), giving
    an orthonormal basis in which self-adjoint operators have symmetric
    reduced matrices.
    """

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("q must be >= 1")
        self.q = int(q)
        self.dim = self.q * (self.q + 1) // 2
        self._rows, self._cols = np.triu_indices(self.q)
        self._scale = np.where(self._rows == self._cols, 1.0, _SQRT2)

    def svec_scaled(self, S: np.ndarray) -> np.ndarray:
        S = np.asarray(S, dtype=float)
        return S[self._rows, self._cols] * self._scale

    def smat_scaled(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,):
            raise ValueError(f"expected coordinate vector of length {self.dim}")
        s = s / self._scale
        S = np.zeros((self.q, self.q))
        S[self._rows, self._cols] = s
        S[self._cols, self._rows] = s
        return S

    def reduced_kron_self(self, A: np.ndarray) -> np.ndarray:
        """Matrix of ``S -> A @ S @ A`` (A symmetric) in scaled coordinates.

        Entry ((i,j),(k,l)) is ``<B_ij, A B_kl A>`` for the orthonormal basis
        ``B_ii = E_ii``, ``B_ij = (E_ij + E_ji)/sqrt(2)``; assembled without
        materializing the q^2 x q^2 Kronecker product.
        """
        A = np.asarray(A, dtype=float)
        i, j = self._rows, self._cols
        raw = (
            A[np.ix_(i, i)] * A[np.ix_(j, j)]
            + A[np.ix_(i, j)] * A[np.ix_(j, i)]
        )
        f = np.where(i == j, 1.0 / _SQRT2, 1.0)
        return raw * np.outer(f, f)


class SymKronOperator:
    """Accumulated operator ``sum_i A_i (x) A_i`` on symmetric q x q matrices,
    materialized only in the reduced q(q+1)/2 coordinate system."""

    def __init__(self, q: int):
        self.basis = SymBasis(q)
        self.matrix = np.zeros((self.basis.dim, self.basis.dim))
        self._eig = None

    def add(self, A: np.ndarray) -> None:
        self.matrix += self.basis.reduced_kron_self(A)
        self._eig = None

    def _eigh(self):
        if self._eig is None:
            self._eig = np.linalg.eigh((self.matrix + self.matrix.T) / 2.0)
        return self._eig

    @property
    def min_eig(self) -> float:
        w, _ = self._eigh()
        return float(w[0])

    def solve(self, rhs: np.ndarray, eps_sing: float = 1e-12) -> np.ndarray:
        """Solve ``sum_i A_i S A_i = rhs`` for symmetric S."""
        w, Q = self._eigh()
        amax = float(np.max(np.abs(w))) if w.size else 0.0
        amin = float(np.min(np.abs(w))) if w.size else 0.0
        if amax <= 0.0 or amin <= eps_sing * amax:
            raise SingularOmega2Error(
                "reduced symmetric-space operator is numerically singular "
                f"(|eig| range [{amin:.3e}, {amax:.3e}]); the random-effect "
                "design does not identify all covariance components"
            )
        b = self.basis.svec_scaled(np.asarray(rhs, dtype=float))
        s = Q @ ((Q.T @ b) / w)
        return self.basis.smat_scaled(s)


def sym_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition; tiny negative
    eigenvalues from roundoff are clipped to zero."""
    S = np.asarray(S, dtype=float)
    w, Q = np.linalg.eigh((S + S.T) / 2.0)
    w = np.sqrt(np.where(w < 0.0, 0.0, w))
    return (Q * w) @ Q.T


def eigen_floor(S: np.ndarray, floor: float) -> np.ndarray:
    """Raise eigenvalues of a symmetric matrix to at least ``floor``."""
    S = np.asarray(S, dtype=float)
    w, Q = np.linalg.eigh((S + S.T) / 2.0)
    w = np.where(w < floor, floor, w)
    return (Q * w) @ Q.T
