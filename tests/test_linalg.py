"""Kernel-level checks: compact SVD, PSD projection, the symmetric coordinate
basis, and solves of sum-of-Kronecker-square operators in reduced coordinates.

Expected values are either worked out by hand (2x2 cases) or checked against
a dense reference built independently inside the test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hiermoment.errors import SingularOmega2Error
from hiermoment.linalg import (
    SymBasis,
    SymKronOperator,
    compact_svd,
    eigen_floor,
    psd_project,
    sym_sqrt,
)

SQRT2 = math.sqrt(2.0)


def _dense_sym_basis(q):
    """Orthonormal basis of symmetric q x q matrices, upper triangle order."""
    rows, cols = np.triu_indices(q)
    mats = []
    for i, j in zip(rows, cols):
        B = np.zeros((q, q))
        if i == j:
            B[i, i] = 1.0
        else:
            B[i, j] = B[j, i] = 1.0 / SQRT2
        mats.append(B)
    return mats


class TestCompactSvd:
    def test_rank_one_ones_matrix(self):
        # [[1,1],[1,1]] = 2 * (1,1)/sqrt(2) (x) (1,1)/sqrt(2)
        svd = compact_svd(np.ones((2, 2)))
        assert svd.r == 1
        np.testing.assert_allclose(svd.d, [2.0], rtol=1e-14)
        np.testing.assert_allclose(svd.U[:, 0], [1 / SQRT2, 1 / SQRT2], rtol=1e-14)
        np.testing.assert_allclose(svd.V[:, 0], [1 / SQRT2, 1 / SQRT2], rtol=1e-14)

    def test_diagonal(self):
        svd = compact_svd(np.diag([3.0, 0.0]))
        assert svd.r == 1
        np.testing.assert_allclose(svd.d, [3.0])
        np.testing.assert_allclose(np.abs(svd.V[:, 0]), [1.0, 0.0], atol=1e-15)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        for n, k in [(10, 3), (5, 5), (3, 7)]:
            F = rng.normal(size=(n, k))
            svd = compact_svd(F)
            assert svd.r == min(n, k)
            recon = svd.U @ np.diag(svd.d) @ svd.V.T
            np.testing.assert_allclose(recon, F, atol=1e-10 * svd.d[0])
            np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(svd.r), atol=1e-12)
            np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(svd.r), atol=1e-12)

    def test_duplicate_column_drops_rank(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
        svd = compact_svd(np.hstack([a, a, b]))
        assert svd.r == 2

    def test_rank_tol_drops_small_values(self):
        F = np.diag([1.0, 1e-9])
        assert compact_svd(F).r == 2
        assert compact_svd(F, rank_tol=1e-6).r == 1

    def test_sign_convention_positive_lead(self):
        rng = np.random.default_rng(11)
        svd = compact_svd(rng.normal(size=(6, 4)))
        for j in range(svd.r):
            lead = np.argmax(np.abs(svd.V[:, j]))
            assert svd.V[lead, j] > 0

    def test_deterministic_across_copies(self):
        rng = np.random.default_rng(1)
        F = rng.normal(size=(9, 4))
        a = compact_svd(F)
        b = compact_svd(F.copy(order="F"))
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.V, b.V)

    def test_zero_matrix_rank_zero(self):
        svd = compact_svd(np.zeros((3, 2)))
        assert svd.r == 0
        assert svd.d.shape == (0,)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compact_svd(np.array([[1.0, np.nan]]))


class TestPsdProject:
    def test_indefinite_2x2(self):
        # [[0,1],[1,0]] has eigenpairs (+1, (1,1)/sqrt2), (-1, (1,-1)/sqrt2);
        # dropping the negative one leaves 0.5 * ones.
        P = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(P, np.full((2, 2), 0.5), atol=1e-14)

    def test_negative_diagonal_clipped(self):
        P = psd_project(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(P, np.diag([2.0, 0.0]), atol=1e-14)

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4))
        S = A @ A.T
        assert np.array_equal(psd_project(S), S)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        S = rng.normal(size=(5, 5))
        S = (S + S.T) / 2
        P = psd_project(S)
        np.testing.assert_allclose(psd_project(P), P, atol=1e-12)

    def test_result_is_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            S = rng.normal(size=(4, 4))
            P = psd_project((S + S.T) / 2)
            assert np.linalg.eigvalsh(P)[0] >= -1e-12

    def test_frobenius_nearest(self):
        """No PSD competitor built from the same eigenvectors gets closer."""
        rng = np.random.default_rng(13)
        S = rng.normal(size=(4, 4))
        S = (S + S.T) / 2
        P = psd_project(S)
        base = np.linalg.norm(S - P)
        w, Q = np.linalg.eigh(S)
        for _ in range(50):
            wc = np.where(w < 0, rng.uniform(0, 1, size=w.shape), w)
            C = (Q * wc) @ Q.T
            assert np.linalg.norm(S - C) >= base - 1e-12


class TestSymBasis:
    def test_scaled_coordinates(self):
        basis = SymBasis(2)
        S = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(
            basis.svec_scaled(S), [1.0, 2.0 * SQRT2, 3.0], rtol=1e-15
        )
        np.testing.assert_allclose(basis.smat_scaled(basis.svec_scaled(S)), S,
                                   rtol=1e-15)

    def test_scaled_coordinates_preserve_inner_product(self):
        rng = np.random.default_rng(23)
        basis = SymBasis(3)
        S = rng.normal(size=(3, 3))
        S = S + S.T
        T = rng.normal(size=(3, 3))
        T = T + T.T
        lhs = basis.svec_scaled(S) @ basis.svec_scaled(T)
        np.testing.assert_allclose(lhs, np.trace(S @ T), rtol=1e-12)

    def test_reduced_kron_identity(self):
        basis = SymBasis(3)
        np.testing.assert_allclose(
            basis.reduced_kron_self(np.eye(3)), np.eye(basis.dim), atol=1e-15
        )

    def test_reduced_kron_matches_dense_reference(self):
        rng = np.random.default_rng(29)
        for q in [2, 3, 4]:
            basis = SymBasis(q)
            A = rng.normal(size=(q, q))
            A = (A + A.T) / 2
            R = basis.reduced_kron_self(A)
            mats = _dense_sym_basis(q)
            ref = np.array(
                [[np.trace(Ba @ A @ Bb @ A) for Bb in mats] for Ba in mats]
            )
            np.testing.assert_allclose(R, ref, atol=1e-12)


def _operator(terms):
    op = SymKronOperator(terms[0].shape[0])
    for A in terms:
        op.add(A)
    return op


class TestSymKronSolve:
    def test_identity_operator(self):
        rng = np.random.default_rng(31)
        R = rng.normal(size=(3, 3))
        R = R + R.T
        # the direct sum I S I is S itself
        S = _operator([np.eye(3)]).solve(R)
        np.testing.assert_allclose(S, R, atol=1e-12)

    def test_two_term_hand_case(self):
        # terms I and diag(1,0); with rhs = I the (1,1) entry is hit twice:
        # 2 s11 = 1, s22 = 1, s12 = 0.
        terms = [np.eye(2), np.diag([1.0, 0.0])]
        S = _operator(terms).solve(np.eye(2))
        np.testing.assert_allclose(S, np.diag([0.5, 1.0]), atol=1e-14)
        direct = sum(A @ S @ A for A in terms)
        np.testing.assert_allclose(direct, np.eye(2), atol=1e-14)

    def test_solve_then_apply(self):
        rng = np.random.default_rng(37)
        q = 4
        terms = []
        for _ in range(5):
            A = rng.normal(size=(q, q))
            terms.append(A @ A.T + 0.1 * np.eye(q))
        R = rng.normal(size=(q, q))
        R = R + R.T
        S = _operator(terms).solve(R)
        np.testing.assert_allclose(S, S.T, atol=1e-12)
        direct = sum(A @ S @ A for A in terms)
        np.testing.assert_allclose(direct, R, atol=1e-8 * np.abs(R).max())

    def test_apply_matches_direct_sum(self):
        """The reduced matrix applied in scaled coordinates is the operator."""
        rng = np.random.default_rng(41)
        q = 3
        terms = []
        for _ in range(3):
            A = rng.normal(size=(q, q))
            terms.append((A + A.T) / 2)
        op = _operator(terms)
        S = rng.normal(size=(q, q))
        S = S + S.T
        applied = op.basis.smat_scaled(op.matrix @ op.basis.svec_scaled(S))
        direct = sum(A @ S @ A for A in terms)
        np.testing.assert_allclose(applied, direct, atol=1e-12)

    def test_matches_full_kronecker(self):
        """The reduced solve agrees with the explicit q^2 x q^2 system."""
        rng = np.random.default_rng(43)
        q = 3
        terms = []
        K = np.zeros((q * q, q * q))
        for _ in range(4):
            A = rng.normal(size=(q, q))
            A = A @ A.T + 0.05 * np.eye(q)
            terms.append(A)
            K += np.kron(A, A)
        R = rng.normal(size=(q, q))
        R = R + R.T
        S = _operator(terms).solve(R)
        full = np.linalg.solve(K, R.ravel()).reshape(q, q)
        np.testing.assert_allclose(S, full, atol=1e-10)

    def test_min_eig_matches_dense(self):
        rng = np.random.default_rng(47)
        q = 3
        op = SymKronOperator(q)
        A = rng.normal(size=(q, q))
        A = A @ A.T
        op.add(A)
        # eigenvalues of A (x) A restricted to symmetric space are products
        # of the eigenvalues of A
        w = np.linalg.eigvalsh(A)
        prods = sorted(w[i] * w[j] for i in range(q) for j in range(i, q))
        np.testing.assert_allclose(op.min_eig, prods[0], rtol=1e-10)

    def test_singular_operator_raises(self):
        with pytest.raises(SingularOmega2Error):
            _operator([np.diag([1.0, 0.0])]).solve(np.eye(2))


class TestSqrtAndFloor:
    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(
            sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(53)
        A = rng.normal(size=(4, 4))
        S = A @ A.T
        R = sym_sqrt(S)
        np.testing.assert_allclose(R @ R, S, atol=1e-10)
        np.testing.assert_allclose(R, R.T, atol=1e-14)

    def test_floor_raises_low_eigenvalues(self):
        F = eigen_floor(np.diag([-1.0, 2.0]), 0.5)
        np.testing.assert_allclose(F, np.diag([0.5, 2.0]), atol=1e-14)

    def test_floor_keeps_high_eigenvalues(self):
        rng = np.random.default_rng(59)
        A = rng.normal(size=(3, 3))
        S = A @ A.T + 2.0 * np.eye(3)
        np.testing.assert_allclose(eigen_floor(S, 1e-8), S, atol=1e-12)
