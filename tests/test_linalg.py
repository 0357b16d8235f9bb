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
    rotated_design,
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


def _ref_rank(F, rank_tol=np.finfo(float).eps):
    """Numerical rank by the rule of compact_svd, from a direct SVD."""
    s = np.linalg.svd(F, compute_uv=False)
    return int(np.count_nonzero(s > rank_tol * max(F.shape) * s[0])) \
        if s.size else 0


def _awkward_design(rng, n, p=3, q=3):
    """An (n, p + q) design of +-1 or normal entries with the defects group
    designs meet: shared columns, shared intercepts, scaled linear
    combinations, column scales of 1e-8 and 1e8, and zero columns."""
    k = p + q
    F = rng.choice([-1.0, 1.0], size=(n, k)) if rng.random() < 0.5 \
        else rng.normal(size=(n, k))
    for _ in range(int(rng.integers(0, 4))):
        i, j, m = rng.choice(k, size=3, replace=False)
        kind = rng.integers(5)
        if kind == 0:                                   # shared column
            F[:, j] = F[:, i]
        elif kind == 1:                                 # shared intercepts
            F[:, 0] = F[:, p] = 1.0
        elif kind == 2:                                 # scaled combination
            a, b = 10.0 ** rng.uniform(-3, 3, size=2)
            F[:, j] = a * F[:, i] - b * F[:, m]
        elif kind == 3:                                 # extreme scale
            F[:, j] *= 10.0 ** rng.choice([-8, 8])
        else:                                           # zero column
            F[:, j] = 0.0
    return F


class TestCompactSvd:
    def test_rank_one_ones_matrix(self):
        # [[1,1],[1,1]] = 2 * (1,1)/sqrt(2) (x) (1,1)/sqrt(2), so for
        # y = (1, 3): c = U'y = 4/sqrt(2) and the residual is (-1, 1).
        svd = compact_svd(np.ones((2, 2)), np.array([1.0, 3.0]))
        assert svd.r == 1
        np.testing.assert_allclose(svd.d, [2.0], rtol=1e-14)
        np.testing.assert_allclose(svd.V[:, 0], [1 / SQRT2, 1 / SQRT2], rtol=1e-14)
        np.testing.assert_allclose(svd.c, [4.0 / SQRT2], rtol=1e-14)
        assert svd.rss == pytest.approx(2.0, rel=1e-14)

    def test_diagonal(self):
        svd = compact_svd(np.diag([3.0, 0.0]), np.array([1.0, 2.0]))
        assert svd.r == 1
        np.testing.assert_allclose(svd.d, [3.0])
        np.testing.assert_allclose(np.abs(svd.V[:, 0]), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(svd.c, [1.0], rtol=1e-15)
        assert svd.rss == pytest.approx(4.0, rel=1e-15)

    def test_reconstruction_and_orthonormality(self):
        """``F V`` has orthogonal columns of norms d and spans F's rows, V
        is orthonormal, and c and rss are those of ``U = F V / d``."""
        rng = np.random.default_rng(42)
        for n, k in [(10, 3), (5, 5), (3, 7)]:
            F, y = rng.normal(size=(n, k)), rng.normal(size=n)
            svd = compact_svd(F, y)
            assert svd.r == min(n, k)
            FV = F @ svd.V
            np.testing.assert_allclose(FV.T @ FV, np.diag(svd.d ** 2),
                                       rtol=0, atol=1e-12 * svd.d[0] ** 2)
            np.testing.assert_allclose(FV @ svd.V.T, F, atol=1e-10 * svd.d[0])
            np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(svd.r), atol=1e-12)
            U = FV / svd.d
            np.testing.assert_allclose(svd.c, U.T @ y, rtol=0, atol=1e-12)
            assert svd.rss == pytest.approx(np.sum((y - U @ svd.c) ** 2),
                                            rel=1e-10, abs=1e-24)

    def test_duplicate_column_drops_rank(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
        svd = compact_svd(np.hstack([a, a, b]), rng.normal(size=8))
        assert svd.r == 2

    def test_rank_tol_drops_small_values(self):
        F, y = np.diag([1.0, 1e-9]), np.ones(2)
        assert compact_svd(F, y).r == 2
        assert compact_svd(F, y, rank_tol=1e-6).r == 1

    def test_sign_convention_positive_lead(self):
        rng = np.random.default_rng(11)
        svd = compact_svd(rng.normal(size=(6, 4)), rng.normal(size=6))
        for j in range(svd.r):
            lead = np.argmax(np.abs(svd.V[:, j]))
            assert svd.V[lead, j] > 0

    def test_deterministic_across_copies(self):
        rng = np.random.default_rng(1)
        F, y = rng.normal(size=(9, 4)), rng.normal(size=9)
        a = compact_svd(F, y)
        b = compact_svd(F.copy(order="F"), y.copy())
        c = compact_svd((F[:, :1], F[:, 1:]), y)  # blocks, no joined copy
        for other in (b, c):
            assert np.array_equal(a.d, other.d)
            assert np.array_equal(a.V, other.V)
            assert np.array_equal(a.c, other.c)
            assert a.rss == other.rss

    def test_zero_matrix_rank_zero(self):
        y = np.array([1.0, -2.0, 2.0])
        svd = compact_svd(np.zeros((3, 2)), y)
        assert svd.r == 0
        assert svd.d.shape == svd.c.shape == (0,)
        assert svd.rss == pytest.approx(9.0, rel=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compact_svd(np.array([[1.0, np.nan]]), np.ones(1))
        with pytest.raises(ValueError):
            compact_svd(np.array([[1.0, 2.0]]), np.array([np.inf]))

    def test_stacked_bitwise_equal_to_one_matrix_calls(self):
        """Row blocks of every awkward shape, reduced in one stacked call,
        give bitwise the results of one-matrix calls, zero-padded to k
        directions; each one-matrix call's singular values agree with
        LAPACK's on the block alone."""
        rng = np.random.default_rng(23)
        k = 4
        H = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                      [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
        a = rng.normal(size=(7, 2))
        blocks = [
            rng.normal(size=(1, k)),                    # singleton
            rng.normal(size=(1, k)),
            rng.normal(size=(3, k)),                    # n < k
            rng.normal(size=(k, k)),                    # n = k
            H,                                          # d = (2, 2, 2, 2)
            np.vstack([H, -H]),                         # +-1, repeated d
            np.hstack([a, a[:, :1], rng.normal(size=(7, 1))]),  # r = 3
            np.zeros((5, k)),                           # r = 0
        ]
        # One bucket longer than a batched call: 9 * 5 entries per block.
        blocks += list(rng.normal(size=(2 ** 16 // 45 + 50, 9, k)))
        order = rng.permutation(len(blocks))
        blocks = [blocks[i] for i in order]
        sizes = np.array([b.shape[0] for b in blocks])
        starts = np.cumsum(sizes) - sizes
        y = rng.normal(size=sizes.sum())
        st = compact_svd(np.vstack(blocks), y, starts=starts)
        assert sorted(st.r[np.argsort(order)][:8]) == [0, 1, 1, 3, 3, 4, 4, 4]
        assert st.V.flags.c_contiguous
        for i, (b, lo) in enumerate(zip(blocks, starts)):
            one = compact_svd(b, y[lo:lo + b.shape[0]])
            r = one.r
            assert st.r[i] == r
            s = np.linalg.svd(b, compute_uv=False)
            np.testing.assert_allclose(one.d, s[:r], rtol=0,
                                       atol=1e-14 * s[0])
            assert np.array_equal(st.d[i, :r], one.d)
            assert np.array_equal(st.V[i, :, :r], one.V)
            assert np.array_equal(st.c[i, :r], one.c)
            assert st.rss[i] == one.rss
            assert not st.d[i, r:].any() and not st.V[i, :, r:].any()
            assert not st.c[i, r:].any()

    def test_ranks_match_direct_svd_under_stress(self):
        """3,000 groups of 1 to 60 rows with aliased, rescaled and zero
        columns: every rank equals that of a direct SVD of the group."""
        rng = np.random.default_rng(101)
        Fs = [_awkward_design(rng, int(n))
              for n in rng.integers(1, 61, size=3000)]
        sizes = np.array([len(F) for F in Fs])
        svd = compact_svd(np.vstack(Fs), rng.normal(size=sizes.sum()),
                          starts=np.cumsum(sizes) - sizes)
        ref = [_ref_rank(F) for F in Fs]
        assert svd.r.tolist() == ref
        assert 0 < min(ref) and min(ref) < max(ref)

    @pytest.mark.parametrize("noise", [1.0, 0.0])
    def test_least_squares_against_lstsq(self, noise):
        """c, the fitted values of ``theta = c / d`` and the residual sum of
        squares agree with a per-group ``np.linalg.lstsq`` at the same rank
        cutoff, noiseless groups too."""
        rng = np.random.default_rng(103 + int(noise))
        Fs = [_awkward_design(rng, int(n))
              for n in rng.integers(1, 61, size=600)]
        Fs = [F for F in Fs if _ref_rank(F) > 0]
        ys = [F @ rng.normal(size=F.shape[1]) + noise * rng.normal(size=len(F))
              for F in Fs]
        sizes = np.array([len(F) for F in Fs])
        starts = np.cumsum(sizes) - sizes
        svd = compact_svd(np.vstack(Fs), np.concatenate(ys), starts=starts)
        eps = np.finfo(float).eps
        for i, (F, y) in enumerate(zip(Fs, ys)):
            r, ynorm = svd.r[i], np.linalg.norm(y)
            d, V, c = svd.d[i, :r], svd.V[i, :, :r], svd.c[i, :r]
            # The fit's directions, and so c, are determined to about
            # eps d[0] / d[r - 1]; so are those of the reference.
            tol = 1e-12 * ynorm * d[0] / d[-1]
            np.testing.assert_allclose(c, (F @ V / d).T @ y, rtol=0, atol=tol)
            coef, *_ = np.linalg.lstsq(F, y, rcond=eps * max(F.shape))
            fitted = F @ coef
            np.testing.assert_allclose(F @ (V @ (c / d)), fitted, rtol=0,
                                       atol=tol)
            rss = np.sum((y - fitted) ** 2)
            assert abs(svd.rss[i] - rss) <= 4.0 * tol * ynorm
            if noise == 0.0:
                assert svd.rss[i] <= 1e-12 * ynorm ** 2

    def test_long_matrix_in_row_pieces(self):
        """A matrix longer than one gathered piece is reduced piece by
        piece and still gives the least-squares fit."""
        rng = np.random.default_rng(107)
        F = rng.normal(size=(40000, 5)) * [1.0, 1e3, 1e-3, 1.0, 1.0]
        y = F @ rng.normal(size=5) + rng.normal(size=40000)
        svd = compact_svd(F, y)
        beta, res, *_ = np.linalg.lstsq(F, y, rcond=None)
        s = np.linalg.svd(F, compute_uv=False)
        np.testing.assert_allclose(svd.d, s, rtol=0, atol=1e-13 * s[0])
        np.testing.assert_allclose(svd.V @ (svd.c / svd.d), beta, rtol=1e-10)
        assert svd.rss == pytest.approx(res[0], rel=1e-10)


class TestRotatedDesign:
    def test_each_group_times_its_v(self):
        rng = np.random.default_rng(109)
        sizes = np.array([3, 1, 3, 20000, 2])
        starts = np.cumsum(sizes) - sizes
        X, Z = rng.normal(size=(sizes.sum(), 2)), rng.normal(size=(sizes.sum(), 3))
        V = rng.normal(size=(sizes.size, 5, 5))
        keep = np.array([0, 2, 3, 4])
        F0 = rotated_design((X, Z), V[keep], starts[keep], sizes[keep])
        assert F0.shape == (sizes[keep].sum(), 5) and F0.flags.f_contiguous
        ref = np.vstack([np.hstack([X, Z])[starts[i]:starts[i] + sizes[i]]
                         @ V[i] for i in keep])
        np.testing.assert_allclose(F0, ref, rtol=1e-14, atol=1e-14)


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
    return SymKronOperator(np.array(terms))


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
        A = rng.normal(size=(q, q))
        A = A @ A.T
        op = SymKronOperator(A[None])
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
