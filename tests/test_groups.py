"""Group-reduction checks: the SVD frame, rotated estimates, precision,
dispersion pooling, and deterministic parallel collection.

One-way quantities are frozen from a hand SVD: F = [1 1] has singular value
sqrt(2n), right vectors (1,1)/sqrt(2), so theta_rot = ybar/sqrt(2) and the
precision is the scalar 2n.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import expit

from hiermoment.data import GroupedDataset
from hiermoment.errors import DispersionError
from hiermoment.families import BINOMIAL_LOGIT, GAUSSIAN
from hiermoment.groups import (
    GroupSummary,
    build_summary_set,
    pool_dispersion,
    summarize_group,
)

SQRT2 = math.sqrt(2.0)


def _make_summary(n, r, dispersion):
    """Stub summary carrying only the fields pooling reads."""
    return GroupSummary(
        group_id=0, n=n, r=r, V1=np.zeros((1, r)), V2=np.zeros((1, r)),
        theta_rot=np.zeros(r), precision=np.eye(r), dispersion=dispersion,
    )


class TestSummarizeGroup:
    def test_one_way_frame(self):
        n = 4
        y = np.array([1.0, 3.0, 2.0, 2.0])  # ybar = 2
        ones = np.ones((n, 1))
        s = summarize_group(y, ones, ones, GAUSSIAN)
        assert s.r == 1
        np.testing.assert_allclose(s.V1, [[1 / SQRT2]], rtol=1e-14)
        np.testing.assert_allclose(s.V2, [[1 / SQRT2]], rtol=1e-14)
        np.testing.assert_allclose(s.precision, [[2.0 * n]], rtol=1e-12)
        np.testing.assert_allclose(s.theta_rot, [2.0 / SQRT2], rtol=1e-12)

    def test_orthogonal_columns_ols_oracle(self):
        # X and Z orthogonal, so the full-space coefficient separates:
        # intercept = mean = 2, slope = Z.y / Z.Z = -1.
        X = np.ones((3, 1))
        Z = np.array([[1.0], [0.0], [-1.0]])
        y = np.array([1.0, 2.0, 3.0])
        s = summarize_group(y, X, Z, GAUSSIAN)
        assert s.r == 2
        theta_full = np.vstack([s.V1, s.V2]) @ s.theta_rot
        np.testing.assert_allclose(theta_full, [2.0, -1.0], atol=1e-12)

    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(9, 2))
        Z = rng.normal(size=(9, 2))
        eta = np.array([0.5, -1.0, 2.0, 0.25])
        y = np.hstack([X, Z]) @ eta
        s = summarize_group(y, X, Z, GAUSSIAN)
        V = np.vstack([s.V1, s.V2])
        np.testing.assert_allclose(s.theta_rot, V.T @ eta, atol=1e-10)
        assert s.dispersion == pytest.approx(0.0, abs=1e-20)

    def test_block_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            X = rng.normal(size=(n, 2))
            Z = rng.normal(size=(n, 3))
            s = summarize_group(rng.normal(size=n), X, Z, GAUSSIAN)
            gram = s.V1.T @ s.V1 + s.V2.T @ s.V2
            np.testing.assert_allclose(gram, np.eye(s.r), atol=1e-10)
            assert s.r <= min(n, 5)

    def test_span_constraint_rank_degenerate(self):
        """With X = Z the design has a null space; the reconstructed
        coefficient must have no component in it."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        s = summarize_group(y, X, X, GAUSSIAN)
        assert s.r == 2
        theta_full = np.vstack([s.V1, s.V2]) @ s.theta_rot
        F = np.hstack([X, X])
        _, _, Vt = np.linalg.svd(F)
        null_basis = Vt[s.r:]
        np.testing.assert_allclose(null_basis @ theta_full, 0.0, atol=1e-10)

    def test_binomial_uses_plugin_precision(self):
        rng = np.random.default_rng(13)
        X = np.ones((30, 1))
        Z = rng.normal(size=(30, 1))
        y = (rng.random(30) < expit(0.3 * Z[:, 0])).astype(float)
        s = summarize_group(y, X, Z, BINOMIAL_LOGIT)
        assert s.dispersion is None
        w = np.linalg.eigvalsh(s.precision)
        assert w[0] > 0
        # not the gaussian diagonal: weights mu(1-mu) enter
        assert s.precision.shape == (s.r, s.r)

    def test_conditional_moments(self):
        """For a fixed gaussian group, E(theta_rot | u) = V1'beta + V2'u and
        cov = phi * inv(precision); checked to 4 Monte Carlo SEs."""
        rng = np.random.default_rng(17)
        n, p, q = 12, 2, 2
        X = rng.normal(size=(n, p))
        Z = rng.normal(size=(n, q))
        beta = np.array([1.0, -0.5])
        u = np.array([0.3, 0.8])
        phi = 1.44
        eta = X @ beta + Z @ u
        reps = 2000
        draws = np.empty((reps, 4))
        s0 = summarize_group(eta, X, Z, GAUSSIAN)
        for k in range(reps):
            y = eta + math.sqrt(phi) * rng.normal(size=n)
            s = summarize_group(y, X, Z, GAUSSIAN)
            draws[k] = s.theta_rot
        target_mean = s0.V1.T @ beta + s0.V2.T @ u
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - target_mean) < 4 * se)

        target_cov = phi * np.linalg.inv(s0.precision)
        centered = draws - mean
        prods = centered[:, :, None] * centered[:, None, :]
        cov = prods.mean(axis=0) * reps / (reps - 1)
        cov_se = prods.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(cov - target_cov) < 4 * cov_se)


class TestPoolDispersion:
    def test_known_dispersion_constant(self):
        assert pool_dispersion([], BINOMIAL_LOGIT) == 1.0

    def test_weighted_average(self):
        # df (3, 5) and phi (2, 1): (3*2 + 5*1) / 8 = 11/8
        s1 = _make_summary(n=4, r=1, dispersion=2.0)
        s2 = _make_summary(n=6, r=1, dispersion=1.0)
        assert pool_dispersion([s1, s2], GAUSSIAN) == pytest.approx(11.0 / 8.0)

    def test_zero_residuals(self):
        s = _make_summary(n=5, r=1, dispersion=0.0)
        assert pool_dispersion([s], GAUSSIAN) == 0.0

    def test_saturated_groups_ignored(self):
        s1 = _make_summary(n=3, r=3, dispersion=None)
        s2 = _make_summary(n=5, r=2, dispersion=1.5)
        assert pool_dispersion([s1, s2], GAUSSIAN) == pytest.approx(1.5)

    def test_no_degrees_of_freedom(self):
        with pytest.raises(DispersionError):
            pool_dispersion([_make_summary(n=2, r=2, dispersion=None)], GAUSSIAN)


def _random_dataset(rng, M=12, p=2, q=2, family=GAUSSIAN):
    ys, Xs, Zs, ids = [], [], [], []
    for i in range(M):
        n = int(rng.integers(3, 10))
        X = rng.normal(size=(n, p))
        Z = rng.normal(size=(n, q))
        eta = X @ np.array([0.5, -1.0]) + Z @ (0.4 * rng.normal(size=q))
        if family.name == "gaussian":
            y = eta + rng.normal(size=n)
        else:
            y = (rng.random(n) < expit(eta)).astype(float)
        ys.append(y)
        Xs.append(X)
        Zs.append(Z)
        ids.extend([i] * n)
    return np.concatenate(ys), np.vstack(Xs), np.vstack(Zs), np.array(ids)


def _assert_same_set(a, b):
    assert a.pooled_dispersion == b.pooled_dispersion
    assert a.rho == b.rho
    assert a.skipped == b.skipped
    for sa, sb in zip(a.summaries, b.summaries):
        assert sa.group_id == sb.group_id
        assert np.array_equal(sa.theta_rot, sb.theta_rot)
        assert np.array_equal(sa.V1, sb.V1)
        assert np.array_equal(sa.V2, sb.V2)
        assert np.array_equal(sa.precision, sb.precision)


class TestBuildSummarySet:
    def test_single_group(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(6, 2))
        ds = GroupedDataset.from_long(rng.normal(size=6), X, X[:, :1], [0] * 6)
        sset = build_summary_set(ds, GAUSSIAN)
        assert len(sset.summaries) == 1
        assert sset.rho == sset.summaries[0].r
        assert sset.n_obs == 6

    def test_bookkeeping(self):
        rng = np.random.default_rng(23)
        y, X, Z, ids = _random_dataset(rng)
        sset = build_summary_set(GroupedDataset.from_long(y, X, Z, ids), GAUSSIAN)
        assert sset.n_obs == y.shape[0]
        assert sset.rho <= sset.n_obs
        assert [s.group_id for s in sset.summaries] == sorted(
            s.group_id for s in sset.summaries
        )

    def test_duplicated_group_adds_summary(self):
        rng = np.random.default_rng(29)
        y, X, Z, ids = _random_dataset(rng, M=5)
        sset1 = build_summary_set(GroupedDataset.from_long(y, X, Z, ids), GAUSSIAN)
        mask = ids == 0
        y2 = np.concatenate([y, y[mask]])
        X2 = np.vstack([X, X[mask]])
        Z2 = np.vstack([Z, Z[mask]])
        ids2 = np.concatenate([ids, np.full(mask.sum(), 99)])
        sset2 = build_summary_set(GroupedDataset.from_long(y2, X2, Z2, ids2),
                                  GAUSSIAN)
        assert len(sset2.summaries) == len(sset1.summaries) + 1
        np.testing.assert_array_equal(sset2.summaries[-1].theta_rot,
                                      sset1.summaries[0].theta_rot)

    def test_zero_design_group_skipped(self):
        y = np.array([1.0, 2.0, 0.7, 1.5, 0.5, 3.0, 1.2])
        X = np.array([[1.0], [1.0], [1.0], [0.0], [1.0], [1.0], [1.0]])
        Z = np.array([[0.5], [-0.5], [0.3], [0.0], [1.0], [0.2], [-0.8]])
        ids = np.array([0, 0, 0, 1, 2, 2, 2])  # group 1 has an all-zero design
        sset = build_summary_set(GroupedDataset.from_long(y, X, Z, ids), GAUSSIAN)
        assert len(sset.summaries) == 2
        assert len(sset.skipped) == 1
        assert sset.skipped[0][0] == 1
        assert "rank 0" in sset.skipped[0][1]

    def test_input_block_order_invariance(self):
        """Groups presented in a different long-format order give bitwise
        identical summaries (rows within each group keep their order)."""
        rng = np.random.default_rng(37)
        y, X, Z, ids = _random_dataset(rng, M=8)
        order = np.argsort(ids % 3, kind="stable")  # interleave group blocks
        a = build_summary_set(GroupedDataset.from_long(y, X, Z, ids), GAUSSIAN)
        b = build_summary_set(
            GroupedDataset.from_long(y[order], X[order], Z[order], ids[order]),
            GAUSSIAN,
        )
        _assert_same_set(a, b)

    def test_binomial_pooled_dispersion_is_one(self):
        rng = np.random.default_rng(41)
        y, X, Z, ids = _random_dataset(rng, family=BINOMIAL_LOGIT)
        sset = build_summary_set(GroupedDataset.from_long(y, X, Z, ids),
                                 BINOMIAL_LOGIT)
        assert sset.pooled_dispersion == 1.0
