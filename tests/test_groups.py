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

from hiermoment.combine import fit_moment
from hiermoment.data import GroupData, GroupedDataset
from hiermoment.ebayes import posterior_set
from hiermoment.errors import DispersionError
from hiermoment.families import BINOMIAL_LOGIT, GAUSSIAN
from hiermoment.groups import (
    SummarySet,
    build_summary_set,
    pool_dispersion,
    summarize_groups,
)
from hiermoment.simulate import gen_replicate

SQRT2 = math.sqrt(2.0)


def _one_summary(y, X, Z, family):
    """The summary of one group, through the stacked
    :func:`summarize_groups` on a one-group dataset."""
    dataset = GroupedDataset([GroupData(None, y, X, Z)], X.shape[1],
                             Z.shape[1])
    columns, skipped = summarize_groups(dataset, family)
    assert skipped == []
    return SummarySet._from_columns(
        **columns, p=dataset.p, q=dataset.q, pooled_dispersion=float("nan"),
        skipped=()).summaries[0]


class TestSummarizeGroup:
    def test_one_way_frame(self):
        n = 4
        y = np.array([1.0, 3.0, 2.0, 2.0])  # ybar = 2
        ones = np.ones((n, 1))
        s = _one_summary(y, ones, ones, GAUSSIAN)
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
        s = _one_summary(y, X, Z, GAUSSIAN)
        assert s.r == 2
        theta_full = np.vstack([s.V1, s.V2]) @ s.theta_rot
        np.testing.assert_allclose(theta_full, [2.0, -1.0], atol=1e-12)

    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(9, 2))
        Z = rng.normal(size=(9, 2))
        eta = np.array([0.5, -1.0, 2.0, 0.25])
        y = np.hstack([X, Z]) @ eta
        s = _one_summary(y, X, Z, GAUSSIAN)
        V = np.vstack([s.V1, s.V2])
        np.testing.assert_allclose(s.theta_rot, V.T @ eta, atol=1e-10)
        assert s.dispersion == pytest.approx(0.0, abs=1e-20)

    def test_block_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            X = rng.normal(size=(n, 2))
            Z = rng.normal(size=(n, 3))
            s = _one_summary(rng.normal(size=n), X, Z, GAUSSIAN)
            gram = s.V1.T @ s.V1 + s.V2.T @ s.V2
            np.testing.assert_allclose(gram, np.eye(s.r), atol=1e-10)
            assert s.r <= min(n, 5)

    def test_span_constraint_rank_degenerate(self):
        """With X = Z the design has a null space; the reconstructed
        coefficient must have no component in it."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        s = _one_summary(y, X, X, GAUSSIAN)
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
        s = _one_summary(y, X, Z, BINOMIAL_LOGIT)
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
        s0 = _one_summary(eta, X, Z, GAUSSIAN)
        for k in range(reps):
            y = eta + math.sqrt(phi) * rng.normal(size=n)
            s = _one_summary(y, X, Z, GAUSSIAN)
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


class TestDispersion:
    """A gaussian group's dispersion ``rss / (n - r)``, its residual sum of
    squares taken from the R-SVD of ``[X Z y]``."""

    def test_hand_case(self):
        # The one-way fit of y = (1, -1, 2): mean 2/3, residuals
        # (1/3, -5/3, 4/3), rss 42/9 on 2 degrees of freedom.
        ones = np.ones((3, 1))
        s = _one_summary(np.array([1.0, -1.0, 2.0]), ones, ones, GAUSSIAN)
        assert s.r == 1
        assert s.dispersion == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_no_residual_df_returns_none(self):
        """No residual degrees of freedom (n = r, here 2 and 1) gives no
        dispersion estimate."""
        for X, Z in [(np.eye(2)[:, :1], np.eye(2)[:, 1:]),
                     (np.ones((1, 1)), np.full((1, 1), 2.0))]:
            s = _one_summary(np.arange(1.0, len(X) + 1), X, Z, GAUSSIAN)
            assert s.r == len(X) and s.dispersion is None

    def test_gaussian_unbiased(self):
        """Mean dispersion over many groups is sigma^2 (within 3 SE)."""
        rng = np.random.default_rng(17)
        sigma2, M, n = 2.5, 2000, 10
        X, Z = rng.normal(size=(M * n, 1)), rng.normal(size=(M * n, 2))
        y = np.hstack([X, Z]) @ rng.normal(size=3) \
            + rng.normal(scale=math.sqrt(sigma2), size=M * n)
        ds = GroupedDataset.from_long(y, X, Z, np.repeat(np.arange(M), n))
        columns, _ = summarize_groups(ds, GAUSSIAN)
        assert np.all(columns["r"] == 3)
        vals = columns["dispersion"]
        se = vals.std(ddof=1) / math.sqrt(M)
        assert abs(vals.mean() - sigma2) < 3 * se


class TestPoolDispersion:
    """``pool_dispersion(n, r, dispersion, family)`` reads per-group arrays;
    NaN marks a group without a Pearson estimate."""

    def test_known_dispersion_constant(self):
        assert pool_dispersion([], [], [], BINOMIAL_LOGIT) == 1.0

    def test_weighted_average(self):
        # df (3, 5) and phi (2, 1): (3*2 + 5*1) / 8 = 11/8
        assert pool_dispersion([4, 6], [1, 1], [2.0, 1.0], GAUSSIAN) == \
            pytest.approx(11.0 / 8.0)

    def test_zero_residuals(self):
        assert pool_dispersion([5], [1], [0.0], GAUSSIAN) == 0.0

    def test_saturated_groups_ignored(self):
        assert pool_dispersion([3, 5], [3, 2], [np.nan, 1.5], GAUSSIAN) == \
            pytest.approx(1.5)

    def test_no_degrees_of_freedom(self):
        with pytest.raises(DispersionError):
            pool_dispersion([2], [2], [np.nan], GAUSSIAN)


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
        identical summaries and posteriors (rows within each group keep their
        order), for both families."""
        for family in (GAUSSIAN, BINOMIAL_LOGIT):
            rng = np.random.default_rng(37)
            y, X, Z, ids = _random_dataset(rng, M=8, family=family)
            order = np.argsort(ids % 3, kind="stable")  # interleave blocks
            ds_a = GroupedDataset.from_long(y, X, Z, ids)
            ds_b = GroupedDataset.from_long(y[order], X[order], Z[order],
                                            ids[order])
            _assert_same_set(build_summary_set(ds_a, family),
                             build_summary_set(ds_b, family))
            pa = posterior_set(fit_moment(ds_a, family))
            pb = posterior_set(fit_moment(ds_b, family))
            assert len(pa.ids) == 8
            assert pa.ids == pb.ids
            assert np.array_equal(pa.means, pb.means)
            assert np.array_equal(pa.covs, pb.covs)

    def test_logit_groups_all_summarized_at_score_zero(self):
        """No logit group is dropped by the solver, and each group's Firth
        score, recomputed from its raw rows at the fitted coefficient, is
        within the 1e-8 stopping rule, scaled by the column scale."""
        ds, _ = gen_replicate(2000, 40000, 3, 3, BINOMIAL_LOGIT, seed=1)
        fit = fit_moment(ds, BINOMIAL_LOGIT)
        assert fit.summary_set.skipped == ()
        assert len(fit.summary_set.summaries) == ds.n_groups
        rec = fit.scale_record
        scales = np.concatenate([rec.x_scale, rec.z_scale])
        raw = {g.group_id: g for g in ds.groups}
        for s in fit.summary_set.summaries:
            g = raw[s.group_id]
            F = np.hstack([g.X, g.Z])
            mu = expit(F @ ((np.vstack([s.V1, s.V2]) @ s.theta_rot) / scales))
            w = np.clip(mu * (1.0 - mu), 1e-10, None)
            U = np.linalg.svd(F * np.sqrt(w)[:, None], full_matrices=False)[0]
            h = np.sum(U[:, :s.r] ** 2, axis=1)
            score = F.T @ (g.y - mu + h * (0.5 - mu))
            assert np.linalg.norm(score) <= 1e-8 * scales.max(), s.group_id

    def test_binomial_pooled_dispersion_is_one(self):
        rng = np.random.default_rng(41)
        y, X, Z, ids = _random_dataset(rng, family=BINOMIAL_LOGIT)
        sset = build_summary_set(GroupedDataset.from_long(y, X, Z, ids),
                                 BINOMIAL_LOGIT)
        assert sset.pooled_dispersion == 1.0


def _odd_groups(rng, family=GAUSSIAN):
    """Groups with p = q = 2 that exercise every rank case: a singleton,
    n < k, aliased columns, constant columns, an all-zero design (id 4) and
    ordinary full-rank groups."""
    blocks = {}
    X, Z = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    blocks[0] = (X, Z)                                  # singleton, r = 1
    blocks[1] = (rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))  # n < k
    X = rng.normal(size=(8, 2))
    blocks[2] = (X, X[:, ::-1].copy())                  # Z aliases X, r = 2
    X = np.column_stack([np.ones(9), rng.normal(size=9)])
    blocks[3] = (X, np.column_stack([np.ones(9), np.full(9, 3.0)]))  # r = 2
    blocks[4] = (np.zeros((5, 2)), np.zeros((5, 2)))    # rank 0
    for gid in range(5, 10):
        n = int(rng.integers(5, 12))
        blocks[gid] = (rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
    order = rng.permutation(10).tolist()
    X = np.vstack([blocks[g][0] for g in order])
    Z = np.vstack([blocks[g][1] for g in order])
    ids = np.repeat(order, [len(blocks[g][0]) for g in order])
    if family.name == "gaussian":
        y = 3.0 * rng.normal(size=ids.size) + 1.0
    else:
        y = (rng.random(ids.size) < 0.4).astype(float)
    return GroupedDataset.from_long(y, X, Z, ids)


class TestGaussianClosedForm:
    """Gaussian summaries are the closed-form least-squares fit in each
    group's SVD frame; the reference is ``np.linalg.lstsq`` on the group's
    rank-r reduction ``F V[:, :r]``."""

    def test_matches_lstsq_on_rank_reduction(self):
        rng = np.random.default_rng(53)
        ds = _odd_groups(rng)
        sset = build_summary_set(ds, GAUSSIAN)
        assert sset.skipped == ((4, "group design is all zero (rank 0)"),)
        assert sset.ids == (0, 1, 2, 3, 5, 6, 7, 8, 9)
        assert sset.r[:4].tolist() == [1, 3, 2, 2]
        blocks = {g.group_id: g for g in ds.groups}
        V = np.concatenate([sset.V1, sset.V2], axis=1)
        for i, gid in enumerate(sset.ids):
            g, r = blocks[gid], int(sset.r[i])
            F = np.hstack([g.X, g.Z])
            F0 = F @ V[i, :, :r]
            theta, *_ = np.linalg.lstsq(F0, g.y, rcond=None)
            fitted = F0 @ theta
            np.testing.assert_allclose(
                np.diagonal(sset.precision[i])[:r],
                np.linalg.svd(F, compute_uv=False)[:r] ** 2, rtol=1e-12)
            np.testing.assert_allclose(
                sset.theta[i, :r], theta, rtol=0,
                atol=1e-12 * np.abs(theta).max())
            assert np.all(sset.theta[i, r:] == 0.0)
            np.testing.assert_allclose(
                F @ (V[i] @ sset.theta[i]), fitted, rtol=0,
                atol=1e-12 * np.abs(fitted).max())
            if g.n > r:
                rss = np.sum((g.y - fitted) ** 2)
                assert sset.dispersion[i] == pytest.approx(rss / (g.n - r),
                                                           rel=1e-12)
            else:
                assert np.isnan(sset.dispersion[i])

    def test_no_inverse_or_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the gaussian summary path")

        rng = np.random.default_rng(59)
        ds, logit = _odd_groups(rng), _odd_groups(rng, BINOMIAL_LOGIT)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        assert len(build_summary_set(ds, GAUSSIAN).ids) == 9
        with pytest.raises(AssertionError):  # the patch is in effect
            build_summary_set(logit, BINOMIAL_LOGIT)

    def test_precision_inv_is_reciprocal_diagonal(self):
        sset = build_summary_set(_odd_groups(np.random.default_rng(61)),
                                 GAUSSIAN)
        k = sset.p + sset.q
        diag = np.diagonal(sset.precision, 0, 1, 2)
        pad = np.arange(k) >= sset.r[:, None]
        assert np.all(diag[pad] == 1.0)
        assert np.array_equal(sset.precision,
                              diag[:, :, None] * np.eye(k))
        expected = np.zeros_like(sset.precision)
        expected[:, np.arange(k), np.arange(k)] = np.where(pad, 1.0,
                                                           1.0 / diag)
        assert np.array_equal(sset.precision_inv, expected)
        restacked = SummarySet(sset.summaries, sset.p, sset.q,
                               sset.pooled_dispersion, sset.rho, sset.n_obs,
                               sset.skipped)
        np.testing.assert_allclose(restacked.precision_inv,
                                   sset.precision_inv, rtol=1e-14, atol=0)

    def test_logit_precision_inv_is_inverse(self):
        """The inverse precisions are symmetric inverses; the stacked Firth
        fit and plug-in precision come padded, so theta is exactly 0 past
        each rank and both stacks are exactly the identity in the padded
        block and 0 across it."""
        sset = build_summary_set(
            _odd_groups(np.random.default_rng(67), BINOMIAL_LOGIT),
            BINOMIAL_LOGIT)
        assert sset.r.tolist() == [1, 3, 2, 2, 4, 4, 4, 4, 4]
        ref = np.linalg.inv(sset.precision)
        assert np.abs(sset.precision_inv - ref).max() \
            <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(sset.precision_inv,
                              np.swapaxes(sset.precision_inv, 1, 2))
        k = sset.p + sset.q
        for i, r in enumerate(sset.r.tolist()):
            assert not sset.theta[i, r:].any()
            for P in (sset.precision[i], sset.precision_inv[i]):
                assert np.array_equal(P[r:, r:], np.eye(k - r))
                assert not P[:r, r:].any() and not P[r:, :r].any()
