"""Moment-combination checks against closed forms.

The one-way layout (X = Z = a column of ones) reduces every quantity to
scalars worked out by hand: V1 = V2 = 1/sqrt(2), D^2 = 2n, theta_rot =
ybar/sqrt(2). Under unweighted combination this gives

    beta_hat   = mean of group means
    Ahat(b)    = sum (ybar_i - b)^2 / 4
    Omega2     = M / 4
    B          = mean(1 / n_i)
    Shat(beta) = mean((ybar_i - beta)^2)
    Sigma_hat  = Shat(beta_hat) - phi_hat * B

and the pooled dispersion is the within-group ANOVA mean square.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np
import pytest

from hiermoment.combine import (
    FitOptions,
    WeightSpec,
    ahat,
    fit_moment,
    fixed_effects,
    kappa_bound,
    kappa_check,
    make_weights,
    omega2_and_bias,
    shat,
    sigma_hat,
    standardize,
)
from hiermoment.data import GroupedDataset
from hiermoment.ebayes import posterior_set
from hiermoment.errors import SingularOmega2Error, SingularOmegaError
from hiermoment.families import BINOMIAL_LOGIT, GAUSSIAN, expit
from hiermoment.groups import build_summary_set
from hiermoment.linalg import sym, sym_sqrt
from hiermoment.simulate import gen_replicate


def one_way_dataset(group_values):
    """GroupedDataset with X = Z = ones from per-group response lists."""
    ys, ids = [], []
    for i, vals in enumerate(group_values):
        ys.extend(vals)
        ids.extend([i] * len(vals))
    y = np.array(ys, dtype=float)
    ones = np.ones((y.shape[0], 1))
    return GroupedDataset.from_long(y, ones, ones.copy(), ids)


def random_dataset(rng, M=20, p=2, q=2, n_lo=4, n_hi=12, sigma_scale=0.5):
    beta = rng.normal(size=p)
    ys, Xs, Zs, ids = [], [], [], []
    for i in range(M):
        n = int(rng.integers(n_lo, n_hi))
        X = rng.normal(size=(n, p))
        Z = rng.normal(size=(n, q))
        u = sigma_scale * rng.normal(size=q)
        ys.append(X @ beta + Z @ u + rng.normal(size=n))
        Xs.append(X)
        Zs.append(Z)
        ids.extend([i] * n)
    return GroupedDataset.from_long(
        np.concatenate(ys), np.vstack(Xs), np.vstack(Zs), ids
    ), beta


class TestMakeWeights:
    """Each group's weights are the leading r x r block of its stack entry."""

    def test_unweighted_identity(self):
        ds = one_way_dataset([[1.0, 2.0], [0.0, 1.0, 2.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        for W in make_weights(sset, WeightSpec.unweighted()):
            np.testing.assert_array_equal(W[:1, :1], np.eye(1))

    def test_weighted_is_precision(self):
        ds = one_way_dataset([[1.0, 2.0, 0.0]])  # n=3, D^2 = 6
        sset = build_summary_set(ds, GAUSSIAN)
        (W,) = make_weights(sset, WeightSpec.weighted())
        np.testing.assert_allclose(W[:1, :1], [[6.0]], rtol=1e-12)

    def test_semi_weighted_scalar_value(self):
        # n=4: (V2' I V2 + D^-2)^-1 = (1/2 + 1/8)^-1 = 1.6
        ds = one_way_dataset([[1.0, 2.0, 3.0, 4.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        (W,) = make_weights(sset, WeightSpec.semi_weighted(np.eye(1)))
        np.testing.assert_allclose(W[:1, :1], [[1.6]], rtol=1e-12)

    def test_optimal_equals_semi_at_scaled_sigma(self):
        rng = np.random.default_rng(3)
        ds, _ = random_dataset(rng, M=6)
        sset = build_summary_set(ds, GAUSSIAN)
        sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
        phi = 2.0
        a = make_weights(sset, WeightSpec.optimal(sigma, phi))
        b = make_weights(sset, WeightSpec.semi_weighted(sigma / phi))
        for Wa, Wb in zip(a, b):
            np.testing.assert_allclose(Wa, Wb, rtol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WeightSpec.semi_weighted(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            WeightSpec.semi_weighted(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            WeightSpec.optimal(np.eye(2), 0.0)
        with pytest.raises(ValueError, match="unknown weight scheme 'bogus'"):
            WeightSpec(scheme="bogus")

    @pytest.mark.parametrize("scheme, sigma0", [
        ("semiweighted", None),
        ("unweighted", np.diag([1.0, -1.0])),
        ("weighted", np.eye(2)),
    ], ids=["semiweighted_without", "unweighted_with", "weighted_with"])
    def test_sigma0_given_for_semiweighted_only(self, scheme, sigma0):
        with pytest.raises(ValueError, match="the semiweighted scheme, and "
                                             f"no other, takes a sigma0 "
                                             f"\\(scheme '{scheme}'\\)"):
            WeightSpec(scheme, sigma0=sigma0)


def mixed_rank_dataset(rng):
    """p = q = 2 (k = 4) with singleton groups, groups of n < k rows, groups
    whose X and Z share an intercept column (r = 3), and full-rank groups."""
    ys, Xs, Zs, ids = [], [], [], []
    layout = [(1, False)] * 3 + [(2, False), (3, False)] * 2 \
        + [(8, True)] * 3 + [(9, False)] * 5
    for i, (n, shared) in enumerate(layout):
        X = rng.normal(size=(n, 2))
        Z = rng.normal(size=(n, 2))
        if shared:
            X[:, 0] = Z[:, 0] = 1.0
        ys.append(X @ np.array([1.0, -0.5]) + Z @ rng.normal(size=2)
                  + rng.normal(size=n))
        Xs.append(X)
        Zs.append(Z)
        ids.extend([i] * n)
    return GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                    np.vstack(Zs), ids)


class TestPaddedStacks:
    """The padded-stack combination against a per-group r x r loop."""

    def test_matches_per_group_loop(self):
        rng = np.random.default_rng(53)
        sset = build_summary_set(mixed_rank_dataset(rng), GAUSSIAN)
        assert {s.r for s in sset.summaries} == {1, 2, 3, 4}
        sigma0 = np.array([[0.7, 0.2], [0.2, 0.4]])
        for spec in [WeightSpec.unweighted(), WeightSpec.weighted(),
                     WeightSpec.semi_weighted(sigma0)]:
            W = make_weights(sset, spec)
            q = sset.q
            omega = np.zeros((2, 2))
            rhs = np.zeros(2)
            K = np.zeros((q * q, q * q))
            bias_rhs = np.zeros((q, q))
            for i, s in enumerate(sset.summaries):
                P_inv = np.linalg.inv(s.precision)
                Wi = {"unweighted": np.eye(s.r),
                      "weighted": s.precision,
                      "semiweighted": np.linalg.inv(
                          s.V2.T @ sigma0 @ s.V2 + P_inv)}[spec.scheme]
                np.testing.assert_allclose(W[i, :s.r, :s.r], Wi,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_array_equal(W[i, s.r:, s.r:],
                                              np.eye(4 - s.r))
                np.testing.assert_array_equal(W[i, :s.r, s.r:], 0.0)
                omega += s.V1 @ Wi @ s.V1.T
                rhs += s.V1 @ Wi @ s.theta_rot
                A = s.V2 @ Wi @ s.V2.T
                K += np.kron(A, A)
                bias_rhs += s.V2 @ Wi @ P_inv @ Wi @ s.V2.T
            beta, omega_b = fixed_effects(sset, W)
            np.testing.assert_allclose(omega_b, omega, rtol=1e-12)
            np.testing.assert_allclose(beta, np.linalg.solve(omega, rhs),
                                       rtol=1e-12)
            op, B = omega2_and_bias(sset, W)
            B_ref = np.linalg.solve(K, bias_rhs.ravel()).reshape(q, q)
            np.testing.assert_allclose(B, B_ref, rtol=1e-12, atol=1e-12)
            S = rng.normal(size=(q, q))
            S = S + S.T
            applied = op.basis.smat_scaled(op.matrix @ op.basis.svec_scaled(S))
            np.testing.assert_allclose(applied, (K @ S.ravel()).reshape(q, q),
                                       rtol=1e-12, atol=1e-12)

    def test_posteriors_match_per_group_loop(self):
        """posterior_set over the padded stacks, noisy and noiseless, equals
        per-group r x r forms: the conjugate mean Sigma V2 (V2' Sigma V2 +
        phi P^-1)^-1 resid, and at phi = 0 Sigma^(1/2) times the min-norm
        least-squares solution of L'(V2' Sigma^(1/2) v - resid) = 0, with
        P = L L'."""
        rng = np.random.default_rng(59)
        fit = fit_moment(mixed_rank_dataset(rng), GAUSSIAN)
        sigma = np.array([[0.7, 0.2], [0.2, 0.4]])
        w, U = np.linalg.eigh(sigma)
        A = U @ np.diag(np.sqrt(w)) @ U.T
        zs = fit.scale_record.z_scale
        for phi in [fit.phi, 0.0]:
            pset = posterior_set(
                dataclasses.replace(fit, phi=phi, sigma_scaled=sigma))
            for s, i in zip(fit.summary_set.summaries,
                            pset.rows(fit.summary_set.ids)):
                resid = s.theta_rot - s.V1.T @ fit.beta_scaled
                if phi > 0.0:
                    H = sigma @ s.V2 @ np.linalg.inv(
                        s.V2.T @ sigma @ s.V2 + phi * np.linalg.inv(s.precision))
                    mean, cov = H @ resid, sigma - H @ s.V2.T @ sigma
                else:
                    Lt = np.linalg.cholesky(s.precision).T
                    v = np.linalg.lstsq(Lt @ s.V2.T @ A, Lt @ resid,
                                        rcond=None)[0]
                    mean, cov = A @ v, np.zeros((2, 2))
                np.testing.assert_allclose(pset.means[i], mean / zs,
                                           rtol=1e-9, atol=1e-9)
                np.testing.assert_allclose(pset.covs[i],
                                           cov / np.outer(zs, zs),
                                           rtol=1e-9, atol=1e-9)


class TestFixedEffects:
    def test_one_way_grand_mean(self):
        # balanced groups with means 1 and 3
        ds = one_way_dataset([[0.0, 2.0], [2.0, 4.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        beta, omega = fixed_effects(sset, make_weights(sset, WeightSpec.unweighted()))
        np.testing.assert_allclose(beta, [2.0], atol=1e-12)
        np.testing.assert_allclose(omega, [[1.0]], rtol=1e-12)  # M/2

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        beta = np.array([1.5, -2.0])
        ys, Xs, Zs, ids = [], [], [], []
        for i in range(8):
            X = rng.normal(size=(6, 2))
            Z = rng.normal(size=(6, 2))
            ys.append(X @ beta)  # u = 0, no noise
            Xs.append(X)
            Zs.append(Z)
            ids.extend([i] * 6)
        ds = GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                      np.vstack(Zs), ids)
        sset = build_summary_set(ds, GAUSSIAN)
        for spec in [WeightSpec.unweighted(), WeightSpec.weighted(),
                     WeightSpec.semi_weighted(np.eye(2))]:
            b, _ = fixed_effects(sset, make_weights(sset, spec))
            np.testing.assert_allclose(b, beta, atol=1e-10)

    def test_duplicating_groups_doubles_omega(self):
        rng = np.random.default_rng(7)
        ds, _ = random_dataset(rng, M=6)
        sset1 = build_summary_set(ds, GAUSSIAN)
        doubled = GroupedDataset(
            groups=tuple(ds.groups) + tuple(
                type(g)(group_id=g.group_id + 100, y=g.y, X=g.X, Z=g.Z)
                for g in ds.groups
            ),
            p=ds.p, q=ds.q,
        )
        sset2 = build_summary_set(doubled, GAUSSIAN)
        b1, o1 = fixed_effects(sset1, make_weights(sset1, WeightSpec.unweighted()))
        b2, o2 = fixed_effects(sset2, make_weights(sset2, WeightSpec.unweighted()))
        np.testing.assert_allclose(b2, b1, rtol=1e-10)
        np.testing.assert_allclose(o2, 2.0 * o1, rtol=1e-10)

    def test_unidentified_direction_raises(self):
        """A fixed-effect column that is zero everywhere leaves a null
        direction in the Gram matrix."""
        rng = np.random.default_rng(9)
        n = 12
        X = np.column_stack([np.ones(n), np.zeros(n)])
        Z = rng.normal(size=(n, 1))
        ds = GroupedDataset.from_long(rng.normal(size=n), X, Z, [0] * 6 + [1] * 6)
        sset = build_summary_set(ds, GAUSSIAN)
        with pytest.raises(SingularOmegaError) as exc:
            fixed_effects(sset, make_weights(sset, WeightSpec.unweighted()))
        direction = exc.value.null_direction
        np.testing.assert_allclose(np.abs(direction), [0.0, 1.0], atol=1e-10)


class TestAhat:
    def test_zero_at_exact_center(self):
        ds = one_way_dataset([[1.0, 1.0], [1.0, 1.0, 1.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        W = make_weights(sset, WeightSpec.unweighted())
        A = ahat(sset, W, np.array([1.0]))
        np.testing.assert_allclose(A, [[0.0]], atol=1e-20)

    def test_one_way_scalar_value(self):
        # group means 0 and 2, b = 1: sum of (±1)^2 / 4 = 0.5
        ds = one_way_dataset([[-1.0, 1.0], [1.0, 3.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        W = make_weights(sset, WeightSpec.unweighted())
        A = ahat(sset, W, np.array([1.0]))
        np.testing.assert_allclose(A, [[0.5]], rtol=1e-12)

    def test_weight_scaling_quadratic(self):
        rng = np.random.default_rng(11)
        ds, beta = random_dataset(rng, M=8)
        sset = build_summary_set(ds, GAUSSIAN)
        W = make_weights(sset, WeightSpec.unweighted())
        A1 = ahat(sset, W, beta)
        A3 = ahat(sset, [3.0 * w for w in W], beta)
        np.testing.assert_allclose(A3, 9.0 * A1, rtol=1e-12)


class TestOmega2AndBias:
    def test_one_way_closed_form(self):
        # M=3 groups of size 10: Omega2 = 3/4, B = 0.1
        ds = one_way_dataset([list(range(10)), list(range(10)),
                              [0.5 * v for v in range(10)]])
        sset = build_summary_set(ds, GAUSSIAN)
        op, B = omega2_and_bias(sset, make_weights(sset, WeightSpec.unweighted()))
        np.testing.assert_allclose(op.matrix, [[0.75]], rtol=1e-12)
        np.testing.assert_allclose(B, [[0.1]], rtol=1e-12)

    def test_unbalanced_bias_is_mean_inverse_size(self):
        sizes = [2, 5, 8, 3]
        ds = one_way_dataset([list(np.arange(n, dtype=float)) for n in sizes])
        sset = build_summary_set(ds, GAUSSIAN)
        _, B = omega2_and_bias(sset, make_weights(sset, WeightSpec.unweighted()))
        target = np.mean([1.0 / n for n in sizes])
        np.testing.assert_allclose(B, [[target]], rtol=1e-12)

    def test_weight_scaling_cancels_in_bias(self):
        ds = one_way_dataset([[1.0, 2.0, 3.0], [0.0, 4.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        W = make_weights(sset, WeightSpec.unweighted())
        _, B1 = omega2_and_bias(sset, W)
        _, B2 = omega2_and_bias(sset, [7.0 * w for w in W])
        np.testing.assert_allclose(B2, B1, rtol=1e-12)

    def test_unidentified_covariance_raises(self):
        """All groups share one observation row, so V2 W V2' is rank one in
        every group and the symmetric-space operator cannot be inverted."""
        X = np.ones((4, 1))
        Z = np.tile([[1.0, 0.0]], (4, 1))  # second random column never moves
        ds = GroupedDataset.from_long(np.array([1.0, 2.0, 0.5, 1.5]),
                                      X, Z, [0, 0, 1, 1])
        sset = build_summary_set(ds, GAUSSIAN)
        with pytest.raises(SingularOmega2Error):
            omega2_and_bias(sset, make_weights(sset, WeightSpec.unweighted()))


class TestSigmaHat:
    def test_one_way_oracle(self):
        # means (0,1,2), n_i=10, phi forced to 1: Shat = 2/3, B = 0.1
        vals = []
        for m in [0.0, 1.0, 2.0]:
            g = np.linspace(-1, 1, 10)
            vals.append(list(m + g - g.mean()))
        ds = one_way_dataset(vals)
        sset = build_summary_set(ds, GAUSSIAN)
        W = make_weights(sset, WeightSpec.unweighted())
        beta, _ = fixed_effects(sset, W)
        np.testing.assert_allclose(beta, [1.0], atol=1e-12)
        op, bias = omega2_and_bias(sset, W)
        S = shat(sset, W, beta, op)
        np.testing.assert_allclose(S, [[2.0 / 3.0]], rtol=1e-10)
        raw, proj, flag = sigma_hat(sset, W, beta, 1.0, op, bias)
        np.testing.assert_allclose(raw, [[2.0 / 3.0 - 0.1]], rtol=1e-10)
        assert not flag
        np.testing.assert_array_equal(proj, raw)

    def test_negative_raw_is_projected(self):
        # tight group means around zero with large phi force Sigma_hat < 0
        ds = one_way_dataset([[0.0, 0.1], [0.05, -0.05], [-0.1, 0.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        W = make_weights(sset, WeightSpec.unweighted())
        beta, _ = fixed_effects(sset, W)
        raw, proj, flag = sigma_hat(sset, W, beta, 5.0,
                                    *omega2_and_bias(sset, W))
        assert raw[0, 0] < 0
        assert flag
        np.testing.assert_array_equal(proj, [[0.0]])

    def test_noiseless_zero(self):
        ds = one_way_dataset([[2.0, 2.0], [2.0, 2.0, 2.0]])
        sset = build_summary_set(ds, GAUSSIAN)
        W = make_weights(sset, WeightSpec.unweighted())
        beta, _ = fixed_effects(sset, W)
        raw, proj, _ = sigma_hat(sset, W, beta, sset.pooled_dispersion,
                                 *omega2_and_bias(sset, W))
        np.testing.assert_allclose(raw, [[0.0]], atol=1e-20)
        np.testing.assert_allclose(proj, [[0.0]], atol=1e-20)


class TestStandardize:
    def test_unit_rms_is_identity(self):
        y = np.arange(4.0)
        X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        ds = GroupedDataset.from_long(y, X, X.copy(), [0, 0, 1, 1])
        scaled, record = standardize(ds)
        assert scaled is ds
        np.testing.assert_array_equal(record.x_scale, [1.0])

    def test_constant_column_untouched(self):
        y = np.arange(4.0)
        X = np.full((4, 1), 7.0)
        Z = np.array([[2.0], [-2.0], [2.0], [-2.0]])
        ds = GroupedDataset.from_long(y, X, Z, [0, 0, 1, 1])
        scaled, record = standardize(ds)
        np.testing.assert_array_equal(record.x_scale, [1.0])
        np.testing.assert_array_equal(record.z_scale, [2.0])
        np.testing.assert_array_equal(scaled.groups[0].X, X[:2])
        np.testing.assert_allclose(np.vstack([g.Z for g in scaled.groups]),
                                   Z / 2.0, rtol=1e-15)

    def test_all_zero_column_flagged(self):
        """An all-zero column is constant, so it keeps scale 1."""
        y = np.arange(4.0)
        X = np.column_stack([np.ones(4), np.zeros(4)])
        Z = np.ones((4, 1))
        _, record = standardize(GroupedDataset.from_long(y, X, Z, [0, 0, 1, 1]))
        np.testing.assert_array_equal(record.x_scale, [1.0, 1.0])

    def test_pooled_rms(self):
        y = np.arange(6.0)
        X = np.array([[3.0], [-3.0], [3.0], [-3.0], [3.0], [-3.0]])
        ds = GroupedDataset.from_long(y, X, X.copy(), [0, 0, 0, 1, 1, 1])
        scaled, record = standardize(ds)
        np.testing.assert_allclose(record.x_scale, [3.0], rtol=1e-15)
        np.testing.assert_allclose(np.vstack([g.X for g in scaled.groups]),
                                   X / 3.0, rtol=1e-15)


    def test_extreme_scales_match_reference(self):
        def reference(F):
            # The per-column reduction over the (N, k) layout.
            lo, hi = F.min(axis=0), F.max(axis=0)
            amax = np.maximum(np.abs(lo), np.abs(hi))
            unit = np.where(amax > 0.0, amax, 1.0)
            F = F / unit
            rms = unit * np.sqrt(np.einsum("ij,ij->j", F, F) / F.shape[0])
            return np.where(lo == hi, 1.0, rms)

        rng = np.random.default_rng(71)
        n = 257
        X = np.column_stack([1e170 * rng.normal(size=n),
                             1e-170 * rng.normal(size=n), np.full(n, 7.0)])
        Z = np.column_stack([np.zeros(n), -1e-170 * rng.random(size=n),
                             1e170 * rng.choice([-1.0, 1.0], size=n)])
        ds = GroupedDataset.from_long(rng.normal(size=n), X, Z,
                                      rng.integers(0, 9, size=n))
        scaled, record = standardize(ds)
        x_scale, z_scale = reference(ds.X), reference(ds.Z)
        assert np.array_equal(record.x_scale, x_scale)
        assert np.array_equal(record.z_scale, z_scale)
        assert np.array_equal(scaled.X, ds.X / x_scale)
        assert np.array_equal(scaled.Z, ds.Z / z_scale)


class TestFitMoment:
    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_all_zero_z_column_is_unidentifiable(self, family):
        """A random-effect column that is zero in every row leaves its
        variance without information: the fit raises, it returns no NaN."""
        ds, _ = gen_replicate(200, 4000, 2, 3, family, seed=3)
        Z = ds.Z.copy()
        Z[:, 1] = 0.0
        with pytest.raises(SingularOmega2Error,
                           match="does not identify all covariance"):
            fit_moment(ds.with_columns(ds.X, Z), family)

    def test_one_way_anova_oracle(self):
        """Unweighted one-way fit matches the closed-form moment estimates."""
        rng = np.random.default_rng(13)
        groups = [list(rng.normal(loc=m, size=n))
                  for m, n in [(0.0, 5), (1.0, 8), (2.0, 4), (0.5, 6)]]
        ds = one_way_dataset(groups)
        fit = fit_moment(ds, GAUSSIAN, FitOptions(scheme="unweighted"))

        means = np.array([np.mean(g) for g in groups])
        sizes = np.array([len(g) for g in groups])
        beta_oracle = means.mean()
        rss = sum(np.sum((np.array(g) - np.mean(g)) ** 2) for g in groups)
        phi_oracle = rss / (sizes - 1).sum()
        sigma_oracle = np.mean((means - beta_oracle) ** 2) - phi_oracle * np.mean(
            1.0 / sizes
        )
        np.testing.assert_allclose(fit.beta, [beta_oracle], atol=1e-10)
        np.testing.assert_allclose(fit.phi, phi_oracle, rtol=1e-10)
        np.testing.assert_allclose(fit.sigma_raw, [[sigma_oracle]], atol=1e-10)
        np.testing.assert_allclose(fit.bias_B, [[np.mean(1.0 / sizes)]],
                                   rtol=1e-10)
        assert fit.steps == 0

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(17)
        beta = np.array([2.0, -1.0])
        ys, Xs, Zs, ids = [], [], [], []
        for i in range(10):
            X = rng.normal(size=(7, 2))
            Z = rng.normal(size=(7, 2))
            ys.append(X @ beta)
            Xs.append(X)
            Zs.append(Z)
            ids.extend([i] * 7)
        ds = GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                      np.vstack(Zs), ids)
        fit = fit_moment(ds, GAUSSIAN)
        np.testing.assert_allclose(fit.beta, beta, atol=1e-10)
        np.testing.assert_allclose(fit.sigma, 0.0, atol=1e-10)
        assert fit.phi == pytest.approx(0.0, abs=1e-20)

    def test_two_step_refit_runs(self):
        """The semi-weighted fit refits once with its own covariance
        estimate, so it differs from the single-pass schemes."""
        rng = np.random.default_rng(19)
        ds, _ = random_dataset(rng, M=25)
        fit = fit_moment(ds, GAUSSIAN)
        assert fit.steps == 1
        for scheme in ("unweighted", "weighted"):
            single = fit_moment(ds, GAUSSIAN, FitOptions(scheme=scheme))
            assert single.steps == 0
            assert not np.array_equal(fit.beta, single.beta)

    def test_options_validation(self):
        with pytest.raises(TypeError, match="refits"):
            FitOptions(refits=1)
        with pytest.raises(ValueError, match="scheme"):
            FitOptions(scheme="semi_weighted")

    def test_group_permutation_bitwise_identical(self):
        rng = np.random.default_rng(23)
        ds, _ = random_dataset(rng, M=10)
        y = np.concatenate([g.y for g in ds.groups])
        X = np.vstack([g.X for g in ds.groups])
        Z = np.vstack([g.Z for g in ds.groups])
        ids = np.concatenate([[g.group_id] * g.n for g in ds.groups])
        perm_blocks = list(range(10))[::-1]
        order = np.concatenate(
            [np.flatnonzero(ids == b) for b in perm_blocks]
        )
        ds2 = GroupedDataset.from_long(y[order], X[order], Z[order], ids[order])
        a = fit_moment(ds, GAUSSIAN)
        b = fit_moment(ds2, GAUSSIAN)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.omega, b.omega)
        assert a.phi == b.phi

    def test_scale_equivariance(self):
        """Scaling predictor columns rescales estimates exactly;
        back-transformed results agree to 1e-6 relative, also for a column
        at 1e+-170, whose raw sum of squares overflows or underflows.

        At 1e170 the Gram matrix in original units (about 1e340) is not
        representable, so ``omega`` overflows with a RuntimeWarning."""
        rng = np.random.default_rng(29)
        ds, _ = random_dataset(rng, M=20)
        a = fit_moment(ds, GAUSSIAN)
        for cx, cz in [([10.0, 0.2], [5.0, 0.5]),
                       ([1e170, 1.0], [1.0, 1.0]),
                       ([1e-170, 1.0], [1.0, 1.0])]:
            cx, cz = np.array(cx), np.array(cz)
            groups = tuple(
                type(g)(group_id=g.group_id, y=g.y, X=g.X * cx, Z=g.Z * cz)
                for g in ds.groups
            )
            overflows = cx[0] == 1e170
            with (pytest.warns(RuntimeWarning, match="overflow")
                  if overflows else contextlib.nullcontext()):
                b = fit_moment(GroupedDataset(groups=groups, p=2, q=2),
                               GAUSSIAN)
            assert np.isinf(b.omega[0, 0]) == overflows
            np.testing.assert_allclose(b.beta * cx, a.beta, rtol=1e-6)
            np.testing.assert_allclose(b.sigma * np.outer(cz, cz), a.sigma,
                                       rtol=1e-6, atol=1e-12)
            np.testing.assert_allclose(b.phi, a.phi, rtol=1e-6)

    def test_existence_under_full_rank_designs(self):
        """No singularity errors whenever the stacked fixed design has full
        rank and the random-design Gram operator is invertible."""
        rng = np.random.default_rng(31)
        for _ in range(30):
            M = int(rng.integers(4, 12))
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 3))
            ys, Xs, Zs, ids = [], [], [], []
            for i in range(M):
                n = int(rng.integers(p + q + 1, p + q + 6))
                X = rng.normal(size=(n, p))
                Z = rng.normal(size=(n, q))
                ys.append(rng.normal(size=n))
                Xs.append(X)
                Zs.append(Z)
                ids.extend([i] * n)
            Xall = np.vstack(Xs)
            if np.linalg.matrix_rank(Xall) < p:
                continue
            op_check = sum(
                np.kron(Z.T @ Z, Z.T @ Z) for Z in Zs
            )
            if np.linalg.eigvalsh(op_check)[0] < 1e-8:
                continue
            ds = GroupedDataset.from_long(np.concatenate(ys), Xall,
                                          np.vstack(Zs), ids)
            fit = fit_moment(ds, GAUSSIAN)
            assert np.all(np.isfinite(fit.beta))
            assert np.all(np.isfinite(fit.sigma))

    def test_consistency_over_scale(self):
        """Errors shrink as both the group count and group sizes grow."""
        rng = np.random.default_rng(37)
        beta = np.array([1.0, -0.5])
        Sigma = np.array([[0.4, 0.1], [0.1, 0.3]])
        L = np.linalg.cholesky(Sigma)

        def make(M, n, seed):
            r = np.random.default_rng(seed)
            ys, Xs, Zs, ids = [], [], [], []
            for i in range(M):
                X = r.normal(size=(n, 2))
                Z = r.normal(size=(n, 2))
                u = L @ r.normal(size=2)
                ys.append(X @ beta + Z @ u + r.normal(size=n))
                Xs.append(X)
                Zs.append(Z)
                ids.extend([i] * n)
            return GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                            np.vstack(Zs), ids)

        errs_beta, errs_sigma = [], []
        for M, n in [(20, 5), (80, 10), (320, 20)]:
            be, se = [], []
            for rep in range(5):
                fit = fit_moment(make(M, n, 1000 * M + rep), GAUSSIAN)
                be.append(np.linalg.norm(fit.beta - beta))
                se.append(np.linalg.norm(fit.sigma - Sigma))
            errs_beta.append(np.median(be))
            errs_sigma.append(np.median(se))
        assert errs_beta[0] > errs_beta[1] > errs_beta[2]
        assert errs_sigma[0] > errs_sigma[1] > errs_sigma[2]


class TestKappa:
    def test_zero_sigma_bounded_by_phi(self):
        rng = np.random.default_rng(41)
        ds, _ = random_dataset(rng, M=10)
        sset = build_summary_set(ds, GAUSSIAN)
        spec = WeightSpec.semi_weighted(np.eye(2))
        W = make_weights(sset, spec)
        phi = 1.7
        vals = kappa_check(W, np.zeros((2, 2)), phi, sset)
        assert np.all(vals <= phi + 1e-10)

    def test_matched_sigma0_bound(self):
        # Sigma0 = Sigma gives kappa = 1 + phi
        rng = np.random.default_rng(43)
        ds, _ = random_dataset(rng, M=10)
        sset = build_summary_set(ds, GAUSSIAN)
        sigma = np.array([[0.6, 0.2], [0.2, 0.5]])
        phi = 1.0
        spec = WeightSpec.semi_weighted(sigma)
        W = make_weights(sset, spec)
        vals = kappa_check(W, sigma, phi, sset)
        bound = kappa_bound(spec, sigma, phi, sset)
        assert bound == pytest.approx(1.0 + phi, rel=1e-10)
        assert np.all(vals <= bound + 1e-8)

    def test_bounds_hold_across_schemes(self):
        rng = np.random.default_rng(47)
        for trial in range(200):
            q = int(rng.integers(1, 5))
            M = int(rng.integers(2, 6))
            ys, Xs, Zs, ids = [], [], [], []
            for i in range(M):
                n = int(rng.integers(q + 2, q + 6))
                Xs.append(np.ones((n, 1)))
                Zs.append(rng.normal(size=(n, q)))
                ys.append(rng.normal(size=n))
                ids.extend([i] * n)
            ds = GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                          np.vstack(Zs), ids)
            sset = build_summary_set(ds, GAUSSIAN)
            A = rng.normal(size=(q, q))
            sigma = A @ A.T + 0.05 * np.eye(q)
            phi = float(rng.uniform(0.1, 3.0))
            A0 = rng.normal(size=(q, q))
            sigma0 = A0 @ A0.T + 0.1 * np.eye(q)
            for spec in [WeightSpec.unweighted(), WeightSpec.weighted(),
                         WeightSpec.semi_weighted(sigma0),
                         WeightSpec.optimal(sigma, phi)]:
                W = make_weights(sset, spec)
                vals = kappa_check(W, sigma, phi, sset)
                bound = kappa_bound(spec, sigma, phi, sset)
                assert np.all(vals <= bound + 1e-8), spec.scheme


def _mixed_rank_dataset(rng, family, M=40, p=2, q=2):
    """Groups of 1 to 12 rows, so that ranks 1..p+q all occur."""
    ys, Xs, Zs, ids = [], [], [], []
    for i in range(M):
        n = 1 + i % 12
        X = rng.normal(size=(n, p))
        Z = rng.normal(size=(n, q))
        eta = X @ np.full(p, 0.5) + Z @ (0.7 * rng.normal(size=q))
        if family.name == "gaussian":
            ys.append(eta + rng.normal(size=n))
        else:
            ys.append((rng.random(n) < expit(eta)).astype(float))
        Xs.append(X)
        Zs.append(Z)
        ids.extend([i] * n)
    return GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                    np.vstack(Zs), ids)


def _kappa_check_loop(weights, sigma, phi, sset):
    mids = sset.V2.swapaxes(1, 2) @ sigma @ sset.V2 + phi * sset.precision_inv
    vals = np.empty(len(sset.ids))
    for i, r in enumerate(sset.r.tolist()):
        Wh = sym_sqrt(weights[i, :r, :r])
        vals[i] = np.linalg.eigvalsh(sym(Wh @ mids[i, :r, :r] @ Wh))[-1]
    return vals


def _kappa_bound_loop(spec, sigma, phi, sset):
    sig_norm = np.linalg.norm(sigma, 2)
    ranks = sset.r.tolist()
    if spec.scheme == "unweighted":
        return sig_norm + phi * max(np.linalg.norm(P[:r, :r], 2)
                                    for P, r in zip(sset.precision_inv, ranks))
    if spec.scheme == "weighted":
        return sig_norm * max(np.linalg.norm(P[:r, :r], 2)
                              for P, r in zip(sset.precision, ranks)) + phi
    return np.linalg.norm(np.linalg.solve(spec.sigma0, sigma), 2) + phi


class TestKappaStacked:
    """The stacked kappa values against the per-group loop, and the bound
    on both families."""

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_matches_loop_and_stays_below_bound(self, family):
        rng = np.random.default_rng(73)
        fit = fit_moment(_mixed_rank_dataset(rng, family), family)
        sset, phi = fit.summary_set, fit.phi
        assert sorted(set(sset.r.tolist())) == [1, 2, 3, 4]
        A = rng.normal(size=(2, 2))
        sigmas = [fit.sigma_scaled, A @ A.T + 0.1 * np.eye(2)]
        for sigma in sigmas:
            specs = [WeightSpec.unweighted(), WeightSpec.weighted(),
                     WeightSpec.semi_weighted(np.eye(2) + 0.5 * sigma)]
            for spec in specs:
                W = make_weights(sset, spec)
                vals = kappa_check(W, sigma, phi, sset)
                bound = kappa_bound(spec, sigma, phi, sset)
                ref = _kappa_check_loop(W, sigma, phi, sset)
                np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)
                assert bound == pytest.approx(
                    _kappa_bound_loop(spec, sigma, phi, sset), rel=1e-12)
                assert vals.max() <= bound * (1.0 + 1e-12), spec.scheme

    def test_bound_reads_leading_blocks_only(self):
        """Where every group's block has norm below 1, the identity padding
        must not enter the bound."""
        ds = _mixed_rank_dataset(np.random.default_rng(83), GAUSSIAN)
        sset = build_summary_set(ds.with_columns(100.0 * ds.X, 100.0 * ds.Z),
                                 GAUSSIAN)
        spec, sigma = WeightSpec.unweighted(), np.eye(2)
        ref = _kappa_bound_loop(spec, sigma, 1.0, sset)
        assert ref < 2.0  # ||sigma|| + every block's norm, which is below 1
        assert kappa_bound(spec, sigma, 1.0, sset) == pytest.approx(
            ref, rel=1e-12)

    def test_logit_bound_is_attained_at_zero_sigma(self):
        """With Sigma = 0 and the known phi = 1, each scheme's bound is
        reached by some group of a logit summary set."""
        fit = fit_moment(_mixed_rank_dataset(np.random.default_rng(79),
                                             BINOMIAL_LOGIT), BINOMIAL_LOGIT)
        sset, zero = fit.summary_set, np.zeros((2, 2))
        for spec in [WeightSpec.unweighted(), WeightSpec.weighted(),
                     WeightSpec.semi_weighted(np.eye(2))]:
            vals = kappa_check(make_weights(sset, spec), zero, 1.0, sset)
            bound = kappa_bound(spec, zero, 1.0, sset)
            assert vals.max() == pytest.approx(bound, rel=1e-12), spec.scheme
