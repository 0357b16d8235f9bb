"""Posterior checks against the conjugate normal oracle.

For a scalar one-way group (prior variance s, noise phi, n observations) the
exact posterior of the random effect is

    mean = s * (ybar - beta) / (s + phi / n),    var = 1 / (1/s + n/phi)

which the square-root form must reproduce; the general-q case is checked
against the textbook information-form posterior on nonsingular inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hiermoment.combine import fit_moment
from hiermoment.data import GroupedDataset
from hiermoment.ebayes import (
    PosteriorSet,
    posterior,
    posterior_set,
    predict_grouped,
)
from hiermoment.families import GAUSSIAN
from hiermoment.groups import GroupSummary, build_summary_set

SQRT2 = math.sqrt(2.0)


def one_way_summary(n, ybar, group_id=0):
    """Summary of a one-way gaussian group: V = (1,1)/sqrt2, D^2 = 2n."""
    return GroupSummary(
        group_id=group_id, n=n, r=1,
        V1=np.array([[1.0 / SQRT2]]),
        V2=np.array([[1.0 / SQRT2]]),
        theta_rot=np.array([ybar / SQRT2]),
        precision=np.array([[2.0 * n]]),
        dispersion=None,
    )


def conjugate_scalar(s, phi, n, dev):
    mean = s * dev / (s + phi / n)
    var = 1.0 / (1.0 / s + n / phi)
    return mean, var


class TestScalarPosterior:
    def test_frozen_oracle(self):
        # s=1, phi=1, n=4, ybar - beta = 2: mean (4/5)*2 = 1.6, cov 0.2
        s = one_way_summary(n=4, ybar=2.0)
        mean, cov = posterior(s, np.zeros(1), np.eye(1), phi=1.0)
        np.testing.assert_allclose(mean, [1.6], atol=1e-10)
        np.testing.assert_allclose(cov, [[0.2]], atol=1e-10)

    def test_conjugate_at_other_dispersions(self):
        """The phi != 1 cases separate the correct mean from a formula that
        carries a stray 1/phi factor."""
        for phi in [0.25, 1.0, 2.0, 7.5]:
            for sv in [0.3, 1.0, 4.0]:
                s = one_way_summary(n=5, ybar=1.7)
                mean, cov = posterior(s, np.zeros(1), sv * np.eye(1), phi=phi)
                m0, v0 = conjugate_scalar(sv, phi, 5, 1.7)
                np.testing.assert_allclose(mean, [m0], rtol=1e-10)
                np.testing.assert_allclose(cov, [[v0]], rtol=1e-10)

    def test_zero_prior_total_shrinkage(self):
        s = one_way_summary(n=4, ybar=2.0)
        mean, cov = posterior(s, np.zeros(1), np.zeros((1, 1)), phi=1.0)
        np.testing.assert_array_equal(mean, [0.0])
        np.testing.assert_array_equal(cov, [[0.0]])

    def test_large_information_limit(self):
        # D^2 = 1e8: essentially no shrinkage left
        s = GroupSummary(
            group_id=0, n=10, r=1,
            V1=np.array([[1.0 / SQRT2]]), V2=np.array([[1.0 / SQRT2]]),
            theta_rot=np.array([2.0 / SQRT2]),
            precision=np.array([[1e8]]), dispersion=None,
        )
        mean, cov = posterior(s, np.zeros(1), np.eye(1), phi=1.0)
        np.testing.assert_allclose(mean, [2.0], atol=1e-6)
        assert cov[0, 0] < 1e-6

    def test_noiseless_limit(self):
        s = one_way_summary(n=4, ybar=2.0)
        mean, cov = posterior(s, np.zeros(1), np.eye(1), phi=0.0)
        np.testing.assert_allclose(mean, [2.0], atol=1e-12)
        np.testing.assert_array_equal(cov, [[0.0]])

    def test_shrinkage_monotone_in_prior_variance(self):
        s = one_way_summary(n=4, ybar=2.0)
        dev = 2.0
        last = 0.0
        for sv in [1e-6, 0.01, 0.1, 1.0, 10.0, 1e4]:
            mean, _ = posterior(s, np.zeros(1), sv * np.eye(1), phi=1.0)
            assert 0.0 <= mean[0] <= dev + 1e-12
            assert mean[0] >= last - 1e-15
            last = mean[0]
        assert last == pytest.approx(dev, rel=1e-3)


def _random_summary(rng, n, p, q):
    X = rng.normal(size=(n, p))
    Z = rng.normal(size=(n, q))
    y = rng.normal(size=n)
    ds = GroupedDataset.from_long(y, X, Z, [0] * n)
    return build_summary_set(ds, GAUSSIAN).summaries[0]


class TestGeneralPosterior:
    def test_matches_information_form(self):
        """cov = (sigma^-1 + V2 D^2 V2'/phi)^-1 and mean = cov V2 D^2 r / phi
        on nonsingular sigma."""
        rng = np.random.default_rng(42)
        for q in [1, 2, 3]:
            s = _random_summary(rng, n=q + 4, p=2, q=q)
            A = rng.normal(size=(q, q))
            sigma = A @ A.T + 0.2 * np.eye(q)
            beta = rng.normal(size=2)
            for phi in [0.37, 1.0, 2.2]:
                mean, cov = posterior(s, beta, sigma, phi)
                G = s.V2 @ s.precision @ s.V2.T
                cov0 = np.linalg.inv(np.linalg.inv(sigma) + G / phi)
                resid = s.theta_rot - s.V1.T @ beta
                mean0 = cov0 @ (s.V2 @ (s.precision @ resid)) / phi
                np.testing.assert_allclose(cov, cov0, atol=1e-10)
                np.testing.assert_allclose(mean, mean0, atol=1e-10)

    def test_singular_prior_well_defined(self):
        """Rank-deficient sigma gives a finite posterior supported on the
        prior's column space."""
        rng = np.random.default_rng(7)
        s = _random_summary(rng, n=6, p=1, q=2)
        v = np.array([1.0, 2.0])
        sigma = np.outer(v, v)  # rank 1
        mean, cov = posterior(s, np.zeros(1), sigma, phi=1.0)
        assert np.all(np.isfinite(mean))
        # posterior stays in span(v)
        null = np.array([2.0, -1.0]) / math.sqrt(5.0)
        assert abs(null @ mean) < 1e-10
        np.testing.assert_allclose(null @ cov @ null, 0.0, atol=1e-12)

    def test_cov_never_exceeds_prior(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = int(rng.integers(1, 4))
            s = _random_summary(rng, n=q + 3, p=1, q=q)
            A = rng.normal(size=(q, q))
            sigma = A @ A.T + 0.05 * np.eye(q)
            phi = float(rng.uniform(0.1, 3.0))
            _, cov = posterior(s, np.zeros(1), sigma, phi)
            assert np.linalg.eigvalsh(sigma - cov)[0] >= -1e-10


class TestPosteriorSet:
    def test_matches_per_summary_posterior(self):
        """Every group's posterior equals the conjugate form on its raw rows:
        mean Sigma Z'(Z Sigma Z' + phi I)^-1 (y - X beta) and covariance
        Sigma - Sigma Z'(Z Sigma Z' + phi I)^-1 Z Sigma."""
        rng = np.random.default_rng(13)
        ys, Xs, Zs, ids = [], [], [], []
        for i in range(12):
            n = int(rng.integers(5, 9))
            X = 2.0 * rng.integers(0, 2, size=(n, 2)) - 1.0  # unit-RMS
            Z = 2.0 * rng.integers(0, 2, size=(n, 2)) - 1.0
            ys.append(X @ np.array([1.0, -0.5]) + 0.6 * rng.normal()
                      + rng.normal(size=n))
            Xs.append(X)
            Zs.append(Z)
            ids.extend([i] * n)
        ds = GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                      np.vstack(Zs), ids)
        fit = fit_moment(ds, GAUSSIAN)
        assert np.array_equal(fit.scale_record.z_scale, np.ones(2))
        pset = posterior_set(fit)
        assert pset.means.shape == (12, 2)
        assert pset.covs.shape == (12, 2, 2)
        rows = pset.rows(ds.ids)
        for g, i in zip(ds.groups, rows):
            H = fit.sigma @ g.Z.T @ np.linalg.inv(
                g.Z @ fit.sigma @ g.Z.T + fit.phi * np.eye(g.n))
            np.testing.assert_allclose(pset.means[i],
                                       H @ (g.y - g.X @ fit.beta),
                                       rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(pset.covs[i],
                                       fit.sigma - H @ g.Z @ fit.sigma,
                                       rtol=1e-9, atol=1e-9)
        assert pset.rows(["missing"]).tolist() == [-1]
        e = pset.entries[rows[5]]
        assert e.group_id == ds.ids[5]
        assert np.array_equal(e.mean, pset.means[rows[5]])
        assert np.array_equal(e.cov, pset.covs[rows[5]])

    def test_back_transform_to_raw_frame(self):
        """Posterior means transform like the random effects themselves:
        scaling a Z column by c divides its posterior mean by c."""
        rng = np.random.default_rng(17)
        ys, Xs, Zs, ids = [], [], [], []
        for i in range(15):
            n = 8
            X = rng.normal(size=(n, 1))
            Z = rng.normal(size=(n, 1))
            ys.append(X[:, 0] + 0.7 * rng.normal() * Z[:, 0] + rng.normal(size=n))
            Xs.append(X)
            Zs.append(Z)
            ids.extend([i] * n)
        y = np.concatenate(ys)
        X = np.vstack(Xs)
        Z = np.vstack(Zs)
        c = 20.0
        ds1 = GroupedDataset.from_long(y, X, Z, ids)
        ds2 = GroupedDataset.from_long(y, X, Z * c, ids)
        p1 = posterior_set(fit_moment(ds1, GAUSSIAN))
        p2 = posterior_set(fit_moment(ds2, GAUSSIAN))
        assert p1.ids == p2.ids
        np.testing.assert_allclose(p2.means * c, p1.means, rtol=1e-6)
        np.testing.assert_allclose(p2.covs * c * c, p1.covs, rtol=1e-6)


class TestPrediction:
    def test_unseen_group_flagged(self):
        rng = np.random.default_rng(19)
        ys, Xs, Zs, ids = [], [], [], []
        for i in range(4):
            X = rng.normal(size=(6, 1))
            Z = rng.normal(size=(6, 1))
            ys.append(X[:, 0] + rng.normal(size=6))
            Xs.append(X)
            Zs.append(Z)
            ids.extend([i] * 6)
        ds = GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                      np.vstack(Zs), ids)
        fit = fit_moment(ds, GAUSSIAN)
        pset = posterior_set(fit)
        new = GroupedDataset.from_long(
            np.zeros(4), np.ones((4, 1)), np.ones((4, 1)), [0, 0, 9, 9]
        )
        mu, unseen = predict_grouped(new, fit.beta, pset, GAUSSIAN)
        assert unseen == [False, True]
        # unseen group predicts at the population level, u = 0
        np.testing.assert_allclose(mu[1], np.ones(2) * fit.beta[0], rtol=1e-12)
        u0 = pset.means[pset.rows([0])[0]]
        np.testing.assert_allclose(mu[0], fit.beta[0] + u0[0], rtol=1e-12)

    def test_posterior_width_must_match_z(self):
        """Posteriors of q = 1 on a dataset of q = 2 would ignore Z[:, 1],
        and q = 2 on q = 1 would index past Z: both are refused, naming the
        two widths."""
        ids = [0, 0, 1, 1]
        for have, need in [(1, 2), (2, 1)]:
            post = PosteriorSet((0, 1), np.ones((2, have)),
                                np.ones((2, have, have)))
            new = GroupedDataset.from_long(np.zeros(4), np.ones((4, 1)),
                                           np.ones((4, need)), ids)
            with pytest.raises(ValueError, match=f"width {have} for a "
                                                 f"design of width {need}"):
                predict_grouped(new, np.zeros(1), post, GAUSSIAN)
