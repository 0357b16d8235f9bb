"""Family and GLM-fit checks.

The bias-reduced logistic oracles are derived independently: for a saturated
two-cell design the penalized stationarity condition is solvable by hand, and
for general designs a from-scratch penalized likelihood is maximized with
scipy.optimize inside the test.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.special import expit

from hiermoment import data, families, groups
from hiermoment.combine import fit_moment
from hiermoment.data import GroupLayout
from hiermoment.families import (
    BINOMIAL_LOGIT,
    GAUSSIAN,
    expit as hm_expit,
    fit_glm,
    get_family,
    singular_precision,
)
from hiermoment.simulate import gen_replicate

LN5 = math.log(5.0)
LN9 = math.log(9.0)


def _penalized_negloglik(coef, y, F0, firth):
    """Independent Jeffreys-penalized negative log likelihood."""
    eta = F0 @ coef
    mu = expit(eta)
    mu = np.clip(mu, 1e-12, 1 - 1e-12)
    ll = np.sum(y * np.log(mu) + (1 - y) * np.log(1 - mu))
    if firth:
        W = mu * (1 - mu)
        info = F0.T @ (F0 * W[:, None])
        ll += 0.5 * np.log(np.linalg.det(info))
    return -ll


def _optimize(y, F0):
    """Jeffreys-penalized estimate by BFGS on the independent objective."""
    res = scipy.optimize.minimize(
        _penalized_negloglik,
        np.zeros(F0.shape[1]),
        args=(y, F0, True),
        method="BFGS",
        options={"gtol": 1e-10, "maxiter": 500},
    )
    return res.x


class TestFamilyBasics:
    def test_lookup(self):
        assert get_family("gaussian") is GAUSSIAN
        assert get_family("logit") is BINOMIAL_LOGIT
        for name in ("binomial-logit", "poisson"):
            with pytest.raises(ValueError, match="'gaussian', 'logit'"):
                get_family(name)

    def test_gaussian_identity_link(self):
        eta = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_array_equal(GAUSSIAN.inv_link(eta), eta)
        mu = GAUSSIAN.inv_link([1, -2])
        assert mu.dtype == np.float64
        np.testing.assert_array_equal(mu, [1.0, -2.0])

    def test_logit_link_roundtrip(self):
        mu = np.array([0.1, 0.5, 0.93])
        np.testing.assert_allclose(
            BINOMIAL_LOGIT.inv_link(np.log(mu / (1 - mu))), mu, rtol=1e-12
        )

    def test_dispersion_flags(self):
        assert BINOMIAL_LOGIT.dispersion == 1.0
        assert GAUSSIAN.dispersion is None

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_name_is_lookup_key(self, family):
        assert get_family(family.name) is family


class TestExpit:
    """The package's own logistic function against scipy's, which computes
    the same formula with the C library's ``exp``."""

    def test_agrees_with_scipy(self):
        """Within 4 ulp on a 0.001 grid over [-800, 800]. Each exp may be 1
        ulp from the other; near x = -37, where exp(-x) is about 1e16 and
        its ulp is 2, adding 1 can double that, and the grid holds points
        3 and 4 ulp apart there. Elsewhere the two agree to 2 ulp."""
        x = np.linspace(-800.0, 800.0, 1_600_001)
        ours, ref = hm_expit(x), expit(x)
        np.testing.assert_array_max_ulp(ours, ref, maxulp=4)
        away = (x < -38.0) | (x > -36.0)
        np.testing.assert_array_max_ulp(ours[away], ref[away], maxulp=2)
        assert np.all((ours >= 0.0) & (ours <= 1.0))

    def test_infinities_and_nan(self):
        out = hm_expit(np.array([np.inf, -np.inf, np.nan]))
        np.testing.assert_array_equal(out, [1.0, 0.0, np.nan])

    def test_scalar_in_scalar_out(self):
        for x in (0.3, -800.0, 800.0):
            out = hm_expit(x)
            assert np.ndim(out) == 0 and isinstance(out, float)
            assert out == pytest.approx(expit(x), rel=1e-15)

    def test_no_warnings(self):
        x = np.array([-1e308, -800.0, -745.0, 0.0, 800.0, 1e308, np.inf,
                      -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hm_expit(x)
            hm_expit(-800.0)
        np.testing.assert_array_equal(out[:3], 0.0)
        np.testing.assert_array_equal(out[4:7], 1.0)


class TestGaussianFit:
    """fit_glm has no gaussian fit; its checks on the design remain."""

    def test_rank_deficient_rejected(self):
        F0 = np.ones((4, 2))
        with pytest.raises(ValueError, match="rank deficient"):
            fit_glm(np.array([0.0, 1.0, 0.0, 1.0]), F0, BINOMIAL_LOGIT)

    def test_gaussian_family_rejected(self):
        """Gaussian fits are closed form in the SVD frame, so fit_glm takes
        no gaussian family, stacked or not."""
        F0 = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="closed form"):
            fit_glm(y, F0, GAUSSIAN)
        with pytest.raises(ValueError, match="closed form"):
            fit_glm(y, F0, GAUSSIAN, layout=GroupLayout([0, 3]))


class TestLogisticFit:
    def test_balanced_cells_give_zero(self):
        F0 = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = fit_glm(y, F0, BINOMIAL_LOGIT)
        np.testing.assert_allclose(fit.coef, [0.0, 0.0], atol=1e-12)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            fit_glm(np.array([0.0, 2.0]), np.ones((2, 1)), BINOMIAL_LOGIT)


class TestFirthFit:
    def test_separated_two_cell_oracle(self):
        """Two observations per cell, perfectly separated. Per-cell penalized
        stationarity gives fitted probabilities 1/6 and 5/6, so the
        coefficients are (-log 5, 2 log 5)."""
        F0 = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        fit = fit_glm(y, F0, BINOMIAL_LOGIT)
        assert fit.converged
        np.testing.assert_allclose(fit.coef, [-LN5, 2 * LN5], atol=1e-4)
        np.testing.assert_allclose(expit(F0 @ fit.coef),
                                   [1 / 6, 1 / 6, 5 / 6, 5 / 6], atol=1e-4)

    def test_intercept_only_all_ones(self):
        # stationarity: 4(1-mu) + 4*(1/4)*(1/2-mu) = 0  =>  mu = 9/10
        fit = fit_glm(np.ones(4), np.ones((4, 1)), BINOMIAL_LOGIT)
        np.testing.assert_allclose(fit.coef, [LN9], atol=1e-6)

    def test_matches_optimizer(self):
        rng = np.random.default_rng(7)
        F0 = np.column_stack([np.ones(40), rng.normal(size=40),
                              rng.normal(size=40)])
        y = (rng.random(40) < expit(F0 @ np.array([-0.3, 1.0, -0.7]))).astype(float)
        fit = fit_glm(y, F0, BINOMIAL_LOGIT)
        np.testing.assert_allclose(fit.coef, _optimize(y, F0),
                                   atol=1e-5)

    @staticmethod
    def _mixed_rank_stack():
        """Groups of every awkward shape, zero-padded to k = 4 columns: the
        cases, layout, right vectors ``I_r (+) 0``, stacked design and
        response."""
        rng = np.random.default_rng(31)
        x = rng.normal(size=8)
        cases = [  # (design, response)
            (np.array([[1.3]]), np.array([1.0])),                 # singleton
            (rng.normal(size=(3, 3)), np.array([0.0, 1.0, 1.0])),  # n < k
            (np.column_stack([np.ones(8), x]), (x > 0).astype(float)),  # separated
            (rng.normal(size=(6, 3)), np.ones(6)),                 # all ones
            (rng.normal(size=(10, 2)), (rng.random(10) < 0.5).astype(float)),
            (rng.normal(size=(30, 4)), (rng.random(30) < 0.4).astype(float)),
        ]
        sizes = np.array([F.shape[0] for F, _ in cases])
        ranks = np.array([F.shape[1] for F, _ in cases])
        layout = GroupLayout(np.append(0, np.cumsum(sizes)))
        F0 = np.zeros((sizes.sum(), 4))
        for lo, (F, _) in zip(layout.starts, cases):
            F0[lo:lo + F.shape[0], :F.shape[1]] = F
        y = np.concatenate([v for _, v in cases])
        V = np.eye(4) * (np.arange(4) < ranks[:, None])[:, None, :]
        return cases, layout, V, F0, y

    def test_stacked_mixed_ranks_match_optimizer(self):
        """One stacked fit of groups of every awkward shape matches a
        per-group BFGS fit, and padded coefficients are exactly 0."""
        cases, layout, V, F0, y = self._mixed_rank_stack()
        fit = fit_glm(y, F0, BINOMIAL_LOGIT, layout=layout, V=V)
        assert fit.converged.all()
        for i, (F, v) in enumerate(cases):
            r = F.shape[1]
            np.testing.assert_allclose(fit.coef[i, :r], _optimize(v, F),
                                       atol=1e-6)
            assert np.all(fit.coef[i, r:] == 0.0)

    def test_stacked_information_is_plugin_precision(self):
        """Each group's information is ``F0' diag(mu (1 - mu)) F0`` at its
        own fit, with the identity in the padded block and 0 across it."""
        cases, layout, V, F0, y = self._mixed_rank_stack()
        fit = fit_glm(y, F0, BINOMIAL_LOGIT, layout=layout, V=V)
        k, ranks = F0.shape[1], [F.shape[1] for F, _ in cases]
        assert fit.information.shape == (len(cases), k, k)
        for i, (lo, r) in enumerate(zip(layout.starts, ranks)):
            F = F0[lo:lo + cases[i][0].shape[0], :r]
            mu = expit(F @ fit.coef[i, :r])
            P = fit.information[i]
            expected = F.T @ (F * (mu * (1.0 - mu))[:, None])
            np.testing.assert_allclose(P[:r, :r], expected, rtol=1e-12,
                                       atol=1e-14 * np.abs(expected).max())
            assert np.array_equal(P[r:, r:], np.eye(k - r))
            assert not P[:r, r:].any() and not P[r:, :r].any()

    def test_identity_frame_is_the_padded_fit_bitwise(self):
        """With V = I_r (+) 0 the null-space stack is the identity in the
        padded block and the final rotation is exact, so the fit is bitwise
        the solver's fit of the zero-padded designs with that identity
        added to their information."""
        cases, layout, V, F0, y = self._mixed_rank_stack()
        fit = fit_glm(y, F0, BINOMIAL_LOGIT, layout=layout, V=V)
        pad = ~V.any(axis=1)
        ref = families._firth(y, F0, layout, pad[:, :, None] * np.eye(4))
        assert np.array_equal(fit.coef, ref.coef)
        assert np.array_equal(fit.information, ref.information)
        assert np.array_equal(fit.converged, ref.converged)
        assert fit.iterations == ref.iterations

    def test_finite_under_random_separation(self):
        """On separated data the penalized estimate stays moderate, though
        the unpenalized likelihood keeps rising along the separating
        direction, past the same bound."""
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(6, 21))
            r = int(rng.integers(2, 4))
            F0 = np.column_stack([np.ones(n), rng.normal(size=(n, r - 1))])
            a = rng.normal(size=r)
            y = (F0 @ a > 0).astype(float)
            if y.min() == y.max():
                continue
            fit = fit_glm(y, F0, BINOMIAL_LOGIT)
            assert fit.converged
            assert np.linalg.norm(fit.coef) < 20
            far = 20.0 * a / np.linalg.norm(a)
            assert (_penalized_negloglik(2.0 * far, y, F0, False)
                    < _penalized_negloglik(far, y, F0, False))

    def test_penalized_score_small_at_solution(self):
        """Recompute the modified score from scratch at the returned coef."""
        rng = np.random.default_rng(11)
        F0 = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = (rng.random(30) < 0.4).astype(float)
        fit = fit_glm(y, F0, BINOMIAL_LOGIT)
        mu = expit(F0 @ fit.coef)
        W = mu * (1 - mu)
        info = F0.T @ (F0 * W[:, None])
        H = (F0 * W[:, None]) @ np.linalg.solve(info, F0.T)
        h = np.diag(H)
        score = F0.T @ (y - mu + h * (0.5 - mu))
        assert np.linalg.norm(score) <= 1e-8

    def test_finite_difference_gradient(self):
        """The analytic modified score is the gradient of the penalized
        likelihood used in the step-halving line search."""
        rng = np.random.default_rng(13)
        F0 = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = (rng.random(20) < 0.5).astype(float)
        coef = np.array([0.3, -0.4])
        mu = expit(F0 @ coef)
        W = mu * (1 - mu)
        info = F0.T @ (F0 * W[:, None])
        h = np.diag((F0 * W[:, None]) @ np.linalg.solve(info, F0.T))
        analytic = F0.T @ (y - mu + h * (0.5 - mu))
        eps = 1e-6
        for k in range(2):
            dc = np.zeros(2)
            dc[k] = eps
            fd = (
                _penalized_negloglik(coef - dc, y, F0, True)
                - _penalized_negloglik(coef + dc, y, F0, True)
            ) / (2 * eps)
            np.testing.assert_allclose(analytic[k], fd, atol=1e-5)

    def test_seeded_stack_converges_within_ten_passes(self, monkeypatch):
        """The stacked fit of gen_replicate(600, 12000, 3, 3, logit, seed=1)
        summaries: every group converges, each group's penalized score,
        recomputed from its own rows, is within the 1e-8 stop, and the
        stack takes at most 10 passes (the count of the all-Newton solver
        before the Fisher warm-up)."""
        calls = []

        def spy(y, F, family, layout=None, V=None):
            fit = fit_glm(y, F, family, layout=layout, V=V)
            calls.append((y, F, layout, V, fit))
            return fit

        monkeypatch.setattr(groups, "fit_glm", spy)
        ds, _ = gen_replicate(600, 12000, 3, 3, BINOMIAL_LOGIT, seed=1)
        fit_moment(ds, BINOMIAL_LOGIT)
        (y, XZ, layout, V, fit), = calls
        assert fit.converged.all()
        assert fit.iterations <= 10
        ranks = V.any(axis=1).sum(axis=1)
        for lo, hi, r, Vi, coef in zip(layout.offsets[:-1], layout.offsets[1:],
                                       ranks, V, fit.coef):
            F, v = XZ[lo:hi] @ Vi[:, :r], y[lo:hi]
            mu = expit(F @ coef[:r])
            W = mu * (1 - mu)
            h = np.einsum("ij,ji->i", F * W[:, None],
                          np.linalg.solve(F.T @ (F * W[:, None]), F.T))
            assert np.linalg.norm(F.T @ (v - mu + h * (0.5 - mu))) <= 1e-8


class TestChunkInvariance:
    """Each group's Firth fit depends on its own rows only, so the stacked
    fit of any subset of the groups, ``layout.take(groups)`` in any order,
    gives those groups' rows of the full fit bitwise."""

    @staticmethod
    def _stack(monkeypatch, M, N, seed):
        calls = []

        def spy(y, F, family, layout=None, V=None):
            fit = fit_glm(y, F, family, layout=layout, V=V)
            calls.append((y, F, layout, V, fit))
            return fit

        monkeypatch.setattr(groups, "fit_glm", spy)
        ds, _ = gen_replicate(M, N, 3, 3, BINOMIAL_LOGIT, seed=seed)
        groups.summarize_groups(ds, BINOMIAL_LOGIT)
        (stack,) = calls
        return stack

    @pytest.mark.parametrize("M, N, seed, long", [
        (600, 12000, 5, False), (60, 60000, 6, True)],
        ids=["small_groups", "groups_over_one_block"])
    def test_subsets_match_the_full_fit(self, monkeypatch, M, N, seed, long):
        y, F, layout, V, fit = self._stack(monkeypatch, M, N, seed)
        # rows of one block of the widest (exact Newton) sums
        k = F.shape[1]
        block = data._BLOCK_ENTRIES // (k + math.comb(k + 1, 2)
                                        + math.comb(k + 2, 3))
        assert (layout.sizes > block).any() == long
        assert fit.converged.all()
        rng = np.random.default_rng(seed)
        M = layout.sizes.size
        subsets = [rng.permutation(M)[:size]
                   for size in (1, M // 7, M // 2, M - 1)]
        subsets += [np.sort(subsets[2]), rng.permutation(M)]
        for g in subsets:
            sub, rows = layout.take(g)
            part = fit_glm(y[rows], F[rows], BINOMIAL_LOGIT, layout=sub,
                           V=V[g])
            assert np.array_equal(part.coef, fit.coef[g])
            assert np.array_equal(part.converged, fit.converged[g])


class TestFrameOracle:
    """The stacked fit reads each group's own [X Z] rows and rotates into
    its V frame once, at the end. Each summarized group's theta and
    precision match a one-group fit on ``[X Z] V[:, :r]``, built here, and
    its padded entries are exactly 0 and exactly the identity."""

    @pytest.mark.parametrize("aliased", [False, True],
                             ids=["own_columns", "z_is_x12"])
    def test_summaries_match_one_group_fits_in_the_v_frame(self, aliased):
        ds, _ = gen_replicate(300, 1500, 3, 3, BINOMIAL_LOGIT, seed=4)
        X, Z = ds.X, ds.X[:, :2] if aliased else ds.Z
        ds = data.GroupedDataset.from_long(ds.y, X, Z,
                                           np.repeat(ds.ids, ds.layout.sizes))
        k = ds.p + ds.q
        columns, skipped = groups.summarize_groups(ds, BINOMIAL_LOGIT)
        assert (ds.layout.sizes < k).sum() > 100 and not skipped
        # With Z = X[:, :2] every group's [X Z] is rank deficient.
        assert (columns["r"] < k).all() if aliased \
            else (columns["r"] == k).any()
        rows = dict(zip(ds.ids, ds.layout.split(np.arange(ds.n_obs))))
        F, scale = np.hstack([X, Z]), np.abs(columns["theta"]).max()
        for gid, r, V, theta, P in zip(columns["ids"], columns["r"],
                                       columns["V"], columns["theta"],
                                       columns["precision"]):
            j = rows[gid]
            ref = fit_glm(ds.y[j], F[j] @ V[:, :r], BINOMIAL_LOGIT)
            np.testing.assert_allclose(theta[:r], ref.coef, rtol=0,
                                       atol=1e-10 * scale)
            np.testing.assert_allclose(
                P[:r, :r], ref.information, rtol=0,
                atol=1e-10 * np.abs(ref.information).max())
            assert not theta[r:].any()
            assert np.array_equal(P[r:, r:], np.eye(k - r))
            assert not P[:r, r:].any() and not P[r:, :r].any()


class TestSmallMatrixPaths:
    """The Cholesky shortcuts of the Firth solver against the general
    routines they stand in for."""

    def test_cholesky_logdet_equals_slogdet(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(50, 5, 8))
        S = G @ G.swapaxes(1, 2)
        sign, logdet = np.linalg.slogdet(S)
        assert np.all(sign > 0)
        np.testing.assert_allclose(families._logdet_pd(S), logdet,
                                   rtol=1e-12, atol=1e-12)

    def test_non_pd_information_is_minus_inf_for_that_group_only(self):
        """Group 1's design has a zero column, so its information is
        singular: the batched Cholesky fails, and the slogdet fallback gives
        -inf for that group and the usual value for the others. An
        indefinite matrix, whose log|det| is finite, also gives -inf."""
        rng = np.random.default_rng(5)
        F = rng.normal(size=(12, 2))
        F[4:7, 1] = 0.0
        y = (rng.random(12) < 0.5).astype(float)
        layout = GroupLayout([0, 4, 7, 12])
        coef = np.array([[0.2, -0.1], [0.3, 0.5], [-0.4, 0.2]])
        mu, w, info, objective = families._penalized(
            y, F, layout, np.zeros((3, 2, 2)), coef)
        eta = np.einsum("nj,nj->n", F, np.repeat(coef, [4, 3, 5], axis=0))
        ll = np.add.reduceat(y * eta - np.log1p(np.exp(eta)), [0, 4, 7])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(info)
        assert objective[1] == -np.inf
        expected = ll + 0.5 * np.linalg.slogdet(info)[1]
        np.testing.assert_allclose(objective[[0, 2]], expected[[0, 2]],
                                   rtol=1e-13)
        info[1] = np.diag([2.0, -3.0])
        logdet = families._logdet_pd(info)
        assert logdet[1] == -np.inf
        np.testing.assert_array_equal(logdet[[0, 2]],
                                      np.linalg.slogdet(info[[0, 2]])[1])

    def test_row_products_follow_sym_index(self):
        """The prefix-times-column products equal, bitwise, the products of
        the index tuples that _sym_index lists, for every order and k."""
        rng = np.random.default_rng(7)
        for k in range(1, 7):
            ft = rng.normal(size=(k, 9))
            lower = ft
            for order in (2, 3):
                combos = families._sym_index(k, order)[0]
                got = families._next_order(lower, order, ft,
                                           np.empty((len(combos), 9)))
                want = ft[combos[:, 0]]
                for j in range(1, order):
                    want = want * ft[combos[:, j]]
                np.testing.assert_array_equal(got, want)
                lower = got

    def test_newton_mask_matches_eigvalsh(self):
        """A stack mixing negative definite Hessians with indefinite,
        semidefinite and positive definite ones gets the eigvalsh mask; an
        all negative definite stack is all Newton."""
        rng = np.random.default_rng(9)
        G = rng.normal(size=(40, 4, 6))
        H = -(G @ G.swapaxes(1, 2))
        nd = families._negative_definite(H)
        assert nd.all()
        np.testing.assert_array_equal(nd, np.linalg.eigvalsh(H)[:, -1] < 0.0)
        H[[3, 17]] *= -1.0                                # positive definite
        H[[8, 30], 0, 0] = -H[[8, 30], 0, 0] + 50.0       # indefinite
        H[21] = -np.outer(G[21, :, 0], G[21, :, 0])      # semidefinite
        mask = families._negative_definite(H)
        np.testing.assert_array_equal(mask, np.linalg.eigvalsh(H)[:, -1] < 0.0)
        assert mask.sum() == 35


class TestUnscaledPrecision:
    """One-group checks of the plug-in precision, the Firth fit's
    information at its coefficients."""

    def test_binomial_weights(self):
        """Balanced cells fit exactly 0, so every weight is 1/4 and the
        information is exactly F0' F0 / 4."""
        F0 = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        fit = fit_glm(np.array([0.0, 1.0, 0.0, 1.0]), F0, BINOMIAL_LOGIT)
        assert np.array_equal(fit.coef, [0.0, 0.0])
        assert np.array_equal(fit.information, [[1.0, 0.5], [0.5, 0.5]])

    def test_degenerate_raises(self):
        """A singular plug-in precision is reported by singular_precision,
        with its reason, at its position in the stack; a fit's information
        on a full-rank design passes."""
        F0 = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        fit = fit_glm(np.array([0.0, 1.0, 0.0, 1.0]), F0, BINOMIAL_LOGIT)
        aliased = np.full((2, 2), 0.75)  # two aliased columns of 3 rows, w = 1/4
        problems = singular_precision(np.stack([fit.information, aliased]),
                                      [2, 2])
        assert list(problems) == [1]
        assert "numerically singular" in problems[1]
