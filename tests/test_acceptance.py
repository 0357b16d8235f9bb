"""Release gate: ten numbered checks, one test per criterion.

The verbose pytest line for each ``test_cNN_*`` is the pass/fail record; on
success the test also prints a ``[criterion NN] PASS`` line with the measured
quantities (visible with ``-s`` or in captured output).

Criteria:
  01 noiseless recovery is exact and fast
  02 balanced one-way closed form (unweighted scheme)
  03 fixed-effect estimator is unbiased with covariance under kappa/Omega
  04 covariance statistic centers on Sigma + phi*B
  05 weight-scheme spectral bounds hold on random inputs
  06 bias-reduced logistic matches a grid-search oracle under separation
  07 simulated losses shrink with sample size; predictions beat baselines
  08 scalar posterior oracle
  09 determinism across input orderings; near-linear cost in group count
  10 scale equivariance of estimates
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from hiermoment.combine import (
    FitOptions,
    WeightSpec,
    fit_moment,
    kappa_bound,
    kappa_check,
    make_weights,
    omega2_and_bias,
    shat,
)
from hiermoment.data import GroupData, GroupedDataset
from hiermoment.ebayes import posterior
from hiermoment.families import BINOMIAL_LOGIT, GAUSSIAN, fit_glm
from hiermoment.groups import GroupSummary, SummarySet
from hiermoment.simulate import gen_replicate, run_study

LN5 = math.log(5.0)


def _report(num, detail):
    print(f"[criterion {num:02d}] PASS: {detail}")


def test_c01_noiseless_exact_recovery():
    rng = np.random.default_rng(101)
    beta = rng.normal(size=2)
    groups = []
    for i in range(20):
        X = rng.normal(size=(10, 2))
        Z = rng.normal(size=(10, 2))
        groups.append(GroupData(group_id=i, y=X @ beta, X=X, Z=Z))
    ds = GroupedDataset(groups=tuple(groups), p=2, q=2)
    t0 = time.perf_counter()
    fit = fit_moment(ds, GAUSSIAN)
    elapsed = time.perf_counter() - t0
    err = np.max(np.abs(fit.beta - beta))
    assert err <= 1e-10
    assert np.max(np.abs(fit.sigma)) <= 1e-10
    assert abs(fit.phi) <= 1e-10
    assert elapsed < 1.0
    _report(1, f"beta err {err:.2e}, |sigma| {np.max(np.abs(fit.sigma)):.2e}, "
               f"phi {fit.phi:.2e}, {elapsed * 1e3:.0f} ms")


def test_c02_one_way_closed_form():
    rng = np.random.default_rng(202)
    M, n = 12, 15
    ys = [1.5 + math.sqrt(0.8) * rng.normal()
          + math.sqrt(1.3) * rng.standard_normal(n) for _ in range(M)]
    ones = np.ones((n, 1))
    groups = tuple(GroupData(group_id=i, y=ys[i], X=ones, Z=ones)
                   for i in range(M))
    ds = GroupedDataset(groups=groups, p=1, q=1)
    fit = fit_moment(ds, GAUSSIAN, FitOptions(scheme="unweighted"))

    ybars = np.array([y.mean() for y in ys])
    beta0 = ybars.mean()
    phi0 = sum(((y - y.mean()) ** 2).sum() for y in ys) / (M * (n - 1))
    sigma0 = np.mean((ybars - beta0) ** 2) - phi0 * np.mean([1 / n] * M)
    assert sigma0 > 0  # keeps raw == projected for this draw
    np.testing.assert_allclose(fit.beta, [beta0], rtol=1e-10)
    np.testing.assert_allclose(fit.phi, phi0, rtol=1e-10)
    np.testing.assert_allclose(fit.sigma_raw, [[sigma0]], rtol=1e-10)
    np.testing.assert_allclose(fit.sigma, [[sigma0]], rtol=1e-10)
    _report(2, f"beta {beta0:.6f}, sigma {sigma0:.6f}, phi {phi0:.6f}, "
               "all at 1e-10")


BETA_TRUE = np.array([0.5, -1.0])
SIGMA_TRUE = np.array([[0.4, 0.1], [0.1, 0.25]])
PHI_TRUE = 1.0


@pytest.fixture(scope="module")
def moment_relations():
    """Shared 1000-replicate gaussian study at M=50, n=20, p=q=2 with fixed
    sign designs (so standardization is the identity and the unweighted
    moment relations hold exactly)."""
    M, n, p, q = 50, 20, 2, 2
    reps = 1000
    rng = np.random.default_rng(318008)
    Xs = rng.choice([-1.0, 1.0], size=(M, n, p))
    Zs = rng.choice([-1.0, 1.0], size=(M, n, q))
    L = np.linalg.cholesky(SIGMA_TRUE)
    spec = WeightSpec.unweighted()
    opts = FitOptions(scheme="unweighted")

    betas = np.empty((reps, p))
    svals = np.empty((reps, q, q))
    operator = bias = omega = kappa = None
    t0 = time.perf_counter()
    for k in range(reps):
        us = rng.standard_normal((M, q)) @ L.T
        eps = rng.standard_normal((M, n))
        groups = tuple(
            GroupData(group_id=i, X=Xs[i], Z=Zs[i],
                      y=Xs[i] @ BETA_TRUE + Zs[i] @ us[i] + eps[i])
            for i in range(M)
        )
        fit = fit_moment(GroupedDataset(groups=groups, p=p, q=q),
                         GAUSSIAN, opts)
        betas[k] = fit.beta
        weights = make_weights(fit.summary_set, spec)
        if operator is None:  # designs are fixed, so these never change
            operator, bias = omega2_and_bias(fit.summary_set, weights)
            omega = fit.omega
            kappa = kappa_bound(spec, SIGMA_TRUE, PHI_TRUE, fit.summary_set)
        svals[k] = shat(fit.summary_set, weights, BETA_TRUE,
                        operator=operator) - PHI_TRUE * bias
    elapsed = time.perf_counter() - t0
    return {"betas": betas, "svals": svals, "omega": omega,
            "kappa": kappa, "elapsed": elapsed}


def test_c03_fixed_effect_moment_relations(moment_relations):
    betas = moment_relations["betas"]
    reps = betas.shape[0]
    se = betas.std(axis=0, ddof=1) / math.sqrt(reps)
    dev = np.abs(betas.mean(axis=0) - BETA_TRUE)
    assert np.all(dev <= 4 * se)

    C = np.cov(betas.T)
    target = moment_relations["kappa"] * np.linalg.inv(
        moment_relations["omega"])
    se_cov = np.sqrt(
        (np.outer(np.diag(C), np.diag(C)) + C ** 2) / (reps - 1)
    )
    slack = 4 * se_cov.max()
    gap = np.linalg.eigvalsh(target + slack * np.eye(2) - C)[0]
    assert gap >= 0
    assert moment_relations["elapsed"] < 120
    _report(3, f"mean dev {dev.max():.2e} vs 4SE {4 * se.max():.2e}; "
               f"cov slack eig {gap:.2e}; "
               f"{moment_relations['elapsed']:.0f} s")


def test_c04_covariance_statistic_centering(moment_relations):
    svals = moment_relations["svals"]
    reps = svals.shape[0]
    mean_S = svals.mean(axis=0)
    se = svals.std(axis=0, ddof=1) / math.sqrt(reps)
    dev = np.abs(mean_S - SIGMA_TRUE)
    assert np.all(dev <= 4 * se)
    _report(4, f"max |mean(S) - Sigma| {dev.max():.4f} "
               f"vs 4SE {(4 * se).min():.4f}..{(4 * se).max():.4f}")


def test_c05_weight_scheme_spectral_bounds():
    rng = np.random.default_rng(505)
    worst = -np.inf
    for _ in range(1000):
        q = int(rng.integers(1, 5))
        p = int(rng.integers(1, 3))
        m = p + q
        summaries = []
        for g in range(3):
            r = int(rng.integers(1, m + 1))
            V, _ = np.linalg.qr(rng.standard_normal((m, r)))
            d = rng.uniform(0.3, 3.0, size=r)
            summaries.append(GroupSummary(
                group_id=g, n=10, r=r, V1=V[:p], V2=V[p:],
                theta_rot=np.zeros(r), precision=np.diag(d * d),
                dispersion=None,
            ))
        sset = SummarySet(summaries=tuple(summaries), p=p, q=q,
                          pooled_dispersion=1.0,
                          rho=sum(s.r for s in summaries),
                          n_obs=30, skipped=())
        A = rng.standard_normal((q, q))
        sigma = A @ A.T / q + 0.05 * np.eye(q)
        A0 = rng.standard_normal((q, q))
        sigma0 = A0 @ A0.T / q + 0.05 * np.eye(q)
        phi = float(rng.uniform(0.2, 3.0))
        for spec in [WeightSpec.unweighted(), WeightSpec.weighted(),
                     WeightSpec.semi_weighted(sigma0),
                     WeightSpec.optimal(sigma, phi)]:
            weights = make_weights(sset, spec)
            vals = kappa_check(weights, sigma, phi, sset)
            gap = vals.max() - kappa_bound(spec, sigma, phi, sset)
            worst = max(worst, gap)
    assert worst <= 1e-8
    _report(5, f"worst bound excess {worst:.2e} over 1000 draws x 4 schemes")


def _penalized_negloglik(a, b, x, y):
    eta = a + b * x
    mu = 1.0 / (1.0 + np.exp(-eta))
    ll = y @ eta - np.logaddexp(0.0, eta).sum()
    F = np.column_stack([np.ones_like(x), x])
    info = F.T @ (F * (mu * (1 - mu))[:, None])
    _, logdet = np.linalg.slogdet(info)
    return -(ll + 0.5 * logdet)


def test_c06_separated_logistic_grid_oracle():
    x = np.array([-1.0, -1.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    fit = fit_glm(y, np.column_stack([np.ones(4), x]), BINOMIAL_LOGIT,
                  firth=True)
    assert fit.converged

    ca = cb = 0.0
    span = 6.0
    for _ in range(5):
        avals = np.linspace(ca - span, ca + span, 61)
        bvals = np.linspace(cb - span, cb + span, 61)
        grid = np.array([[_penalized_negloglik(a, b, x, y) for b in bvals]
                         for a in avals])
        ia, ib = np.unravel_index(grid.argmin(), grid.shape)
        ca, cb = avals[ia], bvals[ib]
        span /= 15.0
    grid_coef = np.array([ca, cb])

    err = np.max(np.abs(fit.coef - grid_coef))
    assert err <= 1e-4
    np.testing.assert_allclose(fit.coef, [0.0, LN5], atol=1e-4)
    logits = np.array([fit.coef[0] - fit.coef[1], fit.coef[0] + fit.coef[1]])
    np.testing.assert_allclose(logits, [-LN5, LN5], atol=1e-4)
    _report(6, f"coef {fit.coef.round(6)} vs grid {grid_coef.round(6)}, "
               f"max err {err:.2e}")


def test_c07_study_losses_shrink_and_beat_baselines():
    grid = [2000, 20000, 100000]
    t0 = time.perf_counter()
    rows = run_study(grid, M=200, p=3, q=3, replicates=20,
                     family=BINOMIAL_LOGIT, seed=7)
    elapsed = time.perf_counter() - t0
    by = {(r.method, r.n_obs): r for r in rows}
    hier = [by[("hier", N)] for N in grid]
    assert all(r.failures == 0 for r in rows)
    for field in ["fixed_median", "cov_median", "raneff_median",
                  "pred_median"]:
        seq = [getattr(r, field) for r in hier]
        assert seq[0] > seq[1] > seq[2], (field, seq)
    top = grid[-1]
    assert by[("hier", top)].pred_median < by[("global", top)].pred_median
    assert by[("hier", top)].pred_median < by[("local", top)].pred_median
    assert elapsed < 900
    _report(7, "hier pred medians "
               f"{[round(r.pred_median, 5) for r in hier]}, "
               f"global {by[('global', top)].pred_median:.5f} / "
               f"local {by[('local', top)].pred_median:.5f} at N={top}; "
               f"{elapsed:.0f} s")


def test_c08_scalar_posterior_oracle():
    inv = 1.0 / math.sqrt(2.0)
    summary = GroupSummary(
        group_id=0, n=4, r=1,
        V1=np.array([[inv]]), V2=np.array([[inv]]),
        theta_rot=np.array([2.0 * inv]),
        precision=np.array([[8.0]]),
        dispersion=None,
    )
    mean, cov = posterior(summary, np.zeros(1), np.eye(1), phi=1.0)
    np.testing.assert_allclose(mean, [1.6], atol=1e-10)
    np.testing.assert_allclose(cov, [[0.2]], atol=1e-10)
    _report(8, f"mean {mean[0]:.12f}, cov {cov[0, 0]:.12f}")


def test_c09_determinism_and_group_count_scaling():
    ds, _ = gen_replicate(300, 9000, 2, 2, GAUSSIAN, seed=909)
    fit1 = fit_moment(ds, GAUSSIAN, FitOptions())

    rng = np.random.default_rng(910)
    perm = rng.permutation(len(ds.groups))
    y = np.concatenate([ds.groups[i].y for i in perm])
    X = np.vstack([ds.groups[i].X for i in perm])
    Z = np.vstack([ds.groups[i].Z for i in perm])
    ids = np.concatenate(
        [np.full(ds.groups[i].y.shape[0], ds.groups[i].group_id)
         for i in perm]
    )
    fitp = fit_moment(GroupedDataset.from_long(y, X, Z, ids), GAUSSIAN,
                      FitOptions())
    assert np.array_equal(fit1.beta, fitp.beta)
    assert np.array_equal(fit1.sigma, fitp.sigma)

    ds1, _ = gen_replicate(10**4, 10**6, 2, 2, GAUSSIAN, seed=99)
    ds2, _ = gen_replicate(10**4, 2 * 10**6, 2, 2, GAUSSIAN, seed=99)

    def best_of_two(d):
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            fit_moment(d, GAUSSIAN, FitOptions())
            times.append(time.perf_counter() - t0)
        return min(times)

    t_1m = best_of_two(ds1)
    t_2m = best_of_two(ds2)
    assert t_1m < 60.0
    assert t_2m < 2.5 * t_1m
    _report(9, f"bitwise equal across orderings; "
               f"1M rows {t_1m:.2f} s, 2M rows {t_2m:.2f} s "
               f"(ratio {t_2m / t_1m:.2f})")


def test_c10_scale_equivariance():
    rng = np.random.default_rng(1010)
    beta = np.array([0.8, -0.4])
    L = np.linalg.cholesky(np.array([[0.5, 0.15], [0.15, 0.3]]))
    groups, groups_s = [], []
    cx = np.array([1.0, 10.0])  # second fixed column rescaled
    cz = np.array([10.0, 1.0])  # first random column rescaled
    for i in range(30):
        X = rng.normal(size=(8, 2))
        Z = rng.normal(size=(8, 2))
        u = L @ rng.standard_normal(2)
        y = X @ beta + Z @ u + rng.standard_normal(8)
        groups.append(GroupData(group_id=i, y=y, X=X, Z=Z))
        groups_s.append(GroupData(group_id=i, y=y, X=X * cx, Z=Z * cz))
    base = fit_moment(GroupedDataset(groups=tuple(groups), p=2, q=2),
                      GAUSSIAN)
    scaled = fit_moment(GroupedDataset(groups=tuple(groups_s), p=2, q=2),
                        GAUSSIAN)

    beta_back = scaled.beta * cx
    sigma_back = scaled.sigma * np.outer(cz, cz)
    rel_b = np.linalg.norm(beta_back - base.beta) / np.linalg.norm(base.beta)
    rel_s = (np.linalg.norm(sigma_back - base.sigma)
             / np.linalg.norm(base.sigma))
    assert rel_b < 1e-6
    assert rel_s < 1e-6
    _report(10, f"relative drift beta {rel_b:.2e}, sigma {rel_s:.2e}")
