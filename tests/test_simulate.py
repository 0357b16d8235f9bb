"""Simulation-harness checks: generator determinism and moments, the four
loss functionals, baseline fitters, and study aggregation.

The Bernoulli prediction-loss oracle is evaluated from the KL formula by hand:
mu=0.8 against mu_hat=0.5 gives 2*(0.8 ln 1.6 + 0.2 ln 0.4) = 0.38551.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hiermoment.combine import MomentFit, ScaleRecord, fit_moment
from hiermoment.data import GroupData, GroupedDataset
from hiermoment import groups, simulate
from hiermoment.ebayes import PosteriorSet, posterior_set
from hiermoment.errors import SingularOmega2Error, ZeroRankError
from hiermoment.families import BINOMIAL_LOGIT, GAUSSIAN, expit, fit_glm
from hiermoment.groups import summarize_groups
from hiermoment.linalg import compact_svd
from hiermoment.simulate import (
    LocalFit,
    SimTruth,
    fit_global,
    fit_local,
    gen_replicate,
    losses,
    run_study,
    study_table,
)
from hiermoment.simulate import _group_keys, _pred_loss, _seed_state


def _stub_fit(beta, sigma, phi=1.0):
    """MomentFit carrying only the fields the loss code reads."""
    p, q = beta.shape[0], sigma.shape[0]
    record = ScaleRecord(x_scale=np.ones(p), z_scale=np.ones(q))
    return MomentFit(
        beta=beta, sigma_raw=sigma, sigma=sigma, phi=phi,
        omega=np.eye(p), omega2_min_eig=1.0, bias_B=np.zeros((q, q)),
        projected=False, steps=0, scale_record=record, summary_set=None,
        beta_scaled=beta, sigma_scaled=sigma,
    )


def _posteriors_from(u_rows, ids, q):
    ids = tuple(ids)
    return PosteriorSet(ids, u_rows[np.array(ids, dtype=np.intp)],
                        np.zeros((len(ids), q, q)))


class TestGenerator:
    def test_deterministic_given_seed(self):
        a_ds, a_truth = gen_replicate(10, 200, 2, 2, BINOMIAL_LOGIT, seed=5)
        b_ds, b_truth = gen_replicate(10, 200, 2, 2, BINOMIAL_LOGIT, seed=5)
        assert np.array_equal(a_truth.beta, b_truth.beta)
        assert np.array_equal(a_truth.Sigma, b_truth.Sigma)
        assert np.array_equal(a_truth.u, b_truth.u)
        for ga, gb in zip(a_ds.groups, b_ds.groups):
            assert np.array_equal(ga.y, gb.y)
            assert np.array_equal(ga.X, gb.X)
        c_ds, c_truth = gen_replicate(10, 200, 2, 2, BINOMIAL_LOGIT, seed=6)
        assert not np.array_equal(a_truth.beta, c_truth.beta)

    def test_tuple_seed_streams(self):
        _, t1 = gen_replicate(4, 40, 2, 2, GAUSSIAN, seed=(3, 0, 1))
        _, t2 = gen_replicate(4, 40, 2, 2, GAUSSIAN, seed=(3, 0, 2))
        assert not np.array_equal(t1.beta, t2.beta)

    def test_allocation_sums_to_n(self):
        for seed in range(5):
            ds, truth = gen_replicate(7, 123, 2, 2, GAUSSIAN, seed=seed)
            assert truth.n_alloc.sum() == 123
            assert sum(g.n for g in ds.groups) == 123
            assert len(ds.groups) == np.count_nonzero(truth.n_alloc)
            assert truth.mu.shape == ds.y.shape

    def test_design_entries_are_signs(self):
        ds, _ = gen_replicate(5, 300, 3, 2, BINOMIAL_LOGIT, seed=11)
        for g in ds.groups:
            assert set(np.unique(g.X)) <= {-1.0, 1.0}
            assert set(np.unique(g.Z)) <= {-1.0, 1.0}
            assert set(np.unique(g.y)) <= {0.0, 1.0}

    def test_binary_vs_gaussian_response(self):
        ds, truth = gen_replicate(5, 200, 2, 2, GAUSSIAN, seed=13)
        y = np.concatenate([g.y for g in ds.groups])
        assert np.unique(y).size > 2
        for g, mu in zip(ds.groups, ds.layout.split(truth.mu)):
            np.testing.assert_array_equal(mu, g.X @ truth.beta
                                          + g.Z @ truth.u[g.group_id])

    def test_generator_moments(self):
        """beta is t(4): mean 0, variance 2; E(Sigma) = 0.1 I / (q - 1)
        for the 2q-df inverse Wishart (q=4 keeps its variance finite)."""
        p, q = 2, 4
        draws_b = np.empty((5000, p))
        draws_S = np.empty((5000, q, q))
        for k in range(5000):
            _, truth = gen_replicate(1, 1, p, q, GAUSSIAN, seed=(100, k))
            draws_b[k] = truth.beta
            draws_S[k] = truth.Sigma
        flat = draws_b.ravel()
        se = flat.std(ddof=1) / math.sqrt(flat.size)
        assert abs(flat.mean()) < 4 * se
        assert abs(flat.var(ddof=1) - 2.0) < 0.2  # within 10% of t4 variance

        target = 0.1 * np.eye(q) / (q - 1)
        mean_S = draws_S.mean(axis=0)
        se_S = draws_S.std(axis=0, ddof=1) / math.sqrt(5000)
        assert np.all(np.abs(mean_S - target) < 4 * se_S)


def _reference_replicate(M, N, p, q, family, seed):
    """gen_replicate as first written: a new Philox generator per group,
    seeded through SeedSequence, X and Z drawn by two calls, and the
    dataset built from GroupData blocks."""
    base = tuple(seed) if isinstance(seed, tuple) else (seed,)

    def stream(*key):
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence(key)))

    pop_rng = stream(*base, 0)
    beta = pop_rng.standard_t(4, size=p)
    A = np.zeros((q, q))
    A[np.tril_indices(q, -1)] = pop_rng.standard_normal(q * (q - 1) // 2)
    A[np.diag_indices(q)] = np.sqrt(pop_rng.chisquare(2 * q - np.arange(q)))
    Linv = np.linalg.solve(A, np.eye(q))
    Sigma = 0.1 * (Linv.T @ Linv)
    Sigma = (Sigma + Sigma.T) / 2.0
    rates = pop_rng.exponential(scale=N / M, size=M)
    n_alloc = pop_rng.multinomial(N, rates / rates.sum())
    chol = np.linalg.cholesky(Sigma)
    u = np.empty((M, q))
    groups, mus = [], []
    for i in range(M):
        rng = stream(*base, 1, i)
        u[i] = chol @ rng.standard_normal(q)
        n = int(n_alloc[i])
        if n == 0:
            continue
        X = 2.0 * rng.integers(0, 2, size=(n, p)) - 1.0
        Z = 2.0 * rng.integers(0, 2, size=(n, q)) - 1.0
        eta = X @ beta + Z @ u[i]
        if family.name == "gaussian":
            mu, y = eta, eta + rng.standard_normal(n)
        else:
            mu = expit(eta)
            y = (rng.random(n) < mu).astype(float)
        groups.append(GroupData(i, y, X, Z))
        mus.append(mu)
    return (GroupedDataset(groups, p, q),
            SimTruth(beta=beta, Sigma=Sigma, u=u, mu=np.concatenate(mus),
                     n_alloc=n_alloc))


# (M, N, p, q, seed, chunk entries): a replicate of many chunks, with odd
# n (p + q) so that groups leave a half word unused, and one whose largest
# group holds more entries than a chunk.
_CHUNK_CASES = [(40, 900, 2, 1, 7, 48), (12, 600, 2, 3, 5, 256)]


class TestReplicateStreams:
    """gen_replicate re-keys one Philox per group and hashes every group's
    key at once; its draws must be those of one new generator per group."""

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    @pytest.mark.parametrize("M, N, p, q, seed, chunk", [
        (40, 900, 3, 3, 7, None),
        (25, 300, 2, 2, (2**40 + 3, 1), None),
        (30, 250, 1, 2, (3, 1, 4, 1, 5), None),
        (12, 97, 2, 1, 5, None),
        (60, 40, 2, 2, 11, None),
        (3, 50, 2, 3, (0, 2**64 + 9), None),
        *_CHUNK_CASES,
    ], ids=["int_seed", "word_over_2_32", "five_ints", "odd_signs",
            "zero_row_groups", "few_groups", "several_chunks",
            "group_over_a_chunk"])
    def test_matches_per_group_reference(self, M, N, p, q, seed, chunk,
                                         family, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", chunk)
        ds, truth = gen_replicate(M, N, p, q, family, seed=seed)
        ref_ds, ref = _reference_replicate(M, N, p, q, family, seed)
        for name in ("y", "X", "Z"):
            assert np.array_equal(getattr(ds, name), getattr(ref_ds, name))
        assert np.array_equal(ds.layout.offsets, ref_ds.layout.offsets)
        assert ds.layout.offsets.dtype == ref_ds.layout.offsets.dtype
        assert ds.ids == ref_ds.ids
        for name in ("u", "beta", "Sigma", "n_alloc"):
            assert np.array_equal(getattr(truth, name), getattr(ref, name))
        assert np.array_equal(truth.mu, ref.mu)

    def test_cases_reach_their_branches(self):
        """The odd and empty-group cases above test what their names say."""
        _, odd = gen_replicate(12, 97, 2, 1, GAUSSIAN, seed=5)
        assert np.any(odd.n_alloc * 3 % 2 == 1)
        _, sparse = gen_replicate(60, 40, 2, 2, GAUSSIAN, seed=11)
        assert np.any(sparse.n_alloc == 0)

    def test_chunk_cases_reach_their_branches(self):
        (M, N, p, q, seed, chunk), (M2, N2, p2, q2, seed2, chunk2) = \
            _CHUNK_CASES
        _, many = gen_replicate(M, N, p, q, GAUSSIAN, seed=seed)
        entries = many.n_alloc * (p + q)
        assert entries.sum() > 10 * chunk and np.any(entries % 2 == 1)
        _, large = gen_replicate(M2, N2, p2, q2, GAUSSIAN, seed=seed2)
        entries = large.n_alloc * (p2 + q2)
        assert entries.max() > chunk2 and np.any(entries < chunk2 // 2)

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_wide_designs_keep_every_draw(self, family, monkeypatch):
        """With p or q above 3, mu is summed column by column: every draw is
        the reference's, and mu agrees to the rounding of a reordered sum
        (the reference's per-group BLAS products round by the row's place
        in its group). The replicate does not depend on the chunk budget."""
        M, N, p, q, seed = 30, 700, 5, 4, 17
        ref_ds, ref = _reference_replicate(M, N, p, q, family, seed)
        runs = []
        for chunk in (7, 300, 1 << 16):
            monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", chunk)
            runs.append(gen_replicate(M, N, p, q, family, seed=seed))
        ds, truth = runs[-1]
        for name in ("X", "Z"):
            assert np.array_equal(getattr(ds, name), getattr(ref_ds, name))
        for name in ("u", "beta", "Sigma", "n_alloc"):
            assert np.array_equal(getattr(truth, name), getattr(ref, name))
        # Each row's eta sums p + q terms of at most this total magnitude.
        eps = np.finfo(float).eps
        tol = (p + q) * eps * (np.abs(truth.beta).sum()
                               + np.abs(truth.u).sum(axis=1).max())
        np.testing.assert_allclose(truth.mu, ref.mu, rtol=0, atol=tol)
        if family is BINOMIAL_LOGIT:
            assert np.array_equal(ds.y, ref_ds.y)
        else:
            np.testing.assert_allclose(ds.y, ref_ds.y, rtol=0, atol=tol
                                       + eps * np.abs(ref_ds.y).max())
        for other_ds, other in runs[:-1]:
            for name in ("y", "X", "Z"):
                assert np.array_equal(getattr(other_ds, name),
                                      getattr(ds, name))
            assert np.array_equal(other.mu, truth.mu)

    @pytest.mark.parametrize("args, name", [
        ((3, 10, 1, 1, 1.5), "seed"),
        ((3, 10, 1, 1, True), "seed"),
        ((3, 10, 1, 1, (4, 2.0)), "seed"),
        ((3, 10, 1, 1, np.True_), "seed"),
        ((5.0, 100, 2, 2, 1), "M"),
        ((5, 100.0, 2, 2, 1), "N"),
        ((5, 100, "2", 2, 1), "p"),
        ((5, 100, 2, False, 1), "q"),
    ], ids=["float_seed", "bool_seed", "float_seed_word", "numpy_bool_seed",
            "float_M", "float_N", "str_p", "bool_q"])
    def test_non_integers_raise_type_error(self, args, name):
        *sizes, seed = args
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            gen_replicate(*sizes, GAUSSIAN, seed=seed)

    def test_numpy_integers_are_integers(self):
        ds, truth = gen_replicate(np.int64(9), np.int32(120), np.uint8(2),
                                  np.int16(2), GAUSSIAN,
                                  seed=(np.uint64(2**63), np.int8(3)))
        ref_ds, ref = gen_replicate(9, 120, 2, 2, GAUSSIAN, seed=(2**63, 3))
        assert np.array_equal(ds.y, ref_ds.y)
        assert np.array_equal(truth.u, ref.u)

    def test_transient_memory_is_bounded_by_the_chunk(self, monkeypatch):
        """tracemalloc's peak during a call, less the arrays it returns,
        stays under a bound set by the chunk budget plus a per-group
        allowance; with the whole replicate as one chunk it does not."""
        M, N = 1000, 200_000

        def transient():
            tracemalloc.start()
            try:
                ds, truth = gen_replicate(M, N, 3, 3, GAUSSIAN, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = (ds.y, ds.X, ds.Z, ds.layout.offsets, truth.u, truth.mu,
                    truth.beta, truth.Sigma, truth.n_alloc)
            return peak - sum(a.nbytes for a in kept)

        bound = 48 * simulate._CHUNK_ENTRIES + 512 * M
        assert transient() < bound
        monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 6 * N)
        assert transient() > bound

    def test_group_keys_match_seed_sequence(self):
        bases = [(0,), (7,), (2**32 - 1,), (2**32,), (2**40 + 3, 1),
                 (3, 1, 4, 1, 5), (2**64 + 9, 0, 2**33)]
        count = 0
        for base in bases:
            for M in (1, 2, 3, 6, 200):
                keys = _group_keys(base, M)
                assert keys == [np.random.SeedSequence((*base, 1, i))
                                .generate_state(2, np.uint64).tolist()
                                for i in range(M)]
                count += M
        assert count >= 1000

    def test_seed_state_of_every_length(self):
        """Entropy shorter than the pool, as long, and longer; as ints, and
        with an array of words in any position."""
        rng = np.random.default_rng(3)
        for length in range(1, 10):
            words = rng.integers(0, 2**32, size=(50, length), dtype=np.uint32)
            words[0] = 0
            words[1] = 2**32 - 1
            for row in words[:5]:
                assert _seed_state(row.tolist()) == \
                    np.random.SeedSequence(row.tolist()).generate_state(
                        4, np.uint32).tolist()
            for j in range(length):
                entropy = words[0].tolist()
                entropy[j] = words[:, j]
                state = np.array(_seed_state(entropy), np.uint32).T
                for row, expected in zip(words, state):
                    entropy = words[0].tolist()
                    entropy[j] = int(row[j])
                    assert np.array_equal(
                        expected, np.random.SeedSequence(entropy)
                        .generate_state(4, np.uint32))

    def test_negative_seed_rejected(self):
        for seed in (-1, (1, -2)):
            with pytest.raises(ValueError):
                gen_replicate(3, 10, 1, 1, GAUSSIAN, seed=seed)

    def test_one_seed_sequence_per_replicate(self, monkeypatch):
        """Only the population stream is built through SeedSequence; the
        groups re-key its bit generator."""
        built = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        gen_replicate(50, 400, 2, 2, GAUSSIAN, seed=(4, 2))
        assert built == [((4, 2, 0),)]

    def test_mu_views_one_long_array(self):
        """``mu`` is one long array laid out like ``y``: each group's block
        holds the means its responses were drawn from."""
        ds, truth = gen_replicate(20, 300, 2, 2, BINOMIAL_LOGIT, seed=8)
        assert truth.mu.shape == ds.y.shape and truth.mu.flags.c_contiguous
        for g, mu in zip(ds.groups, ds.layout.split(truth.mu)):
            np.testing.assert_allclose(
                mu, expit(g.X @ truth.beta + g.Z @ truth.u[g.group_id]),
                rtol=1e-14)


class TestLosses:
    def test_perfect_fit_is_zero(self):
        for family in [GAUSSIAN, BINOMIAL_LOGIT]:
            ds, truth = gen_replicate(8, 150, 2, 2, family, seed=17)
            fit = _stub_fit(truth.beta, truth.Sigma)
            post = _posteriors_from(truth.u, range(truth.u.shape[0]), 2)
            rec = losses(truth, fit, post, family, ds)
            assert rec.fixed_loss == 0.0
            assert rec.cov_loss == pytest.approx(0.0, abs=1e-20)
            assert rec.raneff_loss == pytest.approx(0.0, abs=1e-20)
            assert rec.pred_loss == pytest.approx(0.0, abs=1e-12)

    def test_pred_loss_kl_oracle(self):
        truth = SimTruth(beta=np.zeros(1), Sigma=np.eye(1),
                         u=np.zeros((1, 1)), mu=np.array([0.8]),
                         n_alloc=np.array([1]))
        val = _pred_loss(truth, np.array([0.5]), BINOMIAL_LOGIT)
        oracle = 2 * (0.8 * math.log(1.6) + 0.2 * math.log(0.4))
        assert val == pytest.approx(oracle, rel=1e-12)
        assert val == pytest.approx(0.38551, abs=1e-4)

    def test_cov_loss_doubled_sigma(self):
        ds, truth = gen_replicate(6, 100, 2, 3, GAUSSIAN, seed=19)
        fit = _stub_fit(truth.beta, 2.0 * truth.Sigma)
        post = _posteriors_from(truth.u, [g.group_id for g in ds.groups], 3)
        rec = losses(truth, fit, post, GAUSSIAN, ds)
        assert rec.cov_loss == pytest.approx(3.0, rel=1e-10)

    def test_raneff_loss_counts_unseen_groups(self):
        """Groups without data predict u=0 and still enter the average."""
        q = 2
        truth = SimTruth(
            beta=np.zeros(1), Sigma=np.eye(q),
            u=np.vstack([np.zeros(q), np.array([3.0, 4.0])]),
            mu=np.zeros(2), n_alloc=np.array([2, 0]),
        )
        ds = GroupedDataset.from_long(
            np.zeros(2), np.ones((2, 1)), np.ones((2, q)), [0, 0]
        )
        fit = _stub_fit(np.zeros(1), np.eye(q))
        post = _posteriors_from(truth.u, [0], q)  # group 1 unseen
        rec = losses(truth, fit, post, GAUSSIAN, ds)
        # group 0 exact, group 1 contributes ||(3,4)||^2 / M
        assert rec.raneff_loss == pytest.approx(25.0 / 2.0, rel=1e-12)

    def test_relabeling_invariance(self):
        ds, truth = gen_replicate(9, 120, 2, 2, GAUSSIAN, seed=23)
        M = truth.u.shape[0]
        fit = _stub_fit(truth.beta + 0.1, truth.Sigma * 1.3)
        ids = [g.group_id for g in ds.groups]
        post = _posteriors_from(0.5 * truth.u, ids, 2)
        rec1 = losses(truth, fit, post, GAUSSIAN, ds)

        relabel = {i: M - 1 - i for i in range(M)}
        groups2 = tuple(
            type(g)(group_id=relabel[g.group_id], y=g.y, X=g.X, Z=g.Z)
            for g in reversed(ds.groups)
        )
        ds2 = GroupedDataset(groups=groups2, p=2, q=2)
        truth2 = SimTruth(beta=truth.beta, Sigma=truth.Sigma,
                          u=truth.u[::-1], mu=np.concatenate(
                              ds.layout.split(truth.mu)[::-1]),
                          n_alloc=truth.n_alloc[::-1])
        post2 = _posteriors_from(0.5 * truth2.u,
                                 [g.group_id for g in ds2.groups], 2)
        rec2 = losses(truth2, fit, post2, GAUSSIAN, ds2)
        for f in ["fixed_loss", "cov_loss", "raneff_loss", "pred_loss"]:
            assert getattr(rec1, f) == pytest.approx(getattr(rec2, f),
                                                     rel=1e-12)

    def test_pred_loss_positive_when_wrong(self):
        ds, truth = gen_replicate(5, 80, 2, 2, BINOMIAL_LOGIT, seed=29)
        fit = _stub_fit(truth.beta + 1.0, truth.Sigma)
        post = _posteriors_from(truth.u, [g.group_id for g in ds.groups], 2)
        rec = losses(truth, fit, post, BINOMIAL_LOGIT, ds)
        assert rec.pred_loss > 0

    def test_singular_sigma_gives_nan_cov_loss(self):
        ds, truth0 = gen_replicate(5, 60, 1, 1, GAUSSIAN, seed=31)
        truth = SimTruth(beta=truth0.beta, Sigma=np.zeros((1, 1)),
                         u=truth0.u, mu=truth0.mu, n_alloc=truth0.n_alloc)
        fit = _stub_fit(truth.beta, np.eye(1))
        post = _posteriors_from(truth.u, [g.group_id for g in ds.groups], 1)
        rec = losses(truth, fit, post, GAUSSIAN, ds)
        assert math.isnan(rec.cov_loss)
        assert math.isfinite(rec.fixed_loss)


class TestBaselines:
    def test_global_gaussian_matches_stacked_least_squares(self):
        ds, _ = gen_replicate(6, 90, 2, 2, GAUSSIAN, seed=37)
        gfit = fit_global(ds, GAUSSIAN)
        X = np.vstack([g.X for g in ds.groups])
        Z = np.vstack([g.Z for g in ds.groups])
        y = np.concatenate([g.y for g in ds.groups])
        F = np.hstack([X, Z])
        ref, *_ = np.linalg.lstsq(F, y, rcond=None)
        np.testing.assert_allclose(gfit.coef, ref, atol=1e-10)
        mu = gfit.predict(ds.groups[0].X, ds.groups[0].Z, GAUSSIAN)
        np.testing.assert_allclose(
            mu, np.hstack([ds.groups[0].X, ds.groups[0].Z]) @ ref, atol=1e-10
        )

    def test_global_noiseless_homogeneous(self):
        rng = np.random.default_rng(41)
        beta = np.array([1.0, -2.0])
        ys, Xs, Zs, ids = [], [], [], []
        for i in range(4):
            X = rng.normal(size=(8, 2))
            Z = rng.normal(size=(8, 1))
            ys.append(X @ beta)  # u identically zero
            Xs.append(X)
            Zs.append(Z)
            ids.extend([i] * 8)
        ds = GroupedDataset.from_long(np.concatenate(ys), np.vstack(Xs),
                                      np.vstack(Zs), ids)
        gfit = fit_global(ds, GAUSSIAN)
        np.testing.assert_allclose(gfit.coef, [1.0, -2.0, 0.0], atol=1e-10)

    def test_global_handles_shared_columns(self):
        """X = Z makes the stacked design rank deficient; the reduced fit
        still yields finite coefficients and sane predictions."""
        ds0, _ = gen_replicate(6, 120, 2, 2, BINOMIAL_LOGIT, seed=43)
        groups = tuple(type(g)(group_id=g.group_id, y=g.y, X=g.X, Z=g.X)
                       for g in ds0.groups)
        ds = GroupedDataset(groups=groups, p=2, q=2)
        gfit = fit_global(ds, BINOMIAL_LOGIT)
        assert np.all(np.isfinite(gfit.coef))
        mu = gfit.predict(ds.groups[0].X, ds.groups[0].Z, BINOMIAL_LOGIT)
        assert np.all((mu > 0) & (mu < 1))

    def test_global_logit_matches_direct_firth_fit(self):
        """Firth's estimate is equivariant under the SVD rotation, so on a
        full-rank pooled design the one-group summary's coefficient is
        the Firth fit of y on [X Z] itself."""
        ds, _ = gen_replicate(20, 2000, 3, 3, BINOMIAL_LOGIT, seed=5)
        ref = fit_glm(ds.y, np.hstack([ds.X, ds.Z]), BINOMIAL_LOGIT)
        np.testing.assert_allclose(fit_global(ds, BINOMIAL_LOGIT).coef,
                                   ref.coef, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_global_zero_design_raises_zero_rank(self, family):
        """An all-zero pooled [X Z] has no direction to fit: the pooled
        group is skipped as rank 0, and its reason is raised."""
        ds = GroupedDataset.from_long(np.array([0.0, 1.0, 1.0, 0.0]),
                                      np.zeros((4, 2)), np.zeros((4, 1)),
                                      [0, 0, 1, 1])
        with pytest.raises(ZeroRankError):
            fit_global(ds, family)

    def test_local_single_group_equals_direct_fit(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(10, 2))
        Z = rng.normal(size=(10, 1))
        y = rng.normal(size=10)
        ds = GroupedDataset.from_long(y, X, Z, [7] * 10)
        lfit = fit_local(fit_moment(ds, GAUSSIAN))
        assert lfit.ids == (7,)
        F = np.hstack([X, Z])
        ref, *_ = np.linalg.lstsq(F, y, rcond=None)
        np.testing.assert_allclose(lfit.coef[0], ref, atol=1e-10)

    def test_local_noiseless_prediction(self):
        """Noiseless groups, each with its own random effect: every group's
        own fit interpolates its rows exactly."""
        rng = np.random.default_rng(53)
        n, M = 8, 6
        X = rng.normal(size=(n * M, 2))
        Z = rng.normal(size=(n * M, 2))
        u = np.repeat(rng.normal(size=(M, 2)), n, axis=0)
        eta = X @ np.array([1.0, 0.5]) + np.sum(Z * u, axis=1)
        ds = GroupedDataset.from_long(eta, X, Z, np.repeat(np.arange(M), n))
        lfit = fit_local(fit_moment(ds, GAUSSIAN))
        assert lfit.failed == ()
        np.testing.assert_allclose(lfit.predict(ds, GAUSSIAN), eta,
                                   atol=1e-10)

    def test_local_tiny_group_is_finite(self):
        # a group of one binary observation: Firth keeps its estimate finite
        ds0, _ = gen_replicate(20, 600, 1, 1, BINOMIAL_LOGIT, seed=59)
        ds = GroupedDataset.from_long(
            np.append(ds0.y, 1.0), np.vstack([ds0.X, [[1.0]]]),
            np.vstack([ds0.Z, [[1.0]]]),
            np.append(np.repeat(ds0.ids, ds0.layout.sizes), 99))
        lfit = fit_local(fit_moment(ds, BINOMIAL_LOGIT))
        coef = lfit.coef[lfit.ids.index(99)]
        assert np.all(np.isfinite(coef))
        assert np.linalg.norm(coef) < 20

    def test_local_zero_rank_group_predicts_through_zero(self):
        """A group with an all-zero design has no coefficient: fit_local
        lists it as failed and its rows predict inv_link(0). Every other
        group predicts through its own row of coef, looked up by id (the
        blocks here are in descending id order)."""
        ds0, _ = gen_replicate(6, 120, 2, 2, GAUSSIAN, seed=67)
        zero = ds0.ids[2]
        groups = tuple(
            type(g)(group_id=g.group_id, y=g.y,
                    X=g.X * (g.group_id != zero), Z=g.Z * (g.group_id != zero))
            for g in reversed(ds0.groups))
        ds = GroupedDataset(groups=groups, p=2, q=2)
        lfit = fit_local(fit_moment(ds, GAUSSIAN))
        assert lfit.failed == (zero,)
        assert lfit.ids == tuple(i for i in ds0.ids if i != zero)
        mu = ds.layout.split(lfit.predict(ds, GAUSSIAN))
        for g, m in zip(ds.groups, mu):
            if g.group_id == zero:
                assert np.array_equal(m, GAUSSIAN.inv_link(np.zeros(g.n)))
            else:
                coef = lfit.coef[lfit.ids.index(g.group_id)]
                np.testing.assert_allclose(m, np.hstack([g.X, g.Z]) @ coef,
                                           rtol=1e-12, atol=1e-12)


class TestLocalReference:
    """fit_local reads the moment fit's standardized-frame summaries. The
    reference summarizes the dataset as given, unstandardized, and maps
    each group's fit back through its own V."""

    @staticmethod
    def _reference(ds, family):
        columns, skipped = summarize_groups(ds, family)
        coef = (columns["V"] @ columns["theta"][:, :, None])[:, :, 0]
        return LocalFit(columns["ids"], coef,
                        failed=tuple(gid for gid, _ in skipped))

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_scaled_aliased_columns_match_reference(self, family):
        ds0, _ = gen_replicate(300, 9000, 3, 3, family, seed=11)
        one = np.ones((ds0.n_obs, 1))
        ds = GroupedDataset.from_long(
            ds0.y, np.hstack([one, ds0.X * [1e3, 1e-2, 7]]),
            np.hstack([one, ds0.Z * [1e-2, 50, 1]]),
            np.repeat(ds0.ids, ds0.layout.sizes))
        lfit = fit_local(fit_moment(ds, family))
        ref = self._reference(ds, family)
        assert lfit.ids == ref.ids
        assert lfit.failed == ref.failed
        np.testing.assert_allclose(lfit.predict(ds, family),
                                   ref.predict(ds, family), rtol=0, atol=1e-7)

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_unscaled_study_data_bitwise(self, family):
        """gen_replicate's +/-1 columns have unit RMS, so standardization
        leaves them as they are."""
        ds, _ = gen_replicate(300, 9000, 3, 3, family, seed=11)
        lfit = fit_local(fit_moment(ds, family))
        ref = self._reference(ds, family)
        assert lfit.ids == ref.ids
        assert lfit.failed == ref.failed
        assert np.array_equal(lfit.coef, ref.coef)


class TestRunStudy:
    def test_structure_and_determinism(self):
        rows1 = run_study([300], M=12, p=2, q=2, replicates=2,
                          family=GAUSSIAN, seed=3)
        rows2 = run_study([300], M=12, p=2, q=2, replicates=2,
                          family=GAUSSIAN, seed=3)
        assert [r.method for r in rows1] == ["hier", "global", "local"]
        for a, b in zip(rows1, rows2):
            assert a.pred_mean == b.pred_mean
            assert a.fixed_mean == b.fixed_mean or (
                math.isnan(a.fixed_mean) and math.isnan(b.fixed_mean)
            )
            assert a.n_groups == 12
            assert a.replicates == 2
        rows3 = run_study([300], M=12, p=2, q=2, replicates=2,
                          family=GAUSSIAN, seed=4)
        assert rows3[0].pred_mean != rows1[0].pred_mean

    def test_method_subset_and_table(self):
        rows = run_study([200], M=10, p=2, q=2, replicates=1,
                         family=GAUSSIAN, methods=("hier",), seed=9)
        assert len(rows) == 1
        assert math.isfinite(rows[0].fixed_mean)
        assert math.isfinite(rows[0].seconds_mean)
        text = study_table(rows)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split("\t")
        values = lines[1].split("\t")
        assert len(header) == len(values)
        assert values[header.index("method")] == "hier"
        # repr round trip preserves the float exactly
        assert float(values[header.index("fixed_mean")]) == rows[0].fixed_mean

    def test_unknown_method_raises_before_any_data(self, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulate, "gen_replicate", no_data)
        with pytest.raises(ValueError, match="'bogus'"):
            run_study([200], M=10, p=2, q=2, replicates=1, family=GAUSSIAN,
                      methods=("hier", "bogus"), seed=9)

    @pytest.mark.parametrize("replicates, methods, error, match", [
        (0, ("hier",), ValueError, r"one method, got 0 and \('hier',\)"),
        (-2, ("hier",), ValueError, r"one method, got -2 and \('hier',\)"),
        (2.5, ("hier",), TypeError, "replicates must be an integer"),
        (1, (), ValueError, r"one method, got 1 and \(\)"),
    ], ids=["zero", "negative", "float", "no_method"])
    def test_empty_study_raises_before_any_data(self, monkeypatch, replicates,
                                                methods, error, match):
        def no_data(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulate, "gen_replicate", no_data)
        with pytest.raises(error, match=match):
            run_study([200], M=10, p=2, q=2, replicates=replicates,
                      family=GAUSSIAN, methods=methods, seed=9)

    def test_one_summary_pass_per_replicate(self, monkeypatch):
        """hier and local share one stacked SVD of each replicate's groups;
        global summarizes its one pooled group."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return compact_svd(*args, **kwargs)

        monkeypatch.setattr(groups, "compact_svd", counted)
        run_study([200], M=10, p=2, q=2, replicates=2, family=GAUSSIAN,
                  seed=9)
        assert len(calls) == 4
        run_study([200], M=10, p=2, q=2, replicates=2, family=GAUSSIAN,
                  methods=("global",), seed=9)
        assert len(calls) == 6

    def test_failed_moment_fit_fails_hier_and_local(self, monkeypatch):
        def failing(*args, **kwargs):
            raise SingularOmega2Error("stub")

        monkeypatch.setattr(simulate, "fit_moment", failing)
        rows = run_study([200], M=10, p=2, q=2, replicates=2,
                         family=GAUSSIAN, seed=9)
        fails = {r.method: (r.replicates, r.failures) for r in rows}
        assert fails == {"hier": (0, 2), "global": (2, 0), "local": (0, 2)}

    @pytest.mark.parametrize("family", [GAUSSIAN, BINOMIAL_LOGIT],
                             ids=["gaussian", "logit"])
    def test_method_order_does_not_change_rows(self, family):
        def cells(methods):
            rows = run_study([400], M=12, p=2, q=2, replicates=2,
                             family=family, methods=methods, seed=13)
            # repr, as NaN cells never compare equal
            return {r.method: repr(replace(r, seconds_mean=0.0)) for r in rows}

        assert cells(("local", "hier")) == cells(("hier", "local"))


class TestEndToEnd:
    def test_hierarchical_beats_baselines_on_grouped_data(self):
        """With real group heterogeneity the hierarchical prediction loss
        should undercut both baselines at a decent sample size."""
        ds, truth = gen_replicate(40, 4000, 2, 2, GAUSSIAN, seed=61)
        fit = fit_moment(ds, GAUSSIAN)
        post = posterior_set(fit)
        rec = losses(truth, fit, post, GAUSSIAN, ds)

        gfit = fit_global(ds, GAUSSIAN)
        mu_g = gfit.predict(ds.X, ds.Z, GAUSSIAN)
        mu_l = fit_local(fit).predict(ds, GAUSSIAN)
        pred_g = _pred_loss(truth, mu_g, GAUSSIAN)
        pred_l = _pred_loss(truth, mu_l, GAUSSIAN)
        assert rec.pred_loss < pred_g
        assert rec.pred_loss < pred_l
