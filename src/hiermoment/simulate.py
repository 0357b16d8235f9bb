"""Simulation harness: hierarchical data generation, loss functionals,
global/local baseline fitters, and replicate studies."""

from __future__ import annotations

import operator
import time
from contextlib import suppress
from dataclasses import astuple, dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .combine import FitOptions, MomentFit, fit_moment
from .data import GroupedDataset, GroupLayout
from .ebayes import _id_rows, posterior_set, predict_grouped
from .errors import HierMomentError
from .families import _MU_EPS, Family, expit
from .groups import summarize_groups

__all__ = [
    "SimTruth",
    "LossRecord",
    "StudyRow",
    "gen_replicate",
    "losses",
    "GlobalFit",
    "fit_global",
    "LocalFit",
    "fit_local",
    "run_study",
    "study_table",
]

_METHODS = ("hier", "global", "local")


@dataclass(frozen=True)
class SimTruth:
    """Ground truth for one simulated replicate.

    ``u`` has one row per group (including groups allocated zero
    observations); ``mu`` holds the true mean of every observation, one long
    array laid out like the dataset's ``y``.
    """

    beta: np.ndarray
    Sigma: np.ndarray
    u: np.ndarray
    mu: np.ndarray
    n_alloc: np.ndarray


@dataclass(frozen=True)
class LossRecord:
    fixed_loss: float
    cov_loss: float
    raneff_loss: float
    pred_loss: float
    seconds: float = float("nan")


# numpy's SeedSequence hash (pool of four 32-bit words, no spawn key), ported
# to words that are ints or uint32 arrays, so that one pass of array
# operations hashes the entropy of every group at once.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


@lru_cache(maxsize=32)
def _multipliers(init: int, mult: int, calls: int) -> tuple:
    """``init * mult**k`` mod 2**32 for k = 0..calls: hash call k xors its
    word with entry k and multiplies it by entry k + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


def _hashmix(value, constants):
    a, b = next(constants)
    value = (value ^ a) * b & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _seed_state(entropy: list) -> list:
    """The four 32-bit words, low word first, of
    ``SeedSequence(entropy).generate_state(2, np.uint64)``.

    Each entropy word is an int below 2**32 or a uint32 array; an array
    hashes element-wise, giving one state per element.
    """
    table = _multipliers(_INIT_A, _MULT_A,
                         _POOL * max(len(entropy), _POOL))
    constants = zip(table, table[1:])
    pool = [_hashmix(entropy[j] if j < len(entropy) else 0, constants)
            for j in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    table = _multipliers(_INIT_B, _MULT_B, _POOL)
    constants = zip(table, table[1:])
    return [_hashmix(word, constants) for word in pool]


def _uint32_words(n: int) -> list:
    """A non-negative int as SeedSequence reads it: 32-bit words, least
    significant first."""
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _group_keys(base: tuple, M: int) -> list:
    """The Philox key of group i's stream, ``SeedSequence((*base, 1,
    i)).generate_state(2, np.uint64)``, for each i < M, as two ints: the
    entropy of all M groups is hashed in one pass of array operations."""
    head = [w for v in base for w in _uint32_words(v)] + [1]
    w0, w1, w2, w3 = (w.astype(np.uint64) for w in
                      _seed_state(head + [np.arange(M, dtype=np.uint32)]))
    return np.stack([w0 | w1 << 32, w2 | w3 << 32], axis=1).tolist()


def _index(name: str, value) -> int:
    """``value`` as an int (a Python or numpy integer, not a bool)."""
    if not isinstance(value, (bool, np.bool_)):
        with suppress(TypeError):
            return operator.index(value)
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _entropy(seed) -> tuple:
    words = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(_index("seed", v) for v in words)


# Signs turned into X and Z columns at one time: a chunk is the groups whose
# signs start within one budget's span, so it holds fewer than this many
# entries plus its last group's.
_CHUNK_ENTRIES = 1 << 16


def gen_replicate(
    M: int,
    N: int,
    p: int,
    q: int,
    family: Family,
    seed,
) -> tuple[GroupedDataset, SimTruth]:
    """Draw one replicate of the hierarchical design.

    Fixed effects are iid t(4); the random-effect covariance is 0.1 times an
    inverse Wishart(identity scale, 2q df) draw via Bartlett decomposition;
    group sizes are multinomial with exponential(mean N/M) rates; predictor
    entries are +/-1 with equal probability; responses are Bernoulli through
    the logit link, or gaussian with unit noise variance.

    M, N, p, q and ``seed`` are integers (numpy integers too; anything else,
    a bool included, raises ``TypeError``); ``seed`` is a non-negative int
    or a tuple of them (a negative one raises ``ValueError``). Streams are
    split per replicate and per group, so results do not depend on
    execution order:

    - beta, Sigma and the group sizes come from
      ``Philox(SeedSequence((*seed, 0)))``;
    - group i draws from Philox with the key
      ``SeedSequence((*seed, 1, i)).generate_state(2, np.uint64)`` and the
      counter at 0, in this order: q normals for its random effect, its
      n (p + q) signs (X row by row, then Z), and n normals (gaussian) or
      n uniforms (logit) for its responses.

    The signs are those of one ``integers(0, 2)`` call, which is Lemire's
    bounded draw on one 32-bit half of a raw 64-bit word, low half first:
    its result is that half's top bit. So each group takes ceil(n (p + q) /
    2) raw words and sign j is bit 31 (j even) or bit 63 (j odd) of word
    j // 2; the stream order is that of the ``integers`` call.

    Philox is counter-based, so re-keying one bit generator per group gives
    the same draws as a new generator per group. The keys of all M groups
    are hashed in one pass of uint32 array operations (a port of
    SeedSequence's hash), not by M SeedSequence objects. The per-group loop
    makes only the stream calls; the signs, X, Z, mu and y are built by
    array passes over chunks of whole groups (``_CHUNK_ENTRIES``), so the
    memory they hold at one time is bounded. mu sums X beta and Z u_i
    column by column: with p, q <= 3 that is bit for bit the per-group BLAS
    product of earlier versions, and with more columns it may differ from
    it in the last bit. The rows are in ascending group order.
    """
    M, N, p, q = (_index(name, v) for name, v in
                  zip("MNpq", (M, N, p, q)))
    if min(M, N, p, q) < 1:
        raise ValueError("M, N, p, q must all be >= 1")
    base = _entropy(seed)
    pop_rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence((*base, 0))))
    # Counter 0 and empty buffers: each group sets its key into this state.
    # Lists in place of its uint64 arrays halve the setter's cost.
    bit_generator = pop_rng.bit_generator
    fresh = bit_generator.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()

    beta = pop_rng.standard_t(4, size=p)
    df = 2 * q
    # Bartlett factor of Wishart(df, I): lower triangle N(0,1), diagonal
    # sqrt of chi-square with decreasing dfs.
    A = np.zeros((q, q))
    A[np.tri(q, k=-1, dtype=bool)] = pop_rng.standard_normal(
        q * (q - 1) // 2)
    A[np.diag_indices(q)] = np.sqrt(pop_rng.chisquare(df - np.arange(q)))
    Linv = np.linalg.solve(A, np.eye(q))
    Sigma = 0.1 * (Linv.T @ Linv)
    Sigma = (Sigma + Sigma.T) / 2.0

    rates = pop_rng.exponential(scale=N / M, size=M)
    n_alloc = pop_rng.multinomial(N, rates / rates.sum())

    chol = np.linalg.cholesky(Sigma)
    u = np.empty((M, q))
    y, mu = np.empty(N), np.empty(N)
    X, Z = np.empty((N, p)), np.empty((N, q))
    gaussian = family.name == "gaussian"
    normal, random_raw = pop_rng.standard_normal, bit_generator.random_raw
    draw = normal if gaussian else pop_rng.random
    keys = _group_keys(base, M)
    nwords = -(-n_alloc * (p + q) // 2)
    word_offsets = np.append(0, np.cumsum(nwords))
    row_offsets = np.append(0, np.cumsum(n_alloc))
    cuts = np.flatnonzero(np.diff(2 * word_offsets[:-1] // _CHUNK_ENTRIES))
    cuts = [0, *(cuts + 1).tolist(), M]
    words = np.empty(np.diff(word_offsets[cuts]).max(), np.uint64)
    for g0, g1 in zip(cuts[:-1], cuts[1:]):
        bounds = row_offsets[g0:g1 + 1].tolist()
        filled = 0
        for key, u_i, nw, y_i in zip(
                keys[g0:g1], u[g0:g1], nwords[g0:g1].tolist(),
                map(y.__getitem__, map(slice, bounds[:-1], bounds[1:]))):
            fresh["state"]["key"] = key
            bit_generator.state = fresh
            np.dot(chol, normal(q), out=u_i)
            if nw:
                words[filled:filled + nw] = random_raw(nw)
                filled += nw
                draw(out=y_i)
        n = n_alloc[g0:g1]
        sub = GroupLayout(np.append(0, np.cumsum(n[n > 0])))
        rows = slice(bounds[0], bounds[-1])
        _fill_chunk(words[:filled], sub.sizes, X[rows], Z[rows])
        # Column by column, left to right, as row_dot sums Z u: each row's
        # rounding depends neither on the BLAS nor on where the row sits.
        eta = X[rows, 0] * beta[0]
        for j in range(1, p):
            eta += X[rows, j] * beta[j]
        eta += sub.row_dot(Z[rows], u[g0:g1][n > 0])
        if gaussian:
            mu[rows] = eta
            y[rows] += eta
        else:
            mu[rows] = expit(eta)
            y[rows] = y[rows] < mu[rows]
    del keys  # about 150 B a group, freed before the dataset's checks
    layout = GroupLayout(np.append(0, np.cumsum(n_alloc[n_alloc > 0])))
    dataset = GroupedDataset._from_columns(
        y, X, Z, tuple(np.flatnonzero(n_alloc).tolist()), layout, p, q)
    truth = SimTruth(beta=beta, Sigma=Sigma, u=u, mu=mu, n_alloc=n_alloc)
    return dataset, truth


def _fill_chunk(words, n, X, Z):
    """Write the ±1 entries of a chunk's groups, of sizes ``n``, into X and
    Z from their raw words: each group's words hold its X entries row by
    row, then its Z entries, and one unused half when n (p + q) is odd."""
    signs = np.empty((words.size, 2), np.int8)
    signs[:, 0] = words >> 31 & 1
    signs[:, 1] = words >> 63
    signs *= 2
    signs -= 1
    p, q = X.shape[1], Z.shape[1]
    spans = np.stack([n * p, n * q, -(n * (p + q)) % 2], axis=1)
    part = np.repeat(np.tile(np.arange(3, dtype=np.int8), n.size),
                     spans.ravel())
    signs = signs.ravel()
    X[...] = signs[part == 0].reshape(-1, p)
    Z[...] = signs[part == 1].reshape(-1, q)


def _pred_loss(truth: SimTruth, mu_hat: np.ndarray, family: Family) -> float:
    """Mean squared error (gaussian) or doubled mean Bernoulli KL divergence
    of the predicted means ``mu_hat``, laid out like ``truth.mu``."""
    mu = truth.mu
    if family.name == "gaussian":
        return float(np.mean((mu - mu_hat) ** 2))
    mh = np.clip(mu_hat, _MU_EPS, 1.0 - _MU_EPS)
    return 2.0 * float(np.mean(
        mu * np.log(mu / mh) + (1.0 - mu) * np.log((1.0 - mu) / (1.0 - mh))))


def losses(
    truth: SimTruth,
    fit: MomentFit,
    posteriors,
    family: Family,
    dataset: GroupedDataset,
) -> LossRecord:
    """Evaluate the four study losses for a hierarchical fit.

    Fixed-effect loss ``||beta - betahat||^2``; covariance loss
    ``tr((Sigmahat Sigma^{-1} - I)^2)``; random-effect loss
    ``mean_i ||Sigma^{-1/2}(u_i - uhat_i)||^2`` over all M groups (zero
    posterior mean for groups without data); prediction loss is the mean
    Bernoulli KL divergence (doubled), or mean squared error of the linear
    predictor for the gaussian family.
    """
    fixed = float(np.sum((truth.beta - fit.beta) ** 2))

    w, Q = np.linalg.eigh(truth.Sigma)
    if w[0] > 1e-12 * max(w[-1], 1.0):
        E = np.linalg.solve(truth.Sigma.T, fit.sigma.T).T - np.eye(truth.Sigma.shape[0])
        cov = float(np.sum(E * E.T))
    else:
        cov = float("nan")

    root_inv = (Q / np.sqrt(np.maximum(w, 1e-300))) @ Q.T
    M = truth.u.shape[0]
    uhat = np.zeros_like(truth.u)
    uhat[np.array(posteriors.ids, dtype=np.intp)] = posteriors.means
    diff = (truth.u - uhat) @ root_inv.T
    raneff = float(np.sum(diff * diff) / M)

    mu_hat, _ = predict_grouped(dataset, fit.beta, posteriors, family)
    pred = _pred_loss(truth, np.concatenate(mu_hat), family)
    return LossRecord(fixed_loss=fixed, cov_loss=cov, raneff_loss=raneff,
                      pred_loss=pred)


@dataclass(frozen=True)
class GlobalFit:
    """Single pooled coefficient vector over the combined [X Z] columns."""

    coef: np.ndarray

    def predict(self, X, Z, family: Family) -> np.ndarray:
        return family.inv_link(np.hstack([X, Z]) @ self.coef)


def fit_global(dataset: GroupedDataset, family: Family) -> GlobalFit:
    """Pooled GLM ignoring group structure: the summary of all rows taken
    as one group (see :func:`hiermoment.groups.summarize_groups`), whose
    compact SVD reduces the combined [X Z] design (the fixed and random
    designs may share columns). The coefficient is the least-squares fit,
    or the Firth-penalized one for logit, ``V @ theta``. Raises the
    :class:`HierMomentError` for which that group was skipped.
    """
    pooled = GroupedDataset._from_columns(
        dataset.y, dataset.X, dataset.Z, (0,),
        GroupLayout([0, dataset.n_obs]), dataset.p, dataset.q)
    columns, skipped = summarize_groups(pooled, family)
    if skipped:
        raise skipped[0][1]
    return GlobalFit(coef=columns["V"][0] @ columns["theta"][0])


@dataclass(frozen=True, eq=False)
class LocalFit:
    """Independent per-group coefficient vectors (no pooling): row i of
    ``coef (M, p + q)`` is the [X Z] coefficient of group ``ids[i]``."""

    ids: tuple
    coef: np.ndarray
    failed: tuple = ()

    def predict(self, dataset: GroupedDataset, family: Family) -> np.ndarray:
        """Predicted means over the long rows of ``dataset``; a group
        without a coefficient predicts through zero."""
        rows = _id_rows(dict(zip(self.ids, range(len(self.ids)))), dataset.ids)
        return family.inv_link(dataset.layout.row_dot(
            np.hstack([dataset.X, dataset.Z]), self.coef, rows))


def fit_local(fit: MomentFit) -> LocalFit:
    """Each group's own fit (least squares, or Firth for logit), read from
    the moment fit's summaries: ``[V1_i; V2_i] @ theta_i`` over the column
    scales, as both fits are equivariant under column scaling. Groups the
    fit skipped are ``failed`` and predict through a zero coefficient."""
    sset, record = fit.summary_set, fit.scale_record
    V = np.concatenate([sset.V1, sset.V2], axis=1)
    coef = (V @ sset.theta[:, :, None])[:, :, 0]
    coef /= np.concatenate([record.x_scale, record.z_scale])
    return LocalFit(sset.ids, coef,
                    failed=tuple(gid for gid, _ in sset.skipped))


@dataclass(frozen=True)
class StudyRow:
    """Aggregated results for one (method, N) cell of a replicate study,
    its fields in the order of :func:`study_table`'s columns. A ``local`` row
    is the per-group fits read from the moment fit's summaries: its
    ``seconds_mean`` times only that step, and it fails where ``hier``
    does."""

    method: str
    n_obs: int
    n_groups: int
    replicates: int
    failures: int
    fixed_mean: float
    fixed_se: float
    cov_mean: float
    cov_se: float
    raneff_mean: float
    raneff_se: float
    pred_mean: float
    pred_se: float
    fixed_median: float
    cov_median: float
    raneff_median: float
    pred_median: float
    seconds_mean: float


def _mean_se(values):
    arr = np.asarray([v for v in values if np.isfinite(v)], dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan"), float("nan")
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else float("nan")
    return float(arr.mean()), se, float(np.median(arr))


def run_study(
    n_grid,
    M: int,
    p: int,
    q: int,
    replicates: int,
    family: Family,
    methods=_METHODS,
    seed=0,
    options: FitOptions | None = None,
) -> list[StudyRow]:
    """Replicate study over a grid of total sample sizes.

    For each N in ``n_grid`` and each replicate, generates a dataset and
    evaluates the requested methods. The hierarchical fit reports all four
    losses; the global and local baselines report the losses they define
    (prediction always; fixed-effect loss for global). The local row is the
    per-group fits read from the one :func:`fit_moment` it shares with hier:
    it times only that step and fails wherever hier does. Failed fits are
    counted and dropped from the aggregates. Deterministic given ``seed``.
    A ``replicates`` that is not an integer raises ``TypeError``; fewer
    than one replicate, no method or an unknown method raises
    ``ValueError``; both before any data are drawn.
    """
    replicates = _index("replicates", replicates)
    if replicates < 1 or not methods:
        raise ValueError("a study needs at least one replicate and one "
                         f"method, got {replicates} and {tuple(methods)}")
    for method in methods:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of "
                             f"{', '.join(_METHODS)}")
    base = _entropy(seed)
    nan = float("nan")
    rows = []
    for i_n, N in enumerate(n_grid):
        per_method = {m: [] for m in methods}
        fail = {m: 0 for m in methods}
        for rep in range(replicates):
            dataset, truth = gen_replicate(M, N, p, q, family,
                                           seed=(*base, i_n, rep))
            fit = None
            if "hier" in methods or "local" in methods:
                t0 = time.perf_counter()
                with suppress(HierMomentError):
                    fit = fit_moment(dataset, family, options)
                fit_s = time.perf_counter() - t0
            for method in methods:
                if fit is None and method != "global":
                    fail[method] += 1
                    continue
                try:
                    t0 = time.perf_counter()
                    if method == "hier":
                        post = posterior_set(fit)
                        elapsed = fit_s + time.perf_counter() - t0
                        rec = replace(losses(truth, fit, post, family,
                                             dataset), seconds=elapsed)
                    else:
                        if method == "global":
                            gfit = fit_global(dataset, family)
                            elapsed = time.perf_counter() - t0
                            fixed = float(np.sum(
                                (truth.beta - gfit.coef[:p]) ** 2))
                            mu_hat = gfit.predict(dataset.X, dataset.Z, family)
                        else:
                            lfit = fit_local(fit)
                            elapsed = time.perf_counter() - t0
                            fixed, mu_hat = nan, lfit.predict(dataset, family)
                        rec = LossRecord(fixed, nan, nan, _pred_loss(
                            truth, mu_hat, family), elapsed)
                except HierMomentError:
                    fail[method] += 1
                    continue
                per_method[method].append(rec)
        for method in methods:
            recs = per_method[method]
            cells = {}
            for loss in ("fixed", "cov", "raneff", "pred"):
                stats = _mean_se([getattr(r, f"{loss}_loss") for r in recs])
                cells.update(zip((f"{loss}_mean", f"{loss}_se",
                                  f"{loss}_median"), stats))
            rows.append(StudyRow(
                method=method, n_obs=int(N), n_groups=M,
                replicates=len(recs), failures=fail[method],
                seconds_mean=_mean_se([r.seconds for r in recs])[0], **cells))
    return rows


def study_table(rows: list[StudyRow]) -> str:
    """Render study rows as tab-delimited text under a header of the
    :class:`StudyRow` field names."""
    lines = ["\t".join(f.name for f in fields(StudyRow))]
    lines += ["\t".join(map(str, astuple(r))) for r in rows]
    return "\n".join(lines) + "\n"
