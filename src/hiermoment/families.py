"""Response families (gaussian-identity, binomial-logit), the logit GLM fit
of many groups at once, and the plug-in unscaled precision.

Stacked layout: the rows of M groups lie in one long array in contiguous
blocks, group i owning rows ``starts[i]:starts[i + 1]``, and every group's
design is zero-padded to the same k columns, of which its leading
``ranks[i]`` have full column rank. Per-group sums are segment sums over the
row blocks, taken in blocks of bounded size, and per-group solves are
batched calls on ``(M, k, k)`` stacks whose padded block is the identity, so
padded coefficients stay exactly 0. Each group's result depends on its own
rows only. A :func:`fit_glm` call without ``starts`` is the one-group case,
M = 1.

Logit groups maximize the Jeffreys-penalized (Firth) likelihood by
``_FISHER_PASSES`` quasi-Fisher passes from 0, then exact Newton steps (a
Fisher step where a Cholesky factorization finds the Hessian not negative
definite), with step-halving on the penalized objective, until the penalized
score norm is at most ``_TOL``, for at most ``_MAX_PASSES`` passes.
Gaussian fits are closed form in the SVD frame of the design (see
:mod:`hiermoment.groups`), so :func:`fit_glm` takes no gaussian family.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .linalg import sym

__all__ = [
    "Family",
    "GlmFit",
    "GAUSSIAN",
    "BINOMIAL_LOGIT",
    "get_family",
    "fit_glm",
    "unscaled_precision",
    "singular_precision",
]

_MU_EPS = 1e-10
_TOL = 1e-8  # convergence threshold on each group's penalized score norm
_MAX_PASSES = 100  # groups not converged by then have converged False
_BLOCK_ENTRIES = 1 << 16  # entries of row-wise products held at one time
_MAX_HALVINGS = 12
_HALVING_SLACK = 1e-10  # relative round-off allowance of the halving test
# Quasi-Fisher passes from 0 before exact Newton: they need no second- or
# third-order row sums, and on small logit groups 2 of them save a pass.
_FISHER_PASSES = 2


def _clip_mu(mu):
    return np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)


def expit(x):
    """The logistic function ``1 / (1 + exp(-x))``: 0 at -inf, 1 at +inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class Family:
    """Response family: inverse link and variance function ``V(mu)``. Both
    links are canonical, so ``V(mu)`` is also the working weight
    ``lam(mu) = (dmu/deta)^2 / V(mu)``.

    ``dispersion`` holds the known value (1.0 for binomial-logit) and is None
    when the dispersion must be estimated from data.
    """

    name: str
    dispersion_known: bool
    dispersion: float | None

    def inv_link(self, eta):
        if self.name == "gaussian":
            return np.asarray(eta, dtype=float)
        return expit(eta)

    def variance(self, mu):
        if self.name == "gaussian":
            return np.ones_like(np.asarray(mu, dtype=float))
        mu = _clip_mu(mu)
        return mu * (1.0 - mu)


GAUSSIAN = Family(name="gaussian", dispersion_known=False, dispersion=None)
BINOMIAL_LOGIT = Family(name="binomial-logit", dispersion_known=True, dispersion=1.0)

_FAMILIES = {
    "gaussian": GAUSSIAN,
    "logit": BINOMIAL_LOGIT,
    "binomial-logit": BINOMIAL_LOGIT,
}


def get_family(name: str) -> Family:
    """Look up a family by name ("gaussian", "logit")."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of "
                         f"{sorted(set(_FAMILIES))}") from None


@dataclass(frozen=True)
class GlmFit:
    """Result of a GLM fit.

    For one group, ``coef`` has shape (r,), ``converged`` is a bool and
    ``deviance`` a float. For a stacked fit of M groups they have shapes
    (M, k), (M,) and (M,). ``fitted_mean`` is per row, and ``iterations``
    counts the passes over the stack (the score evaluations of the slowest
    group).
    """

    coef: np.ndarray
    fitted_mean: np.ndarray
    converged: bool | np.ndarray
    iterations: int
    deviance: float | np.ndarray


@dataclass(frozen=True)
class _Stack:
    """Row blocks and padding of M stacked groups."""

    starts: np.ndarray  # (M,) first row of each group
    sizes: np.ndarray   # (M,) rows of each group
    pad: np.ndarray     # (M, k) True in the padded directions

    @classmethod
    def make(cls, n_rows, k, starts, ranks):
        starts = np.zeros(1, dtype=np.intp) if starts is None \
            else np.asarray(starts, dtype=np.intp)
        ranks = np.full(starts.size, k) if ranks is None else np.asarray(ranks)
        if starts.size and (starts[0] != 0 or np.any(np.diff(starts) < 1)
                            or starts[-1] >= n_rows):
            raise ValueError("group starts must begin at 0 and increase "
                             "strictly within the rows")
        return cls(starts, np.diff(starts, append=n_rows),
                   np.arange(k) >= ranks[:, None])

    def take(self, groups):
        """The sub-stack of ``groups`` and the row index of their rows."""
        sizes = self.sizes[groups]
        ends = np.cumsum(sizes)
        rows = np.arange(ends[-1] if sizes.size else 0) \
            + np.repeat(self.starts[groups] - (ends - sizes), sizes)
        return _Stack(ends - sizes, sizes, self.pad[groups]), rows

    def group_of_row(self):
        return np.repeat(np.arange(self.sizes.size), self.sizes)

    def linear_predictor(self, F, coef):
        """Each row's ``f_j . coef[group of j]``, one column at a time so
        that no (N, k) gather of the coefficients is built."""
        gid = self.group_of_row()
        eta = F[:, 0] * coef[gid, 0]
        for j in range(1, F.shape[1]):
            eta += F[:, j] * coef[gid, j]
        return eta

    def padded(self, S):
        """The (M, k, k) stack ``S`` with the identity in the padded block."""
        k = self.pad.shape[1]
        S[:, np.arange(k), np.arange(k)] += self.pad
        return S

    def sums(self, width, terms):
        """Per-group sums of row-wise products: ``terms(lo, hi)`` gives the
        (hi - lo, width) products of rows lo:hi. Rows are taken in blocks of
        about ``_BLOCK_ENTRIES`` entries; a group longer than a block is
        summed in pieces counted from its own first row, so each group's
        sums depend on its own rows only."""
        block = max(1, _BLOCK_ENTRIES // width)
        npieces = -(-self.sizes // block)
        first = np.cumsum(npieces) - npieces
        piece = np.repeat(self.starts, npieces) + block * (
            np.arange(npieces.sum()) - np.repeat(first, npieces))
        n_rows = self.starts[-1] + self.sizes[-1]
        cuts = np.unique(piece[np.searchsorted(
            piece, np.arange(0, n_rows, block), side="right") - 1])
        cuts = np.append(cuts, n_rows)
        out = np.empty((piece.size, width))
        p0 = 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            p1 = np.searchsorted(piece, hi)
            out[p0:p1] = np.add.reduceat(terms(lo, hi), piece[p0:p1] - lo,
                                         axis=0)
            p0 = p1
        return out if piece.size == self.sizes.size \
            else np.add.reduceat(out, first, axis=0)


@functools.lru_cache(maxsize=None)
def _sym_index(k, order):
    """Index tuples a <= b [<= c] of the distinct entries of a symmetric
    k^order tensor, colexicographic (those ending in at most c come first),
    and the position of every full index among them."""
    combos = sorted(itertools.combinations_with_replacement(range(k), order),
                    key=lambda t: t[::-1])
    where = {c: i for i, c in enumerate(combos)}
    full = np.array([where[tuple(sorted(t))]
                     for t in itertools.product(range(k), repeat=order)])
    return np.array(combos), full.reshape((k,) * order)


def _next_order(lower, order, ft, out):
    """From ``lower``, the distinct products of order ``order - 1`` of the
    columns of some f (k, n) in the order of ``_sym_index``, write those of
    ``order`` to ``out``: the ones ending in c are the lower ones ending in
    at most c, a prefix of ``lower``, times ``ft[c]`` (f_c, or f_c times a
    weight). With rows along the last axis each product is contiguous."""
    at = 0
    for c in range(ft.shape[0]):
        n = math.comb(c + order - 1, order - 1)
        np.multiply(lower[:n], ft[c], out=out[at:at + n])
        at += n
    return out


def _unpack(sums, k, order):
    """Full symmetric (M, k, ..., k) tensors from per-group distinct entries."""
    return sums[:, _sym_index(k, order)[1]]


def _n_sym(k, order):
    return len(_sym_index(k, order)[0])


def fit_glm(
    y: np.ndarray,
    F0: np.ndarray,
    family: Family,
    starts: np.ndarray | None = None,
    ranks: np.ndarray | None = None,
) -> GlmFit:
    """Fit one binomial-logit coefficient vector per group on
    full-column-rank designs.

    Each group maximizes the Jeffreys-penalized likelihood, which exists
    even under perfect separation, by Fisher then exact Newton steps on all
    groups at once (see the module docstring). A gaussian family raises
    ValueError: its least-squares fit is closed form in the design's SVD
    frame.

    Parameters
    ----------
    y : ndarray of shape (N,)
        Response; in {0, 1} for binomial-logit.
    F0 : ndarray of shape (N, k)
        Designs of full column rank (pre-reduce rank-deficient designs),
        stacked by rows as described in the module docstring.
    family : Family
        Binomial-logit.
    starts : ndarray of shape (M,), optional
        First row of each group. None fits all rows as one group, checks
        that ``F0`` has full column rank, unwraps the result to that group,
        and raises ConvergenceError (carrying the last iterate) if it did
        not converge.
    ranks : ndarray of shape (M,), optional
        Columns of each group's design; the remaining columns are zero
        padding. Defaults to k.

    Returns
    -------
    GlmFit
    """
    if family.name == "gaussian":
        raise ValueError("gaussian fits are closed form in the SVD frame of "
                         "the design; fit_glm fits binomial-logit groups only")
    y = np.asarray(y, dtype=float)
    F0 = np.asarray(F0, dtype=float)
    n, k = F0.shape
    if y.shape != (n,):
        raise ValueError(f"response length {y.shape} does not match design rows {n}")
    if k < 1:
        raise ValueError("design has no columns")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(F0))):
        raise ValueError("non-finite values in response or design")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("binomial-logit response must be 0/1")
    if starts is None and np.linalg.matrix_rank(F0) < k:
        raise ValueError("design is rank deficient; reduce it first")
    fit = _firth(y, F0, _Stack.make(n, k, starts, ranks))
    if starts is not None:
        return fit
    one = GlmFit(coef=fit.coef[0], fitted_mean=fit.fitted_mean,
                 converged=bool(fit.converged[0]), iterations=fit.iterations,
                 deviance=float(fit.deviance[0]))
    if not one.converged:
        raise ConvergenceError(
            f"fit did not reach score norm {_TOL:g} in {_MAX_PASSES} "
            "iterations",
            fit=one,
        )
    return one


def _information(F, w, stack):
    """Each group's ``F' diag(w) F``, with the identity in the padded block."""
    k = F.shape[1]
    Ft = np.ascontiguousarray(F.T)

    def terms(lo, hi):
        f = Ft[:, lo:hi]
        out = _next_order(f, 2, f, np.empty((_n_sym(k, 2), hi - lo)))
        out *= w[lo:hi]
        return out.T

    return stack.padded(_unpack(stack.sums(_n_sym(k, 2), terms), k, 2))


def _penalized(y, F, stack, coef):
    """Mean, working weight, information (identity in the padded block), log
    likelihood and penalized log likelihood of each group at ``coef``."""
    eta = stack.linear_predictor(F, coef)
    mu = expit(eta)
    w = np.clip(mu * (1.0 - mu), _MU_EPS, None)
    info = _information(F, w, stack)
    ll = np.add.reduceat(y * eta - np.logaddexp(0.0, eta), stack.starts)
    return mu, w, info, ll, ll + 0.5 * _logdet_pd(info)


def _logdet_pd(S):
    """log|S| of each PSD matrix in the stack, -inf where it is not PD: by
    one batched Cholesky factorization, or by ``slogdet`` if that fails."""
    try:
        return 2.0 * np.log(np.diagonal(np.linalg.cholesky(S), 0, 1, 2)).sum(1)
    except np.linalg.LinAlgError:
        sign, logdet = np.linalg.slogdet(S)
        return np.where(sign > 0, logdet, -np.inf)


def _negative_definite(H):
    """Which matrices of the stack are negative definite: all if one batched
    Cholesky factorization of -H succeeds, else by the largest eigenvalue."""
    try:
        np.linalg.cholesky(-H)
        return np.ones(H.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(H)[:, -1] < 0.0


def _newton_step(y, F, stack, mu, w, info, exact):
    """Penalized score and step of each group: the quasi-Fisher step
    A score, or with ``exact`` the Newton step (a Fisher step where the
    Hessian is not negative definite).

    With A = I^-1, leverages h_j = w_j f_j' A f_j and
    T = sum_j w_j (1 - 2 mu_j) f_j (x) f_j (x) f_j, the score is
    F'(y - mu + h (1/2 - mu)) and the Hessian of the penalized likelihood
    is -I + 1/2 F' diag(h (1 - 6w)) F - 1/2 [tr(A T_a A T_b)]_ab.
    """
    M, k = stack.pad.shape
    m2, m3 = _n_sym(k, 2), _n_sym(k, 3)
    width = k + m2 + m3 if exact else k + m2
    A = sym(np.linalg.inv(info))
    # h_j = w_j (o2_j . A2), with A2 = A packed, off-diagonals doubled
    pairs = _sym_index(k, 2)[0].T
    A2 = (A[:, pairs[0], pairs[1]] * np.where(pairs[0] == pairs[1], 1.0, 2.0)).T
    gid = stack.group_of_row()
    Ft = np.ascontiguousarray(F.T)

    def terms(lo, hi):
        f, wj, mj = Ft[:, lo:hi], w[lo:hi], mu[lo:hi]
        out = np.empty((width, hi - lo))
        o2 = _next_order(f, 2, f, out[k:k + m2])
        h = wj * np.einsum("mn,mn->n", o2, A2[:, gid[lo:hi]])
        np.multiply(f, y[lo:hi] - mj + h * (0.5 - mj), out=out[:k])
        if exact:
            _next_order(o2, 3, f * (wj * (1.0 - 2.0 * mj)), out[k + m2:])
            o2 *= h * (1.0 - 6.0 * wj)
        return out.T

    sums = stack.sums(width, terms)
    score = sums[:, :k]
    if not exact:
        return score, (A @ score[:, :, None])[:, :, 0]
    AT = (A[:, None] @ _unpack(sums[:, k + m2:], k, 3)).reshape(M, k, k * k)
    ATt = AT.reshape(M, k, k, k).swapaxes(-1, -2).reshape(M, k, k * k)
    hess = sym(-info + 0.5 * _unpack(sums[:, k:k + m2], k, 2)
               - 0.5 * (AT @ ATt.swapaxes(-1, -2)))
    neg = np.where(_negative_definite(hess)[:, None, None], -hess, info)
    return score, np.linalg.solve(neg, score[:, :, None])[:, :, 0]


def _firth(y, F, stack):
    M, k = stack.pad.shape
    Ft = np.ascontiguousarray(F.T)  # the row kernels read rows along axis 1
    coef = np.zeros((M, k))
    mu, w, info, ll, objective = _penalized(y, Ft.T, stack, coef)
    converged = np.zeros(M, dtype=bool)
    active = np.arange(M)
    passes = 0
    for passes in range(1, _MAX_PASSES + 1):
        sub, rows = stack.take(active)
        score, step = _newton_step(y[rows], Ft.take(rows, 1).T, sub, mu[rows],
                                   w[rows], info[active], passes > _FISHER_PASSES)
        done = np.linalg.norm(score, axis=1) <= _TOL
        converged[active[done]] = True
        active, step = active[~done], step[~done]
        if active.size == 0 or passes == _MAX_PASSES:
            break
        # Step-halving on the penalized objective, per group; the last
        # halving is taken whatever its value, if that value is finite.
        trial = np.arange(active.size)
        for halving in range(_MAX_HALVINGS + 1):
            groups = active[trial]
            sub, rows = stack.take(groups)
            t_mu, t_w, t_info, t_ll, t_obj = _penalized(
                y[rows], Ft.take(rows, 1).T, sub, coef[groups] + step[trial])
            ok = (t_obj >= objective[groups]
                  - _HALVING_SLACK * np.abs(objective[groups]))
            ok |= (halving == _MAX_HALVINGS) & np.isfinite(t_obj)
            row_ok = np.repeat(ok, sub.sizes)
            mu[rows[row_ok]], w[rows[row_ok]] = t_mu[row_ok], t_w[row_ok]
            acc = groups[ok]
            coef[acc] += step[trial[ok]]
            info[acc], ll[acc], objective[acc] = t_info[ok], t_ll[ok], t_obj[ok]
            trial = trial[~ok]
            if trial.size == 0:
                break
            step[trial] /= 2.0
    return GlmFit(coef=coef, fitted_mean=mu, converged=converged,
                  iterations=passes, deviance=-2.0 * ll)


def unscaled_precision(F0, mu, family: Family, starts, ranks=None):
    """Plug-in unscaled precision ``F0.T @ diag(lam(mu)) @ F0`` of each group,
    the rows stacked as for :func:`fit_glm`.

    For the gaussian family (lam = 1) this is exactly ``F0.T @ F0``. The
    result is the (M, k, k) stack with the identity in each padded block,
    unchecked (see :func:`singular_precision`).
    """
    F0 = np.asarray(F0, dtype=float)
    n, k = F0.shape
    return _information(F0, family.variance(mu),
                        _Stack.make(n, k, starts, ranks))


def singular_precision(P, ranks) -> dict:
    """For each precision in the stack whose leading r x r block is
    numerically singular, the reason, keyed by its position in the stack."""
    out = {}
    ranks = np.asarray(ranks)
    for r in np.unique(ranks):
        sel = np.flatnonzero(ranks == r)
        w = np.linalg.eigvalsh(P[sel, :r, :r])
        bad = (w[:, -1] <= 0.0) | (w[:, 0] <= np.finfo(float).eps * r * w[:, -1])
        for i in np.flatnonzero(bad):
            out[int(sel[i])] = ("plug-in precision is numerically singular "
                                 f"(eigenvalue range [{w[i, 0]:.3e}, {w[i, -1]:.3e}])")
    return out
