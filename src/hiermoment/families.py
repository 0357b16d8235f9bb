"""Response families (gaussian-identity, binomial-logit) and the logit GLM
fit of many groups at once, which also gives each group's plug-in unscaled
precision: the Fisher information at its fit.

Stacked layout: the rows of M groups, k design columns read as they are,
lie in the blocks of one :class:`~hiermoment.data.GroupLayout`. The fit
adds to each group's information the projector ``I - V V'`` onto the null
space of its right vectors V (0 where V has no zero column) and rotates
into V's frame once at the end; the Jeffreys penalty does not change under
the rotation, so the iterates are those of a fit on ``F V``. Per-group
sums are the layout's ``sums``, per-group solves batched calls on
``(M, k, k)`` stacks. Each group's result depends on its own rows only: a
fit of ``layout.take(groups)`` gives those groups' rows of the full fit
bitwise. :func:`fit_glm` without a layout fits one group.

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

from .data import GroupLayout
from .errors import ConvergenceError
from .linalg import sym

__all__ = [
    "Family",
    "GlmFit",
    "GAUSSIAN",
    "BINOMIAL_LOGIT",
    "get_family",
    "fit_glm",
    "singular_precision",
]

_MU_EPS = 1e-10
_TOL = 1e-8  # convergence threshold on each group's penalized score norm
_MAX_PASSES = 100  # groups not converged by then have converged False
_MAX_HALVINGS = 12
_HALVING_SLACK = 1e-10  # relative round-off allowance of the halving test
# Quasi-Fisher passes from 0 before exact Newton: they need no second- or
# third-order row sums, and on small logit groups 2 of them save a pass.
_FISHER_PASSES = 2


def expit(x):
    """The logistic function ``1 / (1 + exp(-x))``: 0 at -inf, 1 at +inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class Family:
    """Response family and its inverse link; both links are canonical.

    ``name`` is the family's :func:`get_family` key. ``dispersion`` holds
    the known value (1.0 for logit) and is None when the dispersion must be
    estimated from data.
    """

    name: str
    dispersion: float | None

    def inv_link(self, eta):
        if self.name == "gaussian":
            return np.asarray(eta, dtype=float)
        return expit(eta)


GAUSSIAN = Family(name="gaussian", dispersion=None)
BINOMIAL_LOGIT = Family(name="logit", dispersion=1.0)

_FAMILIES = {f.name: f for f in (GAUSSIAN, BINOMIAL_LOGIT)}


def get_family(name: str) -> Family:
    """Look up a family by name ("gaussian", "logit")."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of "
                         f"{sorted(_FAMILIES)}") from None


@dataclass(frozen=True)
class GlmFit:
    """Result of a GLM fit.

    For one group, ``coef`` has shape (r,), ``information`` (r, r) and
    ``converged`` is a bool. For a stacked fit of M groups they have shapes
    (M, k), (M, k, k) and (M,), in V's frame. ``information`` is each
    group's Fisher information ``F0' diag(mu (1 - mu)) F0`` (F0 = F V, the
    weight floored at 1e-10) at ``coef``, identity in the padded block: its
    plug-in unscaled precision, unchecked (see :func:`singular_precision`).
    ``iterations`` counts the passes over the stack (the score evaluations
    of the slowest group).
    """

    coef: np.ndarray
    information: np.ndarray
    converged: bool | np.ndarray
    iterations: int


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
    F: np.ndarray,
    family: Family,
    layout: GroupLayout | None = None,
    V: np.ndarray | None = None,
) -> GlmFit:
    """Fit one binomial-logit coefficient vector per group, in the frame of
    each group's right vectors.

    Each group maximizes the Jeffreys-penalized likelihood, which exists
    even under perfect separation, by Fisher then exact Newton steps on all
    groups at once (see the module docstring). A gaussian family raises
    ValueError: its least-squares fit is closed form in the design's SVD
    frame.

    Parameters
    ----------
    y : ndarray of shape (N,)
        Response; in {0, 1} for binomial-logit.
    F : ndarray of shape (N, k)
        Designs stacked by rows as described in the module docstring, read
        without a copy if its columns are contiguous.
    family : Family
        Binomial-logit.
    layout : GroupLayout, optional
        The groups' row blocks. None fits all rows as one group, checks
        that ``F`` has full column rank, unwraps the result to that group,
        and raises ConvergenceError (carrying the last iterate) if it did
        not converge.
    V : ndarray of shape (M, k, k), optional
        Each group's orthonormal right vectors spanning the row space of its
        design, zero columns (the padded directions) last, as from
        :func:`~hiermoment.linalg.compact_svd`; the result is in this frame.
        Defaults to the identity.

    Returns
    -------
    GlmFit
    """
    if family.name == "gaussian":
        raise ValueError("gaussian fits are closed form in the SVD frame of "
                         "the design; fit_glm fits binomial-logit groups only")
    y = np.asarray(y, dtype=float)
    F = np.asarray(F, dtype=float)
    n, k = F.shape
    if y.shape != (n,) or (layout is not None and layout.offsets[-1] != n):
        raise ValueError(f"response length {y.shape} or group rows do not "
                         f"match design rows {n}")
    if k < 1:
        raise ValueError("design has no columns")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(F))):
        raise ValueError("non-finite values in response or design")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("binomial-logit response must be 0/1")
    if layout is None and np.linalg.matrix_rank(F) < k:
        raise ValueError("design is rank deficient; reduce it first")
    M = 1 if layout is None else layout.sizes.size
    V = np.broadcast_to(np.eye(k), (M, k, k)) if V is None \
        else np.asarray(V, dtype=float)
    pad = ~V.any(axis=1)  # (M, k): True in each group's padded directions
    short = pad.any(axis=1)
    null = np.zeros((M, k, k))
    null[short] = sym(np.eye(k) - V[short] @ V[short].swapaxes(1, 2))
    fit = _firth(y, F, GroupLayout([0, n]) if layout is None else layout, null)
    Vt = V.swapaxes(1, 2)
    coef = (Vt @ fit.coef[:, :, None])[:, :, 0]
    info = sym(Vt @ fit.information @ V)
    info[:, np.arange(k), np.arange(k)] += pad
    if layout is not None:
        return GlmFit(coef=coef, information=info, converged=fit.converged,
                      iterations=fit.iterations)
    one = GlmFit(coef=coef[0], information=info[0],
                 converged=bool(fit.converged[0]), iterations=fit.iterations)
    if not one.converged:
        raise ConvergenceError(
            f"fit did not reach score norm {_TOL:g} in {_MAX_PASSES} "
            "iterations",
            fit=one,
        )
    return one


def _information(F, w, layout, null):
    """Each group's ``F' diag(w) F`` plus its stack entry ``null``."""
    k = F.shape[1]
    Ft = np.ascontiguousarray(F.T)

    def terms(lo, hi):
        f = Ft[:, lo:hi]
        out = _next_order(f, 2, f, np.empty((_n_sym(k, 2), hi - lo)))
        out *= w[lo:hi]
        return out.T

    return _unpack(layout.sums(_n_sym(k, 2), terms), k, 2) + null


def _penalized(y, F, layout, null, coef):
    """Mean, working weight, information (plus ``null``) and penalized log
    likelihood of each group at ``coef``."""
    eta = layout.row_dot(F, coef)
    mu = expit(eta)
    w = np.clip(mu * (1.0 - mu), _MU_EPS, None)
    info = _information(F, w, layout, null)
    ll = np.add.reduceat(y * eta - np.logaddexp(0.0, eta), layout.starts)
    return mu, w, info, ll + 0.5 * _logdet_pd(info)


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


def _newton_step(y, F, layout, mu, w, info, exact):
    """Penalized score and step of each group: the quasi-Fisher step
    A score, or with ``exact`` the Newton step (a Fisher step where the
    Hessian is not negative definite).

    With A = I^-1, leverages h_j = w_j f_j' A f_j and
    T = sum_j w_j (1 - 2 mu_j) f_j (x) f_j (x) f_j, the score is
    F'(y - mu + h (1/2 - mu)) and the Hessian of the penalized likelihood
    is -I + 1/2 F' diag(h (1 - 6w)) F - 1/2 [tr(A T_a A T_b)]_ab.
    """
    M, k = info.shape[:2]
    m2, m3 = _n_sym(k, 2), _n_sym(k, 3)
    width = k + m2 + m3 if exact else k + m2
    A = sym(np.linalg.inv(info))
    # h_j = w_j (o2_j . A2), with A2 = A packed, off-diagonals doubled
    pairs = _sym_index(k, 2)[0].T
    A2 = (A[:, pairs[0], pairs[1]] * np.where(pairs[0] == pairs[1], 1.0, 2.0)).T
    gid = layout.row_group()
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

    sums = layout.sums(width, terms)
    score = sums[:, :k]
    if not exact:
        return score, (A @ score[:, :, None])[:, :, 0]
    AT = (A[:, None] @ _unpack(sums[:, k + m2:], k, 3)).reshape(M, k, k * k)
    ATt = AT.reshape(M, k, k, k).swapaxes(-1, -2).reshape(M, k, k * k)
    hess = sym(-info + 0.5 * _unpack(sums[:, k:k + m2], k, 2)
               - 0.5 * (AT @ ATt.swapaxes(-1, -2)))
    neg = np.where(_negative_definite(hess)[:, None, None], -hess, info)
    return score, np.linalg.solve(neg, score[:, :, None])[:, :, 0]


def _firth(y, F, layout, null):
    M, k = null.shape[:2]
    Ft = np.ascontiguousarray(F.T)  # the row kernels read rows along axis 1
    coef = np.zeros((M, k))
    mu, w, info, objective = _penalized(y, Ft.T, layout, null, coef)
    converged = np.zeros(M, dtype=bool)
    active = np.arange(M)
    passes = 0
    for passes in range(1, _MAX_PASSES + 1):
        sub, rows = layout.take(active)
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
            sub, rows = layout.take(groups)
            t_mu, t_w, t_info, t_obj = _penalized(
                y[rows], Ft.take(rows, 1).T, sub, null[groups],
                coef[groups] + step[trial])
            ok = (t_obj >= objective[groups]
                  - _HALVING_SLACK * np.abs(objective[groups]))
            ok |= (halving == _MAX_HALVINGS) & np.isfinite(t_obj)
            row_ok = ok[sub.row_group()]
            mu[rows[row_ok]], w[rows[row_ok]] = t_mu[row_ok], t_w[row_ok]
            acc = groups[ok]
            coef[acc] += step[trial[ok]]
            info[acc], objective[acc] = t_info[ok], t_obj[ok]
            trial = trial[~ok]
            if trial.size == 0:
                break
            step[trial] /= 2.0
    return GlmFit(coef=coef, information=info, converged=converged,
                  iterations=passes)


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
