"""Per-group reduction to sufficient summaries and dispersion pooling.

Each group's raw data (y_i, X_i, Z_i) collapses to an orthonormal basis of the
identifiable coefficient subspace, a rotated coefficient estimate, and an
unscaled precision matrix. The groups are read straight from the dataset's
long columns: one stacked :func:`compact_svd` call (an R-SVD bucketed by
exact row count, see :mod:`hiermoment.linalg`) reduces every group's
``[X Z y]`` rows, and a gaussian group's fit and Pearson dispersion are
closed form in the result. Logit groups are fitted, and their plug-in
precisions taken, by one call each on all groups stacked (see
:mod:`hiermoment.families`). There is no loop over groups, and each group's
result depends on its own rows only. The summaries are written directly
into zero-padded stacks ordered by group id, so every population sum over
groups is one array operation; per-group :class:`GroupSummary` views are
built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable

import numpy as np

from .data import GroupedDataset
from .errors import (
    ConvergenceError,
    DegeneratePrecisionError,
    DispersionError,
    ZeroRankError,
)
from .families import (
    Family,
    fit_glm,
    singular_precision,
    unscaled_precision,
)
from .linalg import compact_svd, rotated_design, sym

__all__ = [
    "GroupSummary",
    "SummarySet",
    "summarize_groups",
    "pool_dispersion",
    "build_summary_set",
]


@dataclass(frozen=True)
class GroupSummary:
    """Sufficient statistics for one group.

    The group design ``F = [X Z]`` factors as ``F = F0 @ V.T`` with
    ``F0 = F @ V`` of full column rank r; ``V1``/``V2`` are the fixed- and
    random-effect blocks of V. ``theta_rot`` is the coefficient estimate in
    the rotated frame (the full-space estimate is ``V @ theta_rot``), and
    ``precision`` is its unscaled precision matrix.
    """

    group_id: Hashable
    n: int
    r: int
    V1: np.ndarray
    V2: np.ndarray
    theta_rot: np.ndarray
    precision: np.ndarray
    dispersion: float | None


@dataclass(frozen=True, init=False, eq=False)
class SummarySet:
    """Group summaries as padded stacks, in ascending group-id order, plus
    pooled quantities.

    With k = p + q, group i (key ``ids[i]``, ``n[i]`` rows, rank ``r[i]``)
    fills the leading ``r[i]`` directions of ``V1 (M, p, k)``,
    ``V2 (M, q, k)``, ``theta (M, k)`` and ``precision (M, k, k)``;
    ``precision_inv`` is the inverse stack and ``dispersion (M,)`` holds the
    groups' Pearson estimates (NaN where there is none). The padded
    directions have zero V columns, zero theta and identity precision (and
    inverse), so they add exactly 0 to every sum over the stacks.
    ``summaries`` holds per-group :class:`GroupSummary` views into the
    stacks, built on first use. ``SummarySet(summaries, ...)`` stacks given
    summaries in the order given.
    """

    p: int
    q: int
    pooled_dispersion: float
    rho: int
    n_obs: int
    skipped: tuple[tuple[Hashable, str], ...]
    ids: tuple = field(repr=False)
    n: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    dispersion: np.ndarray = field(repr=False)
    V1: np.ndarray = field(repr=False)
    V2: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    precision: np.ndarray = field(repr=False)
    precision_inv: np.ndarray = field(repr=False)

    def __init__(self, summaries, p, q, pooled_dispersion, rho, n_obs,
                 skipped):
        summaries = tuple(summaries)
        k = p + q
        r = np.fromiter((s.r for s in summaries), np.intp, len(summaries))
        keep = np.arange(k) < r[:, None]
        V = np.zeros((r.size, k, k))
        theta = np.zeros((r.size, k))
        precision = np.tile(np.eye(k), (r.size, 1, 1))
        if summaries:
            # Each group's entries land in its leading r x r positions, in
            # row-major order.
            V.swapaxes(1, 2)[keep] = np.concatenate(
                [np.vstack([s.V1, s.V2]).T for s in summaries])
            theta[keep] = np.concatenate([s.theta_rot for s in summaries])
            precision[keep[:, :, None] & keep[:, None, :]] = np.concatenate(
                [np.ravel(s.precision) for s in summaries])
        self._fill(
            ids=tuple(s.group_id for s in summaries),
            n=np.fromiter((s.n for s in summaries), np.intp, r.size), r=r,
            dispersion=np.array([s.dispersion for s in summaries], dtype=float),
            V=V, theta=theta, precision=precision,
            precision_inv=sym(np.linalg.inv(precision)), p=p, q=q,
            pooled_dispersion=pooled_dispersion, rho=rho, n_obs=n_obs,
            skipped=tuple(skipped))

    @classmethod
    def _from_columns(cls, *, ids, n, r, dispersion, V, theta, precision,
                      precision_inv, p, q, pooled_dispersion,
                      skipped) -> "SummarySet":
        self = cls.__new__(cls)
        self._fill(ids=ids, n=n, r=r, dispersion=dispersion, V=V,
                   theta=theta, precision=precision,
                   precision_inv=precision_inv, p=p, q=q,
                   pooled_dispersion=pooled_dispersion, rho=int(r.sum()),
                   n_obs=int(n.sum()), skipped=skipped)
        return self

    def _fill(self, *, V, p, **values):
        values.update(p=p, V1=np.ascontiguousarray(V[:, :p]),
                      V2=np.ascontiguousarray(V[:, p:]))
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @cached_property
    def summaries(self) -> tuple[GroupSummary, ...]:
        return tuple(map(self._summary, range(len(self.ids))))

    def _summary(self, i) -> GroupSummary:
        r = int(self.r[i])
        dispersion = float(self.dispersion[i])
        return GroupSummary(
            group_id=self.ids[i], n=int(self.n[i]), r=r,
            V1=self.V1[i, :, :r], V2=self.V2[i, :, :r],
            theta_rot=self.theta[i, :r], precision=self.precision[i, :r, :r],
            dispersion=None if np.isnan(dispersion) else dispersion)


def summarize_groups(dataset: GroupedDataset, family: Family,
                     rank_tol: float | None = None):
    """Reduce every group of ``dataset`` to its summary, as stacks.

    One stacked :func:`compact_svd` of the long ``[X Z]`` columns and y
    decides each group's rank, and rank-0 groups are dropped by a mask. A
    gaussian group with factors ``F = U diag(d) V'`` has the closed-form
    fit ``theta = U'y / d`` in its SVD frame, Pearson dispersion
    ``rss / (n - r)`` and precision ``diag(d^2)``, with no row pass. Logit
    groups' rotated designs ``F0 = F V`` (zero-padded to k = p + q columns)
    are built in one array and fitted together by one Firth-penalized
    :func:`fit_glm` call, and their plug-in precisions are one stacked call.

    Returns
    -------
    columns : dict
        The summarized groups, sorted by id (stably, so equal ids keep the
        dataset order): ``ids``, ``n``, ``r``, ``dispersion`` and the padded
        stacks ``V (M, k, k)``, ``theta``, ``precision`` and
        ``precision_inv``, laid out as in :class:`SummarySet`.
    skipped : list of (group id, HierMomentError)
        Groups that could not be summarized, sorted by id: an all-zero
        design (ZeroRankError), a fit that did not converge
        (ConvergenceError) or a numerically singular plug-in precision
        (DegeneratePrecisionError).
    """
    k, sizes = dataset.p + dataset.q, dataset.sizes
    gaussian = family.name == "gaussian"
    svd = compact_svd((dataset.X, dataset.Z), dataset.y, rank_tol,
                      starts=dataset.offsets[:-1])
    kept = np.flatnonzero(svd.r > 0)
    reasons = {i: ZeroRankError("group design is all zero (rank 0)")
               for i in np.flatnonzero(svd.r == 0).tolist()}
    n, r, d = sizes[kept], svd.r[kept], svd.d[kept]
    pad = np.arange(k) >= r[:, None]
    theta, precision = np.zeros((kept.size, k)), np.zeros((kept.size, k, k))
    dispersion = np.full(kept.size, np.nan)
    if gaussian:
        np.divide(svd.c[kept], d, out=theta, where=~pad)
        np.divide(svd.rss[kept], n - r, out=dispersion, where=n > r)
    elif kept.size:
        y = dataset.y[np.repeat(svd.r > 0, sizes)] if reasons else dataset.y
        starts = np.cumsum(n) - n
        F0 = rotated_design((dataset.X, dataset.Z), svd.V[kept],
                            dataset.offsets[kept], n)
        fit = fit_glm(y, F0, family, starts=starts, ranks=r)
        theta = np.where(pad, 0.0, fit.coef)
        P = unscaled_precision(F0, fit.fitted_mean, family, starts, r)
        precision = np.where(pad[:, :, None] | pad[:, None, :], np.eye(k), P)
        for j in np.flatnonzero(~fit.converged).tolist():
            reasons[int(kept[j])] = ConvergenceError(
                f"the fit did not converge in {fit.iterations} iterations")
        for j, problem in singular_precision(P, r).items():
            reasons.setdefault(int(kept[j]), DegeneratePrecisionError(problem))
    sel = np.flatnonzero(~np.isin(kept, list(reasons)))
    keys = list(map(dataset.ids.__getitem__, kept[sel].tolist()))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    sel = sel[np.array(order, dtype=np.intp)]
    skipped = sorted(((dataset.ids[i], e) for i, e in sorted(reasons.items())),
                     key=lambda e: e[0])
    # The stacks are built after the sort, for the kept groups only: a
    # skipped logit group's precision may be singular, and sorting a stack
    # built earlier would copy it.
    if gaussian:
        d2 = np.where(pad[sel], 1.0, d[sel] * d[sel])
        precision, precision_inv = _diagonal(d2), _diagonal(1.0 / d2)
    else:
        precision = precision[sel]
        precision_inv = sym(np.linalg.inv(precision))
    return dict(ids=tuple(map(keys.__getitem__, order)), n=n[sel], r=r[sel],
                dispersion=dispersion[sel], V=svd.V[kept[sel]],
                theta=theta[sel], precision=precision,
                precision_inv=precision_inv), skipped


def _diagonal(values):
    """The stack of diagonal matrices with the rows of ``values`` (M, k) on
    their diagonals."""
    return values[:, :, None] * np.eye(values.shape[1])


def pool_dispersion(n, r, dispersion, family: Family) -> float:
    """Pooled dispersion: the residual-df-weighted average of the groups'
    Pearson estimates (NaN where a group has none), summed in group order,
    or the family's known constant.

    Raises
    ------
    DispersionError
        Dispersion unknown and no group has n > r.
    """
    if family.dispersion_known:
        return float(family.dispersion)
    dispersion = np.asarray(dispersion, dtype=float)
    has = ~np.isnan(dispersion)
    df = (np.asarray(n) - np.asarray(r))[has]
    den = int(df.sum())
    if den <= 0:
        raise DispersionError(
            "cannot estimate dispersion: no group has more observations than "
            "its design rank"
        )
    # A running sum adds the terms one after another, in group order.
    return float(np.cumsum(df * dispersion[has])[-1] / den)


def build_summary_set(
    dataset: GroupedDataset,
    family: Family,
    rank_tol: float | None = None,
) -> SummarySet:
    """Summarize every group (see :func:`summarize_groups`) and pool
    dispersion.

    Groups that cannot be summarized are recorded in ``skipped`` (with the
    reason) and excluded from all downstream sums. Summaries and skips are
    sorted by group id, so the output does not depend on the order of the
    groups.
    """
    columns, skipped = summarize_groups(dataset, family, rank_tol)
    phi = pool_dispersion(columns["n"], columns["r"], columns["dispersion"],
                          family)
    return SummarySet._from_columns(
        **columns, p=dataset.p, q=dataset.q, pooled_dispersion=phi,
        skipped=tuple((gid, str(e)) for gid, e in skipped))
