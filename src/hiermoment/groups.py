"""Per-group reduction to sufficient summaries and dispersion pooling.

Each group's raw data (y_i, X_i, Z_i) collapses to an orthonormal basis of the
identifiable coefficient subspace, a rotated coefficient estimate, and an
unscaled precision matrix. The only per-group loop is the compact SVD that
decides each group's rank; the coefficient fit, the plug-in precisions and
the Pearson dispersions are each one call on all groups stacked in group-id
order (see :mod:`hiermoment.families`), and each group's result depends on
its own rows only. The collected set is ordered by group id and also holds
the summaries as zero-padded stacks, so every population sum over groups is
one array operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable

import numpy as np

from .data import GroupData, GroupedDataset
from .errors import (
    ConvergenceError,
    DegeneratePrecisionError,
    DispersionError,
    ZeroRankError,
)
from .families import (
    Family,
    fit_glm,
    pearson_dispersion,
    singular_precision,
    unscaled_precision,
)
from .linalg import compact_svd, sym

__all__ = [
    "GroupSummary",
    "SummarySet",
    "summarize_group",
    "summarize_groups",
    "pool_dispersion",
    "build_summary_set",
]


@dataclass(frozen=True)
class GroupSummary:
    """Sufficient statistics for one group.

    The group design ``F = [X Z]`` factors as ``F = F0 @ V.T`` with
    ``F0 = U * d`` of full column rank r; ``V1``/``V2`` are the fixed- and
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


@dataclass(frozen=True)
class SummarySet:
    """Group summaries in ascending group-id order plus pooled quantities.

    ``__post_init__`` also stores the M summaries as padded stacks with
    k = p + q: ``V1 (M, p, k)``, ``V2 (M, q, k)``, ``theta (M, k)``,
    ``precision (M, k, k)`` and its inverse ``precision_inv (M, k, k)``.
    Group i fills the leading ``r_i`` directions. The padded directions
    have zero V columns, zero theta and identity precision, so they add
    exactly 0 to every sum over the stacks. The summaries are stored once:
    after construction each one's arrays are views into the stacks.
    """

    summaries: tuple[GroupSummary, ...]
    p: int
    q: int
    pooled_dispersion: float
    rho: int
    n_obs: int
    skipped: tuple[tuple[Hashable, str], ...]
    V1: np.ndarray = field(init=False, repr=False, compare=False)
    V2: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    precision: np.ndarray = field(init=False, repr=False, compare=False)
    precision_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M, k = len(self.summaries), self.p + self.q
        V1 = np.zeros((M, self.p, k))
        V2 = np.zeros((M, self.q, k))
        theta = np.zeros((M, k))
        precision = np.tile(np.eye(k), (M, 1, 1))
        views = []
        for i, s in enumerate(self.summaries):
            V1[i, :, :s.r] = s.V1
            V2[i, :, :s.r] = s.V2
            theta[i, :s.r] = s.theta_rot
            precision[i, :s.r, :s.r] = s.precision
            views.append(replace(
                s, V1=V1[i, :, :s.r], V2=V2[i, :, :s.r],
                theta_rot=theta[i, :s.r], precision=precision[i, :s.r, :s.r]))
        for name, value in [("summaries", tuple(views)), ("V1", V1), ("V2", V2),
                            ("theta", theta), ("precision", precision),
                            ("precision_inv", sym(np.linalg.inv(precision)))]:
            object.__setattr__(self, name, value)


def summarize_groups(groups, family: Family, rank_tol: float | None = None):
    """Reduce groups' raw data to GroupSummary entries.

    Each group's ``F = [X Z]`` gets its own compact SVD, for the rank
    decision. The rotated designs ``F0 = U * d`` are then stacked in the
    order of ``groups``, zero-padded to k = p + q columns, and fitted
    together by one
    :func:`fit_glm` call (Firth-penalized for binomial-logit); the plug-in
    precisions and the Pearson dispersions are one stacked call each. A
    gaussian group's precision is ``diag(d^2)``, exact in the SVD frame.

    Returns
    -------
    summaries : list of GroupSummary
        In the order of ``groups``.
    skipped : list of (group id, HierMomentError)
        Groups that could not be summarized: an all-zero design
        (ZeroRankError), a fit that did not converge (ConvergenceError) or a
        numerically singular plug-in precision (DegeneratePrecisionError).
    """
    if not groups:
        return [], []
    p = groups[0].X.shape[1]
    F0 = np.zeros((sum(g.n for g in groups), p + groups[0].Z.shape[1]))
    kept, skipped, lo = [], [], 0
    for g in groups:
        svd = compact_svd(np.hstack([g.X, g.Z]), rank_tol)
        if svd.r == 0:
            skipped.append((g.group_id,
                            ZeroRankError("group design is all zero (rank 0)")))
            continue
        F0[lo:lo + g.n, :svd.r] = svd.U * svd.d
        lo += g.n
        kept.append((g, svd.d, svd.V))
    if not kept:
        return [], skipped
    F0 = F0[:lo]
    sizes = np.array([g.n for g, _, _ in kept])
    starts = np.cumsum(sizes) - sizes
    ranks = np.array([d.size for _, d, _ in kept])
    y = np.concatenate([g.y for g, _, _ in kept])
    fit = fit_glm(y, F0, family, starts=starts, ranks=ranks)
    if family.name == "gaussian":
        precision = [np.diag(d * d) for _, d, _ in kept]
        problems = [None] * len(kept)
    else:
        stacked = unscaled_precision(F0, fit.fitted_mean, family, starts, ranks)
        precision = [P[:r, :r] for P, r in zip(stacked, ranks)]
        problems = singular_precision(stacked, ranks)
    dispersion = [None] * len(kept) if family.dispersion_known else \
        pearson_dispersion(y, fit.fitted_mean, family, ranks, starts)
    summaries = []
    for i, (g, d, V) in enumerate(kept):
        if not fit.converged[i]:
            skipped.append((g.group_id, ConvergenceError(
                f"the fit did not converge in {fit.iterations} iterations")))
        elif problems[i] is not None:
            skipped.append((g.group_id, DegeneratePrecisionError(problems[i])))
        else:
            summaries.append(GroupSummary(
                group_id=g.group_id, n=g.n, r=d.size, V1=V[:p], V2=V[p:],
                theta_rot=fit.coef[i, :d.size], precision=precision[i],
                dispersion=dispersion[i]))
    return summaries, skipped


def summarize_group(
    y: np.ndarray,
    X: np.ndarray,
    Z: np.ndarray,
    family: Family,
    rank_tol: float | None = None,
    group_id: Hashable = None,
) -> GroupSummary:
    """Reduce one group's raw data to a GroupSummary: the one-group call of
    :func:`summarize_groups`.

    Raises
    ------
    ZeroRankError
        All-zero design (rank 0).
    ConvergenceError
        The group GLM fit did not converge.
    DegeneratePrecisionError
        The plug-in precision is numerically singular.
    """
    group = GroupData(group_id=group_id, y=np.asarray(y, dtype=float),
                      X=np.asarray(X, dtype=float), Z=np.asarray(Z, dtype=float))
    summaries, skipped = summarize_groups([group], family, rank_tol)
    if skipped:
        raise skipped[0][1]
    return summaries[0]


def pool_dispersion(summaries, family: Family) -> float:
    """Pooled dispersion: residual-df-weighted average of group Pearson
    estimates, or the family's known constant.

    Raises
    ------
    DispersionError
        Dispersion unknown and no group has n > r.
    """
    if family.dispersion_known:
        return float(family.dispersion)
    num = 0.0
    den = 0.0
    for s in summaries:
        if s.dispersion is not None:
            df = s.n - s.r
            num += df * s.dispersion
            den += df
    if den <= 0:
        raise DispersionError(
            "cannot estimate dispersion: no group has more observations than "
            "its design rank"
        )
    return num / den


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
    summaries, skipped = summarize_groups(dataset.groups, family, rank_tol)
    summaries.sort(key=lambda s: s.group_id)
    skipped.sort(key=lambda e: e[0])
    phi = pool_dispersion(summaries, family)
    return SummarySet(
        summaries=tuple(summaries),
        p=dataset.p,
        q=dataset.q,
        pooled_dispersion=phi,
        rho=int(sum(s.r for s in summaries)),
        n_obs=int(sum(s.n for s in summaries)),
        skipped=tuple((gid, str(e)) for gid, e in skipped),
    )
