"""Per-group reduction to sufficient summaries and dispersion pooling.

Each group's raw data (y_i, X_i, Z_i) collapses to an orthonormal basis of the
identifiable coefficient subspace, a rotated coefficient estimate, and an
unscaled precision matrix. Groups are independent and are summarized one
after another; the collected set is ordered by group id for reproducibility
and also holds the summaries as zero-padded stacks, so every population sum
over groups is one array operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable

import numpy as np

from .data import GroupedDataset
from .errors import (
    ConvergenceError,
    DegeneratePrecisionError,
    DispersionError,
    ZeroRankError,
)
from .families import Family, fit_glm, pearson_dispersion, unscaled_precision
from .linalg import compact_svd, sym

__all__ = [
    "GroupSummary",
    "SummarySet",
    "summarize_group",
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


def summarize_group(
    y: np.ndarray,
    X: np.ndarray,
    Z: np.ndarray,
    family: Family,
    rank_tol: float | None = None,
    group_id: Hashable = None,
) -> GroupSummary:
    """Reduce one group's raw data to a GroupSummary.

    Builds ``F = [X Z]``, takes its compact SVD, fits the rotated coefficient
    on ``F0 = U * d`` (Firth-penalized for binomial-logit), and records the
    plug-in precision and, when estimable, the Pearson dispersion.

    Raises
    ------
    ZeroRankError
        All-zero design (rank 0).
    ConvergenceError
        The group GLM fit did not converge.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    p, q = X.shape[1], Z.shape[1]
    F = np.hstack([X, Z])
    svd = compact_svd(F, rank_tol)
    if svd.r == 0:
        raise ZeroRankError("group design is all zero (rank 0)")
    F0 = svd.U * svd.d
    fit = fit_glm(y, F0, family, firth=(family.name != "gaussian"))
    if family.name == "gaussian":
        # The SVD frame makes the least-squares precision exactly diagonal.
        precision = np.diag(svd.d * svd.d)
    else:
        precision = unscaled_precision(F0, fit.fitted_mean, family)
    dispersion = None
    if not family.dispersion_known:
        dispersion = pearson_dispersion(y, fit.fitted_mean, family, svd.r)
    return GroupSummary(
        group_id=group_id,
        n=y.shape[0],
        r=svd.r,
        V1=svd.V[:p],
        V2=svd.V[p:],
        theta_rot=fit.coef,
        precision=precision,
        dispersion=dispersion,
    )


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
    """Summarize every group and pool dispersion.

    Groups whose fit fails are recorded in ``skipped`` (with the reason) and
    excluded from all downstream sums. Summaries and skips are sorted by
    group id, so the output does not depend on the order of the groups.
    """
    summaries, skipped = [], []
    for g in dataset.groups:
        try:
            summaries.append(summarize_group(
                g.y, g.X, g.Z, family, rank_tol=rank_tol, group_id=g.group_id
            ))
        except (ZeroRankError, ConvergenceError, DegeneratePrecisionError) as e:
            skipped.append((g.group_id, str(e)))
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
        skipped=tuple(skipped),
    )
