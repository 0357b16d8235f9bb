"""Population-level moment combination: weight schemes, the fixed-effect
estimator, the bias-corrected random-effect covariance estimator with PSD
projection, predictor standardization, and the two-step fitting driver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupedDataset
from .errors import SingularOmegaError
from .families import Family
from .groups import SummarySet, build_summary_set
from .linalg import SymKronOperator, eigen_floor, psd_project, sym, sym_sqrt

__all__ = [
    "EPS_SING",
    "REFIT_FLOOR",
    "SCHEMES",
    "WeightSpec",
    "ScaleRecord",
    "MomentFit",
    "FitOptions",
    "make_weights",
    "fixed_effects",
    "ahat",
    "omega2_and_bias",
    "shat",
    "sigma_hat",
    "standardize",
    "fit_moment",
    "kappa_check",
    "kappa_bound",
]

# Relative condition threshold beyond which the Gram operators are treated as
# singular (identifiability failure) rather than inverted.
EPS_SING = 1e-12

# Eigenvalue floor for the covariance guess of each semi-weighted refit. The
# first semi-weighted pass starts from the identity, which suits predictors
# standardized to unit RMS.
REFIT_FLOOR = 1e-8

SCHEMES = ("semiweighted", "unweighted", "weighted")


@dataclass(frozen=True)
class WeightSpec:
    """Weight-scheme selector.

    Schemes: ``unweighted`` (identity), ``weighted`` (group precision), and
    ``semiweighted`` (prior covariance guess ``sigma0``). The optimal weights
    for a true covariance and dispersion are semi-weighted at
    ``sigma0 = sigma / phi``.
    """

    scheme: str
    sigma0: np.ndarray | None = None

    @classmethod
    def unweighted(cls) -> "WeightSpec":
        return cls(scheme="unweighted")

    @classmethod
    def weighted(cls) -> "WeightSpec":
        return cls(scheme="weighted")

    @classmethod
    def semi_weighted(cls, sigma0: np.ndarray) -> "WeightSpec":
        sigma0 = np.asarray(sigma0, dtype=float)
        if not np.allclose(sigma0, sigma0.T, atol=1e-10):
            raise ValueError("sigma0 must be symmetric")
        if np.linalg.eigvalsh(sym(sigma0))[0] <= 0.0:
            raise ValueError("sigma0 must be positive definite")
        return cls(scheme="semiweighted", sigma0=sym(sigma0))

    @classmethod
    def optimal(cls, sigma: np.ndarray, phi: float) -> "WeightSpec":
        if phi <= 0.0:
            raise ValueError("optimal weights need phi > 0")
        sigma = np.asarray(sigma, dtype=float)
        return cls(scheme="semiweighted", sigma0=sym(sigma) / float(phi))


def make_weights(summary_set: SummarySet, spec: WeightSpec) -> np.ndarray:
    """Realize the symmetric PD weight matrix of every group for a scheme.

    Returns an ``(M, k, k)`` stack, k = p + q, laid out like
    ``summary_set.precision``: group i's weights are the leading
    ``r_i x r_i`` block and the padded block is the identity.
    """
    if spec.scheme == "unweighted":
        return np.tile(np.eye(summary_set.p + summary_set.q),
                       (len(summary_set.ids), 1, 1))
    if spec.scheme == "weighted":
        return summary_set.precision.copy()
    if spec.scheme != "semiweighted":
        raise ValueError(f"unknown weight scheme {spec.scheme!r}")
    V2 = summary_set.V2
    # One expression, so no more than two (M, k, k) arrays are alive at once.
    return sym(np.linalg.inv(sym(
        V2.swapaxes(1, 2) @ spec.sigma0 @ V2 + summary_set.precision_inv)))


def fixed_effects(
    summary_set: SummarySet, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted moment estimator of the fixed effects.

    Returns ``(beta, omega)`` where ``omega = sum_i V1_i W_i V1_i'`` and
    ``beta = omega^{-1} sum_i V1_i W_i theta_rot_i``, summed over the
    padded stacks in summary order (ascending group id).

    Raises
    ------
    SingularOmegaError
        ``omega`` condition exceeds 1/EPS_SING; some fixed-effect direction
        is not identified.
    """
    V1W = summary_set.V1 @ weights
    omega = sym(np.einsum("mpk,mqk->pq", V1W, summary_set.V1))
    rhs = np.einsum("mpk,mk->p", V1W, summary_set.theta)
    w, Q = np.linalg.eigh(omega)
    if w[-1] <= 0.0 or w[0] <= EPS_SING * w[-1]:
        raise SingularOmegaError(
            "fixed-effect Gram matrix is numerically singular "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]); check for "
            "fixed-effect predictors that are constant within every group "
            "or datasets with too few groups",
            null_direction=Q[:, 0],
        )
    beta = Q @ ((Q.T @ rhs) / w)
    return beta, omega


def ahat(
    summary_set: SummarySet, weights: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Weighted outer-product statistic of group deviations from ``b``."""
    resid = summary_set.theta - np.einsum("mpk,p->mk", summary_set.V1, b)
    a = (summary_set.V2 @ (weights @ resid[..., None]))[..., 0]
    return sym(a.T @ a)


def omega2_and_bias(
    summary_set: SummarySet, weights: np.ndarray
) -> tuple[SymKronOperator, np.ndarray]:
    """Assemble the symmetric-space Gram operator and the noise-bias matrix.

    Returns ``(operator, B)`` with ``operator = sum_i A_i (x) A_i`` for
    ``A_i = V2_i W_i V2_i'`` (reduced basis only) and ``B`` solving
    ``operator(B) = sum_i V2_i W_i D_i^{-2} W_i V2_i'``.
    """
    V2W = summary_set.V2 @ weights
    op = SymKronOperator(sym(V2W @ summary_set.V2.swapaxes(1, 2)))
    rhs = np.einsum("mqk,mrk->qr", V2W @ summary_set.precision_inv, V2W)
    B = op.solve(sym(rhs), eps_sing=EPS_SING)
    return op, B


def shat(
    summary_set: SummarySet,
    weights: np.ndarray,
    b: np.ndarray,
    operator: SymKronOperator | None = None,
) -> np.ndarray:
    """Pre-correction covariance statistic at center ``b``: the symmetric
    solve of the Gram operator against ``ahat(b)``. Its expectation at the
    true fixed effects is the random-effect covariance plus dispersion times
    the bias matrix."""
    if operator is None:
        operator, _ = omega2_and_bias(summary_set, weights)
    return operator.solve(ahat(summary_set, weights, b), eps_sing=EPS_SING)


def sigma_hat(
    summary_set: SummarySet,
    weights: np.ndarray,
    beta: np.ndarray,
    phi: float,
    operator: SymKronOperator | None = None,
    bias: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Bias-corrected random-effect covariance estimate.

    Returns ``(sigma_raw, sigma, projected)``: the raw moment estimate,
    its projection onto the PSD cone, and whether projection changed it.
    """
    if operator is None or bias is None:
        operator, bias = omega2_and_bias(summary_set, weights)
    S = shat(summary_set, weights, beta, operator=operator)
    sigma_raw = sym(S - phi * bias)
    sigma = psd_project(sigma_raw)
    projected = not np.array_equal(sigma, sigma_raw)
    return sigma_raw, sigma, projected


@dataclass(frozen=True)
class ScaleRecord:
    """Per-column scaling applied to the predictors before fitting.

    Non-constant columns are divided by their pooled root-mean-square;
    constant columns (intercepts and all-zero columns) keep scale 1.
    """

    x_scale: np.ndarray
    z_scale: np.ndarray


def standardize(dataset: GroupedDataset) -> tuple[GroupedDataset, ScaleRecord]:
    """Divide each non-constant predictor column by its pooled RMS.

    Returns the scaled dataset and the record needed to back-transform
    estimates (divide beta by the X scales; congruence-transform covariance
    estimates by the inverse Z scales).
    """

    def _column_scales(F):
        # Reductions across the short axis of the (N, k) columns are slow:
        # take the extremes along the rows of one transposed copy.
        Ft = np.ascontiguousarray(F.T)
        lo, hi = Ft.min(axis=1), Ft.max(axis=1)
        del Ft
        # Square each column over its largest magnitude, so the sum of
        # squares neither overflows nor underflows at extreme scales.
        amax = np.maximum(np.abs(lo), np.abs(hi))
        unit = np.where(amax > 0.0, amax, 1.0)
        F = F / unit
        rms = unit * np.sqrt(np.einsum("ij,ij->j", F, F) / F.shape[0])
        return np.where(lo == hi, 1.0, rms)

    x_scale = _column_scales(dataset.X)
    z_scale = _column_scales(dataset.Z)
    record = ScaleRecord(x_scale=x_scale, z_scale=z_scale)
    if np.all(x_scale == 1.0) and np.all(z_scale == 1.0):
        return dataset, record
    return dataset.with_columns(dataset.X / x_scale,
                                dataset.Z / z_scale), record


@dataclass(frozen=True)
class FitOptions:
    """Options for :func:`fit_moment`.

    scheme: "semiweighted" (default: an identity covariance guess, then
        ``refits`` passes with the estimated covariance), "unweighted", or
        "weighted" (single pass each).
    refits: number of semi-weighted refits after the initial pass, >= 0.
    rank_tol: relative SVD rank threshold for group designs, in [0, 1)
        (see :func:`hiermoment.linalg.compact_svd`, which checks it).
    """

    scheme: str = "semiweighted"
    refits: int = 1
    rank_tol: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of "
                + ", ".join(SCHEMES)
            )
        if self.refits < 0:
            raise ValueError(f"refits must be >= 0, got {self.refits}")


@dataclass(frozen=True)
class MomentFit:
    """Population estimates and diagnostics from the moment pipeline.

    All reported matrices are in the original predictor frame (standardization
    undone). ``summary_set``, ``beta_scaled``, and ``sigma_scaled`` retain the
    standardized-frame quantities needed for posterior computation.
    """

    beta: np.ndarray
    sigma_raw: np.ndarray
    sigma: np.ndarray
    phi: float
    omega: np.ndarray
    omega2_min_eig: float
    rho: int
    bias_B: np.ndarray
    projected: bool
    steps: int
    scale_record: ScaleRecord
    summary_set: SummarySet
    beta_scaled: np.ndarray
    sigma_scaled: np.ndarray


def fit_moment(
    dataset: GroupedDataset,
    family: Family,
    options: FitOptions | None = None,
) -> MomentFit:
    """Fit the hierarchical model by non-iterative moment combination.

    Standardizes predictors, reduces each group to a summary, pools the
    dispersion, combines summaries under the configured weight scheme
    (semi-weighted with identity guess by default, then ``refits`` passes
    with the estimated covariance), and back-transforms to the original
    predictor frame.
    """
    opts = options or FitOptions()
    scaled, record = standardize(dataset)
    sset = build_summary_set(scaled, family, rank_tol=opts.rank_tol)
    phi = sset.pooled_dispersion

    if opts.scheme == "semiweighted":
        spec = WeightSpec.semi_weighted(np.eye(sset.q))
        n_refits = int(opts.refits)
    else:
        spec = WeightSpec(scheme=opts.scheme)
        n_refits = 0  # weights do not depend on the covariance estimate

    for step in range(n_refits + 1):
        weights = make_weights(sset, spec)
        beta, omega = fixed_effects(sset, weights)
        operator, bias = omega2_and_bias(sset, weights)
        sigma_raw, sigma, projected = sigma_hat(
            sset, weights, beta, phi, operator=operator, bias=bias
        )
        if step < n_refits:
            sigma0 = eigen_floor(sigma / max(phi, 1e-12), REFIT_FLOOR)
            spec = WeightSpec.semi_weighted(sigma0)
            del weights  # not held while the next pass builds its own

    xs, zs = record.x_scale, record.z_scale
    zz = np.outer(zs, zs)
    return MomentFit(
        beta=beta / xs,
        sigma_raw=sigma_raw / zz,
        sigma=sigma / zz,
        phi=phi,
        omega=omega * np.outer(xs, xs),
        omega2_min_eig=operator.min_eig,
        rho=sset.rho,
        bias_B=bias / zz,
        projected=projected,
        steps=n_refits,
        scale_record=record,
        summary_set=sset,
        beta_scaled=beta,
        sigma_scaled=sigma,
    )


def _rank_buckets(ranks):
    """(r, positions) for each distinct rank r in ``ranks``."""
    for r in np.unique(ranks).tolist():
        yield r, np.flatnonzero(ranks == r)


def kappa_check(
    weights: np.ndarray,
    sigma: np.ndarray,
    phi: float,
    summary_set: SummarySet,
) -> np.ndarray:
    """Per-group spectral values whose uniform bound is the scheme constant.

    Returns the largest eigenvalue of
    ``W^{1/2} (V2' Sigma V2 + phi D^{-2}) W^{1/2}`` over each group's
    leading r x r block of the stacks, one stacked eigensolve per rank;
    diagnostics only.
    """
    sigma = np.asarray(sigma, dtype=float)
    V2 = summary_set.V2
    mids = V2.swapaxes(1, 2) @ sigma @ V2 + phi * summary_set.precision_inv
    vals = np.empty(len(summary_set.ids))
    for r, sel in _rank_buckets(summary_set.r):
        Wh = sym_sqrt(weights[sel, :r, :r])
        vals[sel] = np.linalg.eigvalsh(sym(Wh @ mids[sel, :r, :r] @ Wh))[:, -1]
    return vals


def _largest_norm(stack, ranks) -> float:
    """Largest spectral norm among the leading r x r blocks of a stack of
    symmetric matrices."""
    return max(float(np.abs(np.linalg.eigvalsh(stack[sel, :r, :r])).max())
               for r, sel in _rank_buckets(ranks))


def kappa_bound(
    spec: WeightSpec,
    sigma: np.ndarray,
    phi: float,
    summary_set: SummarySet,
) -> float:
    """Scheme-specific uniform bound on the :func:`kappa_check` values."""
    sigma = np.asarray(sigma, dtype=float)
    sig_norm = np.linalg.norm(sigma, 2)
    if spec.scheme == "unweighted":
        worst = _largest_norm(summary_set.precision_inv, summary_set.r)
        return float(sig_norm + phi * worst)
    if spec.scheme == "weighted":
        worst = _largest_norm(summary_set.precision, summary_set.r)
        return float(sig_norm * worst + phi)
    if spec.scheme != "semiweighted":
        raise ValueError(f"unknown weight scheme {spec.scheme!r}")
    return float(np.linalg.norm(np.linalg.solve(spec.sigma0, sigma), 2) + phi)
