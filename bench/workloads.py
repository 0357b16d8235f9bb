"""Workloads of the hiermoment benchmark.

Each workload makes its inputs from a seed, runs one timed fit and one timed
scoring of held-out rows per round, and checks every round's outputs against
computations made here, apart from the package, from the raw rows and the
simulation's truth. See README.md for the make-up of each input.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

import hiermoment as hm
from hiermoment import cli

P = Q = 3


@dataclass(frozen=True)
class Spec:
    family: str
    M: int                  # groups drawn by gen_replicate
    N: int                  # fit rows drawn by gen_replicate
    data_seed: int | None   # fixed gen_replicate seed, or None for --seed
    withhold: float         # share of groups left out of the fit input
    predict_repeats: int    # held-out scorings timed together per sample
    csv: bool               # run through the command line on CSV files


WORKLOADS = {
    "gauss_many_groups": Spec("gaussian", 6000, 120_000, None, 0.0, 4, False),
    # The fit rows of this workload do not depend on --seed: the Firth solver
    # drops a data-dependent set of groups, and the failed share must be the
    # same on every run.
    "logit_firth": Spec("logit", 600, 12_000, 1, 0.0, 40, False),
    "cli_csv": Spec("gaussian", 500, 200_000, None, 0.02, 1, True),
}

# Exact-computation tolerances (see README.md for their derivation).
POSTERIOR_RTOL = 1e-9
FIRTH_SCORE_TOL = 1e-6
PREDICT_RTOL = 1e-12
PSD_TOL = 1e-12
BETA_SDS = 8.0
N_POSTERIOR_SAMPLE = 32
CSV_CHUNK = 5_000  # rows formatted at a time when writing the CSV inputs


@dataclass
class Inputs:
    spec: Spec
    family: hm.Family
    truth: hm.SimTruth
    raw: dict               # group id -> (y, X, Z, index in truth.u)
    y: np.ndarray           # fit rows, long format
    X: np.ndarray
    Z: np.ndarray
    ids: np.ndarray
    Xh: np.ndarray          # held-out rows and their true means
    Zh: np.ndarray
    yh: np.ndarray
    ids_h: np.ndarray
    mu_h: np.ndarray
    sample: list            # group ids for the posterior check
    files: dict = field(default_factory=dict)
    _beta_sd: np.ndarray | None = None


def make_inputs(spec: Spec, seed: int, span) -> Inputs:
    """Draw one replicate and split it into fit rows and held-out rows.

    The fit rows are gen_replicate's rows, as blocks of whole groups in a
    seeded order (within-group order is kept, so a fit does not depend on the
    seed through summation order). Held-out rows are new draws from the true
    model, n_alloc // 4 + 1 per group, so groups with no fit rows are scored
    as unseen.
    """
    family = hm.get_family(spec.family)
    data_seed = seed if spec.data_seed is None else spec.data_seed
    with span("simulate.gen_replicate"):
        dataset, truth = hm.gen_replicate(spec.M, spec.N, P, Q, family,
                                          seed=data_seed)
    rng = np.random.default_rng([seed, 20150417])
    groups = list(dataset.groups)
    if spec.withhold:
        keep = rng.random(len(groups)) >= spec.withhold
        groups = [g for g, k in zip(groups, keep) if k]
    groups = [groups[i] for i in rng.permutation(len(groups))]
    name = (lambda i: f"g{i:05d}") if spec.csv else (lambda i: i)
    raw = {name(g.group_id): (g.y, g.X, g.Z, g.group_id) for g in groups}
    y = np.concatenate([g.y for g in groups])
    X = np.vstack([g.X for g in groups])
    Z = np.vstack([g.Z for g in groups])
    ids = np.repeat(np.array([name(g.group_id) for g in groups]),
                    [g.n for g in groups])

    n_h = truth.n_alloc // 4 + 1
    gid_h = np.repeat(np.arange(spec.M), n_h)
    Xh = 2.0 * rng.integers(0, 2, size=(gid_h.size, P)) - 1.0
    Zh = 2.0 * rng.integers(0, 2, size=(gid_h.size, Q)) - 1.0
    eta = Xh @ truth.beta + np.einsum("ij,ij->i", Zh, truth.u[gid_h])
    if family.name == "gaussian":
        mu_h = eta
        yh = eta + rng.standard_normal(eta.size)
    else:
        mu_h = expit(eta)
        yh = (rng.random(eta.size) < mu_h).astype(float)
    ids_h = np.array([name(i) for i in gid_h]) if spec.csv else gid_h

    order = sorted(raw)
    pick = rng.choice(len(order), size=min(N_POSTERIOR_SAMPLE, len(order)),
                      replace=False)
    return Inputs(spec, family, truth, raw, y, X, Z, ids,
                  Xh, Zh, yh, ids_h, mu_h, [order[i] for i in sorted(pick)])


def _write_csv(path, ids, y, X, Z):
    # A few thousand rows at a time, so that writing adds little to the
    # process's peak RSS and peak_rss_mb stays the command line's.
    header = ["g", "y"] + [f"x{j + 1}" for j in range(P)] + \
        [f"z{j + 1}" for j in range(Q)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, y.size, CSV_CHUNK):
            rows = slice(lo, lo + CSV_CHUNK)
            cols = [ids[rows].tolist(), list(map(repr, y[rows].tolist()))]
            cols += [list(map(str, c.tolist()))
                     for c in np.hstack([X[rows], Z[rows]]).astype(int).T]
            fh.writelines(",".join(r) + "\n" for r in zip(*cols))


def write_csv_inputs(inputs: Inputs, workdir: str) -> None:
    """Write the fit rows and the held-out rows as the command line's CSV
    inputs, and name the files the command line writes."""
    inputs.files = {k: os.path.join(workdir, v) for k, v in {
        "fit_csv": "fit.csv", "new_csv": "new.csv", "model": "fit.txt",
        "posteriors": "posteriors.csv", "pred": "pred.csv"}.items()}
    _write_csv(inputs.files["fit_csv"], inputs.ids, inputs.y, inputs.X,
               inputs.Z)
    _write_csv(inputs.files["new_csv"], inputs.ids_h, inputs.yh, inputs.Xh,
               inputs.Zh)


# --- the timed calls -------------------------------------------------------
#
# ``fit`` and ``predict`` make only the calls a user would make; reading their
# results into an ``Outputs`` for the checks happens in ``collect``, untimed.

def fit(inputs: Inputs, tracer=None):
    if inputs.spec.csv:
        f = inputs.files
        return _cli(tracer, "cli.fit", [
            "fit", "--input", f["fit_csv"], "--group-col", "g",
            "--response-col", "y", "--fixed-cols", "x1,x2,x3",
            "--random-cols", "z1,z2,z3", "--no-intercept",
            "--family", inputs.spec.family,
            "--out", f["model"], "--posteriors-out", f["posteriors"]])
    ds = hm.GroupedDataset.from_long(inputs.y, inputs.X, inputs.Z,
                                     inputs.ids)
    mfit = _call(tracer, "combine.fit_moment", hm.fit_moment, ds,
                 inputs.family)
    post = _call(tracer, "ebayes.posterior_set", hm.posterior_set, mfit)
    return ds, mfit, post


def predict(inputs: Inputs, fitted, tracer=None):
    if inputs.spec.csv:
        f = inputs.files
        return _cli(tracer, "cli.predict", [
            "predict", "--model", f["model"], "--posteriors", f["posteriors"],
            "--input", f["new_csv"], "--out", f["pred"]])
    _, mfit, post = fitted
    ds = hm.GroupedDataset.from_long(inputs.yh, inputs.Xh, inputs.Zh,
                                     inputs.ids_h)
    mu, unseen = _call(tracer, "ebayes.predict_grouped", hm.predict_grouped,
                       ds, mfit.beta, post, inputs.family)
    return ds, mu, unseen


def _call(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


def _cli(tracer, name, argv):
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        code = _call(tracer, name, cli.main, argv)
    if code != 0:
        raise RuntimeError(f"hiermoment {argv[0]} exited {code}: "
                           f"{captured.getvalue()}")


@dataclass
class Outputs:
    beta: np.ndarray
    sigma: np.ndarray
    phi: float
    means: dict             # group id -> posterior mean
    attempted: int          # groups handed to the fit
    skipped: set            # ids of the groups the fit dropped
    mu_hat: np.ndarray      # held-out predictions, in input row order
    unseen: np.ndarray
    fit: object             # MomentFit (in process) or artifact text (CLI)


def collect(inputs: Inputs, fitted, predicted, tracer=None) -> Outputs:
    """Read one round's results, from memory or from the files written."""
    if inputs.spec.csv:
        return _collect_files(inputs, tracer)
    ds, mfit, post = fitted
    dsh, mu, unseen = predicted
    # predict_grouped returns groups in ascending id order, rows in input
    # order within each group.
    order = np.argsort(inputs.ids_h, kind="stable")
    mu_hat = np.empty(order.size)
    mu_hat[order] = np.concatenate(mu)
    flags = np.empty(order.size, dtype=bool)
    flags[order] = np.repeat(unseen, [g.n for g in dsh.groups])
    return Outputs(mfit.beta, mfit.sigma, mfit.phi,
                   {e.group_id: e.mean for e in post.entries},
                   ds.n_groups, {g for g, _ in mfit.summary_set.skipped},
                   mu_hat, flags, mfit)


def _collect_files(inputs, tracer):
    f = inputs.files
    with open(f["model"]) as fh:
        text = fh.read()
    art = _parse_artifact(text)
    with open(f["posteriors"]) as fh:
        fh.readline()
        means = {row[0]: np.array([float(v) for v in row[1:1 + Q]])
                 for row in (line.rstrip("\n").split(",") for line in fh)}
    with open(f["pred"]) as fh:
        fh.readline()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if [r[0] for r in rows] != inputs.ids_h.tolist():
        raise RuntimeError("predictions are not in input row order")
    if tracer is not None:
        size = {k: os.path.getsize(v) for k, v in f.items()}
        tracer.count("cli.bytes_read", size["fit_csv"] + size["model"]
                     + size["posteriors"] + size["new_csv"])
        tracer.count("cli.bytes_written", size["model"] + size["posteriors"]
                     + size["pred"])
    return Outputs(art["beta"], art["sigma"], art["phi"], means,
                   art["n_groups"] + len(art["skipped"]), art["skipped"],
                   np.array([float(r[1]) for r in rows]),
                   np.array([r[2] == "1" for r in rows]), text)


def _parse_artifact(text):
    fields, skipped = {}, set()
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "skipped":
            skipped.add(value.partition("\t")[0])
        else:
            fields[key] = value
    floats = lambda k: np.array([float(v) for v in fields[k].split(",")])
    return {"beta": floats("beta"), "sigma": floats("sigma").reshape(Q, Q),
            "phi": float(fields["phi"]), "n_groups": int(fields["n_groups"]),
            "skipped": skipped}


# --- checks made apart from the program ------------------------------------

def checks(inputs: Inputs, out: Outputs) -> list[tuple[str, bool, bool]]:
    """Run every check on one round's outputs.

    Returns ``(name, passed, exact)`` per check; a failed exact check makes
    the run incorrect. The first three test a computation the program must
    reproduce; the last two test estimation quality against the simulation's
    truth. Those two are exact on the gaussian workloads. On groups of about
    20 logit rows the fit is attenuated (see CHANGES.md), so on the logit
    workload they fail in every round and count only as failed operations.
    """
    gaussian = inputs.family.name == "gaussian"
    return [
        ("posterior_conjugate" if gaussian else "firth_score_zero",
         _check_conjugate(inputs, out) if gaussian
         else _check_firth_score(inputs, out), True),
        ("sigma_symmetric_psd", _check_psd(out.sigma), True),
        ("predictions_recomputed", _check_predictions(inputs, out), True),
        ("beta_near_truth", _check_beta(inputs, out), gaussian),
        ("posterior_beats_population", _check_pred_gain(inputs, out),
         gaussian),
    ]


def _check_conjugate(inputs, out):
    # Sigma Z'(Z Sigma Z' + phi I)^{-1}(y - X beta) from the group's raw rows.
    for gid in inputs.sample:
        y, X, Z, _ = inputs.raw[gid]
        K = Z @ out.sigma @ Z.T + out.phi * np.eye(y.size)
        u = out.sigma @ (Z.T @ np.linalg.solve(K, y - X @ out.beta))
        got = out.means.get(gid)
        if got is None or not np.allclose(
                got, u, rtol=POSTERIOR_RTOL,
                atol=POSTERIOR_RTOL * max(1.0, float(np.abs(u).max()))):
            return False
    return True


def _check_firth_score(inputs, out):
    # Firth-modified score F'(y - mu + h (1/2 - mu)) of each summarized group
    # at its fitted coefficient, from the raw rows; h is the leverage of
    # W^{1/2} F on the group's identified subspace.
    rec = out.fit.scale_record
    scales = np.concatenate([rec.x_scale, rec.z_scale])
    for s in out.fit.summary_set.summaries:
        y, X, Z, _ = inputs.raw[s.group_id]
        F = np.hstack([X, Z])
        coef = (np.vstack([s.V1, s.V2]) @ s.theta_rot) / scales
        mu = expit(F @ coef)
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        U = np.linalg.svd(F * np.sqrt(w)[:, None], full_matrices=False)[0]
        h = np.sum(U[:, :s.r] ** 2, axis=1)
        score = F.T @ (y - mu + h * (0.5 - mu))
        if not np.linalg.norm(score) <= FIRTH_SCORE_TOL * scales.max():
            return False
    return True


def _check_psd(S):
    scale = max(1.0, float(np.abs(S).max()))
    return bool(np.all(np.abs(S - S.T) <= PSD_TOL * scale)
                and np.linalg.eigvalsh((S + S.T) / 2)[0] >= -PSD_TOL * scale)


def _check_predictions(inputs, out):
    # mu_hat = g^{-1}(X beta + Z u) with u the group's posterior mean, or 0
    # (and the unseen flag) for groups absent from the fit input. Groups the
    # fit dropped are failed operations already; their flags are not judged.
    ids = inputs.ids_h.tolist()
    judged = np.array([i not in out.skipped for i in ids])
    unseen = np.array([i not in inputs.raw for i in ids])
    zero = np.zeros(Q)
    U = np.array([out.means.get(i, zero) for i in ids])
    eta = inputs.Xh @ out.beta + np.einsum("ij,ij->i", inputs.Zh, U)
    mu = eta if inputs.family.name == "gaussian" else expit(eta)
    return bool(np.array_equal(out.unseen[judged], unseen[judged])
                and np.allclose(out.mu_hat, mu, rtol=PREDICT_RTOL,
                                atol=PREDICT_RTOL))


def _beta_sd(inputs):
    # Standard deviation of the efficient estimator of beta given the design
    # and the true parameters: the inverse of sum_i X_i' V_i^{-1} X_i, with
    # V_i = Z_i Sigma Z_i' + I (gaussian, unit noise; expanded below by the
    # Woodbury identity with Sigma = L L') or, for logit, the conditional
    # information X_i' diag(mu(1 - mu)) X_i at the true means.
    if inputs._beta_sd is None:
        t = inputs.truth
        L = np.linalg.cholesky(t.Sigma)
        info = np.zeros((P, P))
        for y, X, Z, i in inputs.raw.values():
            if inputs.family.name == "gaussian":
                ZL = Z @ L
                XZL = X.T @ ZL
                info += X.T @ X - XZL @ np.linalg.solve(
                    np.eye(Q) + ZL.T @ ZL, XZL.T)
            else:
                m = expit(X @ t.beta + Z @ t.u[i])
                info += X.T @ (X * (m * (1.0 - m))[:, None])
        inputs._beta_sd = np.sqrt(np.diag(np.linalg.inv(info)))
    return inputs._beta_sd


def _check_beta(inputs, out):
    return bool(np.all(np.abs(out.beta - inputs.truth.beta)
                       <= BETA_SDS * _beta_sd(inputs)))


def _check_pred_gain(inputs, out):
    # Held-out loss against the true means: posterior predictions must beat
    # the population-only prediction (u = 0).
    pop_eta = inputs.Xh @ out.beta
    if inputs.family.name == "gaussian":
        loss = lambda m: float(np.mean((m - inputs.mu_h) ** 2))
        pop = pop_eta
    else:
        def loss(m):
            m = np.clip(m, 1e-10, 1 - 1e-10)
            t = inputs.mu_h
            return float(np.mean(t * np.log(t / m)
                                 + (1 - t) * np.log((1 - t) / (1 - m))))
        pop = expit(pop_eta)
    return loss(out.mu_hat) < loss(pop)
