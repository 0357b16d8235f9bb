"""Command-line interface: fit grouped data files, predict, run studies.

Exit codes: 0 success, 2 input/usage error, 3 numerical or identifiability
error.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .combine import SCHEMES, FitOptions, fit_moment
from .data import GroupedDataset
from .ebayes import GroupPosterior, PosteriorSet, posterior_set, predict_grouped
from .errors import HierMomentError, SingularOmega2Error, SingularOmegaError
from .families import get_family
from .simulate import run_study, study_table

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

INTERCEPT = "(intercept)"


class _InputError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiermoment",
        description="Fit hierarchical (mixed-effect) models by moment combination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model from a delimited text file")
    fit.add_argument("--input", required=True, help="input file (header row, comma-delimited)")
    fit.add_argument("--group-col", required=True)
    fit.add_argument("--response-col", required=True)
    fit.add_argument("--fixed-cols", default="", help="comma-separated fixed-effect columns")
    fit.add_argument("--random-cols", default="", help="comma-separated random-effect columns (may overlap fixed)")
    fit.add_argument("--family", choices=["gaussian", "logit"], default="gaussian")
    fit.add_argument("--weights", choices=SCHEMES, default="semiweighted")
    fit.add_argument("--refits", type=int, default=1, metavar="K")
    fit.add_argument("--rank-tol", type=float, default=None)
    fit.add_argument("--no-intercept", action="store_true",
                     help="do not auto-add an intercept column to X and Z")
    fit.add_argument("--out", required=True, help="fit artifact path")
    fit.add_argument("--posteriors-out", default=None,
                     help="optional per-group posterior means file")

    pred = sub.add_parser("predict", help="predict response means for new rows")
    pred.add_argument("--model", required=True, help="fit artifact from `fit`")
    pred.add_argument("--posteriors", default=None,
                      help="posteriors file from `fit --posteriors-out`")
    pred.add_argument("--input", required=True)
    pred.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", help="run a replicate study")
    sim.add_argument("--family", choices=["gaussian", "logit"], default="logit")
    sim.add_argument("--M", type=int, default=200, help="number of groups")
    sim.add_argument("--N-grid", default="2000,20000",
                     help="comma-separated total observation counts")
    sim.add_argument("--p", type=int, default=3)
    sim.add_argument("--q", type=int, default=3)
    sim.add_argument("--replicates", type=int, default=5)
    sim.add_argument("--methods", default="hier,global,local")
    sim.add_argument("--weights", choices=SCHEMES, default="semiweighted")
    sim.add_argument("--refits", type=int, default=1, metavar="K")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="study table path (TSV)")
    return parser


def _split_cols(arg: str) -> list[str]:
    return [c for c in (s.strip() for s in arg.split(",")) if c]


def _read_table(path: str):
    """Read a comma-delimited file with a header row; all cells as strings."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}") from e
    if not rows:
        raise _InputError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    width = len(header)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise _InputError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
            )
    return header, rows[1:]


def _numeric_column(path, header, rows, col):
    j = header.index(col)
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        try:
            out[i] = float(row[j])
        except ValueError:
            raise _InputError(
                f"{path}: line {i + 2}: column {col!r}: "
                f"cannot parse {row[j]!r} as a number"
            ) from None
    return out


def _design(path, header, rows, cols, intercept: bool):
    names = ([INTERCEPT] if intercept else []) + cols
    n = len(rows)
    M = np.empty((n, len(names)))
    for k, name in enumerate(names):
        if name == INTERCEPT:
            M[:, k] = 1.0
        else:
            if name not in header:
                raise _InputError(f"{path}: no column named {name!r}")
            M[:, k] = _numeric_column(path, header, rows, name)
    return M, names


def _check_columns(args, header):
    for col in [args.group_col, args.response_col]:
        if col not in header:
            raise _InputError(f"{args.input}: no column named {col!r}")
    fixed = _split_cols(args.fixed_cols)
    random = _split_cols(args.random_cols)
    for col in fixed + random:
        if col == args.group_col:
            raise _InputError(
                f"group column {args.group_col!r} cannot also be a predictor"
            )
    if args.no_intercept and not fixed:
        raise _InputError("no fixed-effect columns and no intercept")
    if args.no_intercept and not random:
        raise _InputError("no random-effect columns and no intercept")
    return fixed, random


def _format_floats(values) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values, dtype=float).ravel())


def _parse_floats(text: str) -> np.ndarray:
    if not text:
        return np.empty(0)
    return np.array([float(v) for v in text.split(",")])


def _write_fit_artifact(path, args, fit, fixed_names, random_names):
    sset = fit.summary_set
    lines = [
        "format: hiermoment-fit 1",
        f"family: {args.family}",
        f"scheme: {args.weights}",
        f"steps: {fit.steps}",
        f"group_col: {args.group_col}",
        f"response_col: {args.response_col}",
        f"fixed_cols: {','.join(fixed_names)}",
        f"random_cols: {','.join(random_names)}",
        f"n_groups: {len(sset.summaries)}",
        f"n_obs: {sset.n_obs}",
        f"rho: {fit.rho}",
        f"phi: {fit.phi!r}",
        f"projected: {str(fit.projected).lower()}",
        f"omega2_min_eig: {fit.omega2_min_eig!r}",
        f"beta: {_format_floats(fit.beta)}",
        f"sigma: {_format_floats(fit.sigma)}",
        f"sigma_raw: {_format_floats(fit.sigma_raw)}",
        f"bias_B: {_format_floats(fit.bias_B)}",
        f"omega: {_format_floats(fit.omega)}",
    ]
    for gid, reason in sset.skipped:
        lines.append(f"skipped: {gid}\t{reason}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_fit_artifact(path):
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}") from e
    fields = {}
    for line in raw.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise _InputError(f"{path}: malformed artifact line {line!r}")
        if key != "skipped":
            fields[key] = value
    if fields.get("format") != "hiermoment-fit 1":
        raise _InputError(f"{path}: not a hiermoment fit artifact")
    for key in ("family", "group_col", "fixed_cols", "random_cols", "beta"):
        if key not in fields:
            raise _InputError(f"{path}: artifact has no {key!r} line")
    fixed_names = fields["fixed_cols"].split(",")
    random_names = fields["random_cols"].split(",")
    beta = _parse_floats(fields["beta"])
    if beta.shape != (len(fixed_names),):
        raise _InputError(f"{path}: beta length does not match fixed_cols")
    return {
        "family": fields["family"],
        "group_col": fields["group_col"],
        "fixed_names": fixed_names,
        "random_names": random_names,
        "beta": beta,
    }


def _write_posteriors(path, posteriors):
    q = posteriors.q
    header = ["group_id"]
    header += [f"mean_{j}" for j in range(q)]
    header += [f"cov_{j}_{k}" for j in range(q) for k in range(q)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for e in posteriors.entries:
            row = [str(e.group_id)]
            row += [repr(float(v)) for v in e.mean]
            row += [repr(float(v)) for v in e.cov.ravel()]
            writer.writerow(row)


def _read_posteriors(path, q) -> PosteriorSet:
    header, rows = _read_table(path)
    want = 1 + q + q * q
    if len(header) != want:
        raise _InputError(
            f"{path}: expected {want} columns for q={q}, got {len(header)}"
        )
    values = np.empty((len(rows), want - 1))
    for j, col in enumerate(header[1:]):
        values[:, j] = _numeric_column(path, header, rows, col)
    entries = tuple(
        GroupPosterior(group_id=row[0], mean=v[:q], cov=v[q:].reshape(q, q))
        for row, v in zip(rows, values)
    )
    return PosteriorSet(entries=entries, q=q)


def _cmd_fit(args) -> int:
    family = get_family(args.family)
    header, rows = _read_table(args.input)
    fixed, random = _check_columns(args, header)
    y = _numeric_column(args.input, header, rows, args.response_col)
    X, fixed_names = _design(args.input, header, rows, fixed, not args.no_intercept)
    Z, random_names = _design(args.input, header, rows, random, not args.no_intercept)
    gidx = header.index(args.group_col)
    ids = [row[gidx] for row in rows]
    dataset = GroupedDataset.from_long(y, X, Z, ids)
    options = FitOptions(
        scheme=args.weights, refits=args.refits, rank_tol=args.rank_tol
    )
    fit = fit_moment(dataset, family, options)
    _write_fit_artifact(args.out, args, fit, fixed_names, random_names)
    if args.posteriors_out:
        _write_posteriors(args.posteriors_out, posterior_set(fit))
    skipped = len(fit.summary_set.skipped)
    print(
        f"fit {len(fit.summary_set.summaries)} groups"
        + (f" ({skipped} skipped)" if skipped else "")
        + f", {fit.summary_set.n_obs} observations; wrote {args.out}"
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = _read_fit_artifact(args.model)
    family = get_family(model["family"])
    q = len(model["random_names"])
    posteriors = PosteriorSet(entries=(), q=q)
    if args.posteriors:
        posteriors = _read_posteriors(args.posteriors, q)

    header, rows = _read_table(args.input)
    if model["group_col"] not in header:
        raise _InputError(f"{args.input}: no column named {model['group_col']!r}")
    fixed = [c for c in model["fixed_names"] if c != INTERCEPT]
    random = [c for c in model["random_names"] if c != INTERCEPT]
    intercept = INTERCEPT in model["fixed_names"]
    X, _ = _design(args.input, header, rows, fixed, intercept)
    Z, _ = _design(args.input, header, rows, random,
                   INTERCEPT in model["random_names"])
    gidx = header.index(model["group_col"])
    ids = np.array([row[gidx] for row in rows])

    mu = np.empty(len(rows))
    unseen = np.empty(len(rows), dtype=bool)
    if rows:
        # The response is not read; zeros stand in for it.
        dataset = GroupedDataset.from_long(np.zeros(len(rows)), X, Z, ids)
        mu_g, unseen_g = predict_grouped(dataset, model["beta"], posteriors,
                                         family)
        # Groups come back in ascending id order, rows in input order within
        # each group.
        order = np.argsort(ids, kind="stable")
        mu[order] = np.concatenate(mu_g)
        unseen[order] = np.repeat(unseen_g, [g.n for g in dataset.groups])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([model["group_col"], "mu_hat", "unseen_group"])
        for i in range(len(rows)):
            writer.writerow([ids[i], repr(float(mu[i])), int(unseen[i])])
    print(f"predicted {len(rows)} rows; wrote {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    family = get_family(args.family)
    try:
        n_grid = [int(v) for v in _split_cols(args.N_grid)]
    except ValueError:
        raise _InputError(f"--N-grid: cannot parse {args.N_grid!r}") from None
    if not n_grid:
        raise _InputError("--N-grid is empty")
    methods = tuple(_split_cols(args.methods))
    for m in methods:
        if m not in ("hier", "global", "local"):
            raise _InputError(f"--methods: unknown method {m!r}")
    options = FitOptions(scheme=args.weights, refits=args.refits)
    rows = run_study(
        n_grid, args.M, args.p, args.q, args.replicates, family,
        methods=methods, seed=args.seed, options=options,
    )
    with open(args.out, "w") as fh:
        fh.write(study_table(rows))
    print(f"ran {args.replicates} replicates at N in {n_grid}; wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        return _cmd_simulate(args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (SingularOmegaError, SingularOmega2Error) as e:
        print(
            f"error: {e}\nhint: the model is not identifiable from this data; "
            "remove aliased predictor columns, merge or drop sparse groups, or "
            "reduce the random-effect specification",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    except HierMomentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
