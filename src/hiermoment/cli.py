"""Command-line interface: fit grouped data files, predict, run studies.

Exit codes: 0 success, 2 input/usage error, 3 numerical or identifiability
error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys

import numpy as np

from .combine import SCHEMES, FitOptions, fit_moment
from .data import GroupedDataset
from .ebayes import PosteriorSet, posterior_set, predict_grouped
from .errors import HierMomentError, SingularOmega2Error, SingularOmegaError
from .families import get_family
from .simulate import run_study, study_table

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

INTERCEPT = "(intercept)"

# Rows formatted and written at a time by ``_write_table``.
_CHUNK = 1 << 14


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
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="study table path (TSV)")
    return parser


def _split_cols(arg: str) -> list[str]:
    return [c for c in (s.strip() for s in arg.split(",")) if c]


def _read_records(path: str, count=None):
    """The first ``count`` records of a comma-delimited file (all of them by
    default) as lists of strings, and the line after the last one read."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(itertools.islice(reader, count))
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}") from e
    except csv.Error as e:
        raise _InputError(f"{path}: line {reader.line_num}: {e}") from None
    return rows, reader.line_num + 1


def _line(path: str, record: int) -> int:
    """The file line on which a record starts, counting the header as record
    0: a quoted field may hold line breaks, so records and lines differ."""
    return _read_records(path, record)[1]


def _read_table(path: str):
    """Read a comma-delimited file with a header row; all cells as strings."""
    rows, _ = _read_records(path)
    if not rows:
        raise _InputError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise _InputError(f"{path}: line {_line(path, i)}: "
                              f"expected {width} fields, got {len(row)}")
    return header, rows[1:]


def _numeric_column(path, header, rows, col):
    j = header.index(col)
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        try:
            out[i] = float(row[j])
        except ValueError:
            raise _InputError(
                f"{path}: line {_line(path, i + 1)}: column {col!r}: "
                f"cannot parse {row[j]!r} as a number"
            ) from None
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite))
        raise _InputError(f"{path}: line {_line(path, i + 1)}: column "
                          f"{col!r}: {rows[i][j]!r} is not a finite number")
    return out


def _parse_columns(path, select):
    """One numpy pass over the file's rows, or None where the cell-by-cell
    reader must judge the file: a decoding or parse error, a ragged row, a
    blank line, a NUL character, a non-finite number, a header that
    ``select`` refuses, or one that repeats a column it names."""
    try:
        with open(path, newline="") as fh:
            raw = fh.read()
            # numpy skips a blank line, where the csv module reads a row of
            # no fields; and numpy's strings drop an id's trailing NUL,
            # which the cell-by-cell reader refuses.
            blank = raw[:1] in ("\n", "\r") or "\n\n" in raw or (
                "\r" in raw and ("\n\r" in raw or "\r\r" in raw))
            if blank or "\x00" in raw:
                return None
            del raw
            fh.seek(0)
            header = [h.strip() for h in next(csv.reader(fh))]
            numeric, text = select(header)
            if set(numeric) & set(text) or any(
                    header.count(name) != 1 for name in numeric + text):
                return None
            # One field per header column, so that numpy checks each row's
            # width; a column not read is held as one character per cell.
            kinds = ["U1"] * len(header)
            for name in text:
                kinds[header.index(name)] = object
            for name in numeric:
                kinds[header.index(name)] = float
            dtype = np.dtype([(f"f{j}", k) for j, k in enumerate(kinds)])
            first = next(fh, "")
            table = np.loadtxt(
                itertools.chain([first], fh), dtype=dtype, delimiter=",",
                comments=None, quotechar='"', ndmin=1,
            ) if first else np.empty(0, dtype)
    except (OSError, ValueError, StopIteration, csv.Error, _InputError):
        return None
    cols = {name: table[f"f{header.index(name)}"] for name in numeric + text}
    if not all(np.isfinite(cols[name]).all() for name in numeric):
        return None
    return header, cols


def _read_columns(path, select):
    """The header and the wanted columns of a comma-delimited file.

    ``select(header)`` checks the header and names the columns wanted as
    ``(numeric, text)``: numeric columns come back as finite float arrays,
    text columns (the group ids) as object arrays of str, none of which
    ends in a NUL character. A wanted column that the header names more
    than once is an error; other columns may repeat. One numpy pass reads
    the usual file. Whatever it refuses is read again cell by cell, which
    raises the located error, or returns the values where ``float()``
    accepts a cell that numpy does not (such as ``1_0``).
    """
    parsed = _parse_columns(path, select)
    if parsed is not None:
        return parsed
    header, rows = _read_table(path)
    numeric, text = select(header)
    for name in numeric + text:
        if header.count(name) > 1:
            raise _InputError(f"{path}: column {name!r} appears more than "
                              "once in the header")
    cols = {}
    for name in numeric:
        if name not in header:
            raise _InputError(f"{path}: no column named {name!r}")
        cols[name] = _numeric_column(path, header, rows, name)
    for name in text:
        j = header.index(name)
        cells = [row[j] for row in rows]
        nul = next((i for i, cell in enumerate(cells)
                    if cell.endswith("\x00")), None)
        if nul is not None:
            raise _InputError(f"{path}: line {_line(path, nul + 1)}: group "
                              f"id {cells[nul]!r} ends in a NUL character")
        cols[name] = np.array(cells, dtype=object)
    return header, cols


def _design(cols, n, names, intercept: bool):
    names = ([INTERCEPT] if intercept else []) + names
    M = np.empty((n, len(names)))
    for k, name in enumerate(names):
        M[:, k] = 1.0 if name == INTERCEPT else cols[name]
    return M, names


def _check_columns(args, header, fixed, random):
    for col in [args.group_col, args.response_col]:
        if col not in header:
            raise _InputError(f"{args.input}: no column named {col!r}")
    for col in fixed + random:
        if col == args.group_col:
            raise _InputError(
                f"group column {args.group_col!r} cannot also be a predictor"
            )
    if args.no_intercept and not fixed:
        raise _InputError("no fixed-effect columns and no intercept")
    if args.no_intercept and not random:
        raise _InputError("no random-effect columns and no intercept")


def _format_floats(values) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values, dtype=float).ravel())


def _parse_floats(text: str) -> np.ndarray:
    if not text:
        return np.empty(0)
    return np.array([float(v) for v in text.split(",")])


def _write_fit_artifact(path, args, fit, fixed_names, random_names):
    sset = fit.summary_set
    for name in ("phi", "omega2_min_eig", "beta", "sigma", "sigma_raw",
                 "bias_B", "omega"):
        if not np.all(np.isfinite(getattr(fit, name))):
            raise _InputError(
                f"{name} is not finite in the original predictor units; "
                "rescale the predictor columns (no artifact written)")
    lines = [
        "format: hiermoment-fit 1",
        f"family: {args.family}",
        f"scheme: {args.weights}",
        f"steps: {fit.steps}",
        f"group_col: {args.group_col}",
        f"response_col: {args.response_col}",
        f"fixed_cols: {','.join(fixed_names)}",
        f"random_cols: {','.join(random_names)}",
        f"n_groups: {len(sset.ids)}",
        f"n_obs: {sset.n_obs}",
        f"rho: {sset.rho}",
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


def _csv_field(text: str) -> str:
    """A field as the csv module writes it in a row of two or more fields:
    in quotes, with each ``"`` doubled, if it holds ``,``, ``"``, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_table(path, header, ids, where, columns):
    """Write a CSV file, byte for byte as the csv module's default writer
    would: minimal quoting and CRLF line ends.

    Row i holds the id ``ids[where[i]]``, then entry i of each column: a
    float as its ``repr``, a bool as 0 or 1. The file is written column by
    column, ``_CHUNK`` rows at a time, and each distinct id is quoted once.
    """
    fields = np.array([_csv_field(g) for g in ids], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\r\n")
        for lo in range(0, len(where), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            cells = [fields[where[rows]].tolist()]
            for col in columns:
                part = col[rows]
                cells.append(np.where(part, "1", "0").tolist()
                             if part.dtype == bool
                             else map(repr, part.tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _write_posteriors(path, posteriors):
    M, q = posteriors.means.shape
    header = ["group_id"]
    header += [f"mean_{j}" for j in range(q)]
    header += [f"cov_{j}_{k}" for j in range(q) for k in range(q)]
    values = np.hstack([posteriors.means, posteriors.covs.reshape(M, q * q)])
    _write_table(path, header, posteriors.ids, np.arange(M), list(values.T))


def _read_posteriors(path, q) -> PosteriorSet:
    want = 1 + q + q * q

    def select(header):
        if len(header) != want:
            raise _InputError(
                f"{path}: expected {want} columns for q={q}, got {len(header)}"
            )
        return header[1:], header[:1]

    header, cols = _read_columns(path, select)
    ids = cols[header[0]]
    _, first = np.unique(ids, return_index=True)
    if first.size < ids.size:
        i = np.setdiff1d(np.arange(ids.size), first)[0]
        raise _InputError(f"{path}: line {_line(path, i + 1)}: group id "
                          f"{ids[i]!r} appears in an earlier row")
    values = np.column_stack([cols[col] for col in header[1:]])
    return PosteriorSet(tuple(ids.tolist()), values[:, :q],
                        values[:, q:].reshape(-1, q, q))


def _read_dataset(args):
    """The fit input as a dataset, with the predictor names. The parsed text
    and the unsorted columns are freed on return, before the fit."""
    fixed = _split_cols(args.fixed_cols)
    random = _split_cols(args.random_cols)

    def select(header):
        _check_columns(args, header, fixed, random)
        return [args.response_col] + fixed + random, [args.group_col]

    _, cols = _read_columns(args.input, select)
    ids = cols[args.group_col].astype(str)
    X, fixed_names = _design(cols, ids.size, fixed, not args.no_intercept)
    Z, random_names = _design(cols, ids.size, random, not args.no_intercept)
    dataset = GroupedDataset.from_long(cols[args.response_col], X, Z, ids)
    return dataset, fixed_names, random_names


def _cmd_fit(args) -> int:
    family = get_family(args.family)
    dataset, fixed_names, random_names = _read_dataset(args)
    options = FitOptions(scheme=args.weights)
    fit = fit_moment(dataset, family, options)
    _write_fit_artifact(args.out, args, fit, fixed_names, random_names)
    if args.posteriors_out:
        _write_posteriors(args.posteriors_out, posterior_set(fit))
    skipped = len(fit.summary_set.skipped)
    print(
        f"fit {len(fit.summary_set.ids)} groups"
        + (f" ({skipped} skipped)" if skipped else "")
        + f", {fit.summary_set.n_obs} observations; wrote {args.out}"
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = _read_fit_artifact(args.model)
    family = get_family(model["family"])
    q = len(model["random_names"])
    posteriors = PosteriorSet((), np.empty((0, q)), np.empty((0, q, q)))
    if args.posteriors:
        posteriors = _read_posteriors(args.posteriors, q)

    group_col = model["group_col"]
    fixed = [c for c in model["fixed_names"] if c != INTERCEPT]
    random = [c for c in model["random_names"] if c != INTERCEPT]

    def select(header):
        if group_col not in header:
            raise _InputError(f"{args.input}: no column named {group_col!r}")
        return fixed + random, [group_col]

    _, cols = _read_columns(args.input, select)
    ids = cols.pop(group_col).astype(str)
    n = ids.size
    # One stable sort by id gives the dataset's order: groups ascending, rows
    # in input order within a group. It also puts the predictions back.
    order = np.argsort(ids, kind="stable")
    cols = {name: col[order] for name, col in cols.items()}
    X, _ = _design(cols, n, fixed, INTERCEPT in model["fixed_names"])
    Z, _ = _design(cols, n, random, INTERCEPT in model["random_names"])
    del cols

    group_ids = ()
    mu = np.empty(n)
    unseen = np.empty(n, dtype=bool)
    where = np.empty(n, dtype=np.intp)
    if n:
        # The response is not read; zeros stand in for it.
        dataset = GroupedDataset.from_long(np.zeros(n), X, Z, ids[order])
        mu_g, unseen_g = predict_grouped(dataset, model["beta"], posteriors,
                                         family)
        group_ids = dataset.ids
        mu[order] = np.concatenate(mu_g)
        gid = dataset.layout.row_group()
        where[order], unseen[order] = gid, np.array(unseen_g)[gid]

    _write_table(args.out, [group_col, "mu_hat", "unseen_group"], group_ids,
                 where, [mu, unseen])
    print(f"predicted {n} rows; wrote {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    family = get_family(args.family)
    try:
        n_grid = [int(v) for v in _split_cols(args.N_grid)]
    except ValueError:
        raise _InputError(f"--N-grid: cannot parse {args.N_grid!r}") from None
    methods = tuple(_split_cols(args.methods))
    options = FitOptions(scheme=args.weights)
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
    except (_InputError, ValueError, OSError) as e:
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


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
