"""The command line's CSV outputs, byte for byte against the csv module.

``hiermoment predict`` and ``hiermoment fit --posteriors-out`` write their
tables column by column. These property tests pin that the bytes are the
ones ``csv.writer`` (default dialect: minimal quoting, CRLF) would write for
the same rows, and that a fit -> predict round trip on any ids reproduces
``predict_grouped`` bitwise.
"""

from __future__ import annotations

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiermoment import cli
from hiermoment.cli import main
from hiermoment.combine import FitOptions, fit_moment
from hiermoment.data import GroupedDataset
from hiermoment.ebayes import posterior_set, predict_grouped
from hiermoment.families import GAUSSIAN

# Characters the csv module quotes for, spaces, and non-ASCII text. NUL is
# left out: numpy's fixed-width strings drop a trailing one.
ID_CHARS = st.sampled_from([",", '"', "\r", "\n", " ", "a", "b", "7", "#",
                            "é", "☃", "\U0001f600"])
IDS = st.lists(st.text(ID_CHARS, max_size=6), min_size=1, max_size=8,
               unique=True)
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 3.0, -1e16,
     2.0 ** 53, 0.1])


def _reference(header, ids, where, columns):
    """The same table written row by row by ``csv.writer``."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip([ids[i] for i in where],
                         *[c.astype(int).tolist() if c.dtype == bool
                           else c.tolist() for c in columns]))
    return out.getvalue()


def _written(path, header, ids, where, columns):
    cli._write_table(path, header, ids, where, columns)
    with open(path, newline="") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "out.csv"


@st.composite
def tables(draw, max_rows=40):
    ids = draw(IDS)
    n = draw(st.integers(0, max_rows))
    where = np.array(draw(st.lists(st.integers(0, len(ids) - 1),
                                   min_size=n, max_size=n)), dtype=np.intp)
    mu = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
    flags = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                     dtype=bool)
    header = [draw(st.text(ID_CHARS, min_size=1, max_size=4)), "mu_hat",
              "unseen_group"]
    return header, ids, where, [mu, flags]


@settings(max_examples=200, deadline=None)
@given(tables())
@example((["g", "mu_hat", "unseen_group"], ["", 'a"', "\r\n", " b "],
          np.array([0, 1, 2, 3, 0], dtype=np.intp),
          [np.array([-0.0, 5e-324, 1e308, -1e308, 2.0]),
           np.array([True, False, False, True, False])]))
def test_predictions_table_matches_csv_writer(out_path, table):
    assert _written(out_path, *table) == _reference(*table)


@settings(max_examples=50, deadline=None)
@given(tables(max_rows=12), st.integers(1, 4))
def test_small_chunks_match_csv_writer(out_path, table, chunk):
    """Rows split over many writes give the same bytes as one write."""
    with mock.patch.object(cli, "_CHUNK", chunk):
        assert _written(out_path, *table) == _reference(*table)


@settings(max_examples=50, deadline=None)
@given(IDS, st.integers(1, 3), st.data())
def test_posteriors_table_matches_csv_writer(out_path, ids, q, data):
    """One row per group id, then q means and q * q covariances."""
    M = len(ids)
    values = np.array(data.draw(st.lists(FLOATS, min_size=M * (q + q * q),
                                         max_size=M * (q + q * q))))
    header = ["group_id"] + [f"mean_{j}" for j in range(q)] + \
        [f"cov_{j}_{k}" for j in range(q) for k in range(q)]
    columns = list(values.reshape(M, q + q * q).T)
    assert _written(out_path, header, ids, np.arange(M), columns) == \
        _reference(header, ids, np.arange(M), columns)


def test_quoted_id_across_a_chunk_boundary(out_path):
    """More rows than one write holds, with a quoted id in the last row of
    the first chunk and the first row of the second."""
    n = cli._CHUNK + 3
    ids = ["plain", 'a,"b"\r\nc']
    where = np.zeros(n, dtype=np.intp)
    where[cli._CHUNK - 1:cli._CHUNK + 1] = 1
    mu = np.random.default_rng(5).standard_normal(n)
    table = (["g", "mu_hat", "unseen_group"], ids, where,
             [mu, np.arange(n) % 3 == 0])
    text = _written(out_path, *table)
    assert text == _reference(*table)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [r[0] for r in rows[cli._CHUNK - 1:cli._CHUNK + 3]] == \
        ["plain", ids[1], ids[1], "plain"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(ID_CHARS, max_size=5), min_size=3, max_size=5,
                unique=True),
       st.text(ID_CHARS, max_size=5))
@example(["", " a ", 'x,"y"\r\n', "\u00e9\r"], "\n")
def test_fit_predict_round_trip_matches_library(tmp_path_factory, ids,
                                                new_id):
    """Fit and predict through the command line on generated ids: the ids
    come back as written, in input row order, and the predictions equal
    ``predict_grouped``'s bitwise; an id the fit did not see is flagged."""
    rng = np.random.default_rng(11)
    n_per = 8
    gids = np.repeat(np.array(ids, dtype=object), n_per)
    rng.shuffle(gids)
    N = gids.size
    x = rng.choice([-1.0, 1.0], size=N)
    z = rng.choice([-1.0, 1.0], size=N)
    y = rng.standard_normal(N) + 0.2 * x
    d = tmp_path_factory.mktemp("round_trip")
    src, new_rows = d / "in.csv", d / "new.csv"
    rows = list(zip(gids.tolist(), x.tolist(), z.tolist(), y.tolist()))
    for path, extra in [(src, []), (new_rows, [[new_id, 1.0, -1.0, 0.0]])]:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["g", "x", "z", "y"])
            writer.writerows(rows + extra)
    model, posts, preds = d / "fit.txt", d / "post.csv", d / "pred.csv"
    assert main(["fit", "--input", str(src), "--group-col", "g",
                 "--response-col", "y", "--fixed-cols", "x",
                 "--random-cols", "z", "--out", str(model),
                 "--posteriors-out", str(posts)]) == 0
    assert main(["predict", "--model", str(model), "--posteriors",
                 str(posts), "--input", str(new_rows),
                 "--out", str(preds)]) == 0

    ones = np.ones((N, 1))
    ds = GroupedDataset.from_long(y, np.hstack([ones, x[:, None]]),
                                  np.hstack([ones, z[:, None]]),
                                  gids.tolist())
    fit = fit_moment(ds, GAUSSIAN, FitOptions())
    post = posterior_set(fit)
    all_ids = gids.tolist() + [new_id]
    xs, zs = np.append(x, 1.0), np.append(z, -1.0)
    ones = np.ones((N + 1, 1))
    new = GroupedDataset.from_long(np.zeros(N + 1),
                                   np.hstack([ones, xs[:, None]]),
                                   np.hstack([ones, zs[:, None]]), all_ids)
    mu_g, unseen_g = predict_grouped(new, fit.beta, post, GAUSSIAN)
    order = np.argsort(np.array(all_ids), kind="stable")
    mu = np.empty(N + 1)
    mu[order] = np.concatenate(mu_g)
    unseen = np.empty(N + 1, dtype=bool)
    unseen[order] = np.repeat(unseen_g, new.layout.sizes)

    with open(preds, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["g", "mu_hat", "unseen_group"]
    assert [r[0] for r in rows] == all_ids
    assert np.array_equal(np.array([float(r[1]) for r in rows]), mu)
    assert [r[2] == "1" for r in rows] == unseen.tolist()
    assert unseen[-1] == (new_id not in ids)
    with open(preds, newline="") as fh:
        assert fh.read() == _reference(
            header, list(new.ids),
            np.searchsorted(np.array(new.ids), np.array(all_ids)),
            [mu, unseen])
