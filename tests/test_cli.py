"""End-to-end CLI checks driven through ``main(argv)`` in process.

The one-way oracle used below: three groups of 10 with sample means 0, 1, 2
and within-group sum of squares 4.5 each, so the pooled dispersion is
13.5 / 27 = 0.5, the unweighted fixed effect is the grand mean 1.0, and the
raw variance estimate is 2/3 - 0.5 * (1/10) = 0.6166666666666667.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hiermoment
from hiermoment import cli
from hiermoment.cli import main
from hiermoment.combine import FitOptions, fit_moment
from hiermoment.data import GroupedDataset
from hiermoment.ebayes import posterior_set
from hiermoment.families import GAUSSIAN


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_artifact(path):
    fields = {}
    skipped = []
    with open(path) as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(": ")
            if key == "skipped":
                skipped.append(value)
            else:
                fields[key] = value
    return fields, skipped


def _floats(text):
    return np.array([float(v) for v in text.split(",")]) if text else np.empty(0)


def _oneway_csv(path):
    rows = []
    for gid, m in [("a", 0.0), ("b", 1.0), ("c", 2.0)]:
        vals = [m] * 8 + [m + 1.5, m - 1.5]
        rows.extend([gid, repr(v)] for v in vals)
    _write_csv(path, ["g", "y"], rows)


class TestFitCommand:
    def test_oneway_oracle(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        out = tmp_path / "fit.txt"
        post_out = tmp_path / "post.csv"
        _oneway_csv(src)
        rc = main([
            "fit", "--input", str(src), "--group-col", "g",
            "--response-col", "y", "--weights", "unweighted",
            "--refits", "0", "--out", str(out),
            "--posteriors-out", str(post_out),
        ])
        assert rc == 0
        assert "3 groups" in capsys.readouterr().out

        fields, skipped = _read_artifact(out)
        assert fields["format"] == "hiermoment-fit 1"
        assert fields["family"] == "gaussian"
        assert fields["n_groups"] == "3"
        assert fields["n_obs"] == "30"
        assert fields["fixed_cols"] == "(intercept)"
        assert fields["random_cols"] == "(intercept)"
        assert skipped == []
        assert float(fields["phi"]) == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(_floats(fields["beta"]), [1.0], rtol=1e-10)
        np.testing.assert_allclose(
            _floats(fields["sigma_raw"]), [2 / 3 - 0.05], rtol=1e-10
        )

        with open(post_out, newline="") as fh:
            post_rows = list(csv.reader(fh))
        assert post_rows[0] == ["group_id", "mean_0", "cov_0_0"]
        means = {r[0]: float(r[1]) for r in post_rows[1:]}
        assert means["a"] < -0.1
        assert abs(means["b"]) < 1e-8
        assert means["c"] > 0.1

    def test_row_order_does_not_change_artifact(self, tmp_path):
        """Interleaving the groups' rows differently gives the same artifact
        text (rows within each group keep their order)."""
        rng = np.random.default_rng(71)
        rows = []
        for gid in range(6):
            for _ in range(8):
                x, z = rng.choice([-1.0, 1.0], size=2)
                yv = rng.normal()
                rows.append([f"g{gid}", repr(float(x)), repr(float(z)),
                             repr(float(yv))])
        src, shuffled = tmp_path / "data.csv", tmp_path / "shuffled.csv"
        _write_csv(src, ["g", "x", "z", "y"], rows)
        labels = rng.permutation([r[0] for r in rows])
        queues = {g: iter([r for r in rows if r[0] == g]) for g in labels}
        _write_csv(shuffled, ["g", "x", "z", "y"],
                   [next(queues[g]) for g in labels])
        outs = []
        for path in (src, shuffled):
            outs.append(tmp_path / f"{path.stem}.txt")
            assert main(["fit", "--input", str(path), "--group-col", "g",
                         "--response-col", "y", "--fixed-cols", "x",
                         "--random-cols", "z", "--out", str(outs[-1])]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    def test_negative_refits_rejected(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        _oneway_csv(src)
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--refits", "-1",
                   "--out", str(tmp_path / "fit.txt")])
        assert rc == 2
        assert "refits" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "1", "nan", "inf"])
    def test_rank_tol_outside_unit_interval_rejected(self, tmp_path, capsys,
                                                     value):
        src = tmp_path / "data.csv"
        _oneway_csv(src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", "--input", str(src), "--group-col", "g",
                       "--response-col", "y", "--rank-tol", value,
                       "--out", str(tmp_path / "fit.txt")])
        assert rc == 2
        assert "rank_tol must be finite" in capsys.readouterr().err
        assert not (tmp_path / "fit.txt").exists()

    def test_logit_separated_group_stays_finite(self, tmp_path):
        src = tmp_path / "data.csv"
        rng = np.random.default_rng(73)
        rows = []
        for gid in range(3):
            for _ in range(8):
                z = rng.choice([-1.0, 1.0])
                if gid == 1:
                    yv = 1.0  # every response in this group is a success
                else:
                    yv = float(rng.random() < 0.5)
                rows.append([f"g{gid}", repr(float(z)), repr(float(yv))])
        _write_csv(src, ["g", "z", "y"], rows)
        out = tmp_path / "fit.txt"
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--random-cols", "z",
                   "--family", "logit", "--out", str(out)])
        assert rc == 0
        fields, _ = _read_artifact(out)
        assert fields["family"] == "logit"
        assert float(fields["phi"]) == 1.0
        assert np.all(np.isfinite(_floats(fields["beta"])))
        assert np.all(np.isfinite(_floats(fields["sigma"])))


class TestPredictCommand:
    def _fit_inputs(self, tmp_path, seed=79):
        rng = np.random.default_rng(seed)
        ids, X, Z, y = [], [], [], []
        for gid in range(5):
            for _ in range(9):
                ids.append(f"g{gid}")
                X.append([rng.choice([-1.0, 1.0])])
                Z.append([rng.choice([-1.0, 1.0])])
                y.append(rng.normal(loc=gid * 0.3))
        X, Z, y = np.array(X), np.array(Z), np.array(y)
        src = tmp_path / "data.csv"
        rows = [[ids[i], repr(float(X[i, 0])), repr(float(Z[i, 0])),
                 repr(float(y[i]))] for i in range(len(ids))]
        _write_csv(src, ["g", "x", "z", "y"], rows)
        return src, ids, X, Z, y

    def test_round_trip_matches_library_bitwise(self, tmp_path):
        src, ids, X, Z, y = self._fit_inputs(tmp_path)
        model = tmp_path / "fit.txt"
        posts = tmp_path / "post.csv"
        preds = tmp_path / "pred.csv"
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--fixed-cols", "x",
                     "--random-cols", "z", "--out", str(model),
                     "--posteriors-out", str(posts)]) == 0
        assert main(["predict", "--model", str(model), "--posteriors",
                     str(posts), "--input", str(src),
                     "--out", str(preds)]) == 0

        # reference: same pipeline in process, intercept column included
        Xf = np.hstack([np.ones((len(ids), 1)), X])
        Zf = np.hstack([np.ones((len(ids), 1)), Z])
        ds = GroupedDataset.from_long(y, Xf, Zf, ids)
        fit = fit_moment(ds, GAUSSIAN, FitOptions())
        post = posterior_set(fit)
        uniq, inverse = np.unique(np.array(ids), return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse))[:-1]
        mu_ref = np.empty(len(ids))
        for g, i, idx in zip(ds.groups, post.rows(ds.ids),
                             np.split(order, bounds)):
            mu_ref[idx] = GAUSSIAN.inv_link(g.X @ fit.beta
                                            + g.Z @ post.means[i])

        with open(preds, newline="") as fh:
            out_rows = list(csv.reader(fh))
        assert out_rows[0] == ["g", "mu_hat", "unseen_group"]
        mu_cli = np.array([float(r[1]) for r in out_rows[1:]])
        assert np.array_equal(mu_cli, mu_ref)
        assert all(r[2] == "0" for r in out_rows[1:])

        # artifact floats reproduce the in-process estimates exactly
        fields, _ = _read_artifact(model)
        assert np.array_equal(_floats(fields["beta"]), fit.beta)
        assert np.array_equal(_floats(fields["sigma"]), fit.sigma.ravel())

        # the posteriors file's rows in another order predict the same bytes
        header, *rows = posts.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "post_shuffled.csv"
        shuffled.write_text(header + "".join(rows[i] for i in [3, 0, 4, 1, 2]))
        preds2 = tmp_path / "pred2.csv"
        assert main(["predict", "--model", str(model), "--posteriors",
                     str(shuffled), "--input", str(src),
                     "--out", str(preds2)]) == 0
        assert preds2.read_bytes() == preds.read_bytes()

    def test_unseen_group_falls_back_to_population(self, tmp_path):
        src, ids, X, Z, y = self._fit_inputs(tmp_path, seed=83)
        model = tmp_path / "fit.txt"
        posts = tmp_path / "post.csv"
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--fixed-cols", "x",
                     "--random-cols", "z", "--out", str(model),
                     "--posteriors-out", str(posts)]) == 0
        new = tmp_path / "new.csv"
        _write_csv(new, ["g", "x", "z", "y"],
                   [["g0", "1.0", "1.0", "0"], ["zz", "1.0", "-1.0", "0"]])
        preds = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--posteriors",
                     str(posts), "--input", str(new),
                     "--out", str(preds)]) == 0
        with open(preds, newline="") as fh:
            out_rows = list(csv.reader(fh))[1:]
        by_id = {r[0]: r for r in out_rows}
        assert by_id["g0"][2] == "0"
        assert by_id["zz"][2] == "1"
        fields, _ = _read_artifact(model)
        beta = _floats(fields["beta"])
        assert float(by_id["zz"][1]) == pytest.approx(beta[0] + beta[1],
                                                      rel=1e-12)

    def test_predict_without_posteriors_uses_population_mean(self, tmp_path):
        src, ids, X, Z, y = self._fit_inputs(tmp_path, seed=89)
        model = tmp_path / "fit.txt"
        preds = tmp_path / "pred.csv"
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--fixed-cols", "x",
                     "--random-cols", "z", "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--out", str(preds)]) == 0
        with open(preds, newline="") as fh:
            out_rows = list(csv.reader(fh))[1:]
        assert all(r[2] == "1" for r in out_rows)

    def _outputs(self, tmp_path, name, text):
        """The fit artifact, posteriors and predictions of one CSV text,
        fitted and predicted on the same rows."""
        d = tmp_path / name
        d.mkdir()
        src = d / "in.csv"
        src.write_bytes(text.encode())
        paths = [d / "fit.txt", d / "post.csv", d / "pred.csv"]
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--fixed-cols", "x",
                     "--random-cols", "z", "--out", str(paths[0]),
                     "--posteriors-out", str(paths[1])]) == 0
        assert main(["predict", "--model", str(paths[0]), "--posteriors",
                     str(paths[1]), "--input", str(src),
                     "--out", str(paths[2])]) == 0
        return [path.read_bytes() for path in paths]

    @pytest.mark.parametrize("variant", [
        dict(nl="\r\n"),
        dict(note='"n, #1"'),
        dict(cell=(3, " 1.5 ")),
        dict(cell=(7, "1_0")),
        dict(ids=('"{},""q"""', '{},"q"')),
        dict(ids=("{}#1", "{}#1")),
        dict(ids=("{}-\u00e9\u2603", "{}-\u00e9\u2603")),
        dict(ids=('"{}\nb"', "{}\nb")),
    ], ids=["crlf", "unused_text_column", "spaced_number",
            "underscored_number", "quoted_id", "hash_in_id", "non_ascii_id",
            "quoted_newline_id"])
    def test_csv_dialect(self, tmp_path, capsys, monkeypatch, variant):
        """A variant of a file reads as the plain file does: the same
        artifact, and the same posteriors and predictions with the variant's
        ids, as the csv module writes them. numpy reads every variant in one
        pass but ``1_0``, which only ``float()`` accepts."""
        _, ids, X, Z, y = self._fit_inputs(tmp_path)
        plain = [[g, repr(float(x)), repr(float(z)), repr(float(v))]
                 for g, x, z, v in zip(ids, X[:, 0], Z[:, 0], y)]
        plain[3][3], plain[7][3] = "1.5", "10"
        rows = [list(r) for r in plain]
        header = ["g", "x", "z", "y"]
        if "cell" in variant:
            i, cell = variant["cell"]
            rows[i][3] = cell
        rename = {}
        if "ids" in variant:
            written, read = variant["ids"]
            rename = {g: read.format(g) for g in set(ids)}
            for r in rows:
                r[0] = written.format(r[0])
        want = self._outputs(tmp_path, "plain", "".join(
            ",".join(r) + "\n" for r in [header] + plain))
        if "note" in variant:
            header = header + ["note"]
            rows = [r + [variant["note"]] for r in rows]
        if variant.get("cell", (0, ""))[1] != "1_0":
            monkeypatch.setattr(cli, "_read_table", None)
        nl = variant.get("nl", "\n")
        got = self._outputs(tmp_path, "variant", "".join(
            ",".join(r) + nl for r in [header] + rows))
        assert got[0] == want[0]
        for w, g in zip(want[1:], got[1:]):
            out = io.StringIO(newline="")
            csv.writer(out).writerows(
                [rename.get(r[0], r[0])] + r[1:]
                for r in csv.reader(io.StringIO(w.decode(), newline="")))
            assert g == out.getvalue().encode()
        assert capsys.readouterr().err == ""

    def test_header_only_input_predicts_no_rows(self, tmp_path, capsys):
        src = self._fit_inputs(tmp_path)[0]
        model, posts = tmp_path / "fit.txt", tmp_path / "post.csv"
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--fixed-cols", "x",
                     "--random-cols", "z", "--out", str(model),
                     "--posteriors-out", str(posts)]) == 0
        new, preds = tmp_path / "new.csv", tmp_path / "pred.csv"
        new.write_text("g,x,z,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["predict", "--model", str(model), "--posteriors",
                         str(posts), "--input", str(new),
                         "--out", str(preds)]) == 0
        assert preds.read_bytes() == b"g,mu_hat,unseen_group\r\n"
        assert capsys.readouterr().err == ""


class TestErrorPaths:
    def test_ragged_row_reports_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("g,y\na,1.0\na,2.0,9\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {src}: line 3: expected 2 fields, got 3\n"

    @pytest.mark.parametrize("text, line", [
        ("g,y\na,1.0\n\na,2.0\n", 3),
        ("g,y\na,1.0\na,2.0\n\n", 4),
        ("g,y\r\na,1.0\r\n\r\na,2.0\r\n", 3),
    ], ids=["middle", "last", "crlf"])
    def test_blank_line_reports_line_number(self, tmp_path, capsys, text,
                                            line):
        """A blank line is a row of no fields, as the csv module reads it."""
        src = tmp_path / "bad.csv"
        src.write_bytes(text.encode())
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {src}: line {line}: expected 2 fields, got 0\n"

    @pytest.mark.parametrize("text, line", [
        ("g,y," + "x" * 140_000 + "\na,1.0,2.0\n", 1),
        ("g,y\na,1.0\n" + "b" * 140_000 + ",2.0\n\na,3.0\n", 3),
    ], ids=["header", "id_and_blank_line"])
    def test_oversized_field_reports_line(self, tmp_path, capsys, text, line):
        """A field past the csv module's 131,072-character limit exits 2
        with the file and line, not a traceback. numpy reads a long id, but
        a blank line sends the file to the cell-by-cell reader, where the
        csv module refuses it."""
        src = tmp_path / "bad.csv"
        src.write_text(text)
        out = tmp_path / "o"
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {src}: line {line}: "
                       "field larger than field limit (131072)\n")
        assert not out.exists()

    def test_all_singleton_groups_exit_3(self, tmp_path, capsys):
        """One row per group leaves no group with n > r, so the gaussian
        dispersion cannot be estimated: exit 3 and no artifact."""
        src = tmp_path / "d.csv"
        _write_csv(src, ["g", "y"], [[f"g{i}", repr(0.5 * i)]
                                     for i in range(5)])
        out, posts = tmp_path / "fit.txt", tmp_path / "post.csv"
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(out),
                   "--posteriors-out", str(posts)])
        assert rc == 3
        assert "cannot estimate dispersion" in capsys.readouterr().err
        assert not out.exists() and not posts.exists()

    def test_unparseable_number_reports_column(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("g,y\na,1.0\na,oops\na,2.0\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'y'" in err and "oops" in err

    def test_empty_number_cell_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("g,x,y\na,1.0,1.0\na,,2.0\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--fixed-cols", "x",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {src}: line 3: column 'x': "
                       "cannot parse '' as a number\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_nonfinite_number_reports_line(self, tmp_path, capsys, cell):
        src = tmp_path / "bad.csv"
        src.write_text(f"g,x,y\na,1.0,1.0\nb,2.0,2.0\nb,{cell},3.0\n")
        out = tmp_path / "o"
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--fixed-cols", "x",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert (str(src) in err and "line 4" in err and "'x'" in err
                and cell in err and "not a finite number" in err)
        assert not out.exists()

    def test_nonfinite_estimate_writes_no_artifact(self, tmp_path, capsys):
        """A fixed-effect column at 1e170 makes omega overflow in the
        original units: exit 2 naming the field, and no artifact."""
        rng = np.random.default_rng(101)
        rows = []
        for gid in range(6):
            for _ in range(8):
                rows.append([f"g{gid}", repr(1e170 * float(rng.normal())),
                             repr(float(rng.choice([-1.0, 1.0]))),
                             repr(float(rng.normal()))])
        src = tmp_path / "d.csv"
        _write_csv(src, ["g", "x", "z", "y"], rows)
        out, posts = tmp_path / "fit.txt", tmp_path / "post.csv"
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(["fit", "--input", str(src), "--group-col", "g",
                       "--response-col", "y", "--fixed-cols", "x",
                       "--random-cols", "z", "--out", str(out),
                       "--posteriors-out", str(posts)])
        assert rc == 2
        assert "omega is not finite" in capsys.readouterr().err
        assert not out.exists() and not posts.exists()

    def test_missing_column(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("g,y\na,1.0\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "resp", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "resp" in capsys.readouterr().err

    def test_group_column_cannot_be_predictor(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("g,y\na,1.0\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--fixed-cols", "g",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot also be a predictor" in capsys.readouterr().err

    def test_no_intercept_requires_columns(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("g,y\na,1.0\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--no-intercept",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "nope.csv"),
                   "--group-col", "g", "--response-col", "y",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["fit", "--bogus"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_foreign_model_file_rejected(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("format: something-else 9\n")
        src = tmp_path / "d.csv"
        src.write_text("g,y\na,1.0\n")
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not a hiermoment fit artifact" in capsys.readouterr().err

    def test_truncated_model_file_rejected(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("format: hiermoment-fit 1\nfamily: gaussian\n")
        src = tmp_path / "d.csv"
        src.write_text("g,y\na,1.0\n")
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(model) in err and "group_col" in err

    def test_unparseable_posterior_reports_line(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        model = tmp_path / "fit.txt"
        _oneway_csv(src)
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--out", str(model)]) == 0
        posts = tmp_path / "post.csv"
        posts.write_text("group_id,mean_0,cov_0_0\na,0.5,0.1\nb,oops,0.1\n")
        rc = main(["predict", "--model", str(model), "--posteriors",
                   str(posts), "--input", str(src),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(posts) in err and "line 3" in err and "oops" in err

    def test_duplicate_posterior_id_rejected(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        model, posts = tmp_path / "fit.txt", tmp_path / "post.csv"
        _oneway_csv(src)
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--out", str(model),
                     "--posteriors-out", str(posts)]) == 0
        with open(posts, "a") as fh:
            fh.write("a,100.0,0.1\n")
        rc = main(["predict", "--model", str(model), "--posteriors",
                   str(posts), "--input", str(src),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(posts) in err and "line 5" in err and "'a'" in err

    @pytest.mark.parametrize("body, message", [
        ("a,0.5,0.1\na,100.0,0.1\n",
         "line 5: group id 'a' appears in an earlier row"),
        ("b,oops,0.1\n",
         "line 4: column 'mean_0': cannot parse 'oops' as a number"),
    ], ids=["repeated_id", "unparseable"])
    def test_posterior_errors_report_file_lines(self, tmp_path, capsys, body,
                                                message):
        """A quoted id holding a line break spans two lines of the file, and
        the errors after it give file lines, not record counts."""
        src = tmp_path / "data.csv"
        model, posts = tmp_path / "fit.txt", tmp_path / "post.csv"
        _oneway_csv(src)
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--out", str(model)]) == 0
        posts.write_text('group_id,mean_0,cov_0_0\n"x\ny",0.5,0.1\n' + body)
        rc = main(["predict", "--model", str(model), "--posteriors",
                   str(posts), "--input", str(src),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {posts}: {message}\n"

    @pytest.mark.parametrize("body, message", [
        ("a,2.0\na,3.0,9\n", "line 5: expected 2 fields, got 3"),
        ("a,2.0\na,oops\n",
         "line 5: column 'y': cannot parse 'oops' as a number"),
        ("a,inf\n", "line 4: column 'y': 'inf' is not a finite number"),
        ("\na,2.0\n", "line 4: expected 2 fields, got 0"),
    ], ids=["ragged", "unparseable", "nonfinite", "blank"])
    def test_fit_input_errors_report_file_lines(self, tmp_path, capsys,
                                                body, message):
        src = tmp_path / "bad.csv"
        src.write_text('g,y\n"a\nb",1.0\n' + body)
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {src}: {message}\n"

    @staticmethod
    def _nul_csv(path, ids):
        rows = [[gid, repr(float(k))] for gid in ids for k in range(5)]
        _write_csv(path, ["g", "y"], rows)

    def test_fit_rejects_id_ending_in_nul(self, tmp_path, capsys):
        """numpy's strings drop a trailing NUL, so "a\0" would fit as "a".
        Python 3.10's csv module refuses any NUL, at the same line."""
        src = tmp_path / "nul.csv"
        self._nul_csv(src, ["a", "a\x00", "b", "c"])
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: line 7: ") and "NUL" in err
        assert not (tmp_path / "o").exists()

    def test_predict_rejects_id_ending_in_nul(self, tmp_path, capsys):
        src, new = tmp_path / "data.csv", tmp_path / "new.csv"
        model, out = tmp_path / "fit.txt", tmp_path / "pred.csv"
        _oneway_csv(src)
        assert main(["fit", "--input", str(src), "--group-col", "g",
                     "--response-col", "y", "--out", str(model)]) == 0
        self._nul_csv(new, ["b", "a\x00"])
        rc = main(["predict", "--model", str(model), "--input", str(new),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {new}: line 7: ") and "NUL" in err
        assert not out.exists()

    def test_inner_nul_keeps_its_group(self, tmp_path, capsys):
        """Only a trailing NUL is lost by numpy, so "a\0b" is its own group
        where the csv module reads it (Python 3.11 on)."""
        src = tmp_path / "nul.csv"
        self._nul_csv(src, ["a", "a\x00b", "ab"])
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        out = capsys.readouterr()
        if sys.version_info >= (3, 11):
            assert rc == 0 and out.out.startswith("fit 3 groups, 15 ")
        else:
            assert rc == 2 and f"{src}: line 7: " in out.err

    def test_aliased_design_exits_3_with_hint(self, tmp_path, capsys):
        rng = np.random.default_rng(97)
        rows = []
        for gid in range(4):
            for _ in range(6):
                rows.append([f"g{gid}", repr(float(rng.normal())), "0.0",
                             repr(float(rng.choice([-1.0, 1.0]))),
                             repr(float(rng.normal()))])
        src = tmp_path / "d.csv"
        _write_csv(src, ["g", "x1", "x2", "z", "y"], rows)
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--fixed-cols", "x1,x2",
                   "--random-cols", "z", "--no-intercept",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "hint" in err


class TestSimulateCommand:
    def test_smoke_and_seed_reproducibility(self, tmp_path, capsys):
        args = ["simulate", "--family", "gaussian", "--M", "8",
                "--N-grid", "300", "--p", "2", "--q", "2",
                "--replicates", "1", "--seed", "5"]
        t1, t2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(args + ["--out", str(t1)]) == 0
        assert main(args + ["--out", str(t2)]) == 0
        capsys.readouterr()

        def stable_cells(path):
            lines = path.read_text().strip().split("\n")
            header = lines[0].split("\t")
            drop = header.index("seconds_mean")
            return [
                [c for j, c in enumerate(row.split("\t")) if j != drop]
                for row in lines
            ]

        assert stable_cells(t1) == stable_cells(t2)
        lines = t1.read_text().strip().split("\n")
        assert len(lines) == 4  # header + hier/global/local
        assert lines[1].split("\t")[0] == "hier"

    def test_method_filter_and_bad_method(self, tmp_path, capsys):
        out = tmp_path / "s.tsv"
        rc = main(["simulate", "--family", "gaussian", "--M", "6",
                   "--N-grid", "200", "--p", "2", "--q", "2",
                   "--replicates", "1", "--methods", "hier",
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 2
        rc = main(["simulate", "--methods", "hier,bogus",
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path, capsys):
        rc = main(["simulate", "--N-grid", "12,x",
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == 2
        capsys.readouterr()


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the package and its
    command line in a fresh interpreter loads no scipy module."""
    src = os.path.dirname(os.path.dirname(hiermoment.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = ("import sys, hiermoment, hiermoment.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
