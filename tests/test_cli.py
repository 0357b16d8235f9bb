"""End-to-end CLI checks driven through ``main(argv)`` in process.

The one-way oracle used below: three groups of 10 with sample means 0, 1, 2
and within-group sum of squares 4.5 each, so the pooled dispersion is
13.5 / 27 = 0.5, the unweighted fixed effect is the grand mean 1.0, and the
raw variance estimate is 2/3 - 0.5 * (1/10) = 0.6166666666666667.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from hiermoment.cli import main
from hiermoment.combine import FitOptions, fit_moment
from hiermoment.data import GroupedDataset
from hiermoment.ebayes import posterior_set, predict_mean
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
        for g, idx in zip(ds.groups, np.split(order, bounds)):
            mu_ref[idx] = predict_mean(g.X, g.Z, fit.beta,
                                       post.get(g.group_id).mean, GAUSSIAN)

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


class TestErrorPaths:
    def test_ragged_row_reports_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("g,y\na,1.0\na,2.0,9\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "expected 2 fields" in err

    def test_unparseable_number_reports_column(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("g,y\na,1.0\na,oops\na,2.0\n")
        rc = main(["fit", "--input", str(src), "--group-col", "g",
                   "--response-col", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'y'" in err and "oops" in err

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
