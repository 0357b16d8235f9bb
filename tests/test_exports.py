"""Package surface checks: every exported name resolves, one-group and
helper forms that have a stacked counterpart are neither exported nor
defined, removed knobs and fields stay removed, and every stage the traced
benchmark patches exists where it patches it."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import pytest

import hiermoment
from hiermoment import cli, combine, data, families, groups, linalg

MODULES = ["hiermoment"] + [
    f"hiermoment.{m.name}" for m in pkgutil.iter_modules(hiermoment.__path__)]

REMOVED = ("predict_mean", "misclass_by_group_size", "summarize_group",
           "_least_squares", "_LOOP_KEYS", "_Stack", "_grouped_dot",
           "unscaled_precision", "_clip_mu")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_removed_forms_not_exported(name):
    module = importlib.import_module(name)
    assert not set(REMOVED) & set(module.__all__)
    assert not any(hasattr(module, n) for n in REMOVED)



def test_removed_knobs_and_fields():
    """The SVD rank rule, the number of semi-weighted refits and the
    singularity threshold of the covariance solve are constants, not
    parameters; the Firth fit takes each group's right vectors, not its
    rank, and carries its information, not a deviance or per-row fitted
    means; a family has no variance function and no flag that repeats
    ``dispersion is None``; and a fit's rank sum and a dataset's group
    sizes are read where they are kept, ``summary_set.rho`` and
    ``layout.sizes``."""
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(linalg.compact_svd) == ["F", "y", "layout"]
    assert params(linalg.SymKronOperator.solve) == ["self", "rhs"]
    assert combine.EPS_SING is linalg.EPS_SING
    assert params(families.fit_glm) == ["y", "F", "family", "layout", "V"]
    assert params(groups.summarize_groups) == ["dataset", "family"]
    assert params(groups.build_summary_set) == ["dataset", "family"]
    assert [f.name for f in dataclasses.fields(combine.FitOptions)] == [
        "scheme"]
    assert [f.name for f in dataclasses.fields(families.GlmFit)] == [
        "coef", "information", "converged", "iterations"]
    assert not hasattr(families.Family, "variance")
    assert [f.name for f in dataclasses.fields(families.Family)] == [
        "name", "dispersion"]
    assert "rho" not in {f.name for f in dataclasses.fields(combine.MomentFit)}
    assert not hasattr(data.GroupedDataset, "sizes")


def _load_bench(name):
    """The module ``bench/<name>.py``, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_stages_exist():
    """``bench/run.py --trace 1`` swaps each traced stage at the site where
    the package imports it, and raises if one is missing: installing its
    tracing succeeds, patches the group reduction's SVD and logit fit, and
    ``restore`` puts every original back."""
    run, tracing = _load_bench("run"), _load_bench("tracing")
    owners = (cli, combine, groups, data.GroupedDataset)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        run.install_tracing(tracer)
        changed = {(owner.__name__, name)
                   for owner, names in zip(owners, before)
                   for name, value in vars(owner).items()
                   if names.get(name) is not value}
    finally:
        tracer.restore()
    assert {("hiermoment.groups", "fit_glm"),
            ("hiermoment.groups", "compact_svd")} <= changed
    assert [dict(vars(owner)) for owner in owners] == before
