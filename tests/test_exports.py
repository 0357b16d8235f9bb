"""Package surface checks: every exported name resolves, one-group and
helper forms that have a stacked counterpart are neither exported nor
defined, and removed knobs and fields stay removed."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import hiermoment
from hiermoment import combine, families, groups, linalg

MODULES = ["hiermoment"] + [
    f"hiermoment.{m.name}" for m in pkgutil.iter_modules(hiermoment.__path__)]

REMOVED = ("predict_mean", "misclass_by_group_size", "summarize_group",
           "_least_squares", "_LOOP_KEYS", "_Stack", "_grouped_dot")


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
    """The SVD rank rule is a constant, not a parameter, and the Firth fit
    carries no deviance."""
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(linalg.compact_svd) == ["F", "y", "layout"]
    assert params(groups.summarize_groups) == ["dataset", "family"]
    assert params(groups.build_summary_set) == ["dataset", "family"]
    assert [f.name for f in dataclasses.fields(combine.FitOptions)] == [
        "scheme", "refits"]
    assert "deviance" not in {f.name for f in dataclasses.fields(
        families.GlmFit)}
