"""Package surface checks: every exported name resolves, and one-group and
helper forms that have a stacked counterpart are neither exported nor
defined."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import hiermoment

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

