"""Public names: every exported name resolves, and none is listed twice."""

import importlib
import pkgutil

import pytest

import nonrecip

MODULES = ["nonrecip"] + [
    f"nonrecip.{m.name}" for m in pkgutil.iter_modules(nonrecip.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
