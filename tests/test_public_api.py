"""Every exported name resolves, so deleting a function cannot leave a
stale entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import planar_ppv

MODULES = ["planar_ppv"] + [
    f"planar_ppv.{m.name}" for m in pkgutil.iter_modules(planar_ppv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
