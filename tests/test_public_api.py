"""Every exported name resolves, so deleting a function cannot leave a
stale entry in an ``__all__``, and the README's library example runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import planar_ppv

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["planar_ppv"] + [
    f"planar_ppv.{m.name}" for m in pkgutil.iter_modules(planar_ppv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_readme_quick_start_runs(capsys):
    # the README's library example names a(t), b(t), v1, monodromy and
    # to_text; a renamed or removed name would fail here
    match = re.search(r"## Library quick start\n+```python\n(.*?)```",
                      README.read_text(), re.S)
    assert match is not None
    namespace = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    assert namespace["report"].passed
    assert "PASS" in capsys.readouterr().out
