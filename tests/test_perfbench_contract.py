"""The benchmark tracer (``perfbench/tracer.py``) wraps public names of the
package from outside ``src/``.  Renaming or deleting one of them must fail
here rather than only inside ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

import pytest

from planar_ppv import (adjoint, cli, diliberto, isochron, models, ode, phase,
                        stochastic)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, diliberto, diliberto.DilibertoBasis, adjoint, phase,
          stochastic, isochron, ode, models.OscillatorModel)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_installs_and_undoes(tracer):
    before = [dict(vars(owner)) for owner in OWNERS]
    # install() looks every traced name up: a missing one raises here
    undo = tracer.install(tracer.Tracer("t"))
    try:
        patched = {(owner.__name__, name): (value, old[name])
                   for owner, old in zip(OWNERS, before)
                   for name, value in vars(owner).items()
                   if old.get(name) is not value}
    finally:
        undo()

    assert ("planar_ppv.adjoint", "state_transition") in patched
    assert ("planar_ppv.adjoint", "verify_basis") in patched
    assert ("planar_ppv.stochastic", "diffusion_summary") in patched
    assert ("OscillatorModel", "jacobian") in patched
    for wrapper, original in patched.values():
        assert wrapper.__wrapped__ is original
    for owner, old in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == old.keys()
        assert all(now[name] is value for name, value in old.items())
