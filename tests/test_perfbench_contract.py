"""The benchmark (``perfbench/``) uses the package from outside ``src/``:
its tracer wraps public names and its workloads are config texts.  Renaming
a traced name, or rejecting a workload config, must fail here rather than
only inside ``perfbench/run.py``."""

import importlib
from pathlib import Path

import pytest

from planar_ppv import (adjoint, cli, diliberto, isochron, models, ode, phase,
                        stochastic)
from planar_ppv.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, diliberto, diliberto.DilibertoBasis, adjoint, phase,
          stochastic, isochron, ode, models.OscillatorModel)


def perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


@pytest.fixture
def tracer(monkeypatch):
    return perfbench_module(monkeypatch, "tracer")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["lockscan", "noise", "verify-sweep"])
def test_workload_configs_build_models(monkeypatch, workload, seed):
    workloads = perfbench_module(monkeypatch, "workloads")
    for config in workloads.make_configs(workload, seed):
        parse_config(config["text"]).make_model()


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


def test_adjoint_periods_counts_one_period(tracer, vdp_basis):
    # the tracer counts adjoint periods as len(numeric_ppv(...)[2])
    trace = tracer.Tracer("t")
    undo = tracer.install(trace)
    try:
        adjoint.verify_basis(vdp_basis, 1e-5)
    finally:
        undo()
    assert trace.totals["adjoint.adjoint_periods"] == 1


def test_traced_run_reaches_the_traced_layers(tracer, tmp_path):
    # a run that bypassed a traced name would leave its counter at zero
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nname = stuart_landau\n\n[cycle]\n"
                   "guess = 0.5 0.0\nsettle_time = 10.0\n\n"
                   "[verify]\ntol = 1e-5\n")
    trace = tracer.Tracer("t")
    undo = tracer.install(trace)
    try:
        assert cli.run(str(cfg), outdir=str(tmp_path / "out")) == 0
    finally:
        undo()
    assert {"cycle.find_cycle", "adjoint.verify"} <= {
        span["name"] for span in trace.spans}
    assert trace.totals["adjoint.state_transition_calls"] == 1
    # settle, one (x, Phi, I_div, I_a) flow per Newton iteration (the
    # first ends at the first return; the last carries the basis
    # quadrature) and the adjoint period
    assert (trace.totals["ode.integrate_calls"]
            == 2 + trace.totals["cycle.newton_iters"])


def test_traced_isochron_stage_is_one_integration(tracer, tmp_path):
    # a return to one integration per seed, or an isochron stage that
    # bypassed the traced name, would fail here
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nname = vanderpol\nmu = 1.0\n\n[cycle]\n"
                   "guess = 2.0 0.0\nsettle_time = 10.0\n\n"
                   "[verify]\ntol = 1e-5\n\n[isochron]\nt_star = 1.0\n"
                   "offsets = -0.05 0.0 0.05\nhorizon = 12.0\n")
    trace = tracer.Tracer("t")
    undo = tracer.install(trace)
    try:
        assert cli.run(str(cfg), outdir=str(tmp_path / "out")) == 0
    finally:
        undo()
    assert "isochron.experiment" in {span["name"] for span in trace.spans}
    # settle, one flow per Newton iteration (the first ends at the first
    # return; the last carries the quadrature), adjoint period and the one
    # batched isochron flow
    assert (trace.totals["ode.integrate_calls"]
            == 3 + trace.totals["cycle.newton_iters"])
