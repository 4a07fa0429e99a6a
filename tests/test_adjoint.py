import numpy as np
import pytest

import planar_ppv as pp
from planar_ppv import adjoint, ode
from planar_ppv.errors import ArgumentError


def test_state_transition_identity_at_zero(sl_cycle, vdp_cycle):
    for cyc in (sl_cycle, vdp_cycle):
        np.testing.assert_array_equal(
            adjoint.state_transition(cyc)(0.0), np.eye(2))


def test_state_transition_propagates_field(sl_cycle, vdp_cycle):
    # Phi(t, 0) f(x0(0)) = f(x0(t)) for any t
    for cyc in (sl_cycle, vdp_cycle):
        st = adjoint.state_transition(cyc)
        F0 = cyc.model.field(cyc.anchor)
        for frac in (0.25, 0.7, 1.0):
            t = frac * cyc.T
            Ft = cyc.model.field(cyc.point(t))
            np.testing.assert_allclose(st(t) @ F0, Ft, atol=1e-7)
        np.testing.assert_allclose(cyc.monodromy @ F0, F0, atol=1e-7)


def test_numeric_monodromy_stuart_landau(sl_cycle):
    eigs = np.sort(np.abs(np.linalg.eigvals(sl_cycle.monodromy)))
    assert eigs[1] == pytest.approx(1.0, abs=1e-7)
    assert eigs[0] == pytest.approx(np.exp(-4 * np.pi), abs=1e-7)


def test_numeric_ppv_matches_analytic_stuart_landau(sl_cycle):
    ts, ys, _ = adjoint.numeric_ppv(sl_cycle, 64)
    expected = np.column_stack([-np.sin(ts), np.cos(ts)])
    assert np.max(np.abs(ys - expected)) < 1e-7


@pytest.mark.parametrize("n", [15, 16.5, 32.0, np.nan])
def test_numeric_ppv_sample_count_is_an_argument_error(sl_cycle, n):
    # a bad sample count is the caller's error, not an oracle failure;
    # unchecked, 16.5 returned 17 samples spaced T/16.5
    with pytest.raises(ArgumentError, match="integer"):
        adjoint.numeric_ppv(sl_cycle, n)


def test_numeric_ppv_normalization(sl_cycle, vdp_cycle):
    for cyc in (sl_cycle, vdp_cycle):
        ts, ys, _ = adjoint.numeric_ppv(cyc, 128)
        F = cyc.model.field(cyc.point(ts)).T
        dots = np.sum(ys * F, axis=1)
        np.testing.assert_allclose(dots, 1.0, atol=1e-8)


def test_numeric_ppv_one_period(monkeypatch):
    # weakly contracting cycle (b(T) ~ 0.53): seeded from the monodromy's
    # left eigenvector, one backward period already matches the closed form
    cyc = pp.find_cycle(pp.get_model("vanderpol", mu=0.1), (2.0, 0.0),
                        settle_time=30.0)
    basis = pp.DilibertoBasis(cyc)
    calls = []
    original = ode.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ode, "integrate", counting)
    ts, ys, defects = adjoint.numeric_ppv(cyc, 256)
    assert len(calls) == 1
    assert len(defects) == 1 and defects[0] < 1e-9
    v1 = basis.v1(ts).T
    assert (np.max(np.linalg.norm(v1 - ys, axis=1))
            / np.max(np.linalg.norm(ys, axis=1))) < 1e-10


def test_verification_reports_pass(sl_report, vdp_report):
    assert sl_report.passed
    assert vdp_report.passed
    expected = {"biorthogonality", "normalization", "adjoint_residual",
                "monodromy_mismatch", "v1_vs_numeric", "liouville"}
    assert set(sl_report.metrics) == expected
    assert set(vdp_report.metrics) == expected


def test_report_items_and_text(vdp_report):
    for name, value, ok in vdp_report.items():
        assert ok == (value <= vdp_report.tol)
    text = vdp_report.to_text()
    assert "PASS" in text
    lines = vdp_report.to_kv_lines()
    assert len(lines) == len(vdp_report.metrics)
    assert all("=" in ln for ln in lines)


def test_verify_integrates_variational_once(monkeypatch, sl_basis):
    # Phi comes with the cycle; the adjoint period is the one integration
    calls = {"state_transition": 0, "integrate": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(adjoint, "state_transition",
                        counting("state_transition", adjoint.state_transition))
    monkeypatch.setattr(ode, "integrate", counting("integrate", ode.integrate))
    assert adjoint.verify_basis(sl_basis, 1e-5).passed
    assert calls == {"state_transition": 1, "integrate": 1}


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_verify_rejects_bad_tol(sl_basis, tol):
    # unchecked, NaN or a negative tol failed every metric of the report
    with pytest.raises(ArgumentError, match="tol"):
        pp.verify_basis(sl_basis, tol)
