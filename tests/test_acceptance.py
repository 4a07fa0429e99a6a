"""End-to-end acceptance gate.

One test per release criterion; each prints a single summary line so the
gate status is readable straight off the pytest -s output.  Criteria with
a runtime budget rebuild their inputs inside the timed block instead of
leaning on session fixtures.
"""

import time

import numpy as np
import pytest

import planar_ppv as pp
from planar_ppv import adjoint, cli
from planar_ppv.phase import Perturbation
from planar_ppv.stochastic import NoiseModel


def _report(num, label, ok, detail):
    print(f"[acceptance] {num}. {label}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_stuart_landau_analytic():
    t0 = time.perf_counter()
    model = pp.get_model("stuart_landau", omega=1.0)
    cyc = pp.find_cycle(model, (1.0, 0.0), settle_time=0.0)
    basis = pp.DilibertoBasis(cyc)

    errs = {}
    errs["T"] = abs(cyc.T - 2 * np.pi)
    errs["mu2"] = abs(basis.mu2 - (-2.0))
    ts = np.arange(256) * cyc.T / 256
    errs["a"] = float(np.max(np.abs(basis.a(ts))))
    v1 = basis.v1(ts)
    errs["v1"] = float(np.max(np.abs(v1 - np.stack([-np.sin(ts),
                                                    np.cos(ts)]))))
    errs["orth"] = pp.orthogonality_defect(basis)
    lie = 0.0
    for t in ts:
        x = cyc.point(float(t))
        lb = pp.lie_bracket(model, x)
        fp = pp.perp(model.field(x))
        c = (lb @ fp) / (fp @ fp)
        lie = max(lie, float(np.linalg.norm(lb - c * fp)))
    errs["lie"] = lie
    elapsed = time.perf_counter() - t0

    ok = (errs["T"] < 1e-8 and errs["mu2"] < 1e-8 and errs["a"] < 1e-9
          and errs["v1"] < 1e-7 and errs["orth"] < 1e-9 and errs["lie"] < 1e-8
          and elapsed < 10.0)
    _report(1, "Stuart-Landau analytic suite", ok,
            f"dT={errs['T']:.1e} dmu2={errs['mu2']:.1e} a={errs['a']:.1e} "
            f"v1={errs['v1']:.1e} orth={errs['orth']:.1e} "
            f"lie={errs['lie']:.1e} {elapsed:.1f}s")


def test_criterion_2_vanderpol_vs_adjoint_oracle():
    t0 = time.perf_counter()
    model = pp.get_model("vanderpol", mu=1.0)
    cyc = pp.find_cycle(model, (2.0, 0.0))
    basis = pp.DilibertoBasis(cyc)

    st = adjoint.state_transition(cyc)
    nt, ny, _ = adjoint.numeric_ppv(cyc, 256)
    v1c = basis.v1(nt).T
    v1_err = (np.max(np.linalg.norm(v1c - ny, axis=1))
              / np.max(np.linalg.norm(ny, axis=1)))

    eigs = np.sort(np.abs(np.linalg.eigvals(cyc.monodromy)))
    mu2_num = np.log(eigs[0]) / cyc.T
    mu2_err = abs(basis.mu2 - mu2_num) / abs(basis.mu2)

    liouville = 0.0
    for t in np.linspace(cyc.T / 8, cyc.T, 8):
        det = np.linalg.det(st(float(t)))
        b = float(basis.b(float(t)))
        liouville = max(liouville, abs(det - b) / b)
    elapsed = time.perf_counter() - t0

    ok = (v1_err < 1e-6 and mu2_err < 1e-6 and liouville < 1e-7
          and elapsed < 30.0)
    _report(2, "van der Pol closed form vs adjoint oracle", ok,
            f"v1={v1_err:.1e} mu2={mu2_err:.1e} liouville={liouville:.1e} "
            f"{elapsed:.1f}s")


def test_criterion_3_structural_invariants(sl_basis, vdp_basis):
    worst = {"bi": 0.0, "norm": 0.0, "per": 0.0, "adj": 0.0}
    for basis in (sl_basis, vdp_basis):
        cyc = basis.cycle
        u1, u2 = basis.u1_grid, basis.u2_grid
        v1, v2 = basis.v1_grid, basis.v2_grid
        worst["bi"] = max(worst["bi"], float(np.max(np.abs(np.stack([
            np.sum(v1 * u1, axis=1) - 1.0,
            np.sum(v1 * u2, axis=1),
            np.sum(v2 * u1, axis=1),
            np.sum(v2 * u2, axis=1) - 1.0])))))
        F = cyc.model.field(cyc.point(basis.ts)).T
        worst["norm"] = max(worst["norm"], float(np.max(np.abs(
            np.sum(v1 * F, axis=1) - 1.0))))
        for t in basis.ts[::128]:
            for fn in (basis.u2, basis.v1):
                a, b = fn(float(t)), fn(float(t) + cyc.T)
                worst["per"] = max(worst["per"], float(np.max(np.abs(a - b))))
        # adjoint residual: 5-point finite difference, h = T/4096
        h = cyc.T / 4096
        ts = np.arange(128) * cyc.T / 128
        dv = (basis.v1(ts - 2 * h) - 8 * basis.v1(ts - h)
              + 8 * basis.v1(ts + h) - basis.v1(ts + 2 * h)) / (12 * h)
        resid, scale = 0.0, 0.0
        for j, t in enumerate(ts):
            rhs = cyc.model.jacobian(cyc.point(float(t))).T @ basis.v1(
                float(t))
            resid = max(resid, float(np.linalg.norm(dv[:, j] + rhs)))
            scale = max(scale, float(np.linalg.norm(rhs)))
        worst["adj"] = max(worst["adj"], resid / scale)

    ok = (worst["bi"] < 1e-9 and worst["norm"] < 1e-9 and worst["per"] < 1e-8
          and worst["adj"] < 1e-5)
    _report(3, "structural invariants (both models)", ok,
            f"biorth={worst['bi']:.1e} norm={worst['norm']:.1e} "
            f"periodicity={worst['per']:.1e} adjoint={worst['adj']:.1e}")


def test_criterion_4_phase_model_sanity(sl_basis, sl_model, vdp_basis,
                                        vdp_model):
    # g = f gives dpsi/dt = eps exactly
    path = pp.simulate_phase(vdp_basis,
                             Perturbation.along_flow(vdp_model, 0.01), 100.0)
    drift_err = abs(path.psi[-1] - 1.0)

    # Parseval mass concentration at |k| = 1 on Stuart-Landau
    spec = pp.ppv_fourier(sl_basis, sl_basis.n // 2 - 1)
    mass = spec.mass()
    frac = float(np.sum(mass[np.abs(spec.ks) == 1]) / np.sum(mass))

    # lock-range linearity over one eps doubling
    t0 = time.perf_counter()
    grid = np.arange(0.0, 0.0121, 0.0005)
    lm = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.005, 0.01], grid)
    scan_time = time.perf_counter() - t0
    ratio = lm.boundaries[0.01] / lm.boundaries[0.005]

    ok = (drift_err < 1e-6 and frac >= 1.0 - 1e-8
          and abs(ratio - 2.0) <= 0.3 and scan_time < 120.0)
    _report(4, "phase-model sanity", ok,
            f"drift={drift_err:.1e} mass@1={frac:.10f} "
            f"lock-ratio={ratio:.2f} scan={scan_time:.0f}s")


def test_criterion_5_stochastic_self_consistency(sl_basis):
    t0 = time.perf_counter()
    sigma = 0.05
    noise = NoiseModel.isotropic(sigma)
    t_end = 10.0 * sl_basis.cycle.T

    ens = pp.simulate_sde_ensemble(sl_basis, noise, 4096, t_end, 0.05,
                                   seed=2024)
    mc_rate = float(np.polyfit(ens.ts, ens.var, 1)[0])

    D = pp.diffusion_summary(sl_basis, noise)
    width = 8.0 * np.sqrt(D * t_end)
    psi = np.linspace(-width, width, 401)
    dpsi = psi[1] - psi[0]
    dt = 0.3 * 0.4 * dpsi ** 2 / (D * 4)
    dens = pp.solve_fp(sl_basis, noise, psi, t_end, dt)
    fp_rate = float(np.polyfit(dens.ts, dens.variance(), 1)[0])
    mass_err = float(np.max(np.abs(dens.mass() - 1.0)))
    elapsed = time.perf_counter() - t0

    pair = max(abs(mc_rate - fp_rate) / fp_rate,
               abs(mc_rate - D) / D,
               abs(fp_rate - D) / D)
    ok = pair < 0.05 and mass_err < 1e-6 and elapsed < 120.0
    _report(5, "stochastic self-consistency", ok,
            f"MC={mc_rate:.4e} FP={fp_rate:.4e} summary={D:.4e} "
            f"pairwise={pair:.3f} mass={mass_err:.1e} {elapsed:.0f}s")


def test_criterion_6_isochron_property(vdp_cycle, vdp_basis):
    t0 = time.perf_counter()
    horizon = 20.0 / abs(vdp_basis.mu2)
    rep = pp.isochron_experiment(vdp_basis, 1.0,
                                 [-0.05, -0.025, 0.0, 0.025, 0.05], horizon)
    big = pp.isochron_experiment(vdp_basis, 1.0, [0.0, 0.05], horizon)
    small = pp.isochron_experiment(vdp_basis, 1.0, [0.0, 0.025], horizon)
    quad = big.isochron_spread / small.isochron_spread
    elapsed = time.perf_counter() - t0

    ok = (rep.isochron_spread < 1e-3 * vdp_cycle.T
          and rep.control_spread > 10.0 * rep.isochron_spread
          and 3.5 <= quad <= 4.5 and elapsed < 60.0)
    _report(6, "isochron tangency property", ok,
            f"spread={rep.isochron_spread:.2e} "
            f"control={rep.control_spread:.2e} quad-ratio={quad:.2f} "
            f"{elapsed:.0f}s")


def test_criterion_7_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[model]
name = vanderpol
mu = 1.0

[output]
seed = 99

[verify]
tol = 1e-5

[ppv-fourier]
harmonics = 8

[noise]
kind = isotropic
sigma = 0.05
n_paths = 32
t_end = 20.0
dt = 0.02
density = false
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = cli.run(str(cfg), outdir=str(out1))
    r2 = cli.run(str(cfg), outdir=str(out2))
    names = sorted(p.name for p in out1.iterdir())
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in names)
    ok = r1 == 0 and r2 == 0 and identical and len(names) >= 5
    _report(7, "CLI determinism", ok,
            f"exit=({r1},{r2}) files={len(names)} "
            f"byte-identical={identical}")
