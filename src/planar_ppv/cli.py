"""Batch front-end: config -> cycle -> basis -> experiments -> CSV/SVG.

Exit codes: 0 all verifications passed, 1 numerical failure (stage is
named on stderr), 2 configuration error.
"""

import argparse
import os
import sys

import numpy as np

from . import adjoint, diliberto, isochron, phase, stochastic, svgplot
from .config import load_config
from .cycle import cycle_to_csv, find_cycle
from .errors import ConfigError, PlanarPPVError

__all__ = ["main", "run"]


def _fmt(x):
    return f"{x:.17g}"


def run(config_path, outdir=None):
    """Execute the configured pipeline; returns the process exit status."""
    try:
        cfg = load_config(config_path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config {config_path}: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = outdir or cfg.outdir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2
    stage = "setup"
    summary = []
    all_pass = True
    try:
        model = cfg.make_model()
        summary.append(f"model={model.name}")
        for k in sorted(model.params):
            summary.append(f"param_{k}={_fmt(model.params[k])}")

        stage = "limit-cycle"
        cyc = find_cycle(model, cfg.cycle["guess"],
                         settle_time=cfg.cycle["settle_time"],
                         tol=cfg.cycle["tol"])
        cycle_to_csv(cyc, os.path.join(out, "cycle.csv"))
        summary.append(f"T={_fmt(cyc.T)}")
        summary.append(f"anchor_x={_fmt(cyc.anchor[0])}")
        summary.append(f"anchor_y={_fmt(cyc.anchor[1])}")

        stage = "diliberto-basis"
        basis = diliberto.DilibertoBasis(cyc, n=cfg.grid)
        diliberto.basis_to_csv(basis, os.path.join(out, "basis.csv"))
        summary.append(f"mu2={_fmt(basis.mu2)}")
        defect = diliberto.orthogonality_defect(basis)
        summary.append(f"orthogonality_defect={_fmt(defect)}")

        stage = "verify"
        tol = cfg.sections["verify"]["tol"]
        report = adjoint.verify_basis(basis, tol)
        with open(os.path.join(out, "verify.csv"), "w", newline="") as fh:
            fh.write("metric,value,status\n")
            for name, value, ok in report.items():
                fh.write(f"{name},{_fmt(value)},{'pass' if ok else 'fail'}\n")
        summary.extend(report.to_kv_lines())
        all_pass = report.passed

        if "ppv-fourier" in cfg.sections:
            stage = "ppv-fourier"
            K = cfg.sections["ppv-fourier"]["harmonics"]
            spec = phase.ppv_fourier(basis, K)
            phase.spectrum_to_csv(spec, os.path.join(out, "ppv_fourier.csv"))

        if "lock-scan" in cfg.sections:
            stage = "lock-scan"
            p = cfg.sections["lock-scan"]
            grid = np.linspace(p["detuning_min"], p["detuning_max"],
                               p["detuning_n"])
            lm = phase.injection_lock_scan(basis, p["amp"], p["eps"], grid)
            phase.lockmap_to_csv(lm, os.path.join(out, "lock_scan.csv"))
            for eps in p["eps"]:
                summary.append(f"lock_boundary_eps_{_fmt(eps)}="
                               f"{_fmt(lm.boundaries[eps])}")

        if "noise" in cfg.sections:
            stage = "noise"
            p = cfg.sections["noise"]
            if p["kind"] == "isotropic":
                nm = stochastic.NoiseModel.isotropic(p["sigma"])
            else:
                nm = stochastic.NoiseModel.directional(p["sigma"],
                                                       p["direction"])
            ens = stochastic.simulate_sde_ensemble(
                basis, nm, p["n_paths"], p["t_end"], p["dt"], cfg.seed)
            stochastic.ensemble_to_csv(
                ens, os.path.join(out, "noise_ensemble.csv"))
            Dsum = stochastic.diffusion_summary(basis, nm)
            summary.append(f"diffusion_rate={_fmt(Dsum)}")
            if p["density"]:
                hw = p["density_halfwidth"]
                if hw <= 0:
                    hw = max(8.0 * np.sqrt(max(Dsum, 1e-30) * p["t_end"]),
                             1e-3)
                grid = np.linspace(-hw, hw, p["density_cells"])
                dens = stochastic.solve_fp(basis, nm, grid, p["t_end"],
                                           p["dt"])
                stochastic.density_to_csv(
                    dens, os.path.join(out, "density.csv"))

        if "isochron" in cfg.sections:
            stage = "isochron"
            p = cfg.sections["isochron"]
            rep = isochron.isochron_experiment(
                basis, p["t_star"], p["offsets"], p["horizon"])
            isochron.isochron_to_csv(rep, os.path.join(out, "isochron.csv"))
            summary.append(f"isochron_spread={_fmt(rep.isochron_spread)}")
            summary.append(f"control_spread={_fmt(rep.control_spread)}")
            summary.append(f"isochron_degenerate={int(rep.degenerate)}")

    except PlanarPPVError as exc:
        print(f"stage {stage!r} failed: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(out, "summary.txt"), "w", newline="") as fh:
        fh.write("\n".join(summary) + "\n")
    return 0 if all_pass else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="planar-ppv",
        description="Closed-form phase macromodels of planar oscillators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run configuration")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--outdir", default=None,
                       help="override the configured output directory")

    p_plot = sub.add_parser("plot", help="render a section CSV as SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--kind", required=True, choices=svgplot.PLOT_KINDS)
    p_plot.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, outdir=args.outdir)
    if args.command == "plot":
        try:
            svgplot.plot_svg(args.csv, args.kind, args.output)
        except (OSError, UnicodeDecodeError, PlanarPPVError) as exc:
            print(f"plot failed: {exc}", file=sys.stderr)
            return 1
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
