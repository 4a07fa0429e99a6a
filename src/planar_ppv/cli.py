"""Batch front-end: config -> cycle -> basis -> experiments -> CSV/SVG.

Exit codes: 0 all verifications passed, 1 numerical failure (stage is
named on stderr), 2 configuration error or an output that cannot be
written.

BLAS threads: every BLAS call of the pipeline is on 2- to 16-element
operands, where a second thread never works but OpenBLAS's idle worker
still busy-waits for about 0.1 s of CPU per process.  So when this module
is what loads NumPy (``planar-ppv run``, ``python -m planar_ppv.cli``:
``import planar_ppv`` itself loads no NumPy), it first defaults each
variable of ``_BLAS_THREAD_VARS`` to ``1``.  A value the caller set is
kept, and a process that loaded NumPy earlier keeps its environment.

Each stage module past the basis (``phase``, ``stochastic``,
``isochron``, and ``svgplot`` for ``plot``) is imported where its stage
runs, so a process compiles only the code its config uses.
"""

import argparse
import os
import sys

# OpenBLAS (NumPy's wheels), MKL, BLIS and Accelerate builds
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if "numpy" not in sys.modules:
    for _var in _BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

import numpy as np  # only after the BLAS thread defaults

from . import adjoint, diliberto
from .config import load_config
from .cycle import cycle_to_csv, find_cycle
from .errors import ConfigError, PlanarPPVError

__all__ = ["main", "run"]


def _fmt(x):
    return f"{x:.17g}"


class _OutputError(Exception):
    """An output file could not be written; ``run`` reports it, exit 2."""


def _verify_to_csv(report, path):
    with open(path, "w", newline="") as fh:
        fh.write("metric,value,status\n")
        for name, value, ok in report.items():
            fh.write(f"{name},{_fmt(value)},{'pass' if ok else 'fail'}\n")


def _summary_to_txt(lines, path):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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

    def save(write, obj, name):
        path = os.path.join(out, name)
        try:
            write(obj, path)
        except OSError as exc:
            raise _OutputError(f"cannot write output {path}: {exc}") from None

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
        save(cycle_to_csv, cyc, "cycle.csv")
        summary.append(f"T={_fmt(cyc.T)}")
        summary.append(f"anchor_x={_fmt(cyc.anchor[0])}")
        summary.append(f"anchor_y={_fmt(cyc.anchor[1])}")

        stage = "diliberto-basis"
        basis = diliberto.DilibertoBasis(cyc, n=cfg.grid)
        save(diliberto.basis_to_csv, basis, "basis.csv")
        summary.append(f"mu2={_fmt(basis.mu2)}")
        defect = diliberto.orthogonality_defect(basis)
        summary.append(f"orthogonality_defect={_fmt(defect)}")

        stage = "verify"
        tol = cfg.sections["verify"]["tol"]
        report = adjoint.verify_basis(basis, tol)
        save(_verify_to_csv, report, "verify.csv")
        summary.extend(report.to_kv_lines())
        all_pass = report.passed

        if "ppv-fourier" in cfg.sections:
            stage = "ppv-fourier"
            from . import phase
            K = cfg.sections["ppv-fourier"]["harmonics"]
            spec = phase.ppv_fourier(basis, K)
            save(phase.spectrum_to_csv, spec, "ppv_fourier.csv")

        if "lock-scan" in cfg.sections:
            stage = "lock-scan"
            from . import phase
            p = cfg.sections["lock-scan"]
            grid = np.linspace(p["detuning_min"], p["detuning_max"],
                               p["detuning_n"])
            lm = phase.injection_lock_scan(basis, p["amp"], p["eps"], grid)
            save(phase.lockmap_to_csv, lm, "lock_scan.csv")
            for eps in p["eps"]:
                key = repr(float(eps))  # 0.005, where _fmt writes 17 digits
                summary.append(f"lock_boundary_eps_{key}="
                               f"{_fmt(lm.boundaries[eps])}")
                summary.append(f"lock_boundary_beyond_grid_eps_{key}="
                               f"{int(lm.beyond_grid[eps])}")

        if "noise" in cfg.sections:
            stage = "noise"
            from . import stochastic
            p = cfg.sections["noise"]
            if p["kind"] == "isotropic":
                nm = stochastic.NoiseModel.isotropic(p["sigma"])
            else:
                nm = stochastic.NoiseModel.directional(p["sigma"],
                                                       p["direction"])
            Dsum = stochastic.diffusion_summary(basis, nm)
            fp = None
            if p["density"]:
                hw = p["density_halfwidth"]
                if hw <= 0:
                    hw = max(8.0 * np.sqrt(max(Dsum, 1e-30) * p["t_end"]),
                             1e-3)
                grid = np.linspace(-hw, hw, p["density_cells"])
                # the density needs no ensemble: its blocks fill the
                # waits for a forked drawer's chunks, the rest runs after
                # the ensemble, and a failure is raised only after it
                fp = stochastic._Background(stochastic._fp_blocks(
                    basis, nm, grid, p["t_end"], p["dt"]))
            ens = stochastic.simulate_sde_ensemble(
                basis, nm, p["n_paths"], p["t_end"], p["dt"], cfg.seed,
                job=fp)
            save(stochastic.ensemble_to_csv, ens, "noise_ensemble.csv")
            summary.append(f"diffusion_rate={_fmt(Dsum)}")
            if fp is not None:
                save(stochastic.density_to_csv, fp.result(), "density.csv")

        if "isochron" in cfg.sections:
            stage = "isochron"
            from . import isochron
            p = cfg.sections["isochron"]
            rep = isochron.isochron_experiment(
                basis, p["t_star"], p["offsets"], p["horizon"])
            save(isochron.isochron_to_csv, rep, "isochron.csv")
            summary.append(f"isochron_spread={_fmt(rep.isochron_spread)}")
            summary.append(f"control_spread={_fmt(rep.control_spread)}")
            summary.append(f"isochron_degenerate={int(rep.degenerate)}")

        save(_summary_to_txt, summary, "summary.txt")
    except PlanarPPVError as exc:
        print(f"stage {stage!r} failed: {exc}", file=sys.stderr)
        return 1
    except _OutputError as exc:
        print(exc, file=sys.stderr)
        return 2
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
    p_plot.add_argument("--kind", required=True,
                        help="cycle, basis, lock, density or isochron")
    p_plot.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, outdir=args.outdir)
    if args.command == "plot":
        from . import svgplot
        if args.kind not in svgplot.PLOT_KINDS:
            p_plot.error(f"argument --kind: invalid choice: {args.kind!r} "
                         f"(choose from {', '.join(svgplot.PLOT_KINDS)})")
        try:
            svgplot.plot_svg(args.csv, args.kind, args.output)
        except (OSError, UnicodeDecodeError, PlanarPPVError) as exc:
            print(f"plot failed: {exc}", file=sys.stderr)
            return 1
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
