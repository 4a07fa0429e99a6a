import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planar_ppv import cli, stochastic

SL_MINIMAL = """
[model]
name = stuart_landau
omega = 1.0

[cycle]
guess = 1.0 0.0
settle_time = 0.0

[verify]
tol = 1e-6
"""

VDP_FULL = """
[model]
name = vanderpol
mu = 1.0

[cycle]
guess = 2.0 0.0

[basis]
grid = 512

[output]
seed = 7

[verify]
tol = 1e-5

[ppv-fourier]
harmonics = 8

[noise]
kind = isotropic
sigma = 0.05
n_paths = 64
t_end = 30.0
dt = 0.02
density = true
density_cells = 161

[isochron]
t_star = 1.0
offsets = -0.05 0.05
horizon = 19.0
"""


BRUSSELATOR_DIRECTIONAL = """
[model]
name = brusselator
a = 1.0
b = 3.2

[noise]
kind = directional
direction = 1.0 0.0
sigma = 0.05
n_paths = 16
t_end = 20.0
dt = 0.02
"""


def read_summary(outdir):
    text = (outdir / "summary.txt").read_text()
    kv = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        kv[key] = value
    return kv


def test_minimal_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL)
    out = tmp_path / "out"
    assert cli.run(str(cfg), outdir=str(out)) == 0
    for name in ("cycle.csv", "basis.csv", "verify.csv", "summary.txt"):
        assert (out / name).exists()
    kv = read_summary(out)
    assert kv["model"] == "stuart_landau"
    assert float(kv["T"]) == np.pi * 2 or abs(float(kv["T"]) - 2 * np.pi) < 1e-8
    assert abs(float(kv["mu2"]) - (-2.0)) < 1e-6
    assert all(ln.endswith(" pass") for ln in kv.values()
               if isinstance(ln, str) and ln.endswith(("pass", "fail")))


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL.replace("settle_time", "setle_time"))
    assert cli.run(str(cfg), outdir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "setle_time" in err


def test_unknown_model_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL.replace("stuart_landau", "no_such_model"))
    assert cli.run(str(cfg), outdir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "no_such_model" in err


def test_coarse_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL + "\n[basis]\ngrid = 8\n")
    assert cli.run(str(cfg), outdir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "line 14" in err and "grid" in err


@pytest.mark.parametrize("extra,key", [
    ("\n[basis]\ngrid = 32\n\n[ppv-fourier]\n", "grid"),
    ("\n[noise]\ndirection = 0 0\nkind = directional\nsigma = 0.05\n"
     "n_paths = 16\nt_end = 10.0\ndt = 0.02\n", "direction"),
])
def test_unrunnable_config_exits_2_before_any_stage(tmp_path, capsys, extra,
                                                    key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL + extra)
    out = tmp_path / "out"
    assert cli.run(str(cfg), outdir=str(out)) == 2
    err = capsys.readouterr().err
    assert "line 14" in err and key in err
    assert not (out / "cycle.csv").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.run(str(tmp_path / "nope.cfg"), outdir=str(tmp_path)) == 2
    # an unreadable path, here a directory, is a configuration error too
    assert cli.run(str(tmp_path), outdir=str(tmp_path)) == 2
    assert len(capsys.readouterr().err.splitlines()) == 2


def test_output_dir_naming_a_file_exits_2(tmp_path, capsys):
    # an output directory that names an existing file is a configuration
    # error: one stderr line and exit 2, from the config and from -o
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL + f"\n[output]\ndir = {afile}\n")
    assert cli.run(str(cfg)) == 2
    assert cli.main(["run", str(cfg), "-o", str(afile)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("cannot create output directory")
               for line in err)
    assert afile.read_text() == ""


def test_non_finite_guess_fails_the_cycle_stage(tmp_path):
    # vdp's field at (1e200, 0) is (0, NaN); the run used to hang, so it
    # runs in a child with a time limit
    cfg = tmp_path / "run.cfg"
    cfg.write_text(VDP_FULL.replace("guess = 2.0 0.0", "guess = 1e200 0.0"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "planar_ppv.cli", "run", str(cfg), "-o",
         str(tmp_path / "out")], env=env, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 1
    assert "stage 'limit-cycle' failed" in proc.stderr
    assert "not finite" in proc.stderr
    # the overflow is reported once, by the stage error, not by NumPy
    assert proc.stderr == ("stage 'limit-cycle' failed: right-hand side is "
                           "not finite at t=0\n")


def test_readme_example_runs(tmp_path):
    # the README's INI example end to end: every stage, every output, and
    # the row counts of the fixed sample counts (cycle 512, ensemble 201
    # times, density 101 times x 321 cells)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    match = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S)
    assert match is not None
    cfg = tmp_path / "example.cfg"
    cfg.write_text(match.group(1))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "-o", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "basis.csv", "cycle.csv", "density.csv", "isochron.csv",
        "lock_scan.csv", "noise_ensemble.csv", "ppv_fourier.csv",
        "summary.txt", "verify.csv"]
    lines = {name: len((out / name).read_text().splitlines())
             for name in ("cycle.csv", "noise_ensemble.csv", "density.csv")}
    assert lines == {"cycle.csv": 513, "noise_ensemble.csv": 202,
                     "density.csv": 1 + 101 * 321}


def test_full_pipeline(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(VDP_FULL)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "-o", str(out)]) == 0
    for name in ("cycle.csv", "basis.csv", "verify.csv", "ppv_fourier.csv",
                 "noise_ensemble.csv", "density.csv", "isochron.csv",
                 "summary.txt"):
        assert (out / name).exists()
    kv = read_summary(out)
    assert abs(float(kv["T"]) - 6.6632868593) < 1e-6
    assert float(kv["orthogonality_defect"]) > 0.1
    assert float(kv["diffusion_rate"]) > 0
    assert float(kv["isochron_spread"]) < float(kv["control_spread"])
    assert kv["isochron_degenerate"] == "0"


def test_fp_step_capped_below_config_dt(tmp_path, monkeypatch):
    # the automatic density grid makes the stable FP step (~0.0042) smaller
    # than the config dt; the solver cuts its step to 20 / 4793 instead of
    # failing, and the last snapshot lands on t_end
    fields = []
    solve_fp = stochastic.solve_fp

    def recording(*args, **kwargs):
        fields.append(solve_fp(*args, **kwargs))
        return fields[-1]

    monkeypatch.setattr(stochastic, "solve_fp", recording)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BRUSSELATOR_DIRECTIONAL)
    out = tmp_path / "out"
    assert cli.run(str(cfg), outdir=str(out)) == 0
    assert (out / "density.csv").exists()
    (dens,) = fields
    assert dens.n_steps == 4793
    assert dens.ts[-1] == pytest.approx(20.0, rel=1e-15)
    last = (out / "density.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == dens.ts[-1]


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="the draws run in-process only")
def test_noise_run_leaves_no_child_process(tmp_path, monkeypatch,
                                           forked_pids):
    # the noise stage draws its Wiener increments in a forked child, and
    # the run has reaped it by the time it returns
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL + """
[noise]
kind = isotropic
sigma = 0.05
n_paths = 300
t_end = 10.0
dt = 0.02
""")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "-o", str(out)]) == 0
    assert len(forked_pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (out / "noise_ensemble.csv").exists()


def test_implicit_dependencies_still_recorded(tmp_path):
    # only an isochron section: cycle/basis/verify must still run
    text = """
[model]
name = stuart_landau

[cycle]
guess = 1.0 0.0
settle_time = 0.0

[isochron]
t_star = 0.0
offsets = -0.05 0.05
horizon = 30.0
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.run(str(cfg), outdir=str(out)) == 0
    kv = read_summary(out)
    assert "T" in kv and "mu2" in kv
    assert (out / "verify.csv").exists()
    assert kv["isochron_degenerate"] == "1"


def test_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(str(cfg), outdir=str(out1)) == 0
    assert cli.run(str(cfg), outdir=str(out2)) == 0
    for name in ("cycle.csv", "basis.csv", "verify.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_plot_cycle_svg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL)
    out = tmp_path / "out"
    assert cli.run(str(cfg), outdir=str(out)) == 0
    svg = tmp_path / "cycle.svg"
    assert cli.main(["plot", str(out / "cycle.csv"), "--kind", "cycle",
                     "-o", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert "<polygon points=" in text
    assert text.rstrip().endswith("</svg>")
    # determinism: plotting again yields identical bytes
    svg2 = tmp_path / "cycle2.svg"
    cli.main(["plot", str(out / "cycle.csv"), "--kind", "cycle",
              "-o", str(svg2)])
    assert svg.read_bytes() == svg2.read_bytes()


def test_plot_isochron_svg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(VDP_FULL)
    out = tmp_path / "out"
    assert cli.run(str(cfg), outdir=str(out)) == 0
    svg = tmp_path / "iso.svg"
    assert cli.main(["plot", str(out / "isochron.csv"), "--kind", "isochron",
                     "-o", str(svg)]) == 0
    text = svg.read_text()
    assert 'class="isochron"' in text
    assert 'class="control"' in text


def _plot_failure(capsys, csv_path, kind, svg):
    """Exit status and stderr lines of a plot that must fail."""
    status = cli.main(["plot", str(csv_path), "--kind", kind,
                       "-o", str(svg)])
    return status, capsys.readouterr().err.splitlines()


def test_plot_missing_csv_fails_in_one_line(tmp_path, capsys):
    status, err = _plot_failure(capsys, tmp_path / "none.csv", "cycle",
                                tmp_path / "x.svg")
    assert status == 1
    assert len(err) == 1 and err[0].startswith("plot failed: ")
    assert "none.csv" in err[0]
    assert not (tmp_path / "x.svg").exists()


def test_plot_csv_of_another_kind_names_the_column(tmp_path, capsys):
    csv_path = tmp_path / "cycle.csv"
    csv_path.write_text("t,x,y\n0,1,0\n1,0,1\n")
    status, err = _plot_failure(capsys, csv_path, "basis",
                                tmp_path / "x.svg")
    assert status == 1
    assert err == [f"plot failed: {csv_path} has no column 'v1x' "
                   "for a basis plot"]
    assert not (tmp_path / "x.svg").exists()


def test_plot_unwritable_output_fails_in_one_line(tmp_path, capsys):
    csv_path = tmp_path / "cycle.csv"
    csv_path.write_text("t,x,y\n0,1,0\n1,0,1\n")
    # a directory cannot be opened for writing, even by root
    status, err = _plot_failure(capsys, csv_path, "cycle", tmp_path)
    assert status == 1
    assert len(err) == 1 and err[0].startswith("plot failed: ")
    assert str(tmp_path) in err[0]


def test_plot_unknown_kind_rejected(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        cli.main(["plot", "whatever.csv", "--kind", "pie", "-o", "x.svg"])
