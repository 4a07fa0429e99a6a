import numpy as np

from planar_ppv import cli

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


def test_coarse_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SL_MINIMAL + "\n[basis]\ngrid = 8\n")
    assert cli.run(str(cfg), outdir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "line 14" in err and "grid" in err


def test_missing_config_exits_2(tmp_path):
    assert cli.run(str(tmp_path / "nope.cfg"), outdir=str(tmp_path)) == 2


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


def test_plot_unknown_kind_rejected(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        cli.main(["plot", "whatever.csv", "--kind", "pie", "-o", "x.svg"])
