"""``tools/compare_outputs.py`` vouches that two trees write the same bytes;
its file comparison and its README example must not pass silently."""

import importlib.util
import os
from pathlib import Path

from planar_ppv.config import parse_config

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_example_is_a_valid_config():
    text = load_tool().readme_example()
    cfg = parse_config(text)
    assert cfg.make_model().name == "vanderpol"
    assert {"lock-scan", "noise", "isochron"} <= set(cfg.sections)


def test_differing_files_sees_bytes_and_missing_files(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "same.csv").write_bytes(b"t,x\n0,1\n")
    (a / "last_bit.csv").write_bytes(b"1.0000000000000002\n")
    (b / "last_bit.csv").write_bytes(b"1.0000000000000004\n")
    (a / "only_a.csv").write_bytes(b"")
    assert tool.differing_files(str(a), str(b)) == ["last_bit.csv",
                                                     "only_a.csv"]
    assert tool.differing_files(str(a), str(a)) == []


def test_differing_counters_names_each_counter():
    tool = load_tool()
    a = {"models.rhs_calls": 10, "ode.steps": 4}
    assert tool.differing_counters(a, dict(a)) == []
    assert tool.differing_counters(a, {"models.rhs_calls": 11}) == [
        "models.rhs_calls 10/11", "ode.steps 4/0"]
    assert tool.differing_counters(None, None) == []
    assert tool.differing_counters(a, None) == ["counters missing"]


def test_csv_column_differences_per_column(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("eps,locked,shift,t\n0.01,True,1e-3,0\n0.02,False,2e-3,1\n")
    b.write_text("eps,locked,shift,t\n0.01,False,1.5e-3,0\n0.02,False,1e-3,1\n")
    # rows 1e-3 / 1.5e-3 and 2e-3 / 1e-3: relative 1/3 and 1/2
    assert tool.csv_column_differences(str(a), str(b)) == [
        "locked differs", "shift max|d| 0.001 rel 0.5"]
    assert tool.csv_column_differences(str(a), str(a)) == []
    b.write_text("eps,locked,shift,t\n0.01,True,1e-3,0\n")
    assert tool.csv_column_differences(str(a), str(b)) is None
    b.write_text("eps,locked,shift\n0.01,True,1e-3\n0.02,False,2e-3\n")
    assert tool.csv_column_differences(str(a), str(b)) is None
    b.write_text("")
    assert tool.csv_column_differences(str(a), str(b)) is None


def test_a_run_that_hangs_is_a_timeout_and_differs(tmp_path, monkeypatch,
                                                   capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "RUN_TIMEOUT_S", 0.5)
    package = tmp_path / "hangs" / "src" / "planar_ppv"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("import time\ntime.sleep(600)\n")
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "run.cfg"
    config.write_text(tool.readme_example())
    tree = str(tmp_path / "hangs")
    assert tool.run_tree(tree, str(config), str(out)) == ("timeout", None)
    work = tmp_path / "work"
    work.mkdir()
    assert not tool.compare(tree, tree, [("hangs", config.read_text())],
                            str(work))
    assert "DIFFERS: timeout" in capsys.readouterr().out


def test_summary_differences_per_key(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("model=vanderpol\nT=6.6\nmax_defect=1.0e-09 pass\n"
                 "isochron_degenerate=0\nmu2=-1.06\n")
    b.write_text("model=vanderpol\nT=6.5\nmax_defect=2.0e-03 fail\n"
                 "isochron_degenerate=1\ndiffusion_rate=0.002\n")
    assert tool.summary_differences(str(a), str(b)) == [
        "T max|d| 0.1 rel 0.0152", "max_defect 1.0e-09 pass -> 2.0e-03 fail",
        "isochron_degenerate max|d| 1 rel 1", "mu2 -1.06 -> (none)",
        "diffusion_rate (none) -> 0.002"]
    assert tool.summary_differences(str(a), str(a)) == []


def test_relative_difference_reads_a_last_bit_move_as_one(tmp_path):
    # a move in the last bit reads about 1e-16 relative at any size, so it
    # stands apart from a real move however large the values are
    tool = load_tool()
    big, big_next = "1.0715086071862673e+301", "1.0715086071862676e+301"
    assert tool.numeric_difference([(big, big_next)]) == (
        "max|d| 2.38e+285 rel 2.22e-16")  # 2 ** 1000 and the next double
    assert tool.numeric_difference([("0.25", "0.5"), ("0", "0.0")]) == (
        "max|d| 0.25 rel 0.5")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(f"v1x,T\n3.0,{big}\n")
    b.write_text(f"v1x,T\n3.0000000000000004,{big_next}\n")
    assert tool.csv_column_differences(str(a), str(b)) == [
        "v1x max|d| 4.44e-16 rel 1.48e-16", "T max|d| 2.38e+285 rel 2.22e-16"]


def test_compare_prints_the_summary_keys_that_differ(tmp_path, monkeypatch,
                                                     capsys):
    # a changed summary.txt is reported key by key under its config's line
    tool = load_tool()

    def fake_run(tree, config_path, outdir):
        with open(os.path.join(outdir, "summary.txt"), "w") as fh:
            fh.write(f"T=6.6\nmax_defect=1e-09 {tree}\n")
        return 0, {}

    monkeypatch.setattr(tool, "run_tree", fake_run)
    work = tmp_path / "work"
    work.mkdir()
    assert not tool.compare("pass", "fail", [("case", "")], str(work))
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("DIFFERS: summary.txt")
    assert out[1] == "    summary.txt: max_defect 1e-09 pass -> 1e-09 fail"
