"""``tools/compare_outputs.py`` vouches that two trees write the same bytes;
its file comparison and its README example must not pass silently."""

import importlib.util
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
    assert tool.csv_column_differences(str(a), str(b)) == [
        "locked differs", "shift max|d| 0.001"]
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
    monkeypatch.setattr(tool, "RUN_TIMEOUT_S", 2)
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
