"""What a fresh interpreter loads, and with how many threads.

The command-line entry point imports numpy only: SciPy is a test
dependency, not a runtime one, and the noise stage forks its drawing
process with ``os.fork`` instead of ``multiprocessing`` or
``concurrent.futures``, which would add import time and helper threads.

``import planar_ppv`` loads no submodule and no NumPy; its exported names
and its submodules import on first use.  So ``planar_ppv.cli`` is the
first module of ``planar-ppv run`` to load NumPy, and it first defaults
the BLAS thread-count variables to ``1``: the pipeline's BLAS operands
have 2 to 16 elements, and an idle OpenBLAS worker only spins.  A value
the caller set is kept, a process that loaded NumPy first keeps its
environment, and the outputs do not depend on the thread count.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planar_ppv import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _env(**overrides):
    """This environment without the BLAS thread variables, plus overrides."""
    env = {k: v for k, v in os.environ.items()
           if k not in cli._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env


def _fresh(code, **env):
    """stdout of ``code`` run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], env=_env(**env),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _fresh_cli_modules(*packages):
    """Modules of ``packages`` that a fresh ``import planar_ppv.cli`` loads."""
    return _fresh("import sys, planar_ppv.cli; print(sorted(m for m in "
                  f"sys.modules if m.split('.')[0] in {packages!r}))")


def test_cli_import_loads_no_scipy():
    assert _fresh_cli_modules("scipy") == "[]"


def test_cli_import_loads_no_process_pools():
    assert _fresh_cli_modules("multiprocessing", "concurrent") == "[]"


def test_package_import_loads_no_numpy_and_no_submodule():
    assert _fresh("import sys, planar_ppv; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'numpy' "
                  "or m.startswith('planar_ppv.')))") == "[]"


def test_package_names_resolve_on_first_use():
    code = """
import planar_ppv
print(planar_ppv.find_cycle.__module__, planar_ppv.models.__name__)
print(set(planar_ppv.__all__) <= set(dir(planar_ppv)))
try:
    planar_ppv.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh(code).splitlines() == [
        "planar_ppv.cycle planar_ppv.models", "True",
        "module 'planar_ppv' has no attribute 'no_such_name'"]


_SL_RUN = """[model]
name = stuart_landau

[cycle]
guess = 1.0 0.0
settle_time = 0.0

[verify]
tol = 1e-6
"""


def _stage_modules_after_run(tmp_path, config):
    """The stage modules a fresh ``planar_ppv.cli main run`` has loaded."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code = ("import sys\nfrom planar_ppv import cli\n"
            f"assert cli.main(['run', {str(cfg)!r}, '-o', "
            f"{str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(m for m in ('phase', 'stochastic', 'isochron', "
            "'svgplot') if 'planar_ppv.' + m in sys.modules))")
    return _fresh(code)


def test_run_loads_only_the_stage_modules_its_config_uses(tmp_path):
    # each stage module is imported where its stage runs, so a
    # cycle-basis-verify run compiles none of them
    assert _stage_modules_after_run(tmp_path, _SL_RUN) == "[]"
    lock_scan = ("\n[lock-scan]\namp = 1.0 0.0\neps = 0.01\n"
                 "detuning_min = -0.004\ndetuning_max = 0.004\n"
                 "detuning_n = 3\n")
    assert (_stage_modules_after_run(tmp_path, _SL_RUN + lock_scan)
            == "['phase']")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or (os.cpu_count() or 1) < 2,
                    reason="needs /proc and two CPUs for a BLAS thread")
def test_cli_import_starts_no_blas_thread():
    assert _fresh("import os, planar_ppv.cli; "
                  "print(len(os.listdir('/proc/self/task')))") == "1"


def test_cli_import_keeps_the_callers_blas_threads():
    code = ("import os, planar_ppv.cli; print(' '.join("
            "os.environ[v] for v in planar_ppv.cli._BLAS_THREAD_VARS))")
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == "2 1 1 1"


def test_cli_import_after_numpy_leaves_the_environment(monkeypatch):
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert "numpy" in sys.modules
    # run the module's body again, without replacing the imported module
    spec = importlib.util.find_spec("planar_ppv.cli")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert dict(os.environ) == before


def test_lockscan_outputs_do_not_depend_on_blas_threads(monkeypatch,
                                                        tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import make_configs

    (config,) = make_configs("lockscan", 1)
    cfg = tmp_path / "lockscan.cfg"
    cfg.write_text(config["text"])
    outputs = []
    for name, env in (("default", {}),
                      ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "planar_ppv.cli", "run",
                        str(cfg), "-o", str(out)], env=_env(**env),
                       capture_output=True, check=True)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert "lock_scan.csv" in outputs[0]
    assert outputs[0] == outputs[1]
