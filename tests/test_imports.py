"""The command-line entry point imports numpy only: SciPy is a test
dependency, not a runtime one, and the noise stage forks its drawing
process with ``os.fork`` instead of ``multiprocessing`` or
``concurrent.futures``, which would add import time and helper
threads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_cli_modules(*packages):
    """Modules of ``packages`` that a fresh ``import planar_ppv.cli`` loads."""
    code = ("import sys, planar_ppv.cli; print(sorted(m for m in sys.modules"
            f" if m.split('.')[0] in {packages!r}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _fresh_cli_modules("scipy") == "[]"


def test_cli_import_loads_no_process_pools():
    assert _fresh_cli_modules("multiprocessing", "concurrent") == "[]"
