"""What a fresh interpreter pays before any numerics: import, parse, build.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG...
"""

import sys

from planar_ppv.config import load_config

if __name__ == "__main__":
    for path in sys.argv[1:]:
        load_config(path).make_model()
