"""Run the benchmark configs and the README example through two source trees
and compare what they write, byte for byte.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 9 11

Each tree is a checkout with ``src/planar_ppv``.  Every config that
``perfbench/workloads.py`` generates for each workload and seed, plus the
``[model]`` example config in ``README.md``, runs once per tree as
``python -m planar_ppv.cli run CONFIG -o OUTDIR`` with ``PYTHONPATH`` set to
that tree's ``src``.  The configs come from this checkout's ``perfbench/``
and ``README.md``, so both trees run the same inputs.  One line is printed
per config with its exit codes and the files that differ; the exit status
is 0 when every exit code and every output file agree, 1 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, make_configs  # noqa: E402


def readme_example():
    """The INI example config of ``README.md``."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        match = re.search(r"```ini\n(.*?)```", fh.read(), re.S)
    if match is None:
        raise SystemExit("README.md has no ```ini example block")
    return match.group(1)


def run_tree(tree, config_path, outdir):
    """Exit code of one CLI run of ``tree`` on ``config_path``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "planar_ppv.cli", "run", config_path,
         "-o", outdir], cwd=os.path.dirname(outdir), env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode


def differing_files(dir_a, dir_b):
    """Names of the files present in only one directory or not equal."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    differ = sorted(names_a ^ names_b)
    for name in sorted(names_a & names_b):
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                differ.append(name)
    return sorted(differ)


def compare(parent, change, cases, workdir):
    """Run every ``(label, text)`` case on both trees; True if all agree."""
    all_same = True
    for i, (label, text) in enumerate(cases):
        case_dir = os.path.join(workdir, f"case{i}")
        os.makedirs(case_dir)
        config_path = os.path.join(case_dir, "run.cfg")
        with open(config_path, "w") as fh:
            fh.write(text)
        codes, outs = [], []
        for side, tree in (("parent", parent), ("change", change)):
            out = os.path.join(case_dir, side)
            os.makedirs(out)
            codes.append(run_tree(tree, config_path, out))
            outs.append(out)
        differ = differing_files(*outs)
        same = codes[0] == codes[1] and not differ
        all_same = all_same and same
        n_files = len(os.listdir(outs[0]))
        verdict = ("identical" if same else
                   "DIFFERS: " + (", ".join(differ) or "exit code"))
        print(f"{label:<28} exit {codes[0]}/{codes[1]}  "
              f"{n_files} files  {verdict}", flush=True)
    return all_same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)

    cases = [(f"{workload} seed {seed} {cfg['name']}", cfg["text"])
             for workload in sorted(WORKLOADS) for seed in args.seeds
             for cfg in make_configs(workload, seed)]
    cases.append(("README example", readme_example()))
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as workdir:
        same = compare(args.parent_tree, args.change_tree, cases, workdir)
    print("all outputs and exit codes identical" if same else
          "outputs or exit codes differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
