"""Run the benchmark configs and the README example through two source trees
and compare what they write, byte for byte, and what they count.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 9 11

Each tree is a checkout with ``src/planar_ppv``.  Every config that
``perfbench/workloads.py`` generates for each workload and seed, plus the
``[model]`` example config in ``README.md``, runs once per tree through
``perfbench/trace_child.py CONFIG OUTDIR SPANS_JSON`` with ``PYTHONPATH``
set to that tree's ``src``: ``cli.run`` traced, so the run also records
the benchmark's counters (RHS and Jacobian calls, integrations, steps).
The configs and the tracer come from this checkout's ``perfbench/`` and
``README.md``, so both trees run the same inputs under the same
counters.  A run that takes longer than ``RUN_TIMEOUT_S`` is killed and
reported as ``timeout``, which counts as a difference.  One line is
printed per config with its exit codes, the files that differ and the
counters whose totals differ, then one line per differing CSV whose
header and row count agree: the largest absolute and the largest
relative difference (|a - b| / max(|a|, |b|)) of each numeric column that
differs, and the name of each other column that does.  A differing
``summary.txt`` gets one line listing each key whose value differs:
``max|d| ... rel ...`` for a number, ``old -> new`` for anything else
(a verification verdict, a key in one file only), so verdicts and flags
that held can be read off the output.  The exit status is 0 when every
exit code, output file and counter total agrees, 1 otherwise.
"""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from workloads import WORKLOADS, make_configs  # noqa: E402

RUN_TIMEOUT_S = 600  # per traced run; the benchmark configs take seconds
TIMEOUT = "timeout"


def readme_example():
    """The INI example config of ``README.md``."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        match = re.search(r"```ini\n(.*?)```", fh.read(), re.S)
    if match is None:
        raise SystemExit("README.md has no ```ini example block")
    return match.group(1)


def run_tree(tree, config_path, outdir):
    """Exit code and counter totals of one traced run of ``tree`` on
    ``config_path``; the totals are None if the run wrote none.  A run
    killed after ``RUN_TIMEOUT_S`` has the exit code ``TIMEOUT``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    spans_path = outdir + ".json"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "trace_child.py"),
             config_path, outdir, spans_path], cwd=os.path.dirname(outdir),
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return TIMEOUT, None
    try:
        with open(spans_path) as fh:
            totals = json.load(fh)["totals"]
    except FileNotFoundError:
        totals = None
    return proc.returncode, totals


def differing_counters(totals_a, totals_b):
    """``name a/b`` for each counter whose totals differ, or whose run
    wrote no totals."""
    if totals_a is None or totals_b is None:
        return [] if totals_a == totals_b else ["counters missing"]
    return [f"{name} {totals_a.get(name, 0)}/{totals_b.get(name, 0)}"
            for name in sorted(set(totals_a) | set(totals_b))
            if totals_a.get(name, 0) != totals_b.get(name, 0)]


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


def csv_column_differences(path_a, path_b):
    """``name max|d| X rel Y`` for each numeric column of two CSVs that
    differs, and ``name differs`` for each other column that does; None
    unless the files have the same header, row count and row widths."""
    tables = []
    for path in (path_a, path_b):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    if not all(tables):
        return None
    (header, *rows_a), (header_b, *rows_b) = tables
    if (header != header_b or len(rows_a) != len(rows_b)
            or any(len(r) != len(header) for r in rows_a + rows_b)):
        return None
    out = []
    for j, name in enumerate(header):
        pairs = [(a[j], b[j]) for a, b in zip(rows_a, rows_b) if a[j] != b[j]]
        if not pairs:
            continue
        try:
            out.append(f"{name} {numeric_difference(pairs)}")
        except ValueError:
            out.append(f"{name} differs")
    return out


def numeric_difference(pairs):
    """``max|d| X rel Y`` over (a, b) pairs of number strings: the largest
    |a - b|, and the largest |a - b| / max(|a|, |b|), which reads about
    1e-16 for a move in the last bits whatever the value's size."""
    nums = [(float(a), float(b)) for a, b in pairs]
    d = max(abs(a - b) for a, b in nums)
    rel = max((abs(a - b) / max(abs(a), abs(b)) for a, b in nums if a != b),
              default=0.0)
    return f"max|d| {d:.3g} rel {rel:.3g}"


def summary_differences(path_a, path_b):
    """``key max|d| X rel Y`` for each key of two ``key=value`` summaries whose
    numeric values differ, and ``key A -> B`` for each other key whose
    value does; a key missing from one file reads ``(none)`` there."""
    summaries = []
    for path in (path_a, path_b):
        with open(path) as fh:
            summaries.append(dict(line.rstrip("\n").partition("=")[::2]
                                  for line in fh if "=" in line))
    a, b = summaries
    out = []
    for key in [*a, *(k for k in b if k not in a)]:
        old, new = a.get(key), b.get(key)
        if old == new:
            continue
        try:
            out.append(f"{key} {numeric_difference([(old, new)])}")
        except (TypeError, ValueError):
            old, new = ("(none)" if v is None else v for v in (old, new))
            out.append(f"{key} {old} -> {new}")
    return out


def compare(parent, change, cases, workdir):
    """Run every ``(label, text)`` case on both trees; True if all agree."""
    all_same = True
    for i, (label, text) in enumerate(cases):
        case_dir = os.path.join(workdir, f"case{i}")
        os.makedirs(case_dir)
        config_path = os.path.join(case_dir, "run.cfg")
        with open(config_path, "w") as fh:
            fh.write(text)
        codes, outs, totals = [], [], []
        for side, tree in (("parent", parent), ("change", change)):
            out = os.path.join(case_dir, side)
            os.makedirs(out)
            code, counts = run_tree(tree, config_path, out)
            codes.append(code)
            outs.append(out)
            totals.append(counts)
        differ = (([TIMEOUT] if TIMEOUT in codes else [])
                  + differing_files(*outs) + differing_counters(*totals))
        same = codes[0] == codes[1] and not differ
        all_same = all_same and same
        n_files = len(os.listdir(outs[0]))
        verdict = ("identical" if same else
                   "DIFFERS: " + (", ".join(differ) or "exit code"))
        print(f"{label:<28} exit {codes[0]}/{codes[1]}  "
              f"{n_files} files  {verdict}", flush=True)
        for name in differ:
            paths = [os.path.join(out, name) for out in outs]
            if not all(map(os.path.exists, paths)):
                continue
            if name.endswith(".csv"):
                columns = csv_column_differences(*paths)
            elif name == "summary.txt":
                columns = summary_differences(*paths)
            else:
                continue
            if columns:
                print(f"    {name}: {', '.join(columns)}", flush=True)
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
    print("all outputs, exit codes and counters identical" if same else
          "outputs, exit codes or counters differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
