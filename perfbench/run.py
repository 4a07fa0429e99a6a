"""planar-ppv benchmark: each workload through the unmodified CLI.

    python3 perfbench/run.py --workload noise --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it needs no installed package.
The seed generates the workload's configs (see ``workloads.py``).  A
*pass* runs every config once, each in a fresh
``python -m planar_ppv.cli run`` process with ``PYTHONPATH=src``, one
after another from this process: a closed loop with one client.  Passes
repeat until ``--seconds`` have elapsed, with a minimum count, and the
timings are medians over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, where ``trace_child.py`` wraps the
pipeline's public names in spans and counters and calls ``cli.run`` in
its own process, and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.

Every config goes through the gates in ``checks.py``; every pass must
write byte-identical CSVs, and every traced pass the same counts.  The
last stdout line is the JSON result; a fuller record, with a run
manifest, per-pass data and the CSV digests, goes to
``.perfbench-runs/<workload>-seed<n>-trace<t>.json``.  Exit status 1
(no result) means the benchmark itself could not run.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from checks import adler_mismatch, check_config, csv_digests, read_summary
from workloads import WORKLOADS, make_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench-runs")

MIN_UNTRACED_PASSES = 2
MIN_TRACED_PASSES = 2     # two, so their counts can be compared
SETUP_FIRST = 2           # probes before the first pass
CHILD_TIMEOUT_S = 120
LAST_PASS_START_S = 100   # no optional pass starts later; keeps runs < 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")

TRACED_SPANS = ("cli.run", "config.load", "cycle.find_cycle",
                "diliberto.basis", "diliberto.orthogonality_defect",
                "adjoint.verify", "adjoint.state_transition",
                "adjoint.numeric_ppv", "isochron.experiment",
                "ode.integrate", "phase.lock_scan", "phase.ppv_fourier",
                "stochastic.sde", "stochastic.fp", "cli.write")
# per-layer count -> (spans it is credited under, counter); no span: total
LAYER_COUNTS = {
    "cycle.newton_iters": ((), "cycle.newton_iters"),
    "cycle.rhs_calls": (("cycle.find_cycle",), "models.rhs_calls"),
    "diliberto.jacobian_calls": (("diliberto.basis",
                                  "diliberto.orthogonality_defect"),
                                 "models.jacobian_calls"),
    "adjoint.state_transition_calls": ((), "adjoint.state_transition_calls"),
    "adjoint.adjoint_periods": ((), "adjoint.adjoint_periods"),
    "adjoint.jacobian_calls": (("adjoint.verify",), "models.jacobian_calls"),
    "adjoint.ode_steps": (("adjoint.verify",), "ode.steps"),
    "isochron.rhs_calls": (("isochron.experiment",), "models.rhs_calls"),
    "ode.integrate_calls": ((), "ode.integrate_calls"),
    "ode.steps": ((), "ode.steps"),
    "models.rhs_calls": ((), "models.rhs_calls"),
    "models.jacobian_calls": ((), "models.jacobian_calls"),
    "models.field_calls": ((), "models.field_calls"),
    "phase.simulate_phase_calls": ((), "phase.simulate_phase_calls"),
    "phase.ode_steps": (("phase.lock_scan",), "ode.steps"),
    "stochastic.fp_steps": ((), "stochastic.fp_steps"),
    "stochastic.diffusion_summary_calls":
        ((), "stochastic.diffusion_summary_calls"),
}
# per-layer rate -> (count, span whose time divides it)
LAYER_RATES = {
    "phase.lock_points_per_s": ("phase.lock_points", "phase.lock_scan"),
    "stochastic.path_steps_per_s": ("stochastic.path_steps",
                                    "stochastic.sde"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path):
    """Run one process to completion; wall time and its own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError(f"{argv} ran past {CHILD_TIMEOUT_S} s")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, errors="replace") as fh:
        log_text = fh.read()
    if proc.returncode not in (0, 1) or "Traceback" in log_text:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{log_text[-2000:]}")
    return {"status": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def span_table(spans):
    """name -> [calls, total_s, self_s] over one traced process."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    table = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time.get(s["id"], 0.0)
    return table


def _add_counts(into, counts):
    for key, n in counts.items():
        into[key] = into.get(key, 0) + n


def run_pass(configs, cfg_paths, pass_dir, traced):
    """One pass over the configs; timings first, checks after."""
    os.makedirs(pass_dir)
    children = []
    start = time.perf_counter()
    for cfg, path in zip(configs, cfg_paths):
        out = os.path.join(pass_dir, cfg["name"])
        if traced:
            argv = [sys.executable, os.path.join(HERE, "trace_child.py"),
                    path, out, out + ".spans.json"]
        else:
            argv = [sys.executable, "-m", "planar_ppv.cli", "run", path,
                    "-o", out]
        children.append(run_child(argv, out + ".log"))
    record = {"traced": traced, "wall_s": time.perf_counter() - start,
              "cpu_s": sum(c["cpu_s"] for c in children),
              "peak_rss_mb": max(c["rss_mb"] for c in children),
              "configs": [], "spans": {}, "counts": {}}
    for cfg, child in zip(configs, children):
        out = os.path.join(pass_dir, cfg["name"])
        reported, wrong = check_config(cfg, out, child["status"])
        record["configs"].append(dict(
            child, name=cfg["name"], reported=reported, wrong=wrong,
            digests=csv_digests(out),
            adler_mismatch=adler_mismatch(cfg, out, read_summary(out))))
        if traced:
            with open(out + ".spans.json") as fh:
                trace = json.load(fh)
            for name, row in span_table(trace["spans"]).items():
                acc = record["spans"].setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
            _add_counts(record["counts"], trace["totals"])
            for span, counts in trace["by_span"].items():
                _add_counts(record["counts"], {f"{span}/{k}": n
                                               for k, n in counts.items()})
    shutil.rmtree(pass_dir)
    return record


def setup_probe(cfg_paths, log_path):
    """Wall time of one fresh ``setup_probe.py`` process."""
    child = run_child([sys.executable, os.path.join(HERE, "setup_probe.py"),
                       *cfg_paths], log_path)
    if child["status"] != 0:
        raise BenchError(f"setup probe failed; see {log_path}")
    return child["wall_s"]


def measure(configs, cfg_paths, run_dir, seconds, trace):
    """Passes until ``seconds`` have elapsed and the minimum counts are met.

    Returns ``(passes, setup_times)``.  Without tracing, a setup probe
    runs before every pass as well as at the start, so the set-up median
    samples the whole run.  With tracing the order is untraced, traced,
    traced, then alternating, so the overhead compares passes made close
    together.
    """
    passes, setup = [], []
    start = time.perf_counter()
    for i in range(1 if trace else SETUP_FIRST):
        setup.append(setup_probe(cfg_paths,
                                 os.path.join(run_dir, f"setup{i}.log")))
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        if trace:
            enough = n_plain >= 1 and n_traced >= MIN_TRACED_PASSES
            traced = n_plain >= 1 and (n_traced < MIN_TRACED_PASSES
                                       or not passes[-1]["traced"])
        else:
            enough = n_plain >= MIN_UNTRACED_PASSES
            traced = False
        elapsed = time.perf_counter() - start
        if enough and (elapsed >= seconds or elapsed > LAST_PASS_START_S):
            return passes, setup
        if not trace:
            setup.append(setup_probe(
                cfg_paths, os.path.join(run_dir, f"setup{len(setup)}.log")))
        passes.append(run_pass(configs, cfg_paths,
                               os.path.join(run_dir, f"pass{len(passes)}"),
                               traced))


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def manifest(args):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def end_to_end(passes, setup):
    ok = sum(not (c["reported"] or c["wrong"])
             for p in passes for c in p["configs"])
    attempted = sum(len(p["configs"]) for p in passes)
    return {"run_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
            "pass_frac": ok / attempted}


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in TRACED_SPANS:
        rows = [p["spans"].get(name, [0, 0.0, 0.0]) for p in traced]
        out[f"{name}_s"] = statistics.median(r[1] for r in rows)
        out[f"{name}_self_s"] = statistics.median(r[2] for r in rows)
    counts = traced[0]["counts"]
    for metric, (spans, counter) in LAYER_COUNTS.items():
        out[metric] = (sum(counts.get(f"{s}/{counter}", 0) for s in spans)
                       if spans else counts.get(counter, 0))
    for metric, (counter, span) in LAYER_RATES.items():
        t = out[f"{span}_s"]
        out[metric] = counts.get(counter, 0) / t if t > 0 else 0.0
    out["phase.lock_adler_mismatch"] = sum(
        c["adler_mismatch"] or 0 for c in traced[0]["configs"])
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def consistency(passes):
    """Problems that make the run incorrect, beyond the per-config gates."""
    problems = []
    for p in passes:
        for c in p["configs"]:
            if c["wrong"] and not c["reported"]:
                problems.append(f"{c['name']}: " + "; ".join(c["wrong"]))
    for p in passes[1:]:
        for first, other in zip(passes[0]["configs"], p["configs"]):
            if first["digests"] != other["digests"]:
                problems.append(f"{first['name']}: CSVs differ between "
                                "passes")
            if bool(first["reported"]) != bool(other["reported"]):
                problems.append(f"{first['name']}: failure verdict differs "
                                "between passes")
    traced = [p for p in passes if p["traced"]]
    for p in traced[1:]:
        first = traced[0]["counts"]
        for key in sorted(set(first) | set(p["counts"])):
            if first.get(key) != p["counts"].get(key):
                problems.append(f"count {key} differs between traced passes")
    return sorted(set(problems))


def declared_metrics(trace):
    """(name, unit) pairs ``BENCHMARK.json`` declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "planar_ppv", "cli.py")):
        raise BenchError(f"no planar_ppv sources under {SRC}")
    declared = declared_metrics(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(RUNS, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    configs = make_configs(args.workload, args.seed)
    cfg_paths = []
    for cfg in configs:
        path = os.path.join(run_dir, cfg["name"] + ".cfg")
        with open(path, "w") as fh:
            fh.write(cfg["text"])
        cfg_paths.append(path)

    passes, setup = measure(configs, cfg_paths, run_dir, args.seconds,
                            args.trace)
    values = per_layer(passes) if args.trace else end_to_end(passes, setup)
    missing = [name for name, _ in declared if name not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared}
    problems = consistency(passes)
    result = {"correct": not problems,
              "attempted": sum(len(p["configs"]) for p in passes),
              "failed": sum(bool(c["reported"] or c["wrong"])
                            for p in passes for c in p["configs"]),
              "metrics": metrics}

    record = {"manifest": manifest(args), "result": result,
              "problems": problems, "setup_s": setup,
              "configs": {c["name"]: c["text"] for c in configs},
              "digests": {c["name"]: c["digests"]
                          for c in passes[0]["configs"]},
              "passes": passes}
    results_path = os.path.join(RUNS, tag + ".json")
    with open(results_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for c in passes[0]["configs"]:
        verdict = "; ".join(c["reported"] + c["wrong"]) or "ok"
        print(f"# {c['name']}: {verdict}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    if args.trace:
        print(f"# {'span':32s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        last_traced = [p for p in passes if p["traced"]][-1]
        for name, (calls, total, own) in sorted(
                last_traced["spans"].items(), key=lambda kv: -kv[1][1]):
            print(f"# {name:32s} {calls:7d} {total:10.4f} {own:10.4f}")
    for name, unit in declared:
        print(f"{name} = {values[name]!r} {unit}")
    print(f"# {len(passes)} passes; full record in {results_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
