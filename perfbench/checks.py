"""Correctness gates on one config's output directory.

``check_config`` sorts what it finds into two lists.  A *reported*
failure is one the program owns up to: a non-zero exit status or a
``fail`` row in ``verify.csv``.  A *wrong* output is one the program
presented as valid but that misses an independent reference.  Both make
the config count as failed; only a wrong output of a config without a
reported failure makes the run incorrect.
"""

import csv
import hashlib
import math
import os

PERIOD_TOL = 1e-8      # on T and mu2 against the analytic/reference values
FP_MASS_LOW = 1.0 - 1e-6
# The explicit FP step conserves mass up to rounding; ~1e4 steps of a few
# ulps each can leave the sum a little above 1.
FP_MASS_HIGH = 1.0 + 1e-10
# For isotropic Stuart-Landau noise v^T v = sigma^2 exactly, so the FP
# second moment grows by sigma^2 dt per step; only the spline of v and the
# far boundaries perturb it.
FP_SLOPE_RTOL = 1e-6
DIFFUSION_RTOL = 1e-6
# psi(t) is exactly sigma * W(t) on Stuart-Landau, so the sample variance
# of N paths has relative standard deviation sqrt(2/(N-1)); allow 5 of them.
MC_SIGMAS = 5.0


def read_summary(outdir):
    """``summary.txt`` as a dict of first tokens; empty when absent."""
    path = os.path.join(outdir, "summary.txt")
    if not os.path.exists(path):
        return {}
    kv = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            kv[key] = value.split()[0] if value else ""
    return kv


def _rows(outdir, name):
    with open(os.path.join(outdir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digests(outdir):
    """sha256 of every CSV the run wrote, keyed by file name."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _density_moments(rows):
    """(t, mass, variance) per stored snapshot of ``density.csv``."""
    snaps = {}
    for r in rows:
        snaps.setdefault(float(r["t"]), []).append(
            (float(r["psi"]), float(r["p"])))
    out = []
    for t in sorted(snaps):
        pts = snaps[t]
        dpsi = pts[1][0] - pts[0][0]
        mass = math.fsum(p for _, p in pts) * dpsi
        mean = math.fsum(x * p for x, p in pts) * dpsi
        second = math.fsum(x * x * p for x, p in pts) * dpsi
        out.append((t, mass, second - mean * mean))
    return out


def _check_noise(cfg, outdir, summary, wrong):
    s2 = cfg["sigma"] ** 2
    d = float(summary["diffusion_rate"])
    if abs(d / s2 - 1.0) > DIFFUSION_RTOL:
        wrong.append(f"diffusion_rate {d!r} vs sigma^2 {s2!r}")

    last = _rows(outdir, "noise_ensemble.csv")[-1]
    n = cfg["n_paths"]
    mc = float(last["var_psi"]) / float(last["t"])
    tol = MC_SIGMAS * math.sqrt(2.0 / (n - 1))
    if abs(mc / s2 - 1.0) > tol:
        wrong.append(f"MC variance slope {mc!r} vs sigma^2 {s2!r} "
                     f"(tol {tol:.3g} relative)")

    moments = _density_moments(_rows(outdir, "density.csv"))
    (t0, _, v0), (t1, _, v1) = moments[0], moments[-1]
    fp = (v1 - v0) / (t1 - t0)
    if abs(fp / s2 - 1.0) > FP_SLOPE_RTOL:
        wrong.append(f"FP variance slope {fp!r} vs sigma^2 {s2!r}")
    for t, mass, _ in moments:
        if not FP_MASS_LOW <= mass <= FP_MASS_HIGH:
            wrong.append(f"FP mass {mass!r} at t={t!r}")
            break


def adler_mismatch(cfg, outdir, summary):
    """Lock-scan rows whose verdict differs from Adler's prediction.

    Adler: lock iff |dw| <= eps * omega * |V1 . amp|, with V1 the k=1 row
    of ``ppv_fourier.csv``.  Returns None without a scan.
    """
    if "lock_rows" not in cfg or "T" not in summary:
        return None
    omega = 2.0 * math.pi / float(summary["T"])
    (v1,) = [r for r in _rows(outdir, "ppv_fourier.csv") if r["k"] == "1"]
    ax, ay = cfg["amp"]
    proj = abs(complex(float(v1["Re_Vkx"]), float(v1["Im_Vkx"])) * ax
               + complex(float(v1["Re_Vky"]), float(v1["Im_Vky"])) * ay)
    mismatch = 0
    for r in _rows(outdir, "lock_scan.csv"):
        adler = abs(float(r["delta_omega"])) <= float(r["eps"]) * omega * proj
        mismatch += adler != (r["locked"] == "1")
    return mismatch


def check_config(cfg, outdir, status):
    """Return ``(reported, wrong)``: lists of failure reasons."""
    reported, wrong = [], []
    if status != 0:
        reported.append(f"exit status {status}")
    verify = os.path.join(outdir, "verify.csv")
    if os.path.exists(verify):
        failed = [r["metric"] for r in _rows(outdir, "verify.csv")
                  if r["status"] == "fail"]
        if failed:
            reported.append("verify fail: " + " ".join(failed))
    summary = read_summary(outdir)
    if not summary:
        reported.append("no summary.txt")
        return reported, wrong

    for key, ref in (("T", cfg.get("T_ref")), ("mu2", cfg.get("mu2_ref"))):
        if ref is not None and abs(float(summary[key]) - ref) > PERIOD_TOL:
            wrong.append(f"{key} = {summary[key]} vs reference {ref!r}")
    if "sigma" in cfg:
        _check_noise(cfg, outdir, summary, wrong)
    if summary.get("isochron_degenerate") == "0":
        iso = float(summary["isochron_spread"])
        ctrl = float(summary["control_spread"])
        if not iso < ctrl:
            wrong.append(f"isochron spread {iso!r} not below control {ctrl!r}")
    if "lock_rows" in cfg:
        n = len(_rows(outdir, "lock_scan.csv"))
        if n != cfg["lock_rows"]:
            wrong.append(f"lock_scan.csv has {n} rows, "
                         f"want {cfg['lock_rows']}")
    return reported, wrong
