"""Run configs for each workload, generated from the benchmark seed.

The seed moves values (start points, detuning grid edges, noise level,
Wiener draws, isochron seeds) but never sizes, so every seed costs about
the same work.  Each config carries the reference values its checks use.

Sizes are set so that one pass of the slowest workload stays near 15 s
on a 2-CPU x86 box: the benchmark repeats passes and reports medians.
"""

import random

TWO_PI = 6.283185307179586
VDP1_T = 6.66328685932  # van der Pol mu=1 period, independent reference

SETTLE_TIME = 30.0  # >= 30/|mu2| for every model used here
LOCK_EPS = (0.005, 0.01)
# Adler half-widths are about 0.0030 and 0.0060 at these eps; a grid of
# +-0.0075 in 4 steps has points inside and outside both tongues.
LOCK_DETUNING_SPAN = 0.0075
LOCK_DETUNING_N = 4
NOISE_PATHS = 4096
NOISE_T_END = 60.0
NOISE_DT = 0.02
NOISE_CELLS = 481


def _fmt(x):
    return repr(float(x))


def _cfg(sections):
    lines = []
    for name, keys in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys)
        lines.append("")
    return "\n".join(lines)


def _lockscan(rng, seed):
    span = LOCK_DETUNING_SPAN * (1.0 + 0.04 * rng.random())
    shift = 0.0001 * (2.0 * rng.random() - 1.0)
    text = _cfg([
        ("model", [("name", "vanderpol"), ("mu", "1.0")]),
        ("cycle", [("guess", f"{_fmt(1.8 + 0.4 * rng.random())} "
                             f"{_fmt(0.4 * rng.random() - 0.2)}"),
                   ("settle_time", SETTLE_TIME)]),
        ("output", [("seed", seed)]),
        ("verify", [("tol", "1e-5")]),
        ("ppv-fourier", [("harmonics", 16)]),
        ("lock-scan", [("amp", "1.0 0.0"),
                       ("eps", " ".join(map(str, LOCK_EPS))),
                       ("detuning_min", _fmt(shift - span)),
                       ("detuning_max", _fmt(shift + span)),
                       ("detuning_n", LOCK_DETUNING_N),
                       ("t_end", "0")]),
    ])
    return [{"name": "vdp-mu1-lock", "text": text, "T_ref": VDP1_T,
             "lock_rows": len(LOCK_EPS) * LOCK_DETUNING_N,
             "amp": (1.0, 0.0)}]


def _noise(rng, seed):
    sigma = 0.04 + 0.02 * rng.random()
    text = _cfg([
        ("model", [("name", "stuart_landau"), ("omega", "1.0")]),
        ("cycle", [("guess", f"{_fmt(0.1 + 0.2 * rng.random())} 0.0"),
                   ("settle_time", SETTLE_TIME)]),
        ("output", [("seed", seed)]),
        ("verify", [("tol", "1e-5")]),
        ("noise", [("kind", "isotropic"), ("sigma", _fmt(sigma)),
                   ("n_paths", NOISE_PATHS), ("t_end", _fmt(NOISE_T_END)),
                   ("dt", _fmt(NOISE_DT)), ("density", "true"),
                   ("density_cells", NOISE_CELLS)]),
    ])
    return [{"name": "sl-noise", "text": text, "T_ref": TWO_PI,
             "mu2_ref": -2.0, "sigma": sigma, "n_paths": NOISE_PATHS}]


def _isochron_config(model, params, guess, t_star, offset, horizon, seed):
    return _cfg([
        ("model", [("name", model)] + params),
        ("cycle", [("guess", f"{_fmt(guess[0])} {_fmt(guess[1])}"),
                   ("settle_time", SETTLE_TIME)]),
        ("output", [("seed", seed)]),
        ("verify", [("tol", "1e-5")]),
        ("isochron", [("t_star", _fmt(t_star)),
                      ("offsets", f"{_fmt(-offset)} 0.0 {_fmt(offset)}"),
                      ("horizon", _fmt(horizon))]),
    ])


def _verify_sweep(rng, seed):
    sl = _isochron_config(
        "stuart_landau", [("omega", "1.0")],
        (0.1 + 0.2 * rng.random(), 0.0), 0.5 + rng.random(),
        0.04 + 0.02 * rng.random(), 12.0, seed)
    vdp1 = _isochron_config(
        "vanderpol", [("mu", "1.0")],
        (1.8 + 0.4 * rng.random(), 0.0), 0.5 + rng.random(),
        0.04 + 0.02 * rng.random(), 19.0, seed)
    # The stiff cycle fails verification (a known conditioning defect) and
    # counts as a failed config.  Its inputs stay fixed: isochron_experiment
    # also raises on it at some cycle points (e.g. guess (2.1, 0), t_star
    # 0.89), which would end the run early and make the work seed-dependent.
    vdp3 = _isochron_config(
        "vanderpol", [("mu", "3.0")], (2.0, 0.0), 1.0, 0.05,
        19.0, seed)
    return [
        {"name": "sl", "text": sl, "T_ref": TWO_PI, "mu2_ref": -2.0},
        {"name": "vdp-mu1", "text": vdp1, "T_ref": VDP1_T},
        {"name": "vdp-mu3", "text": vdp3},
    ]


WORKLOADS = {"lockscan": _lockscan, "noise": _noise,
             "verify-sweep": _verify_sweep}


def make_configs(workload, seed):
    """The workload's configs for ``seed``, in the order they run."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), seed)
