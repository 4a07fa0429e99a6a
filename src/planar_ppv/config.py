"""Strict flat key-value run configuration.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments.
Unknown sections or keys are rejected with the offending line number;
typos in numerically sensitive fields must not pass silently.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .models import get_model

__all__ = ["RunConfig", "load_config", "parse_config"]

EXPERIMENT_SECTIONS = ("verify", "ppv-fourier", "lock-scan", "noise",
                       "isochron")

_DEFAULT_GUESS = {
    "vanderpol": (2.0, 0.0),
    "stuart_landau": (0.2, 0.0),
    "brusselator": (1.5, 1.5),
}


def _parse_bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_vec2(s):
    parts = s.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected two components, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _parse_floats(s):
    parts = s.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return [float(p) for p in parts]


def _parse_distinct_floats(s):
    """A float list without repeats: each value names its own output row."""
    values, seen = _parse_floats(s), set()
    for part, v in zip(s.replace(",", " ").split(), values):
        if v in seen:
            raise ValueError(f"{part} is repeated")
        seen.add(v)
    return values


@dataclass(frozen=True)
class _Key:
    """One config key: its parser, the bound every parsed component must
    meet (``(test, description)`` or None), its default, and whether it
    must appear whenever its section does."""

    parse: Callable
    bound: tuple = None
    default: object = None
    required: bool = False


def _at_least(n):
    return (lambda v: v >= n, f">= {n}")


_FINITE = (np.isfinite, "finite")
_POSITIVE = (lambda v: 0 < v < np.inf, "finite and > 0")
_NONNEGATIVE = (lambda v: 0 <= v < np.inf, "finite and >= 0")
# a [model] parameter; its key is checked once the model's name is known
_MODEL_PARAM = _Key(float, _FINITE)

_SCHEMA = {
    "model": None,  # a name, then the named model's parameters
    "cycle": {"guess": _Key(_parse_vec2, _FINITE),
              "settle_time": _Key(float, _NONNEGATIVE, 100.0),
              "tol": _Key(float, _POSITIVE, 1e-10)},
    "basis": {"grid": _Key(int, _at_least(16), 1024)},
    "output": {"dir": _Key(str, None, "out"),
               "seed": _Key(int, _at_least(0), 0)},
    "verify": {"tol": _Key(float, _POSITIVE, 1e-5)},
    "ppv-fourier": {"harmonics": _Key(int, _at_least(1), 16)},
    "lock-scan": {
        "amp": _Key(_parse_vec2, _FINITE, required=True),
        "eps": _Key(_parse_distinct_floats, _POSITIVE, required=True),
        "detuning_min": _Key(float, _FINITE, required=True),
        "detuning_max": _Key(float, _FINITE, required=True),
        "detuning_n": _Key(int, _at_least(1), required=True),
        # ignored, as verdicts come from the one-period map, but accepted
        # so that configs written for the old horizon-based scan still run
        "t_end": _Key(float, _FINITE, -1.0)},
    "noise": {
        "kind": _Key(str, (lambda v: v in ("isotropic", "directional"),
                           "isotropic or directional"), "isotropic"),
        "sigma": _Key(float, _NONNEGATIVE, required=True),
        "direction": _Key(_parse_vec2, _FINITE, (1.0, 0.0)),
        "n_paths": _Key(int, _at_least(1), required=True),
        "t_end": _Key(float, _POSITIVE, required=True),
        "dt": _Key(float, _POSITIVE, required=True),
        "density": _Key(_parse_bool, None, True),
        "density_cells": _Key(int, _at_least(8), 321),
        # <= 0 sizes the grid from the predicted diffusion
        "density_halfwidth": _Key(float, _FINITE, -1.0)},
    "isochron": {
        "t_star": _Key(float, _FINITE, required=True),
        "offsets": _Key(_parse_floats, _FINITE, required=True),
        "horizon": _Key(float, _POSITIVE, required=True)},
}


@dataclass
class RunConfig:
    """Validated pipeline configuration."""

    model_name: str
    model_params: dict
    cycle: dict
    grid: int
    outdir: str
    seed: int
    sections: dict = field(default_factory=dict)  # experiment name -> params

    def make_model(self):
        return get_model(self.model_name, **self.model_params)


def parse_config(text):
    """Parse and validate configuration text into a :class:`RunConfig`."""
    raw = {}
    section = None
    lines = {}  # section or (section, key) -> line
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("malformed section header", line=lineno)
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            if section in raw:
                raise ConfigError(f"duplicate section [{section}]",
                                  line=lineno)
            raw[section] = {}
            lines[section] = lineno
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              line=lineno)
        if section is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, value = (p.strip() for p in stripped.split("=", 1))
        if key in raw[section]:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        schema = _SCHEMA[section]
        if schema is None:
            spec = _Key(str) if key == "name" else _MODEL_PARAM
        elif key in schema:
            spec = schema[key]
        else:
            raise ConfigError(
                f"unknown key {key!r} in section [{section}]", line=lineno)
        try:
            parsed = spec.parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno)
        if spec.bound is not None:
            test, rule = spec.bound
            if not all(test(v) for v in np.atleast_1d(parsed)):
                raise ConfigError(f"bad value for {key!r}: {value} is not "
                                  f"{rule}", line=lineno)
        raw[section][key] = parsed
        lines[section, key] = lineno

    if "model" not in raw:
        raise ConfigError("missing [model] section")
    model_raw = dict(raw["model"])
    if "name" not in model_raw:
        raise ConfigError("missing model name",
                          line=lines.get("model"))
    name = model_raw.pop("name")
    try:
        known = get_model(name).params  # the defaults name every parameter
    except ConfigError as exc:
        raise ConfigError(str(exc), line=lines["model"])
    for key in model_raw:
        if key not in known:
            raise ConfigError(f"unknown parameter {key!r} for model "
                              f"{name!r}", line=lines["model", key])
    params = model_raw

    def section_dict(sec):
        given = raw.get(sec, {})
        merged = {}
        for key, spec in _SCHEMA[sec].items():
            if spec.required and sec in raw and key not in given:
                raise ConfigError(f"[{sec}] needs key {key!r}",
                                  line=lines[sec])
            if spec.default is not None:
                merged[key] = spec.default
        merged.update(given)
        return merged

    sections = {}
    for sec in EXPERIMENT_SECTIONS:
        if sec in raw:
            sections[sec] = section_dict(sec)
    if not sections:
        raise ConfigError("no experiment section requested "
                          f"(one of {', '.join(EXPERIMENT_SECTIONS)})")
    # verification always runs: without [verify] it takes the defaults
    sections.setdefault("verify", section_dict("verify"))

    cycle = section_dict("cycle")
    if "guess" not in cycle:
        cycle["guess"] = np.array(_DEFAULT_GUESS[name])
    basis = section_dict("basis")
    _check_cross_keys(sections, basis["grid"], lines)
    output = section_dict("output")
    return RunConfig(model_name=name, model_params=params, cycle=cycle,
                     grid=basis["grid"], outdir=output["dir"],
                     seed=output["seed"], sections=sections)


def _check_cross_keys(sections, grid, lines):
    """Reject key combinations that a later stage could not run."""
    K = sections.get("ppv-fourier", {}).get("harmonics", 1)
    if K > grid // 2 - 1:
        raise ConfigError(f"harmonics = {K} over grid Nyquist {grid // 2 - 1}",
                          line=lines.get(("ppv-fourier", "harmonics"),
                                         lines.get(("basis", "grid"))))
    if "noise" not in sections:
        return
    # the ensemble takes round(t_end / dt) steps of dt; the density solve
    # ends on t_end itself, so the two must agree
    t_end, dt = sections["noise"]["t_end"], sections["noise"]["dt"]
    if not abs(np.rint(t_end / dt) * dt - t_end) <= 1e-9 * t_end:
        raise ConfigError(f"t_end = {t_end:g} is not a whole number of "
                          f"dt = {dt:g} steps", line=lines["noise", "t_end"])
    line = lines.get(("noise", "direction"))
    if line is None:
        return
    if sections["noise"]["kind"] == "isotropic":
        raise ConfigError("'direction' needs kind = directional", line=line)
    with np.errstate(over="ignore"):  # NoiseModel.directional's test
        norm = np.linalg.norm(sections["noise"]["direction"])
    if not (norm > 0 and np.isfinite(norm)):
        raise ConfigError("bad value for 'direction': its norm must be finite "
                          "and nonzero", line=line)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
