import numpy as np
import pytest

from planar_ppv.config import parse_config
from planar_ppv.errors import ConfigError

BASE = """
[model]
name = vanderpol
mu = 1.5

[verify]
tol = 1e-6
"""


def test_parse_minimal():
    cfg = parse_config(BASE)
    assert cfg.model_name == "vanderpol"
    assert cfg.model_params == {"mu": 1.5}
    assert cfg.grid == 1024  # default
    assert cfg.sections["verify"]["tol"] == 1e-6
    np.testing.assert_array_equal(cfg.cycle["guess"], [2.0, 0.0])
    model = cfg.make_model()
    assert model.params["mu"] == 1.5


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# top comment\n" + BASE.replace(
        "tol = 1e-6", "tol = 1e-6  # inline"))
    assert cfg.sections["verify"]["tol"] == 1e-6


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE + "\n[wibble]\nx = 1\n")
    assert "wibble" in str(exc.value)
    assert exc.value.line is not None


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE + "\n[cycle]\nsetle_time = 5\n")
    assert "setle_time" in str(exc.value)


def test_duplicate_section_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE + "\n[verify]\ntol = 1e-5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("tol = 1e-6", "tol = 1e-6\ntol = 1e-5"))


def test_bad_value_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE.replace("tol = 1e-6", "tol = banana"))
    assert "tol" in str(exc.value)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("x = 1\n" + BASE)


def test_missing_model_rejected():
    with pytest.raises(ConfigError):
        parse_config("[verify]\ntol = 1e-6\n")


def test_unknown_model_name_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("vanderpol", "rossler"))


def test_unknown_model_param_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("mu = 1.5", "nu = 1.5"))


def test_no_experiment_section_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[model]\nname = vanderpol\n")
    assert "experiment" in str(exc.value)


def test_required_keys_enforced():
    with pytest.raises(ConfigError) as exc:
        parse_config("[model]\nname = vanderpol\n\n[isochron]\nt_star = 1\n")
    assert "offsets" in str(exc.value) or "horizon" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config("[model]\nname = vanderpol\n\n[noise]\nsigma = 0.05\n")
    with pytest.raises(ConfigError):
        parse_config("[model]\nname = vanderpol\n\n[lock-scan]\neps = 0.01\n")


def test_vector_and_list_values():
    text = """
[model]
name = stuart_landau

[lock-scan]
amp = 1.0, 0.0
eps = 0.005 0.01
detuning_min = -0.01
detuning_max = 0.01
detuning_n = 5
"""
    cfg = parse_config(text)
    p = cfg.sections["lock-scan"]
    np.testing.assert_array_equal(p["amp"], [1.0, 0.0])
    assert p["eps"] == [0.005, 0.01]
    assert p["t_end"] == -1.0  # default of the ignored key


NOISE = "\n[noise]\nsigma = 0.05\nn_paths = 16\nt_end = 10.0\ndt = 0.02\n"


@pytest.mark.parametrize("extra,bad_line", [
    # the default harmonics = 16 exceeds the Nyquist limit 15 of grid = 32
    ("\n[basis]\ngrid = 32\n\n[ppv-fourier]\n", "grid = 32"),
    ("\n[basis]\ngrid = 32\n\n[ppv-fourier]\nharmonics = 16\n",
     "harmonics = 16"),
    ("\n[ppv-fourier]\nharmonics = 512\n", "harmonics = 512"),
    (NOISE + "kind = directional\ndirection = 0 0\n", "direction = 0 0"),
    # each component is finite, but the norm overflows: the noise stage
    # would reject it, after a NumPy overflow warning
    (NOISE + "kind = directional\ndirection = 1e308 1e308\n",
     "direction = 1e308 1e308"),
    (NOISE + "direction = 0 1\n", "direction = 0 1"),
    (NOISE + "kind = isotropic\ndirection = 0 1\n", "direction = 0 1"),
    # 3 steps of 0.05 would end the ensemble at 0.15, the density at 0.13
    (NOISE.replace("t_end = 10.0", "t_end = 0.13").replace("dt = 0.02",
                                                           "dt = 0.05"),
     "t_end = 0.13"),
])
def test_unrunnable_key_combinations_report_line(extra, bad_line):
    text = BASE + extra
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == text.splitlines().index(bad_line) + 1


def test_runnable_key_combinations_accepted():
    cfg = parse_config(BASE + "\n[basis]\ngrid = 32\n\n[ppv-fourier]\n"
                       "harmonics = 15\n" + NOISE + "kind = directional\n")
    assert cfg.sections["ppv-fourier"]["harmonics"] == 15
    # a directional run without a direction takes (1, 0)
    np.testing.assert_array_equal(cfg.sections["noise"]["direction"],
                                  [1.0, 0.0])


def test_verify_defaults_without_section():
    # verification always runs; the schema owns its default tolerance
    from planar_ppv.config import _SCHEMA

    cfg = parse_config(BASE.replace("[verify]\ntol = 1e-6",
                                    "[isochron]\nt_star = 0\noffsets = 0\n"
                                    "horizon = 19"))
    assert cfg.sections["verify"] == {"tol": _SCHEMA["verify"]["tol"].default}
    assert cfg.sections["verify"]["tol"] == 1e-5


VALID = {
    "model": {"name": "vanderpol"},
    "cycle": {"settle_time": "10", "tol": "1e-10"},
    "basis": {"grid": "64"},
    "output": {"seed": "0"},
    "verify": {"tol": "1e-6"},
    "lock-scan": {"amp": "1.0 0.0", "eps": "0.01", "detuning_min": "-0.01",
                  "detuning_max": "0.01", "detuning_n": "5", "t_end": "0"},
    "noise": {"sigma": "0.05", "n_paths": "16", "t_end": "10.0",
              "dt": "0.02", "density_halfwidth": "-1"},
    "isochron": {"t_star": "0", "offsets": "-0.05 0 0.05", "horizon": "19"},
}


def render(sections):
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n"


def test_sign_conventions_still_accepted():
    # lock-scan t_end <= 0 (ignored), density_halfwidth <= 0 (auto grid)
    # and zero or negative isochron offsets are valid
    cfg = parse_config(render(VALID))
    assert cfg.sections["lock-scan"]["t_end"] == 0.0
    assert cfg.sections["noise"]["density_halfwidth"] == -1.0
    assert cfg.sections["isochron"]["offsets"] == [-0.05, 0.0, 0.05]


@pytest.mark.parametrize("section,key,value", [
    ("cycle", "settle_time", "inf"),
    ("cycle", "tol", "nan"),
    ("basis", "grid", "-5"),
    ("basis", "grid", "8"),
    ("output", "seed", "-1"),
    ("verify", "tol", "nan"),
    ("noise", "sigma", "nan"),
    ("noise", "n_paths", "0"),
    ("noise", "t_end", "-1"),
    ("lock-scan", "eps", "-1"),
    ("lock-scan", "eps", "0"),
    ("lock-scan", "detuning_n", "0"),
])
def test_out_of_range_value_reports_line(section, key, value):
    sections = {name: dict(keys) for name, keys in VALID.items()}
    sections[section][key] = value
    lines = render(sections).splitlines()
    line = lines.index(f"[{section}]") + 2 + list(sections[section]).index(key)
    assert lines[line - 1] == f"{key} = {value}"
    with pytest.raises(ConfigError) as exc:
        parse_config("\n".join(lines))
    assert exc.value.line == line
    assert key in str(exc.value)


@pytest.mark.parametrize("value,repeat", [
    ("0.01 0.01", "0.01"),
    ("0.005, 0.01, 1e-2", "1e-2"),  # the same float, written differently
])
def test_repeated_lock_scan_eps_reports_line(value, repeat):
    # each eps is one lock_scan.csv row block and one summary key, so a
    # repeat would write both twice
    sections = {name: dict(keys) for name, keys in VALID.items()}
    sections["lock-scan"]["eps"] = value
    lines = render(sections).splitlines()
    line = lines.index(f"eps = {value}") + 1
    with pytest.raises(ConfigError) as exc:
        parse_config("\n".join(lines))
    assert exc.value.line == line
    assert f"bad value for 'eps': {repeat} is repeated" in str(exc.value)
