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
    assert p["t_end"] == -1.0  # default: auto horizon



VALID = {
    "model": {"name": "vanderpol"},
    "cycle": {"settle_time": "10", "tol": "1e-10"},
    "basis": {"grid": "64"},
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
    # t_end <= 0 (auto horizon), density_halfwidth <= 0 (auto grid) and
    # zero or negative isochron offsets are valid
    cfg = parse_config(render(VALID))
    assert cfg.sections["lock-scan"]["t_end"] == 0.0
    assert cfg.sections["noise"]["density_halfwidth"] == -1.0
    assert cfg.sections["isochron"]["offsets"] == [-0.05, 0.0, 0.05]


@pytest.mark.parametrize("section,key,value", [
    ("cycle", "settle_time", "inf"),
    ("cycle", "tol", "nan"),
    ("basis", "grid", "-5"),
    ("basis", "grid", "8"),
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
