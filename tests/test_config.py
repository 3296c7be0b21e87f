import re
from pathlib import Path

import pytest

from lambda_forge.cli import EXIT_CONFIG, main
from lambda_forge.config import _THRESHOLDS, RunConfig, load_config
from lambda_forge.density import DEFAULT_SIGMA_BAND, MIN_EXPECTED_HITS
from lambda_forge.iwasawa import S_ELL_EXPONENT_CAP
from lambda_forge.levels import CARAYOL_TRIAL_BOUND

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

CURVE_CFG = """\
backend = curve
curve_a_invariants = 0, -1, 1, -10, -20
conductor = 11
p = 7
lambda_g = 0
mu_zero = true
surjective_mod_p = true
"""

LIBRARY_DEFAULTS = {
    "s_ell_cap": S_ELL_EXPONENT_CAP,
    "sigma_band": DEFAULT_SIGMA_BAND,
    "min_expected_hits": MIN_EXPECTED_HITS,
    "carayol_trial_bound": CARAYOL_TRIAL_BOUND,
}


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(CURVE_CFG + extra, encoding="utf-8")
    return str(path)


def run_density(config):
    return main(["verify-density", "--config", config, "--bound", "2000", "--workers", "1"])


@pytest.mark.parametrize("key", ["sieve_max", "naive_count_limit", "threads"])
def test_sieve_max_is_an_unknown_key(tmp_path, capsys, key):
    # removed keys: a config that still sets one exits 2 until the line goes
    config = write_config(tmp_path, f"{key} = 1000\n")
    assert run_density(config) == EXIT_CONFIG
    assert f"unknown config keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("sigma_band", "nan"),
        ("sigma_band", "inf"),
        ("sigma_band", "-1"),
        ("sigma_band", "0"),
        ("s_ell_cap", "-1"),
        ("min_expected_hits", "-1"),
        ("carayol_trial_bound", "1"),
    ],
)
def test_out_of_range_threshold_exits_2(tmp_path, capsys, key, value):
    config = write_config(tmp_path, f"{key} = {value}\n")
    assert run_density(config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"`{key}`" in err


@pytest.mark.parametrize(
    "key, value, parsed",
    [
        ("sigma_band", "1e-9", 1e-9),
        ("s_ell_cap", "0", 0),
        ("min_expected_hits", "0", 0),
        ("carayol_trial_bound", "2", 2),
    ],
)
def test_smallest_threshold_accepted(tmp_path, key, value, parsed):
    cfg = load_config(write_config(tmp_path, f"{key} = {value}\n"))
    assert getattr(cfg, key) == parsed


def test_defaults_are_the_library_constants(tmp_path):
    built = RunConfig(backend="curve", p=7, lambda_g=0, mu_zero=True,
                      surjective_mod_p=True, level=11)
    loaded = load_config(write_config(tmp_path))
    for key, constant in LIBRARY_DEFAULTS.items():
        assert getattr(built, key) == constant, key
        assert getattr(loaded, key) == constant, key


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load(path):
    cfg = load_config(path)
    assert cfg.backend == "curve"
    assert cfg.level == cfg.curve.conductor
    # the shipped thresholds, where listed, are the defaults
    for key, constant in LIBRARY_DEFAULTS.items():
        assert getattr(cfg, key) == constant, key


def test_readme_table_lists_exactly_the_threshold_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(_THRESHOLDS)
