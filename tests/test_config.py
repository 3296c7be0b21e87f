import dataclasses
import re
from pathlib import Path

import pytest

from lambda_forge import curves, density, iwasawa, levels
from lambda_forge.cli import EXIT_CONFIG, main
from lambda_forge.config import build_context, load_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

CURVE_CFG = """\
backend = curve
curve_a_invariants = 0, -1, 1, -10, -20
conductor = 11
p = 7
lambda_g = 0
mu_zero = true
surjective_mod_p = true
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(CURVE_CFG + extra, encoding="utf-8")
    return str(path)


def run_density(config):
    return main(["verify-density", "--config", config, "--bound", "2000", "--workers", "1"])


@pytest.mark.parametrize(
    "key",
    ["sieve_max", "naive_count_limit", "threads",
     "s_ell_cap", "sigma_band", "min_expected_hits", "carayol_trial_bound"],
)
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
    # the thresholds are code constants now: any value of a former key is refused
    config = write_config(tmp_path, f"{key} = {value}\n")
    assert run_density(config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"unknown config keys: {key}" in err


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load(path):
    cfg = load_config(path)
    assert cfg.backend == "curve"
    assert cfg.level == cfg.curve.conductor


def test_optimal_level_is_echoed_from_the_config(tmp_path):
    cfg = load_config(write_config(tmp_path, "optimal_level_asserted = false\n"))
    assert cfg.assertions()["optimal_level"] is False
    # the form itself carries no copy: reports echo the config's attestation
    assert "optimal_level_asserted" not in {f.name for f in dataclasses.fields(build_context(cfg))}


def readme_configuration():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]


def test_readme_curve_example_loads(tmp_path):
    section = readme_configuration()
    (block,) = re.findall(r"^```\n(backend = curve\n.*?)^```$", section,
                          flags=re.MULTILINE | re.DOTALL)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.backend, cfg.level, cfg.p) == ("curve", 11, 7)


def test_readme_threshold_constants_match_the_code():
    named = dict(re.findall(r"`([A-Z_]+) = ([^`]+)`", readme_configuration()))
    assert named.keys() == {"S_ELL_EXPONENT_CAP", "DEFAULT_SIGMA_BAND", "MIN_EXPECTED_HITS",
                            "CARAYOL_TRIAL_BOUND", "BSGS_MAX_POINTS"}
    for name, text in named.items():
        (value,) = [getattr(m, name) for m in (curves, density, iwasawa, levels) if hasattr(m, name)]
        assert value == eval(text, {}), name
