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
optimal_level_asserted = true
"""

TABLE_CFG = """\
backend = table
table_path = coeffs.csv
level = 11
p = 5
lambda_g = 0
mu_zero = true
surjective_mod_p = false
optimal_level_asserted = true
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
    path = tmp_path / "run.cfg"
    path.write_text(CURVE_CFG.replace("asserted = true", "asserted = false"), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.assertions()["optimal_level"] is False
    # the form itself carries no copy: reports echo the config's attestation
    assert "optimal_level_asserted" not in {f.name for f in dataclasses.fields(build_context(cfg))}


@pytest.mark.parametrize("config, line, backend, other", [
    (CURVE_CFG, "table_path = nowhere.csv", "curve", "table"),
    (TABLE_CFG, "curve_a_invariants = banana", "table", "curve"),
    (TABLE_CFG, "conductor = 999", "table", "curve"),
    (TABLE_CFG, "discriminant = -11", "table", "curve"),
], ids=["table_path", "curve_a_invariants", "conductor", "discriminant"])
def test_a_key_of_the_other_backend_is_refused(tmp_path, capsys, config, line, backend, other):
    # such a key was ignored: the table configs ran on their table, and the
    # --out below was refused as a file the curve run reads
    (tmp_path / "coeffs.csv").write_text("ell,a_ell\n5,1\n", encoding="utf-8")
    path = tmp_path / "run.cfg"
    path.write_text(config + line + "\n", encoding="utf-8")
    out = tmp_path / "nowhere.csv"
    argv = ["carayol", "--level", "11", "--config", str(path), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == (
        f"config error: {path}: key `{key}` is for the {other} backend, not {backend}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("stated", [0, 5])
def test_a_stated_discriminant_is_checked(tmp_path, capsys, stated):
    # 0 was read as "not stated", so a config stating it ran
    shipped = (ROOT / "configs" / "default.cfg").read_text(encoding="utf-8")
    path = tmp_path / "run.cfg"
    path.write_text(shipped.replace("discriminant = -161051\n", f"discriminant = {stated}\n"),
                    encoding="utf-8")
    assert main(["screen-p", "--p", "7", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {path}: bad curve: stated discriminant {stated} != computed -161051\n"
    )


@pytest.mark.parametrize("config", [CURVE_CFG, TABLE_CFG], ids=["curve", "table"])
def test_optimal_level_asserted_is_required(tmp_path, capsys, config):
    # a config that leaves it out was read as asserting it
    (tmp_path / "coeffs.csv").write_text("ell,a_ell\n5,1\n", encoding="utf-8")
    path = tmp_path / "run.cfg"
    path.write_text(config.replace("optimal_level_asserted = true\n", ""), encoding="utf-8")
    assert main(["carayol", "--level", "11", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {path}: missing config key `optimal_level_asserted`\n"
    )


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
