"""The paper's certified inputs, the rows of ``forms.HYPOTHESES``: each is named
in the config, echoed under ``assertions`` by every report, and refused, with
its own text, by exactly the operations that need it true."""

import json

import pytest

from lambda_forge import levels
from lambda_forge.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, main
from lambda_forge.config import load_config
from lambda_forge.errors import ConfigError
from lambda_forge.forms import HYPOTHESES
from lambda_forge.residual import ASSERTED_ONLY_ITEMS

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

# each operation on a tiny range, by the name its refusals are listed under
OPERATIONS = {
    "classify": ["classify", "--from", "2", "--to", "60", "--workers", "1"],
    "plan": ["plan", "--target-lambda", "1", "--scan-bound", "1000"],
    "verify-density": ["verify-density", "--bound", "300", "--workers", "1"],
    "enumerate-gl2": ["verify-density", "--enumerate-gl2", "5"],
    "carayol": ["carayol", "--level", str(11 * 37)],
    "sigma": ["sigma", "--from", "2", "--to", "60"],
    "screen-p": ["screen-p", "--p", "7"],
    "a-ell": ["a-ell", "--ell", "13"],
}
# a config line that denies one input: (the line it replaces, the report key, the value echoed)
DENIALS = {
    "surjective_mod_p = false": ("surjective_mod_p = true", "surjective_mod_p", False),
    "mu_zero = false": ("mu_zero = true", "mu_zero", False),
    "lambda_g = -1": ("lambda_g = 0", "lambda_g_certified", -1),
    "optimal_level_asserted = false": ("optimal_level_asserted = true", "optimal_level", False),
}
SURJECTIVITY = ("density verification needs the asserted surjectivity of the mod-p image; "
                "config asserts surjective_mod_p = false")
MU_ZERO = ("lambda transfer requires the certified vanishing of mu_p(g); "
           "config asserts mu_zero = false")
# (denial, operation) -> the refusal; every other pair runs and echoes the denial
REFUSALS = {
    ("surjective_mod_p = false", "verify-density"): SURJECTIVITY,
    ("mu_zero = false", "plan"): MU_ZERO,
    # a form built with a negative lambda_g is refused wherever a run builds one
    **{("lambda_g = -1", operation): "lambda_g must be >= 0, got -1"
       for operation in OPERATIONS if operation not in ("enumerate-gl2", "screen-p")},
}


def denied_config(tmp_path, denial: str) -> str:
    old = DENIALS[denial][0]
    path = tmp_path / "run.cfg"
    path.write_text(CURVE_CFG.replace(old + "\n", denial + "\n"), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("denial", DENIALS)
def test_only_the_operations_that_need_an_input_refuse_it(tmp_path, capsys, denial, operation):
    command, *flags = OPERATIONS[operation]
    code = main([command, "--config", denied_config(tmp_path, denial), *flags])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_COMPUTE)
    assert "Traceback" not in captured.err
    refusal = REFUSALS.get((denial, operation))
    if refusal is not None:
        assert (code, captured.out, captured.err) == (EXIT_CONFIG, "", f"config error: {refusal}\n")
        return
    assert (code, captured.err) == (EXIT_OK, "")
    _, report_key, value = DENIALS[denial]
    assert json.loads(captured.out)["assertions"][report_key] == value


def test_plan_refuses_mu_zero_false_before_it_sweeps(tmp_path, capsys, monkeypatch):
    # the refusal came only once the sweep had found every prime asked for:
    # about 1 s on this request
    def sweep(*args, **kwargs):
        raise AssertionError("plan swept before refusing")

    monkeypatch.setattr(levels, "classify_chunks", sweep)
    config = denied_config(tmp_path, "mu_zero = false")
    code = main(["plan", "--config", config, "--target-lambda", "20000",
                 "--scan-bound", "5000000"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_CONFIG, "", f"config error: {MU_ZERO}\n")


def test_plan_checks_its_arguments_before_the_hypothesis(tmp_path, capsys):
    config = denied_config(tmp_path, "mu_zero = false")
    assert main(["plan", "--config", config, "--target-lambda", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "usage error: target = lambda_g and omega count 0 would leave the level unchanged")


def required_keys(tmp_path, config: str) -> set[str]:
    """The keys of ``config`` without which it does not load."""
    (tmp_path / "coeffs.csv").write_text("ell,a_ell\n5,1\n", encoding="utf-8")
    path = tmp_path / "run.cfg"
    required = set()
    for line in config.splitlines(True):
        key = line.split(" = ")[0]
        path.write_text(config.replace(line, ""), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        if str(exc.value) == f"{path}: missing config key `{key}`":
            required.add(key)
    return required


def test_the_table_is_the_inputs_every_config_requires(tmp_path):
    common = required_keys(tmp_path, CURVE_CFG) & required_keys(tmp_path, TABLE_CFG)
    assert common - {"backend", "p"} == {key for key, _, _, _ in HYPOTHESES}
    assert len(HYPOTHESES) == 4


def test_the_table_is_the_echoed_inputs_in_screen_p_order(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CURVE_CFG, encoding="utf-8")
    report_keys = [report_key for _, report_key, _, _ in HYPOTHESES]
    assert set(report_keys) == load_config(path).assertions().keys() - {"status"}
    assert main(["screen-p", "--p", "7", "--config", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["asserted_only"] == report_keys
    assert ASSERTED_ONLY_ITEMS == tuple(report_keys)


@pytest.mark.parametrize("missing, named", [
    *(((key,), key) for key in ("surjective_mod_p", "mu_zero", "lambda_g",
                                "optimal_level_asserted")),
    # the keys were checked in the order lambda_g, mu_zero, surjective_mod_p,
    # optimal_level_asserted: this config was refused for `lambda_g`
    (("lambda_g", "surjective_mod_p"), "surjective_mod_p"),
])
def test_the_first_missing_hypothesis_is_named_in_the_tables_order(tmp_path, capsys, missing,
                                                                   named):
    path = tmp_path / "run.cfg"
    lines = [line for line in CURVE_CFG.splitlines(True) if line.split(" = ")[0] not in missing]
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["screen-p", "--p", "7", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {path}: missing config key `{named}`\n"
