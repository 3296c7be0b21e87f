import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from math import isqrt
from pathlib import Path

import pytest

from lambda_forge import (
    FormContext,
    PrimeRange,
    Verdict,
    a_ell,
    classify_chunks,
    classify_range,
    cli,
    load_coefficients,
    residual,
    sigma_columns,
)
from lambda_forge.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, main
from lambda_forge.config import build_context, load_config

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

TABLE_CSV = """\
ell,a_ell
2,-2
3,-1
5,1
13,4
"""

TABLE_CFG = """\
backend = table
table_path = coeffs.csv
level = 11
p = 5
lambda_g = 0
mu_zero = true
surjective_mod_p = false
"""

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def curve_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CURVE_CFG, encoding="utf-8")
    return str(path)


@pytest.fixture()
def table_config(tmp_path):
    (tmp_path / "coeffs.csv").write_text(TABLE_CSV, encoding="utf-8")
    path = tmp_path / "table.cfg"
    path.write_text(TABLE_CFG, encoding="utf-8")
    return str(path)


@pytest.fixture()
def p7_table(table_config):
    """The table config at p = 7 with surjectivity asserted, and a writer of its table.

    The writer puts down random Hasse-bounded rows for the primes to 3000,
    less the ``gaps``.
    """
    path = Path(table_config)
    text = path.read_text().replace("p = 5", "p = 7")
    path.write_text(text.replace("surjective_mod_p = false", "surjective_mod_p = true"))
    rng = random.Random(17)
    rows = {ell: 3 if ell == 7 else rng.randint(-isqrt(4 * ell), isqrt(4 * ell))
            for ell in PrimeRange(2, 3000)}

    def write(*gaps):
        lines = "".join(f"{ell},{a}\n" for ell, a in rows.items() if ell not in gaps)
        (path.parent / "coeffs.csv").write_text("ell,a_ell\n" + lines)

    return table_config, write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return json.loads(out)


class TestClassify:
    def test_csv_deterministic(self, curve_config, capsys):
        argv = ["classify", "--config", curve_config, "--from", "2", "--to", "100",
                "--format", "csv", "--workers", "1"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == "ell,trace_mod_p,verdict"

    def test_json_report_envelope(self, curve_config, capsys):
        report = run_json(capsys, ["classify", "--config", curve_config,
                                   "--from", "2", "--to", "60", "--workers", "1"])
        assert report["schema_version"] == 1
        assert report["assertions"]["mu_zero"] is True
        assert report["counts"]["Skipped"] == 2  # 7 and 11
        assert report["classification"][0]["ell"] == 2

    def test_missing_config_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CURVE_CFG.replace("p = 7\n", ""), encoding="utf-8")
        code = main(["classify", "--config", str(bad), "--from", "2", "--to", "10"])
        assert code == EXIT_CONFIG
        assert "`p`" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("p = 7", "p = 4", "p must be a prime >= 5, got 4"),
        ("lambda_g = 0", "lambda_g = -1", "lambda_g must be >= 0, got -1"),
    ], ids=["p", "lambda_g"])
    def test_bad_attested_value_is_config_error(self, tmp_path, capsys, old, new, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CURVE_CFG.replace(old + "\n", new + "\n"), encoding="utf-8")
        code = main(["classify", "--config", str(bad), "--from", "2", "--to", "10"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", [["classify", "--from", "2", "--to", "10"],
                                         ["verify-density", "--bound", "100"]],
                             ids=["classify", "verify-density"])
    def test_negative_workers_exit_2(self, curve_config, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", curve_config, "--workers", "-5"])
        assert exc.value.code == EXIT_CONFIG
        assert "--workers: must be >= 0" in capsys.readouterr().err

    def test_table_gap_exit_3(self, table_config, capsys):
        code = main(["classify", "--config", table_config, "--from", "2", "--to", "40",
                     "--workers", "1"])
        assert code == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert "prime 7" in err  # first uncovered prime named

    def test_out_file(self, curve_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["classify", "--config", curve_config, "--from", "2", "--to", "30",
                     "--workers", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["schema_version"] == 1

    def test_unwritable_out_exit_2(self, curve_config, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["classify", "--config", curve_config, "--from", "2", "--to", "30",
                     "--workers", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out) in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_out_refused_before_the_sweep(self, curve_config, tmp_path, capsys,
                                                     monkeypatch, fmt):
        sweeps = []
        for name in ("classify_range", "classify_chunks"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: sweeps.append(args))
        out = tmp_path / "missing" / "x.csv"
        code = main(["classify", "--config", curve_config, "--from", "2", "--to", "2000000",
                     "--format", fmt, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert sweeps == []
        assert str(out) in capsys.readouterr().err

    def test_failed_command_leaves_out_empty(self, table_config, tmp_path, capsys):
        out = tmp_path / "report.csv"
        out.write_text("an earlier report\n")
        code = main(["classify", "--config", table_config, "--from", "2", "--to", "40",
                     "--format", "csv", "--workers", "1", "--out", str(out)])
        assert code == EXIT_COMPUTE  # 7 is missing from the table
        assert out.read_text() == ""


class TestPlan:
    def test_conductor_prime_outside_discriminant_exit_2(self, tmp_path, capsys):
        # 13 does not divide the discriminant -11^5, so 143 cannot be the conductor
        shipped = (ROOT / "configs" / "default.cfg").read_text(encoding="utf-8")
        assert "conductor = 11\n" in shipped
        bad = tmp_path / "bad.cfg"
        bad.write_text(shipped.replace("conductor = 11\n", "conductor = 143\n")
                       .replace("discriminant = -161051\n", ""), encoding="utf-8")
        code = main(["plan", "--config", str(bad), "--target-lambda", "1"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad curve: conductor 143: its factor 13" in captured.err

    def test_non_minimal_model_exit_2(self, tmp_path, capsys):
        # 11a1 scaled by u = 2503 is singular mod 2503, which is not in the conductor
        u = 2503
        scaled = ", ".join(map(str, (0, -u**2, u**3, -10 * u**4, -20 * u**6)))
        shipped = (ROOT / "configs" / "default.cfg").read_text(encoding="utf-8")
        bad = tmp_path / "scaled.cfg"
        bad.write_text(shipped.replace("0, -1, 1, -10, -20", scaled)
                       .replace("discriminant = -161051\n", ""), encoding="utf-8")
        code = main(["verify-density", "--config", str(bad), "--bound", "5000", "--workers", "1"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad curve: model is singular mod 2503" in captured.err

    def test_plan_report(self, curve_config, capsys):
        report = run_json(capsys, ["plan", "--config", curve_config,
                                   "--target-lambda", "2", "--omega-count", "1",
                                   "--scan-bound", "1000"])
        assert report["predicted_lambda"] == 2
        assert len(report["pi_primes"]) == 2
        assert len(report["omega_primes"]) == 1
        assert report["predicted_mu"] == 0
        assert report["existence"] == "DiamondTaylorAsserted"
        assert report["N_f"] == 11 * report["N_sigma"]
        assert all("1" in c["satisfied_cases"] for c in report["carayol_cases"])
        assert report["bk_rank"] == {"candidates": [0, 2]}

    def test_bk_rank_exact_when_small(self, curve_config, capsys):
        report = run_json(capsys, ["plan", "--config", curve_config,
                                   "--target-lambda", "1", "--scan-bound", "1000"])
        assert report["bk_rank"] == {"exact": 1}

    def test_empty_request_exit_2(self, curve_config, capsys):
        code = main(["plan", "--config", curve_config, "--target-lambda", "0",
                     "--omega-count", "0"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("target, omega", [("1", "-1"), ("0", "-2")])
    def test_negative_omega_count_exit_2(self, curve_config, capsys, target, omega):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--config", curve_config, "--target-lambda", target,
                  "--omega-count", omega])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--omega-count: must be >= 0, got {omega}" in captured.err

    def test_scarcity_exit_3(self, curve_config, capsys):
        code = main(["plan", "--config", curve_config, "--target-lambda", "6",
                     "--scan-bound", "60"])
        assert code == EXIT_COMPUTE


class TestVerifyDensity:
    def test_enumerate_gl2(self, curve_config, capsys):
        report = run_json(capsys, ["verify-density", "--config", curve_config,
                                   "--enumerate-gl2", "7"])
        assert report["gl2_order"] == 2016
        assert report["count_Y"] == 224
        assert report["ratio_Y"] == "1/9"
        assert report["ratio_Y_prime"] == "1/9"

    def test_small_bound_underpowered(self, curve_config, capsys):
        report = run_json(capsys, ["verify-density", "--config", curve_config,
                                   "--bound", "100", "--workers", "1"])
        assert report["pi"]["verdict"] == "Underpowered"
        assert report["omega"]["verdict"] == "Underpowered"

    def test_moderate_bound_consistent(self, curve_config, capsys):
        report = run_json(capsys, ["verify-density", "--config", curve_config,
                                   "--bound", "30000", "--workers", "1"])
        assert report["pi"]["verdict"] == "Consistent"
        assert report["omega"]["verdict"] == "Consistent"
        assert report["pi"]["exact_density"] == "2/21"
        assert report["omega"]["exact_density"] == "1/9"

    def test_csv_dump(self, curve_config, tmp_path, capsys, monkeypatch):
        argv = ["verify-density", "--config", curve_config, "--bound", "200", "--workers", "1"]
        assert main(argv) == EXIT_OK
        plain_report = capsys.readouterr().out

        classified = Counter()
        chunk_classifier = residual.classify_chunk  # what the sweep calls per chunk

        def counting(ells, exposed, a_ells, p):
            classified.update(ells[exposed].tolist())
            return chunk_classifier(ells, exposed, a_ells, p)

        monkeypatch.setattr(residual, "classify_chunk", counting)
        dump = tmp_path / "per_prime.csv"
        assert main(argv + ["--csv", str(dump)]) == EXIT_OK
        assert capsys.readouterr().out == plain_report
        assert set(classified.values()) == {1}  # one sweep feeds both the CSV and the report
        assert sorted(classified) == [ell for ell in PrimeRange(2, 200) if ell not in (7, 11)]

        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "ell,trace_mod_p,verdict"
        assert len(lines) == 1 + sum(1 for _ in PrimeRange(2, 200))
        ctx = build_context(load_config(curve_config))
        expected = io.StringIO()
        list(residual.tee_to_csv(residual.classify_chunks(ctx, PrimeRange(2, 200)), expected))
        assert dump.read_text() == expected.getvalue()

    def test_csv_changes_no_report_byte(self, curve_config, tmp_path, capsys, two_cores):
        # 2,262 primes: past the first chunk, so a 2-worker sweep runs on a pool
        argv = ["verify-density", "--config", curve_config, "--bound", "20000"]
        reports, dumps = set(), set()
        for workers in ("1", "2"):
            dump = tmp_path / f"per_prime_{workers}.csv"
            for extra in ([], ["--csv", str(dump)]):
                assert main([*argv, "--workers", workers, *extra]) == EXIT_OK
                reports.add(capsys.readouterr().out)
            dumps.add(dump.read_text())
        assert len(reports) == 1 and len(dumps) == 1

    def test_fetches_only_where_a_ell_decides_a_verdict(self, curve_config, capsys, monkeypatch):
        fetched = Counter()
        fetch = FormContext.coefficient_column

        def spy(self, ells):
            fetched.update(ells.tolist())
            return fetch(self, ells)

        monkeypatch.setattr(FormContext, "coefficient_column", spy)
        argv = ["verify-density", "--config", curve_config, "--bound", "20000", "--workers", "1"]
        assert main(argv) == EXIT_OK
        assert set(fetched.values()) == {1}
        # N_g * p = 77, and a class with det = ell = +-1 mod 7 is neither Pi nor Omega
        assert list(fetched) == [ell for ell in PrimeRange(2, 20000)
                                 if ell not in (7, 11) and ell % 7 not in (1, 6)]

    def test_a_gap_that_decides_no_verdict(self, p7_table, tmp_path, capsys, two_cores):
        # 2003 = 1 mod 7: no a_2003 changes a verdict, so only --csv needs it
        config, write = p7_table
        argv = ["verify-density", "--config", config, "--bound", "3000"]
        write()
        assert main(argv) == EXIT_OK
        complete = capsys.readouterr().out
        write(2003)
        for workers in ("1", "2"):
            assert main([*argv, "--workers", workers]) == EXIT_OK
            assert capsys.readouterr().out == complete
        assert main([*argv, "--csv", str(tmp_path / "per_prime.csv")]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "prime 2003" in captured.err

    def test_a_gap_that_decides_a_verdict(self, p7_table, tmp_path, capsys, two_cores):
        # 29 = 1 mod 7 decides no verdict; 1999 = 4 mod 7 does
        config, write = p7_table
        argv = ["verify-density", "--config", config, "--bound", "3000"]
        write(29, 1999)
        errors = []
        for workers in ("1", "2"):
            assert main([*argv, "--workers", workers]) == EXIT_COMPUTE
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert "prime 1999" in errors[0]
        assert errors[0] == errors[1]
        assert main([*argv, "--csv", str(tmp_path / "per_prime.csv")]) == EXIT_COMPUTE
        assert "prime 29" in capsys.readouterr().err

    def test_unwritable_csv_exit_2(self, curve_config, tmp_path, capsys):
        dump = tmp_path / "missing" / "per_prime.csv"
        code = main(["verify-density", "--config", curve_config, "--bound", "200",
                     "--workers", "1", "--csv", str(dump)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(dump) in captured.err

    def test_surjectivity_required(self, table_config, capsys):
        code = main(["verify-density", "--config", table_config, "--bound", "100"])
        assert code == EXIT_CONFIG  # hypothesis violation is a config-level refusal


class TestFailedSweep:
    """A sweep that fails at a fetched prime exits 3 and leaves every output empty."""

    @pytest.mark.parametrize("command", [
        ["classify", "--from", "2", "--to", "3000", "--format", "csv"],
        ["classify", "--from", "2", "--to", "3000"],
        ["sigma", "--from", "2", "--to", "3000", "--format", "csv"],
        ["sigma", "--from", "2", "--to", "3000"],
        ["a-ell", "--from", "2", "--to", "3000"],
        ["verify-density", "--bound", "3000", "--csv", "{dir}/per_prime.csv"],
    ], ids=["classify-csv", "classify-json", "sigma-csv", "sigma-json", "a-ell",
            "verify-density-csv"])
    @pytest.mark.parametrize("report", ["stdout", "out"])
    def test_leaves_every_output_empty(self, p7_table, tmp_path, capsys, monkeypatch,
                                       two_cores, command, report):
        # every one of these sweeps fetches a_1999 (1999 = 4 mod 7) and fails there,
        # past rows it has already written
        config, write = p7_table
        write(1999)
        argv = [arg.format(dir=tmp_path) for arg in command] + ["--config", config]
        files = [tmp_path / "per_prime.csv"] if "--csv" in command else []
        if report == "out":
            files.append(tmp_path / "report")
            argv += ["--out", str(files[-1])]
        for threads in ("1", "2"):
            monkeypatch.setenv("LAMBDA_FORGE_THREADS", threads)
            for path in files:
                path.write_text("stale\n")
            assert main(argv) == EXIT_COMPUTE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("computation error: "
                                    "backend supplies no coefficient for prime 1999\n")
            assert [path.read_bytes() for path in files] == [b""] * len(files)


class TestCarayol:
    def test_admissible_level(self, curve_config, capsys):
        report = run_json(capsys, ["carayol", "--config", curve_config,
                                   "--level", str(11 * 37)])
        assert report["verdict"] == "admissible"
        assert report["primes"][0]["ell"] == 37

    def test_structural(self, curve_config, capsys):
        report = run_json(capsys, ["carayol", "--config", curve_config, "--level", "26"])
        assert report["verdict"] == "inadmissible_structural"

    def test_gap_is_unknown(self, table_config, capsys):
        # the table has a_13 but no a_7: 7 stays unknown, 13 is decided
        report = run_json(capsys, ["carayol", "--config", table_config,
                                   "--level", str(11 * 7 * 13)])
        assert report["verdict"] == "unknown"
        assert [(row["ell"], row["status"]) for row in report["primes"]] == [
            (7, "unknown"), (13, "admissible")]
        assert report["primes"][0]["detail"] == "cases 1 undecidable: no coefficient for 7"

    def test_trial_bound_refusal_exit_3(self, curve_config, capsys):
        # 11 * 1000003 * 1000033: both large primes lie above the trial-division bound
        code = main(["carayol", "--config", curve_config, "--level", "11000396001089"])
        assert code == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("cofactor 1000036000099 of 11000396001089 not factorable by trial "
                "division below 1000000") in captured.err


class TestSigma:
    def test_csv_schema(self, curve_config, capsys):
        code = main(["sigma", "--config", curve_config, "--from", "2", "--to", "50",
                     "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ell,s,d,sigma"
        # ramified primes 7 and 11 never appear
        ells = [int(line.split(",")[0]) for line in lines[1:]]
        assert 7 not in ells and 11 not in ells

    def test_json_sigma_values(self, curve_config, capsys):
        report = run_json(capsys, ["sigma", "--config", curve_config,
                                   "--from", "2", "--to", "50"])
        by_ell = {row["ell"]: row for row in report["sigma"]}
        # 37 is a Pi prime at p = 7: s = 1, d = 1
        assert by_ell[37]["sigma"] == 1
        # 5 is an Omega prime: d = 0
        assert by_ell[5]["sigma"] == 0


class TestScreenP:
    def test_screen_report(self, curve_config, capsys):
        report = run_json(capsys, ["screen-p", "--config", curve_config, "--p", "7"])
        assert report["eligible_mechanically"] is True
        assert "surjective_mod_p" in report["asserted_only"]

    def test_table_backend_rejected(self, table_config, capsys):
        code = main(["screen-p", "--config", table_config, "--p", "7"])
        assert code == EXIT_CONFIG


class TestAEll:
    def test_explicit_ells(self, curve_config, capsys):
        report = run_json(capsys, ["a-ell", "--config", curve_config,
                                   "--ell", "13", "--ell", "2"])
        assert report["coefficients"] == [{"a_ell": -2, "ell": 2}, {"a_ell": 4, "ell": 13}]

    def test_csv_round_trips_into_table(self, curve_config, tmp_path, capsys):
        out = tmp_path / "dump.csv"
        code = main(["a-ell", "--config", curve_config, "--from", "2", "--to", "60",
                     "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        table = load_coefficients(out, level=11)
        coefficients = dict(zip(table.ells.tolist(), table.a_ells.tolist()))
        assert coefficients[2] == -2
        assert coefficients[13] == 4

    def test_requires_selection(self, curve_config, capsys):
        assert main(["a-ell", "--config", curve_config]) == EXIT_CONFIG

    @pytest.mark.parametrize("selection", [
        ["a-ell", "--ell", "13", "--from", "2"],
        ["a-ell", "--ell", "13", "--to", "20"],
        ["a-ell", "--ell", "13", "--from", "2", "--to", "20"],
        # the census has no per-prime rows to write
        ["verify-density", "--enumerate-gl2", "7", "--csv", "{dir}/per_prime.csv"],
    ])
    def test_ells_and_a_range_together_refused(self, curve_config, tmp_path, capsys, selection):
        command, *flags = [arg.format(dir=tmp_path) for arg in selection]
        assert main([command, "--config", curve_config, *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        either = {"a-ell": "--ell or --from and --to", "verify-density": "--enumerate-gl2 or --csv"}
        assert captured.err == f"config error: {command} takes {either[command]}, not both\n"
        assert not (tmp_path / "per_prime.csv").exists()

    def test_range_equals_per_prime_rows(self, curve_config, capsys):
        # one batched lookup prints the bytes a prime-by-prime a_ell loop would
        assert main(["a-ell", "--config", curve_config, "--from", "2", "--to", "20000",
                     "--format", "csv"]) == EXIT_OK
        ctx = build_context(load_config(curve_config))
        rows = [f"{ell},{a_ell(ctx, ell)}" for ell in PrimeRange(2, 20000)
                if not ctx.divides_ngp(ell)]
        assert capsys.readouterr().out == "\n".join(["ell,a_ell", *rows]) + "\n"

    def test_range_is_the_same_at_one_and_two_workers(self, curve_config, capsys, monkeypatch,
                                                       two_cores):
        argv = ["a-ell", "--config", curve_config, "--from", "2", "--to", "20000"]
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("LAMBDA_FORGE_THREADS", threads)
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_range_raises_its_first_gap(self, table_config, capsys, monkeypatch, two_cores):
        # 1999 and 2003 are missing from the table: the lower gap is the error
        rows = [f"{ell},1\n" for ell in PrimeRange(2, 3000) if ell not in (1999, 2003)]
        (Path(table_config).parent / "coeffs.csv").write_text("ell,a_ell\n" + "".join(rows))
        errors = []
        for threads in ("1", "2"):
            monkeypatch.setenv("LAMBDA_FORGE_THREADS", threads)
            argv = ["a-ell", "--config", table_config, "--from", "2", "--to", "3000"]
            assert main(argv) == EXIT_COMPUTE
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert "1999" in errors[0] and "2003" not in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("ells, message", [
        (["13", "15", "11"], "ell = 11 divides N_g * p"),
        (["13", "9", "7"], "ell = 7 divides N_g * p"),
        (["15", "13", "9"], "ell = 9 is not prime"),
    ])
    def test_first_refused_ell_wins(self, curve_config, capsys, ells, message):
        argv = ["a-ell", "--config", curve_config]
        for ell in ells:
            argv += ["--ell", ell]
        assert main(argv) == EXIT_CONFIG
        assert f"usage error: {message}" in capsys.readouterr().err


def test_a_table_sweep_never_imports_the_process_pool(table_config):
    # the pool module is imported where a pool starts, and a table never starts one
    script = (
        "import sys\n"
        "from lambda_forge import cli\n"
        f"argv = ['classify', '--config', {table_config!r}, '--from', '2', '--to', '5',"
        " '--format', 'csv', '--workers', '2']\n"
        "assert cli.main(argv) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('concurrent')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


class TestNoPerPrimeObjects:
    """The streaming commands read classified columns; no object is built a prime."""

    @pytest.fixture()
    def built(self, monkeypatch):
        counts = Counter()
        init = residual.FrobeniusClass.__init__

        def counting(self, *args, **kwargs):
            counts["FrobeniusClass"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(residual.FrobeniusClass, "__init__", counting)
        return counts

    @pytest.fixture()
    def wide_table_config(self, table_config):
        rows = [f"{ell},{1 if ell == 7 else 2 * (ell % 3) - 2}\n" for ell in PrimeRange(2, 20000)]
        (Path(table_config).parent / "coeffs.csv").write_text("ell,a_ell\n" + "".join(rows))
        text = Path(table_config).read_text().replace("p = 5", "p = 7")
        text = text.replace("surjective_mod_p = false", "surjective_mod_p = true")
        Path(table_config).write_text(text)
        return table_config

    @pytest.mark.parametrize("argv, last", [
        (["classify", "--from", "2", "--to", "20000", "--format", "csv"], "19997,"),
        (["classify", "--from", "2", "--to", "20000"], '"ell": 19997,'),
        (["sigma", "--from", "2", "--to", "20000", "--format", "csv"], "19997,"),
        (["sigma", "--from", "2", "--to", "20000"], '"ell": 19997,'),
        (["a-ell", "--from", "2", "--to", "20000"], '"ell": 19997\n'),
        (["verify-density", "--bound", "20000"], '"sample_primes": 2260'),
        (["verify-density", "--bound", "20000", "--csv", "{dir}/per_prime.csv"],
         '"sample_primes": 2260'),
    ], ids=["classify-csv", "classify-json", "sigma-csv", "sigma-json", "a-ell-json",
            "verify-density", "verify-density-csv"])
    def test_streaming_commands(self, wide_table_config, built, capsys, argv, last):
        argv = [arg.format(dir=Path(wide_table_config).parent) for arg in argv]
        assert main([*argv, "--config", wide_table_config]) == EXIT_OK
        assert last in capsys.readouterr().out  # the whole range went through
        assert built == {}

    def test_the_spy_sees_the_json_report(self, curve_config, built, capsys):
        # plan picks the first Pi prime of 11a at p = 7 from the sweep's columns
        report = run_json(capsys, ["plan", "--config", curve_config, "--target-lambda", "1",
                                   "--scan-bound", "500"])
        assert report["pi_primes"] == [37]
        assert built == {}
        # the spy counts an object built a prime where one is built
        ctx = build_context(load_config(curve_config))
        assert next(classify_range(ctx, PrimeRange(2, 500))).ell == 2
        assert built == {"FrobeniusClass": 1}


def dict_path_report(command: str, config: str, lo: int, hi: int) -> dict:
    """The reference: a row report as one dict a row, before json.dumps."""
    cfg = load_config(config)
    ctx = build_context(cfg)
    span = {"from": lo, "to": hi}
    if command == "classify":
        rows = [fc.as_dict() for fc in classify_range(ctx, PrimeRange(lo, hi))]
        counts = {v.value: 0 for v in Verdict}
        for row in rows:
            counts[row["verdict"]] += 1
        payload = {"range": span, "counts": counts, "classification": rows}
    elif command == "sigma":
        table = []
        for chunk in classify_chunks(ctx, PrimeRange(lo, hi)):
            table += zip(*(column.tolist() for column in sigma_columns(chunk)))
        rows = [{"ell": e, "s": s, "d": d, "sigma": sg} for e, s, d, sg in table]
        payload = {"range": span, "sigma": rows}
    else:
        ells = [ell for ell in PrimeRange(lo, hi) if not ctx.divides_ngp(ell)]
        payload = {"coefficients": [{"ell": ell, "a_ell": a_ell(ctx, ell)} for ell in ells]}
    return {**payload, "schema_version": 1, "assertions": cfg.assertions()}


@pytest.mark.usefixtures("two_cores")
class TestJsonRowsFromColumns:
    """The row reports print, from columns, the bytes of the dict path through json.dumps."""

    @staticmethod
    def argv(command: str, config: str, lo: int, hi: int) -> list[str]:
        argv = [command.split()[0], "--config", config]
        if command == "a-ell --ell":
            ctx = build_context(load_config(config))
            return argv + [f"--ell={ell}" for ell in PrimeRange(lo, hi)
                           if not ctx.divides_ngp(ell)]
        return argv + ["--from", str(lo), "--to", str(hi)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command, lo, hi", [
        ("classify", 2, 5000), ("classify", 24, 28),
        ("sigma", 2, 5000), ("sigma", 24, 28),
        ("a-ell", 2, 5000), ("a-ell", 24, 28),
        ("a-ell --ell", 2, 5000),
    ], ids=["classify", "classify-empty", "sigma", "sigma-empty", "a-ell", "a-ell-empty",
            "a-ell-ells"])
    def test_bytes_of_the_dict_path(self, curve_config, capsys, monkeypatch, command, lo, hi,
                                    workers):
        monkeypatch.setenv("LAMBDA_FORGE_THREADS", workers)
        argv = self.argv(command, curve_config, lo, hi)
        if command == "classify":
            argv += ["--workers", workers]
        assert main(argv) == EXIT_OK
        reference = dict_path_report(command.split()[0], curve_config, lo, hi)
        assert capsys.readouterr().out == json.dumps(reference, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("command", ["classify", "sigma", "a-ell"])
    def test_timestamps(self, curve_config, capsys, command):
        assert main([*self.argv(command, curve_config, 2, 300), "--timestamps"]) == EXIT_OK
        out = capsys.readouterr().out
        masked = re.sub(r'"generated_at": "[^"]+"', '"generated_at": "T"', out)
        reference = dict_path_report(command, curve_config, 2, 300) | {"generated_at": "T"}
        assert masked != out
        assert masked == json.dumps(reference, sort_keys=True, indent=2) + "\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, curve_config, capsys):
        argv = ["plan", "--config", curve_config, "--target-lambda", "1",
                "--scan-bound", "500"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_timestamps_flag_adds_field(self, curve_config, capsys):
        report = run_json(capsys, ["screen-p", "--config", curve_config, "--p", "7",
                                   "--timestamps"])
        assert "generated_at" in report
