"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lambda_forge


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(lambda_forge.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in lambda_forge.__all__ if not hasattr(lambda_forge, name)]
    assert missing == []


def test_all_is_exactly_the_imported_public_names():
    assert len(lambda_forge.__all__) == len(set(lambda_forge.__all__))
    assert set(lambda_forge.__all__) == imported_public_names()


@pytest.mark.parametrize("preset, first_import, expected", [
    (None, "lambda_forge", "1"),
    ("3", "lambda_forge", "3"),
    (None, "numpy", None),
])
def test_numpy_starts_without_a_blas_thread_pool(preset, first_import, expected):
    # the package makes no BLAS call; a user's value wins, and once numpy is
    # loaded the variable is left alone, so nothing leaks to child processes
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(lambda_forge.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = (
        f"import os, {first_import}, lambda_forge\n"
        "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == repr(expected)
