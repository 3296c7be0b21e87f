"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports,
no module imports a name it does not use, and no class writes its own JSON."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import lambda_forge
from lambda_forge import cli, config, curves, density, forms, levels, residual

from test_bench_names import RecordingTracer, bench_run  # noqa: F401  (a fixture)


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


def imported_names(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Each name an import statement binds, with the line it is named on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def listed_in_all(tree: ast.Module) -> set[str]:
    return {
        name
        for node in tree.body if isinstance(node, ast.Assign)
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for name in ast.literal_eval(node.value)
    }


def test_every_import_is_used_or_traced(bench_run):
    # No linter runs on this package.  A name imported only for the benchmark's
    # tracer, which wraps it by name on the importing module, sits on a
    # "# noqa: F401" line, and must be one the tracer wraps there.
    tracer = RecordingTracer()
    bench_run.install_full_trace(tracer, cli, config, curves, density, forms, levels, residual)
    traced = {(module.__name__, attr) for module, attr in tracer.patched}
    unused, untraced = [], []
    for path in sorted(Path(lambda_forge.__file__).parent.glob("*.py")):
        module = "lambda_forge" if path.stem == "__init__" else f"lambda_forge.{path.stem}"
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        # a name counts as used where it is read: an import that is only rebound is dead
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= listed_in_all(tree)
        for name, line in imported_names(tree):
            if "# noqa: F401" in lines[line - 1]:
                if (module, name) not in traced:
                    untraced.append(f"{module}.{name}")
            elif name not in used:
                unused.append(f"{module}.{name}")
    assert unused == []
    assert untraced == []


def test_no_class_defines_as_dict():
    # a report is its dataclass, written through residual.json_value: an
    # as_dict method would be a second schema, and a field it missed would be
    # dropped from the report
    offenders = [
        f"{path.stem}.{node.name}"
        for path in sorted(Path(lambda_forge.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "as_dict"
    ]
    assert offenders == []


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
