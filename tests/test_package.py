"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports."""

import ast
from pathlib import Path

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
