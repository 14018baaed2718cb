"""The error module keeps one class per catch, and each class has its exit code."""

import ast
import inspect
from pathlib import Path

import pytest

from batlife import cli, errors
from batlife.errors import DataError, NumericalError

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "batlife").glob("*.py"))
CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if cls.__module__ == errors.__name__]
EXIT_CODES = {DataError: 3, NumericalError: 4}


def _names(node) -> set[str]:
    """Every plain name in an expression: ``X``, ``X(...)``, ``(X, Y)``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


def _names_in(kind) -> set[str]:
    """The names in the ``raise`` expressions (``ast.Raise``) or the ``except``
    clauses (``ast.ExceptHandler``) of the package's sources."""
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and kind is ast.Raise:
                found |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and kind is ast.ExceptHandler:
                found |= _names(node.type)
    return found


def _family(cls) -> type:
    (family,) = [base for base in EXIT_CODES if issubclass(cls, base)]
    return family


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestContract:
    def test_derives_from_exactly_one_family(self, cls):
        assert sum(issubclass(cls, base) for base in EXIT_CODES) == 1

    def test_is_raised_somewhere(self, cls):
        assert cls.__name__ in _names_in(ast.Raise)

    def test_is_caught_somewhere(self, cls):
        # The two family bases are caught by cli.main, the others where named.
        assert cls.__name__ in _names_in(ast.ExceptHandler)

    def test_cli_exits_with_the_family_code(self, cls, monkeypatch, capsys):
        def refuse(args):
            raise cls("refused on purpose")

        monkeypatch.setattr(cli, "cmd_report", refuse)
        assert cli.main(["report", "--in", "unused"]) == EXIT_CODES[_family(cls)]
        assert capsys.readouterr().err == f"error ({cls.__name__}): refused on purpose\n"
