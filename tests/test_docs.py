"""The docstring examples in the library run and hold."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import znec


def test_docstring_examples():
    attempted = failed = 0
    for info in pkgutil.iter_modules(znec.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        result = doctest.testmod(importlib.import_module(f"znec.{info.name}"))
        attempted += result.attempted
        failed += result.failed
    assert failed == 0
    assert attempted >= 7


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 8
