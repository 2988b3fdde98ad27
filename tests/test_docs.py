"""The docstring examples in the library run and hold."""

import doctest
import importlib
import pkgutil

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
