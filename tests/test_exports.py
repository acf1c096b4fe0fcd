"""Every name a module lists in __all__ exists, and no module asserts."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import folindex

MODULES = ["folindex"] + sorted(
    "folindex." + info.name for info in pkgutil.iter_modules(folindex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statement(name):
    # python -O strips asserts, so a check written as one vanishes there;
    # the engine raises a FolindexError instead
    path = Path(importlib.import_module(name).__file__)
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], path.name
