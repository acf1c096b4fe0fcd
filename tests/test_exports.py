"""Every name a module lists in __all__ exists."""

import importlib
import pkgutil

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
