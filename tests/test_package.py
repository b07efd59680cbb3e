"""Module export lists."""

import importlib
import pkgutil

import pytest

import adhocsv

MODULES = ["adhocsv"] + [f"adhocsv.{m.name}" for m in pkgutil.iter_modules(adhocsv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_public(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"
        assert not attr.startswith("_") or attr.endswith("__"), f"{name}.{attr} is private"
