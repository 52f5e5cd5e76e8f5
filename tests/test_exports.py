import importlib
import pkgutil

import pytest

import nlrd

MODULES = ["nlrd"] + [f"nlrd.{m.name}" for m in pkgutil.iter_modules(nlrd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
