import importlib
import pkgutil

import pytest

import cvswap

_MODULES = ["cvswap"] + [f"cvswap.{info.name}" for info in pkgutil.iter_modules(cvswap.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_exported_name_resolves(module_name):
    # a stale __all__ entry breaks only `from ... import *`
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
