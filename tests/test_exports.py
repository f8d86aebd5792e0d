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


def test_package_exports_are_exported_by_their_submodules():
    # a name the package re-exports must be public where it is defined too
    missing = []
    for name in cvswap.__all__:
        if name == "__version__":
            continue
        home = getattr(cvswap, name).__module__
        if name not in importlib.import_module(home).__all__:
            missing.append(f"{home}.{name}")
    assert missing == []
