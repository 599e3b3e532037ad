"""Every exported name resolves, so a deleted function cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import cib

MODULES = sorted(info.name for info in pkgutil.iter_modules(cib.__path__))


def test_package_exports_resolve():
    assert [name for name in cib.__all__ if not hasattr(cib, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cib.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
