"""Every exported name resolves, so a deleted function cannot linger in an export list, and no module
reads another module's private names, so each module is used through its exports alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cib

MODULES = sorted(info.name for info in pkgutil.iter_modules(cib.__path__))


def test_package_exports_resolve():
    assert [name for name in cib.__all__ if not hasattr(cib, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cib.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _private_reads(tree: ast.Module) -> list[str]:
    """``module._name`` reads and ``from .module import _name`` imports of another cib module's private names."""
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "cib"):
            for alias in node.names:
                if node.module in (None, "cib"):  # from . import data_io [as io]: a module
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"from {node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_another_modules_private_names(name):
    path = Path(cib.__file__).parent / f"{name}.py"
    assert _private_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_private_read_guard_sees_both_forms():
    tree = ast.parse("from . import data_io as io\nfrom .model import _Adam, train\nio._fits('int', '[0, 1)', 0)\n")
    assert _private_reads(tree) == ["from model import _Adam", "io._fits"]
