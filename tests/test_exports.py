"""Every exported name and every docstring link resolves, so a deleted function cannot linger in an
export list or a docstring, and no module reads another module's private names, so each module is used
through its exports alone."""

import ast
import importlib
import pkgutil
import re
import types
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


def test_the_only_exception_classes_are_the_run_failures():
    """A bad input or a broken contract is a plain ValueError; only a run's numbers have classes of their own."""
    defined = {obj.__name__ for name in MODULES for obj in vars(importlib.import_module(f"cib.{name}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == f"cib.{name}"}
    assert defined == {"NonFiniteError", "NonFiniteLossError"}


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


_LINK = re.compile(r":(?:func|meth|class|data|attr):`~?([\w.]+)`")


def _resolves(root, parts) -> bool:
    for part in parts:
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def _unresolved_links(module, source: str) -> list[str]:
    """The docstring link targets of ``source`` that name nothing in ``module``, the docstring's
    enclosing classes or ``cib.<module>``, in the order they appear."""
    found = []

    def visit(node, classes):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(node, ast.ClassDef):
                classes = [*classes, getattr(classes[-1] if classes else module, node.name)]
            roots = [module, *reversed(classes)]
            for target in _LINK.findall(ast.get_docstring(node) or ""):
                parts = target.removeprefix("cib.").split(".")
                package = [importlib.import_module(f"cib.{parts[0]}")] if parts[0] in MODULES else []
                if not (any(_resolves(root, parts) for root in roots) or any(_resolves(p, parts[1:]) for p in package)):
                    found.append(target)
        for child in ast.iter_child_nodes(node):
            visit(child, classes)

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("name", MODULES)
def test_docstring_links_resolve(name):
    path = Path(cib.__file__).parent / f"{name}.py"
    assert _unresolved_links(importlib.import_module(f"cib.{name}"), path.read_text(encoding="utf-8")) == []


def test_docstring_link_guard_sees_modules_classes_and_the_package():
    source = ('"""See :func:`~cib.model.evaluate`, :func:`model.no_such_name` and :class:`A`."""\n'
              "from cib import model\n"
              "class A:\n"
              '    """:meth:`b`, :meth:`A.b`, :meth:`gone` and :data:`cib.estimators.MODE_AS_PRINTED`."""\n'
              "    def b(self):\n"
              '        """:attr:`b.__name__` and :func:`objectives.cib_loss`."""\n')
    module = types.ModuleType("fake")
    exec(compile(source, "fake", "exec"), module.__dict__)
    assert _unresolved_links(module, source) == ["model.no_such_name", "gone"]
