"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import framefx

MODULES = [importlib.import_module(f"framefx.{info.name}")
           for info in pkgutil.iter_modules(framefx.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_are_public_names():
    tree = ast.parse(inspect.getsource(framefx))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module, name in reexports:
        source = importlib.import_module(f"framefx.{module}")
        assert name in source.__all__, f"framefx.{name} is not in {module}.__all__"
        assert getattr(framefx, name) is getattr(source, name)
