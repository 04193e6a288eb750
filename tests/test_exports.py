"""Every public name a qhyp module lists or re-exports resolves."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import qhyp

MODULES = ["qhyp"] + sorted(
    info.name for info in pkgutil.walk_packages(qhyp.__path__, "qhyp.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_package_reexports_are_public():
    tree = ast.parse(inspect.getsource(qhyp))
    reexports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module]
    assert reexports
    for node in reexports:
        source = importlib.import_module(f"qhyp.{node.module}")
        for alias in node.names:
            assert getattr(qhyp, alias.name) is getattr(source, alias.name)
            assert alias.name in getattr(source, "__all__", [alias.name])
