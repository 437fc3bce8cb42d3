import ast
import importlib
import pathlib

import pytest

import nsp_lab

PACKAGE = pathlib.Path(nsp_lab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_package_exports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert len(names) > 50
    assert [n for n in names if not hasattr(nsp_lab, n)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"nsp_lab.{module}")
    exported = getattr(mod, "__all__", ())
    assert module == "config" or exported
    assert [n for n in exported if not hasattr(mod, n)] == []
