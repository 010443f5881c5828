import importlib

import pytest

import tppflow


@pytest.mark.parametrize("name", tppflow.__all__)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"tppflow.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"tppflow.{name}.__all__ names missing attributes: {missing}"
