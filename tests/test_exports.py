"""Every name a lpsquare module lists in __all__ exists, so a rename or a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import lpsquare

MODULES = [info.name for info in pkgutil.iter_modules(lpsquare.__path__,
                                                      "lpsquare.")]


def test_every_module_is_listed():
    assert MODULES == ["lpsquare.cli", "lpsquare.czd", "lpsquare.grid",
                       "lpsquare.kernels", "lpsquare.operators",
                       "lpsquare.oscillation", "lpsquare.report",
                       "lpsquare.weights"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
