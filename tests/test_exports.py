"""Every name a lpsquare module lists in __all__ exists, so a rename or a
deletion cannot leave a stale export behind, and every annotation in a
module resolves."""

import importlib
import inspect
import pkgutil
import typing

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


def _defined_callables(module):
    """Every function and class the module defines, and each class's
    methods, properties and cached properties."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)  # static/class methods
                attr = getattr(attr, "fget", attr)  # properties
                attr = getattr(attr, "func", attr)  # cached properties
                if inspect.isfunction(attr):
                    yield attr


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    # a name used in an annotation but never imported raises NameError here
    module = importlib.import_module(name)
    objs = list(_defined_callables(module))
    assert objs
    for obj in objs:
        typing.get_type_hints(obj)
