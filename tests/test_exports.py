"""Every name a reinhardt module exports resolves, and none is private.

A name that goes private or away must leave its module's __all__ too.
"""

import importlib
import pkgutil

import pytest

import reinhardt

MODULES = ["reinhardt"] + sorted(
    info.name for info in pkgutil.iter_modules(reinhardt.__path__, "reinhardt.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_are_public(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    for attr in exported:
        assert not attr.startswith("_"), f"{name}.__all__ lists {attr}"
        assert hasattr(module, attr), f"{name}.__all__ lists {attr}, which does not resolve"
