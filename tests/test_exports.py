"""Every name a module lists in ``__all__`` must exist in it."""

import importlib
import pkgutil

import pytest

import ofdmemu

MODULES = ["ofdmemu"] + sorted(
    info.name for info in pkgutil.walk_packages(ofdmemu.__path__, "ofdmemu.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"
