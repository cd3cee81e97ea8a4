"""Every exported name resolves, and the package exports each name once."""

import importlib
import pkgutil

import pytest

import ionbridge

MODULES = sorted(info.name for info in pkgutil.iter_modules(ionbridge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"ionbridge.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve_once():
    missing = [attr for attr in ionbridge.__all__ if not hasattr(ionbridge, attr)]
    assert missing == []
    assert len(ionbridge.__all__) == len(set(ionbridge.__all__))
