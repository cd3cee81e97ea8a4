"""Every exported name resolves, and the package exports each name once:
the eight re-exported modules' ``__all__``, four constants and the version."""

import importlib
import pkgutil

import pytest

import ionbridge

MODULES = sorted(info.name for info in pkgutil.iter_modules(ionbridge.__path__))
REEXPORTED = ["errors", "model", "potentials", "expansion", "phonons", "motion", "gauge",
              "config"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"ionbridge.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve_once():
    missing = [attr for attr in ionbridge.__all__ if not hasattr(ionbridge, attr)]
    assert missing == []
    assert len(ionbridge.__all__) == len(set(ionbridge.__all__))


def test_package_exports_are_the_modules_exports():
    # a re-exported module without __all__ fails here with AttributeError
    expected = {"ATOMIC_MASS_KG", "HBAR", "PLANCK", "TWO_PI", "__version__"}
    for name in REEXPORTED:
        expected.update(importlib.import_module(f"ionbridge.{name}").__all__)
    assert set(ionbridge.__all__) == expected
