"""Every name a kernelpi module lists in __all__ exists in that module.

A deleted class or function whose name stays in __all__ breaks
`from kernelpi.<module> import *` only when someone runs it; this test
catches the stale entry at once.
"""

import importlib
import pkgutil

import pytest

import kernelpi

MODULES = sorted(info.name for info in pkgutil.iter_modules(kernelpi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kernelpi.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
