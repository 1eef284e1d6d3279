"""Every exported name resolves: tooling that walks ``__all__`` (such as the
benchmark's tracer, which looks names up with a default) would silently
skip a stale one."""
import importlib
import pkgutil

import pytest

import odeuniq

MODULES = [odeuniq] + [
    importlib.import_module(f"odeuniq.{info.name}")
    for info in pkgutil.iter_modules(odeuniq.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
