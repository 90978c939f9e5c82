"""Every name a module declares public in ``__all__`` is importable from ``propval``."""

import importlib
import pkgutil

import propval


def test_every_declared_public_name_is_exported_by_the_package():
    declared = []  # (module, name)
    for info in pkgutil.iter_modules(propval.__path__):
        module = importlib.import_module(f"propval.{info.name}")
        declared += [(info.name, name) for name in getattr(module, "__all__", ())]
    assert declared
    missing = [f"{m}.{name}" for m, name in declared if not hasattr(propval, name)]
    assert not missing, missing


def test_the_package_re_exports_the_projector_draw():
    assert propval.random_states is propval.fixtures.random_states
