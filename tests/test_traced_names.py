"""The functions the benchmark traces exist under the names it patches.

``perfbench/layers.py`` names each timed function by module and
attribute.  A rename in the package would otherwise only drop the span
from the traced run, and every per-layer metric built on it would read 0.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for target in layers.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), target
