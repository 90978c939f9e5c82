"""Every record in the package that holds an array compares and hashes by identity.

A dataclass's generated ``__eq__`` compares its fields as a tuple, and for
an array field that comparison raises ``ValueError`` (the truth value of
an array is ambiguous); a frozen one's generated ``__hash__`` raises
``TypeError``.  Such records are declared ``eq=False``, so ``==`` is
identity and the hash is ``object``'s; compare values through the arrays.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import propval
from propval.fixtures import qubit_fixture
from propval.linalg import StateVector, Subspace, projector_from_state


def _dataclasses():
    for info in pkgutil.iter_modules(propval.__path__):
        module = importlib.import_module(f"propval.{info.name}")
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
            ):
                yield cls


def test_no_record_holding_an_array_generates_eq():
    records = [
        cls
        for cls in _dataclasses()
        if any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls))
    ]
    assert len(records) >= 5
    generated = [cls.__qualname__ for cls in records if cls.__eq__ is not object.__eq__]
    assert not generated, generated


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector(np.array([1.0, 0.0])),
        lambda: projector_from_state(StateVector(np.array([1.0, 0.0]))),
        lambda: Subspace(np.eye(2)),
        qubit_fixture,
    ],
    ids=["StateVector", "Projector", "Subspace", "FixtureSet"],
)
def test_equal_values_are_distinct_records(build):
    x, y = build(), build()
    assert x == x and x != y
    assert len({x, y}) == 2  # both hash
