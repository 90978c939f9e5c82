"""Operation counter and the tolerance policy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from propval.numerics import (
    DEFAULT_TOLERANCE,
    InvalidTolerance,
    OpCounter,
    TolerancePolicy,
)

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def test_tolerance_equal_examples():
    tol = TolerancePolicy(abs_eps=1e-9, rel_eps=0.0)
    assert tol.equal(1.0, 1.0)
    assert tol.equal(1.0, 1.0 + 1e-15)
    assert not tol.equal(1.0, 1.0 + 1e-6)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
@pytest.mark.parametrize("field", ["abs_eps", "rel_eps"])
def test_tolerance_rejects_non_finite_or_negative(field, bad):
    with pytest.raises(InvalidTolerance, match=field):
        TolerancePolicy(**{field: bad})


def test_bound_and_threshold_state_the_two_formulas():
    tol = TolerancePolicy(abs_eps=1e-9, rel_eps=1e-6)
    assert tol.bound(0.0) == 1e-9
    assert tol.bound(3.0) == 1e-9 + 1e-6 * 3.0
    sizes = np.array([0.0, 0.5, 1e3])
    assert tol.bound(sizes).tolist() == [tol.bound(s) for s in sizes.tolist()]
    assert tol.threshold(4.0) == 1e-9 * 4.0
    assert tol.equal(3.0, 3.0 + 0.5 * tol.bound(3.0))
    assert not tol.equal(3.0, 3.0 + 2 * tol.bound(3.0))


def test_tolerance_accepts_zero_and_wide_finite_values():
    assert TolerancePolicy(abs_eps=0.0, rel_eps=0.0).abs_eps == 0.0
    assert TolerancePolicy(abs_eps=0.8).equal(0.0, 0.5)


@given(a=finite, b=finite)
def test_equality_is_symmetric(a, b):
    tol = DEFAULT_TOLERANCE
    assert tol.equal(a, b) == tol.equal(b, a)


@given(a=finite)
def test_equality_is_reflexive(a):
    assert DEFAULT_TOLERANCE.equal(a, a)
    assert TolerancePolicy(abs_eps=0.0, rel_eps=0.0).equal(a, a)


def test_opcounter_arithmetic():
    a = OpCounter(mul=3, div=1, add_sub=2, cmp=4)
    b = OpCounter(mul=1, div=1, add_sub=1, cmp=1)
    assert (a + b).total == a.total + b.total
    assert a + b == OpCounter(4, 2, 3, 5)
    total = a
    total += b
    assert total is a and a == OpCounter(4, 2, 3, 5)
    assert b == OpCounter(1, 1, 1, 1)
