"""Operation counter and the tolerance policy."""

from hypothesis import given, strategies as st

from propval.numerics import DEFAULT_TOLERANCE, OpCounter, TolerancePolicy

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def test_tolerance_equal_examples():
    tol = TolerancePolicy(abs_eps=1e-9, rel_eps=0.0)
    assert tol.equal(1.0, 1.0)
    assert tol.equal(1.0, 1.0 + 1e-15)
    assert not tol.equal(1.0, 1.0 + 1e-6)


@given(a=finite, b=finite)
def test_equality_is_symmetric(a, b):
    tol = DEFAULT_TOLERANCE
    assert tol.equal(a, b) == tol.equal(b, a)


@given(a=finite)
def test_equality_is_reflexive(a):
    assert DEFAULT_TOLERANCE.equal(a, a)
    assert TolerancePolicy(abs_eps=0.0, rel_eps=0.0).equal(a, a)


def test_opcounter_arithmetic_and_snapshot():
    a = OpCounter(mul=3, div=1, add_sub=2, cmp=4)
    b = OpCounter(mul=1, div=1, add_sub=1, cmp=1)
    assert (a + b).total == a.total + b.total
    assert (a - b) == OpCounter(2, 0, 1, 3)
    snap = a.snapshot()
    a.mul += 10
    assert snap.mul == 3
