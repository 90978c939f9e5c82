"""The numerical contract stated in ``propval.numerics``: witnesses within a
normwise backward error of the system they solve."""

import numpy as np
from hypothesis import given, settings, strategies as st

from propval import linalg
from propval.fixtures import TargetKind, fixture_by_name, random_instance
from propval.linalg import StateVector, kernel_basis, range_basis, validate_projector
from propval.valuation import TruthValue, valuate, valuate_ql

# The contract's constant c in ||B x - b|| <= c n u (||B|| ||x|| + ||b||).  On
# 8000 witnesses drawn as below (n = 2..100, rank 1..3, blocked solves) the
# largest ratio of the backward error to n u was 0.76.
C = 16
U = 2.0**-53


def witnesses(p, psi):
    """Each verdict of ``psi`` with a witness, and the basis it solves for."""
    for verdict in (
        valuate(p, psi),
        valuate_ql(p, psi),
        valuate_ql(p, psi, gap_to_true=True),
    ):
        if verdict.witness is not None:
            member = verdict.value is TruthValue.TRUE
            yield verdict, (range_basis(p) if member else kernel_basis(p)).array


def assert_within_backward_error(basis, x, b):
    x = np.array(x)
    residual = np.linalg.norm(basis @ x - b)
    scale = np.linalg.norm(basis, 2) * np.linalg.norm(x) + np.linalg.norm(b)
    assert residual <= C * basis.shape[0] * U * scale


def test_fixture_witnesses_meet_the_contract():
    decided = 0
    for name in ("qubit", "spin52"):
        fx = fixture_by_name(name)
        for psi in fx.states.values():
            for verdict, basis in witnesses(fx.projector, psi):
                assert_within_backward_error(basis, verdict.witness, psi.components)
                decided += 1
    assert decided == 6  # qubit y_plus and y_minus, spin52 psi: two each


@st.composite
def span_states(draw):
    """A rank 1..3 projector, n <= 3 * _PANEL + 4, and a unit state drawn in
    the span of its computed range or kernel basis, so the system it poses
    is consistent; a kernel solve then runs over up to four blocks."""
    n = draw(st.integers(2, 3 * linalg._PANEL + 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        p, _ = random_instance(n, seed, TargetKind.GENERIC)
    else:
        rank = min(draw(st.integers(1, 3)), n - 1)
        raw = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        q, _ = np.linalg.qr(raw)
        p = validate_projector(q @ q.conj().T)
    kind = draw(st.sampled_from([TruthValue.TRUE, TruthValue.FALSE]))
    basis = (range_basis(p) if kind is TruthValue.TRUE else kernel_basis(p)).array
    b = basis @ (rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1]))
    return p, StateVector(b / np.linalg.norm(b)), kind


@settings(max_examples=100, deadline=None)
@given(case=span_states())
def test_drawn_witnesses_meet_the_contract(case):
    p, psi, kind = case
    assert valuate(p, psi).value is kind
    decided = list(witnesses(p, psi))
    assert len(decided) == 2  # valuate and the two-valued form deciding alone
    for verdict, basis in decided:
        assert_within_backward_error(basis, verdict.witness, psi.components)
