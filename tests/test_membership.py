"""Range and kernel solvability deciders and their counting contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propval.fixtures import TargetKind, random_instance, spin52_fixture
from propval.linalg import (
    DimensionMismatch,
    NonFiniteEntry,
    StateVector,
    kernel_basis,
    range_basis,
)
from propval.membership import (
    AugmentedMatrix,
    ZeroColumn,
    kernel_membership_iterative,
    kernel_membership_matrix,
    membership_of,
    range_membership,
    residual_oracle,
)
from propval.numerics import OpCounter

S2 = 1 / math.sqrt(2)


def kernel_system(projector, psi):
    return AugmentedMatrix.from_system(kernel_basis(projector).array, psi)


def divisions_closed_form(n):
    return n * (n - 1) // 2 - 1


def multiplications_closed_form(n):
    return n * (n - 1) * (2 * n - 1) // 6 - 1


def test_closed_forms_match_per_step_sums():
    # oracle: the elimination performs (n-i) divisions and (n-i)^2
    # multiplications at step i = 1..n-2
    for n in range(3, 80):
        assert divisions_closed_form(n) == sum(n - i for i in range(1, n - 1))
        assert multiplications_closed_form(n) == sum(
            (n - i) ** 2 for i in range(1, n - 1)
        )


# ---------------------------------------------------------------- range


def test_range_membership_qubit_plus_state():
    column = np.array([[0.5], [0.5j]])  # first column of the y projector
    psi = StateVector([S2, S2 * 1j])
    res = range_membership(column, psi)
    assert res.member
    assert res.counts.as_dict() == {
        "mul": 2,
        "div": 0,
        "add_sub": 0,
        "cmp": 1,
        "total": 3,
    }


def test_range_membership_spin52_state_is_outside():
    fx = spin52_fixture()
    res = range_membership(
        fx.reference_range_column.reshape(-1, 1), fx.states["psi"]
    )
    assert not res.member
    assert res.witness is None


def test_range_membership_of_column_itself():
    rng = np.random.default_rng(0)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    res = range_membership(v.reshape(-1, 1), StateVector(v))
    assert res.member
    assert abs(res.witness[0] - 1) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 17, 64])
def test_range_membership_member_counts_are_exact(n):
    proj, psi = random_instance(n, seed=42, target=TargetKind.IN_RANGE)
    ctx = OpCounter()
    res = range_membership(range_basis(proj), psi, ctx)
    assert res.member
    assert ctx.mul == 2 * (n - 1)
    assert ctx.cmp == n - 1
    assert ctx.div == 0 and ctx.add_sub == 0


@pytest.mark.parametrize("n", [3, 8, 33])
def test_range_membership_rejection_exits_early(n):
    proj, psi = random_instance(n, seed=42, target=TargetKind.GENERIC)
    ctx = OpCounter()
    res = range_membership(range_basis(proj), psi, ctx)
    assert not res.member
    assert 1 <= ctx.cmp <= n - 1
    assert ctx.mul == 2 * ctx.cmp


def test_range_membership_reanchors_past_zero_entries():
    column = np.array([[0.0], [2.0], [4.0j]])
    psi = StateVector(np.array([0.0, 1.0, 2.0j]) / math.sqrt(5))
    ctx = OpCounter()
    res = range_membership(column, psi, ctx)
    assert res.member
    assert ctx.mul == 4 and ctx.cmp == 2  # contract unchanged by re-anchoring
    assert abs(res.witness[0] - 1 / (2 * math.sqrt(5))) < 1e-12


def test_range_membership_zero_column():
    with pytest.raises(ZeroColumn):
        range_membership(np.zeros((4, 1)), StateVector(np.eye(4)[0]))


def test_range_membership_shape_errors():
    with pytest.raises(DimensionMismatch):
        range_membership(np.eye(3), StateVector(np.eye(3)[0]))
    with pytest.raises(DimensionMismatch):
        range_membership(np.ones((3, 1)), StateVector([1.0, 0.0]))


# ---------------------------------------------------------------- kernel


def test_kernel_iterative_spin52_reference_witness():
    fx = spin52_fixture()
    res = kernel_membership_iterative(fx.reference_kernel_system)
    assert res.member
    assert np.allclose(res.witness, fx.expected_kernel_witness, atol=1e-12)
    assert res.final_check.as_dict() == {
        "mul": 2,
        "div": 0,
        "add_sub": 0,
        "cmp": 1,
        "total": 3,
    }


def test_kernel_matrix_spin52_gives_the_same_witness():
    fx = spin52_fixture()
    res = kernel_membership_matrix(fx.reference_kernel_system)
    assert res.member
    assert np.allclose(res.witness, fx.expected_kernel_witness, atol=1e-12)


def test_kernel_membership_of_everything_for_zero_projector():
    # kernel basis of the zero projector is the identity: any state fits
    rng = np.random.default_rng(1)
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    aug = AugmentedMatrix.from_system(np.eye(4), StateVector(psi))
    res = kernel_membership_iterative(aug)
    assert res.member
    assert np.allclose(res.witness, psi, atol=1e-12)


def test_kernel_rejects_range_vector():
    proj, psi = random_instance(7, seed=3, target=TargetKind.IN_RANGE)
    aug = kernel_system(proj, psi)
    res = kernel_membership_iterative(aug)
    assert not res.member
    oracle = residual_oracle(aug.body[:, :-1], psi)
    assert not oracle.member


def test_kernel_homogeneous_system_is_consistent():
    rng = np.random.default_rng(2)
    cols = rng.normal(size=(5, 4))
    aug = AugmentedMatrix.from_system(cols, StateVector(np.zeros(5)))
    res = kernel_membership_iterative(aug)
    assert res.member
    assert np.allclose(res.witness, 0)


def test_kernel_iterative_counts_match_closed_forms():
    for n in range(3, 65):
        for target in (TargetKind.IN_KERNEL, TargetKind.GENERIC):
            proj, psi = random_instance(n, seed=9, target=target)
            ctx = OpCounter()
            kernel_membership_iterative(kernel_system(proj, psi), ctx)
            assert ctx.div == divisions_closed_form(n), (n, target)
            assert ctx.mul == multiplications_closed_form(n), (n, target)
            assert ctx.add_sub == ctx.mul


def test_matrix_version_counts_per_step_block_sizes():
    for n in range(3, 41):
        proj, psi = random_instance(n, seed=1, target=TargetKind.IN_KERNEL)
        ctx = OpCounter()
        res = kernel_membership_matrix(kernel_system(proj, psi), ctx)
        assert res.member, n
        # oracle: live block at step i spans s = n-i+1 rows and columns
        sizes = [n - i + 1 for i in range(1, n - 1)]
        assert ctx.div == sum(sizes), n
        assert ctx.mul == sum(s * s for s in sizes), n
        assert ctx.add_sub == ctx.mul


@pytest.mark.parametrize("n", [3, 4, 9, 24, 128, 256])
def test_matrix_and_iterative_agree_bitwise(n):
    for seed in range(4 if n < 100 else 1):
        for target in TargetKind:
            proj, psi = random_instance(n, seed, target)
            aug = kernel_system(proj, psi)
            a = kernel_membership_iterative(aug)
            b = kernel_membership_matrix(aug)
            cols = aug.body[:, :-1]
            assert a.member == b.member == residual_oracle(cols, psi).member
            assert a.row_swaps == b.row_swaps
            if a.member:
                assert a.witness == b.witness  # one loop serves both forms
                residual = np.linalg.norm(cols @ np.array(a.witness) - psi.components)
                assert residual < 1e-7


@st.composite
def degenerate_systems(draw):
    """n x k systems, k up to n+3, with zero and scaled-duplicate columns."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(2, n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    for j in range(k):
        kind = draw(st.sampled_from(["generic", "zero", "duplicate"]))
        if kind == "zero":
            cols[:, j] = 0
        elif kind == "duplicate" and j > 0:
            scale = draw(st.sampled_from([2.0, -0.5j, 3 + 1j]))
            cols[:, j] = scale * cols[:, draw(st.integers(0, j - 1))]
    if draw(st.booleans()):
        rhs = cols @ (rng.normal(size=k) + 1j * rng.normal(size=k))
    else:
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return cols, StateVector(rhs)


@settings(max_examples=300, deadline=None)
@given(system=degenerate_systems())
def test_both_formulations_match_the_oracle_on_any_shape(system):
    cols, psi = system
    aug = AugmentedMatrix.from_system(cols, psi)
    it = kernel_membership_iterative(aug)
    mx = kernel_membership_matrix(aug)
    assert it.member == mx.member
    assert it.witness == mx.witness  # one loop serves both forms
    assert it.row_swaps == mx.row_swaps
    assert it.member == residual_oracle(cols, psi).member
    if it.member:
        residual = np.linalg.norm(cols @ np.array(it.witness) - psi.components)
        assert residual < 1e-7


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["column", "rhs"])
def test_non_finite_systems_are_rejected(bad, where):
    cols = np.eye(3, 2, dtype=complex)
    rhs = np.array([1.0, 0.0, 0.0], dtype=complex)
    if where == "column":
        cols[1, 0] = bad
    else:
        rhs[2] = bad
    psi = StateVector(rhs)
    with pytest.raises(NonFiniteEntry):
        membership_of(cols, psi)
    with pytest.raises(NonFiniteEntry):
        membership_of(cols[:, :1], psi)  # one column: the range check
    if where == "rhs":
        with pytest.raises(NonFiniteEntry):
            membership_of(cols[:, :0], psi)  # the empty span
    for decide in (kernel_membership_iterative, kernel_membership_matrix):
        with pytest.raises(NonFiniteEntry):
            decide(AugmentedMatrix.from_system(cols, psi))


def test_wide_system_uses_every_unknown_column():
    cols = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    psi = StateVector([0.0, 1.0])
    assert membership_of(cols, psi).member
    assert residual_oracle(cols, psi).member


# ---------------------------------------------------------------- oracle


def test_residual_oracle_on_spin52_systems():
    fx = spin52_fixture()
    psi = fx.states["psi"]
    kernel = residual_oracle(fx.reference_kernel_system.body[:, :-1], psi)
    assert kernel.member and kernel.residual < 1e-7
    rng = residual_oracle(fx.reference_range_column.reshape(-1, 1), psi)
    assert not rng.member


def test_residual_oracle_identity_system():
    psi = StateVector(np.array([0.6, 0.8j]))
    res = residual_oracle(np.eye(2), psi)
    assert res.member
    assert np.allclose(res.witness, psi.components)
    assert res.counts.total == 0  # the oracle is never counted


# ------------------------------------------------------------- agreement


def test_verdicts_agree_with_oracle_across_instances():
    checked = 0
    for i in range(120):
        n = 3 + (i % 14)
        target = list(TargetKind)[i % 3]
        proj, psi = random_instance(n, seed=1000 + i, target=target)
        rbasis = range_basis(proj)
        r = range_membership(rbasis, psi)
        assert r.member == residual_oracle(rbasis.array, psi).member
        aug = kernel_system(proj, psi)
        k_it = kernel_membership_iterative(aug)
        k_mx = kernel_membership_matrix(aug)
        oracle = residual_oracle(aug.body[:, :-1], psi)
        assert k_it.member == k_mx.member == oracle.member
        for res in (r, k_it, k_mx):
            if res.member:
                a = rbasis.array if res is r else aug.body[:, :-1]
                err = np.linalg.norm(a @ np.array(res.witness) - psi.components)
                assert err < 1e-7
        checked += 1
    assert checked == 120


def test_trichotomy_for_rank_one_instances():
    for i in range(60):
        n = 3 + (i % 10)
        target = list(TargetKind)[i % 3]
        proj, psi = random_instance(n, seed=7000 + i, target=target)
        in_range = range_membership(range_basis(proj), psi).member
        in_kernel = kernel_membership_iterative(kernel_system(proj, psi)).member
        assert not (in_range and in_kernel)
        expected = {
            TargetKind.IN_RANGE: (True, False),
            TargetKind.IN_KERNEL: (False, True),
            TargetKind.GENERIC: (False, False),
        }[target]
        assert (in_range, in_kernel) == expected


def test_membership_dispatch_by_width():
    psi = StateVector(np.array([0.0, 0.0, 0.0]))
    assert membership_of(np.zeros((3, 0)), psi).member
    unit = StateVector(np.array([1.0, 0.0, 0.0]))
    assert not membership_of(np.zeros((3, 0)), unit).member
    assert membership_of(np.eye(3), unit).member  # full basis via elimination
    assert membership_of(np.eye(3)[:, :1], unit).member  # single column
