"""Fixture data integrity and the seeded instance generator."""

import numpy as np
import pytest

import propval.fixtures as fixtures
from propval.fixtures import (
    DegenerateDraw,
    TargetKind,
    export_fixture,
    fixture_by_name,
    qubit_fixture,
    random_instance,
    random_states,
    spin52_fixture,
)
from propval.linalg import kernel_basis, load_matrix, load_state, validate_projector
from propval.membership import kernel_membership_iterative, range_membership
from propval.numerics import PropvalError
from propval.valuation import valuate


def test_fixture_lookup():
    assert fixture_by_name("qubit").name == "qubit"
    assert fixture_by_name("spin52").name == "spin52"
    with pytest.raises(PropvalError):
        fixture_by_name("nope")


@pytest.mark.parametrize("name", ["qubit", "spin52"])
def test_fixture_projector_validates_with_rank_one(name):
    fx = fixture_by_name(name)
    revalidated = validate_projector(fx.projector.array)
    assert revalidated.rank == 1
    for state in fx.states.values():
        assert state.is_unit()


@pytest.mark.parametrize("name", ["qubit", "spin52"])
def test_fixture_verdicts_reproduced_by_valuate(name):
    fx = fixture_by_name(name)
    for key, state in fx.states.items():
        assert valuate(fx.projector, state).value is fx.expected[key]


def test_spin52_trace_is_one():
    # diagonal sums to (1 + 5 + 10 + 10 + 5 + 1)/32
    fx = spin52_fixture()
    assert abs(np.trace(fx.projector.array) - 1) < 1e-12


def test_spin52_reference_system_is_consistent_with_quoted_solution():
    fx = spin52_fixture()
    psi = fx.states["psi"]
    res = kernel_membership_iterative(fx.reference_kernel_columns, psi)
    assert res.member
    assert np.allclose(res.witness, fx.expected_kernel_witness, atol=1e-12)
    err = fx.reference_kernel_columns @ fx.expected_kernel_witness - psi.components
    assert np.linalg.norm(err) < 1e-12


def test_spin52_range_system_is_inconsistent():
    fx = spin52_fixture()
    res = range_membership(
        fx.reference_range_column.reshape(-1, 1), fx.states["psi"]
    )
    assert not res.member


def test_spin52_reference_columns_match_projector_kernel():
    fx = spin52_fixture()
    quoted = fx.reference_kernel_columns
    assert np.allclose(kernel_basis(fx.projector).array, quoted / 32, atol=1e-14)


def test_qubit_range_direction_spans_the_range():
    fx = qubit_fixture()
    direction = fx.reference_range_column
    assert np.linalg.norm(
        fx.projector.array @ direction - direction
    ) < 1e-12


def test_export_roundtrip(tmp_path):
    fx = spin52_fixture()
    paths = export_fixture(fx, tmp_path)
    assert len(paths) == 2
    assert np.allclose(load_matrix(paths[0]), fx.projector.array)
    assert np.allclose(load_state(paths[1]).components, fx.states["psi"].components)


def test_random_instance_targets_hit_their_verdicts():
    for i in range(60):
        n = 3 + (i % 8)
        for target, expected in [
            (TargetKind.IN_RANGE, "true"),
            (TargetKind.IN_KERNEL, "false"),
            (TargetKind.GENERIC, "gap"),
        ]:
            proj, psi = random_instance(n, seed=i, target=target)
            assert valuate(proj, psi).value.value == expected


def test_random_instance_is_deterministic():
    a_proj, a_psi = random_instance(6, seed=99, target=TargetKind.IN_KERNEL)
    b_proj, b_psi = random_instance(6, seed=99, target=TargetKind.IN_KERNEL)
    assert np.array_equal(a_proj.array, b_proj.array)
    assert np.array_equal(a_psi.components, b_psi.components)
    c_proj, _ = random_instance(6, seed=100, target=TargetKind.IN_KERNEL)
    assert not np.array_equal(a_proj.array, c_proj.array)


def test_targets_share_the_projector():
    arrays = [
        random_instance(5, seed=4, target=t)[0].array for t in TargetKind
    ]
    assert np.array_equal(arrays[0], arrays[1])
    assert np.array_equal(arrays[0], arrays[2])


def test_random_states_are_the_per_target_draws():
    for n, seed in [(2, 0), (9, 4), (40, 23)]:
        projector, states = random_states(n, seed, list(TargetKind))
        for target, state in zip(TargetKind, states):
            drawn, alone = random_instance(n, seed, target)
            assert np.array_equal(drawn.array, projector.array)
            assert np.array_equal(alone.components, state.components)


def test_instance_states_are_unit():
    for target in TargetKind:
        _, psi = random_instance(11, seed=8, target=target)
        assert abs(psi.norm - 1) < 1e-12


def test_dimension_lower_bound():
    with pytest.raises(PropvalError):
        random_instance(1, seed=0, target=TargetKind.GENERIC)


def test_a_negative_seed_is_rejected_by_name():
    """numpy's own error for a negative seed names neither the seed nor
    the bound; the generator checks it first."""
    with pytest.raises(PropvalError, match=r"seed >= 0, got 8 and -1"):
        random_instance(8, seed=-1, target=TargetKind.GENERIC)
    with pytest.raises(PropvalError, match="seed"):
        random_states(8, -1, [TargetKind.IN_RANGE, TargetKind.IN_KERNEL])


def test_degenerate_orthogonal_draw_is_bounded(monkeypatch):
    # force every draw onto the projector direction: no orthogonal part
    fixed = np.zeros(4, dtype=complex)
    fixed[0] = 1.0
    monkeypatch.setattr(fixtures, "_unit_vector", lambda rng, n: fixed.copy())
    with pytest.raises(DegenerateDraw):
        random_instance(4, seed=0, target=TargetKind.IN_KERNEL)
