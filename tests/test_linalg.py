"""Projector validation, subspace bases, decomposition, and file IO."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propval import linalg
from propval.fixtures import TargetKind, random_instance, spin52_fixture
from propval.linalg import (
    BasisKind,
    DimensionMismatch,
    FullRankProjector,
    MalformedMatrixFile,
    NonFiniteEntry,
    NotHermitian,
    NotIdempotent,
    NotSquare,
    NotUnitNorm,
    Projector,
    StateVector,
    ZeroProjector,
    decompose,
    independent_columns,
    kernel_basis,
    load_matrix,
    load_state,
    matrix_rank,
    null_space_basis,
    projector_from_state,
    range_basis,
    save_matrix,
    validate_projector,
)
from propval.numerics import TolerancePolicy
from propval.valuation import TruthValue, valuate

S2 = 1 / math.sqrt(2)


def qubit_y_projector():
    return validate_projector(np.array([[0.5, -0.5j], [0.5j, 0.5]]))


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_projector_from_state_qubit():
    psi = StateVector([S2, S2 * 1j])
    p = projector_from_state(psi)
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(p.array, expected, atol=1e-15)
    assert p.rank == 1


def test_projector_from_state_basis_vector():
    p = projector_from_state(StateVector([1.0, 0.0]))
    assert np.allclose(p.array, [[1, 0], [0, 0]])


def test_projector_from_state_reproduces_spin52_matrix():
    direction = np.array(
        [1, math.sqrt(5), math.sqrt(10), math.sqrt(10), math.sqrt(5), 1]
    ) / (4 * math.sqrt(2))
    p = projector_from_state(StateVector(direction))
    assert np.allclose(p.array, spin52_fixture().projector.array, atol=1e-14)


def test_projector_from_state_rejects_non_unit():
    with pytest.raises(NotUnitNorm):
        projector_from_state(StateVector([1.0, 1.0]))


def test_validate_projector_identity_and_zero():
    assert validate_projector(np.eye(4)).rank == 4
    assert validate_projector(np.zeros((4, 4))).rank == 0


def test_validate_projector_spin52_rank_nullity():
    p = spin52_fixture().projector
    assert (p.rank, p.nullity) == (1, 5)


def test_validate_projector_errors():
    with pytest.raises(NotSquare):
        validate_projector(np.ones((2, 3)))
    with pytest.raises(NotHermitian):
        validate_projector(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotIdempotent):
        validate_projector(np.array([[2.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NonFiniteEntry):
        validate_projector(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_range_basis_spin52_is_proportional_to_direction():
    basis = range_basis(spin52_fixture().projector)
    assert basis.kind is BasisKind.RANGE
    assert basis.count == 1
    col = basis.array[:, 0]
    direction = np.array(
        [1, math.sqrt(5), math.sqrt(10), math.sqrt(10), math.sqrt(5), 1]
    )
    # proportional: all cross products vanish
    assert np.allclose(np.outer(col, direction) - np.outer(direction, col), 0)


def test_range_basis_identity_gives_standard_columns():
    basis = range_basis(validate_projector(np.eye(3)))
    assert np.allclose(basis.array, np.eye(3))


def test_range_basis_of_outer_product_is_proportional_to_state():
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = random_unit(rng, 5)
        basis = range_basis(projector_from_state(StateVector(v)))
        col = basis.array[:, 0]
        # column j of v v^dagger equals conj(v_j) * v
        assert np.linalg.norm(np.outer(col, v) - np.outer(v, col)) < 1e-12


def test_range_basis_zero_projector_raises():
    with pytest.raises(ZeroProjector):
        range_basis(validate_projector(np.zeros((3, 3))))


def test_kernel_basis_spin52_matches_quoted_columns():
    fx = spin52_fixture()
    basis = kernel_basis(fx.projector)
    assert basis.kind is BasisKind.KERNEL
    assert basis.count == 5
    quoted = fx.reference_kernel_system.body[:, :5]  # integer normalisation
    assert np.allclose(basis.array, quoted / 32, atol=1e-14)


def test_kernel_basis_zero_projector_is_identity():
    basis = kernel_basis(validate_projector(np.zeros((3, 3))))
    assert np.allclose(basis.array, np.eye(3))


def test_kernel_basis_qubit_spans_opposite_line():
    col = kernel_basis(qubit_y_projector()).array[:, 0]
    # proportional to [i, 1]
    assert abs(col[0] * 1 - col[1] * 1j) < 1e-12


def test_kernel_basis_full_rank_raises():
    with pytest.raises(FullRankProjector):
        kernel_basis(validate_projector(np.eye(2)))


def test_rank_plus_kernel_count_is_dimension():
    rng = np.random.default_rng(5)
    for n, r in [(4, 1), (5, 2), (6, 3)]:
        q, _ = np.linalg.qr(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
        p = validate_projector(q @ q.conj().T)
        assert p.rank == r
        assert kernel_basis(p).count == n - r
        assert range_basis(p).count == r


def test_basis_vectors_are_fixed_or_annihilated():
    rng = np.random.default_rng(6)
    v = random_unit(rng, 7)
    p = projector_from_state(StateVector(v))
    for col in range_basis(p).array.T:
        assert np.linalg.norm(p.array @ col - col) < 1e-12
    for col in kernel_basis(p).array.T:
        assert np.linalg.norm(p.array @ col) < 1e-12


def test_decompose_endpoints():
    p = qubit_y_projector()
    in_range = StateVector([S2, S2 * 1j])
    r, k = decompose(in_range, p)
    assert np.allclose(r.components, in_range.components, atol=1e-15)
    assert np.linalg.norm(k.components) < 1e-15
    in_kernel = StateVector([S2, -S2 * 1j])
    r, k = decompose(in_kernel, p)
    assert np.linalg.norm(r.components) < 1e-15
    assert np.allclose(k.components, in_kernel.components, atol=1e-15)


def test_decompose_basis_state_against_qubit_projector():
    # hand outer product: P [1,0] = (1/2)[1, i], remainder (1/2)[1, -i]
    r, k = decompose(StateVector([1.0, 0.0]), qubit_y_projector())
    assert np.allclose(r.components, [0.5, 0.5j])
    assert np.allclose(k.components, [0.5, -0.5j])


def test_decompose_parts_sum_and_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = random_unit(rng, 6)
        p = projector_from_state(StateVector(random_unit(rng, 6)))
        psi = StateVector(v)
        r, k = decompose(psi, p)
        assert np.allclose(r.components + k.components, v, atol=1e-12)
        assert abs(np.vdot(r.components, k.components)) < 1e-12


def test_decompose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        decompose(StateVector([1.0, 0.0, 0.0]), qubit_y_projector())


def test_projector_fixes_its_own_state():
    rng = np.random.default_rng(8)
    v = random_unit(rng, 9)
    p = projector_from_state(StateVector(v))
    assert np.linalg.norm(p.array @ v - v) < 1e-12


def test_independent_columns_prefers_lowest_index():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    assert independent_columns(a) == [0, 2]
    assert matrix_rank(a) == 2
    assert matrix_rank(np.zeros((3, 3))) == 0


@st.composite
def planted_columns(draw):
    """n x k matrices with zero and scaled-duplicate columns planted.

    Returns the matrix and its lowest-index independent column set: every
    generic column while fewer than n are picked (random columns are
    independent with probability 1), never a zero or duplicate column.
    """
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    expected = []
    for j in range(k):
        kind = draw(st.sampled_from(["generic", "zero", "duplicate"]))
        if kind == "zero":
            a[:, j] = 0
        elif kind == "duplicate" and j > 0:
            scale = draw(st.sampled_from([2.0, -0.5j, 3 + 1j, 1e-3]))
            a[:, j] = scale * a[:, draw(st.integers(0, j - 1))]
        elif len(expected) < n:
            expected.append(j)
    return a, expected


@settings(max_examples=300, deadline=None)
@given(planted=planted_columns())
def test_independent_columns_finds_the_planted_set(planted):
    a, expected = planted
    assert independent_columns(a) == expected
    assert matrix_rank(a) == len(expected)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=32),
    rank=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_validate_projector_rank_is_the_drawn_rank(n, rank, seed):
    rank = min(rank, n)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    assert validate_projector(q @ q.conj().T).rank == rank


def test_null_space_basis_annihilates():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    ns = null_space_basis(a)
    assert ns.shape[1] == 2
    assert np.linalg.norm(a @ ns) < 1e-10


def test_matrix_json_roundtrip(tmp_path):
    a = np.array([[1.5, -2j], [0.25 + 1j, 3.0]])
    path = tmp_path / "m.json"
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)


def test_state_file_roundtrip_and_shape_check(tmp_path):
    path = tmp_path / "v.json"
    save_matrix(path, np.array([[1.0], [2.0j]]))
    assert np.array_equal(load_state(path).components, [1.0, 2.0j])
    save_matrix(path, np.eye(2))
    with pytest.raises(MalformedMatrixFile):
        load_state(path)


def test_malformed_matrix_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedMatrixFile):
        load_matrix(path)
    path.write_text('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')
    with pytest.raises(MalformedMatrixFile):
        load_matrix(path)
    path.write_text('{"rows": 1, "cols": 1}')
    with pytest.raises(MalformedMatrixFile):
        load_matrix(path)


def test_value_types_are_immutable():
    p = Projector(np.eye(2), rank=2)
    with pytest.raises(ValueError):
        p.array[0, 0] = 5.0
    with pytest.raises(ValueError):
        range_basis(p).array[0, 0] = 5.0
    s = StateVector([1.0, 0.0])
    with pytest.raises(ValueError):
        s.components[0] = 2.0


def test_bases_are_computed_once_per_policy(monkeypatch):
    calls = []
    original = linalg.independent_columns

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "independent_columns", counted)
    drawn, _ = random_instance(8, 3, TargetKind.IN_RANGE)
    p = validate_projector(drawn.array)
    for target, expected in (
        (TargetKind.IN_RANGE, TruthValue.TRUE),
        (TargetKind.IN_KERNEL, TruthValue.FALSE),
        (TargetKind.GENERIC, TruthValue.GAP),
    ):
        assert valuate(p, random_instance(8, 3, target)[1]).value is expected
    # validation seeds the range basis; the FALSE verdict adds the kernel's
    assert len(calls) == 2
    assert range_basis(p, TolerancePolicy()) is range_basis(p)
    assert kernel_basis(p, TolerancePolicy()) is kernel_basis(p)
    assert len(calls) == 2
    wider = TolerancePolicy(abs_eps=1e-6)
    assert np.array_equal(range_basis(p, wider).array, range_basis(p).array)
    assert len(calls) == 3


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    rank=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_memoised_bases_match_a_fresh_projector(n, rank, seed):
    rank = min(rank, n - 1)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    m = q @ q.conj().T
    p = validate_projector(m)
    assert p.rank == rank
    first = range_basis(p), kernel_basis(p)
    assert range_basis(p) is first[0] and kernel_basis(p) is first[1]
    fresh = validate_projector(m.copy())
    complement = np.eye(n, dtype=complex) - p.array
    for memo, again, a in (
        (first[0], range_basis(fresh), p.array),
        (first[1], kernel_basis(fresh), complement),
    ):
        assert np.array_equal(memo.array, again.array)
        assert np.array_equal(memo.array, a[:, independent_columns(a)])


def test_threads_sharing_a_projector_get_one_basis_per_policy():
    projectors = [random_instance(16, s, TargetKind.IN_RANGE)[0] for s in range(20)]
    seen = [[] for _ in projectors]

    def worker():
        for p, got in zip(projectors, seen):
            got.append(kernel_basis(p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in seen:
        assert len(got) == len(threads)
        assert all(basis is got[0] for basis in got)
