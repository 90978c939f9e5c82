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
    Subspace,
    ZeroProjector,
    decompose,
    independent_columns,
    kernel_basis,
    load_matrix,
    load_state,
    matrix_rank,
    max_abs,
    null_space_basis,
    projector_from_state,
    range_basis,
    save_matrix,
    subspace_factor,
    validate_projector,
)
from propval.numerics import DEFAULT_TOLERANCE, TolerancePolicy
from propval.valuation import TruthValue, valuate, valuate_ql

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
    assert isinstance(basis, Subspace)
    assert basis.dim == 1
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
    assert isinstance(basis, Subspace)
    assert basis.dim == 5
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
        assert kernel_basis(p).dim == n - r
        assert range_basis(p).dim == r


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


def unblocked_row_echelon(w, ncols, threshold):
    """Reference: one rank-1 update of the whole trailing block per pivot.

    ``linalg._row_echelon`` must choose the same pivots and interchanges
    and reach the same echelon rows, multipliers stored below each
    pivot; it blocks the updates into panels.
    """
    cols, swapped = [], []
    for c in range(ncols):
        r = len(cols)
        if r == w.shape[0]:
            break
        col = w[r:, c]
        mags = np.abs(col)
        p = int(mags.argmax())
        if not mags[p] > threshold:
            continue
        if p:
            w[r], w[r + p] = w[r + p].copy(), w[r].copy()
        piv = complex(col[0])
        m = np.array([z / piv for z in col[1:].tolist()], dtype=complex)
        col[1:] = m
        w[r + 1 :, c + 1 :] -= np.multiply.outer(m, w[r, c + 1 :])
        cols.append(c)
        swapped.append(r + p)
    return cols, swapped


@st.composite
def panel_systems(draw):
    """Up to three panels of columns: wide, tall, low rank, with zero and
    scaled-duplicate columns planted on the panel boundaries."""
    panel = linalg._PANEL
    n = draw(st.integers(1, 3 * panel + 4))
    k = draw(st.integers(1, 3 * panel + 4))
    rank = draw(st.integers(1, min(n, k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def normal(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    a = normal(n, rank) @ normal(rank, k)
    for j in [j for edge in range(panel, k, panel) for j in (edge - 1, edge)]:
        kind = draw(st.sampled_from(["generic", "zero", "duplicate"]))
        if kind == "zero":
            a[:, j] = 0
        elif kind == "duplicate":
            a[:, j] = draw(st.sampled_from([2.0, -0.5j, 1e-3])) * a[:, j - 1]
    ncols = draw(st.integers(max(k - 2, 0), k))  # k - 2: as for an augmented system
    return a, ncols


@settings(max_examples=150, deadline=None)
@given(system=panel_systems())
def test_blocked_elimination_matches_the_unblocked_loop(system):
    a, ncols = system
    threshold = 1e-9 * linalg.max_abs(a)
    got, want = a.copy(), a.copy()
    cols, swapped = linalg._row_echelon(got, ncols, threshold)
    assert (cols, swapped) == unblocked_row_echelon(want, ncols, threshold)
    if ncols <= linalg._PANEL:
        assert np.array_equal(got, want)
        return
    assert np.abs(got - want).max() <= 1e-12 * linalg.max_abs(a)  # multipliers too


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


@pytest.mark.parametrize("n", [30, 40, 60])
def test_gepp_counts_the_hard_matrix_as_full_rank(n):
    # Unit upper-triangular, -1 above the diagonal: every pivot is 1, so
    # partial pivoting does not reveal rank (sigma_min / sigma_max is
    # 1.5e-10 at n = 30); rank and null space give the same answer.
    u = np.eye(n) - np.triu(np.ones((n, n)), 1)
    assert matrix_rank(u) == n
    assert null_space_basis(u).shape == (n, 0)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    r=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_null_space_of_a_rank_r_product(m, n, r, seed):
    r = min(r, m, n)
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
    right = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    a = left @ right
    ns = null_space_basis(a)
    assert ns.shape == (n, n - r)
    if ns.size:
        assert max_abs(a @ ns) <= 1e-9 * max_abs(a) * max_abs(ns)


def test_null_space_treats_a_skipped_entry_as_zero():
    # Column 1's only entry is below abs_eps * max|a| = 1e-9, so the
    # elimination skips it; it sits left of row 1's pivot (column 2).
    a = np.array([[1.0, 0.0, 0.0], [0.0, 5e-10, 2e-9]])
    assert independent_columns(a) == [0, 2]
    expected = np.array([[0.0], [1.0], [0.0]])
    assert np.array_equal(null_space_basis(a), expected)
    a[1, 1] = 0.0
    assert np.array_equal(null_space_basis(a), expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_decisions_reject_non_finite_entries(bad):
    a = np.array([[bad, 1.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteEntry):
        matrix_rank(a)
    with pytest.raises(NonFiniteEntry):
        null_space_basis(a)


def test_null_space_basis_rejects_a_one_dimensional_array():
    with pytest.raises(DimensionMismatch):
        null_space_basis(np.ones(3))


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


def count_eliminations(monkeypatch):
    """Columns of every array ``linalg._row_echelon`` runs on, in order."""
    calls = []
    original = linalg._row_echelon

    def counted(w, ncols, threshold):
        calls.append(w.shape[1])
        return original(w, ncols, threshold)

    monkeypatch.setattr(linalg, "_row_echelon", counted)
    return calls


def test_bases_are_computed_once_per_policy(monkeypatch):
    calls = count_eliminations(monkeypatch)
    drawn, _ = random_instance(8, 3, TargetKind.IN_RANGE)
    p = validate_projector(drawn.array)
    assert calls == [8]  # P: the rank and the range factor in one
    for target, expected in (
        (TargetKind.IN_RANGE, TruthValue.TRUE),
        (TargetKind.IN_KERNEL, TruthValue.FALSE),
        (TargetKind.GENERIC, TruthValue.GAP),
    ):
        assert valuate(p, random_instance(8, 3, target)[1]).value is expected
    assert calls == [8, 8]  # I - P, on the first kernel verdict
    bases = {BasisKind.RANGE: range_basis, BasisKind.KERNEL: kernel_basis}
    for kind, basis in bases.items():
        f = subspace_factor(p, kind, TolerancePolicy())
        assert f is subspace_factor(p, kind) is p._memo[kind, DEFAULT_TOLERANCE]
        assert basis(p, TolerancePolicy()) is basis(p) is f.basis
    assert calls == [8, 8]
    wider = TolerancePolicy(abs_eps=1e-6)
    assert np.array_equal(range_basis(p, wider).array, range_basis(p).array)
    assert np.array_equal(kernel_basis(p, wider).array, kernel_basis(p).array)
    assert calls == [8, 8, 8, 8]  # one per (kind, policy)
    assert all(isinstance(f, linalg.EchelonFactor) for f in p._memo.values())
    assert len(p._memo) == 4


def test_a_projector_is_eliminated_once_for_every_kernel_verdict(monkeypatch):
    calls = count_eliminations(monkeypatch)
    n = 40  # more than one panel
    drawn, first = random_instance(n, 5, TargetKind.IN_KERNEL)
    p = validate_projector(drawn.array)
    calls.clear()  # validation eliminates P for the range factor
    assert valuate(p, first).value is TruthValue.FALSE
    assert calls == [n]  # I - P: the kernel basis and the factor in one
    calls.clear()
    generic = random_instance(n, 5, TargetKind.GENERIC)[1]
    assert valuate(p, generic).value is TruthValue.GAP
    v = generic.components - p.array @ generic.components
    second = StateVector(v / np.linalg.norm(v))
    assert valuate(p, second).value is TruthValue.FALSE
    assert valuate_ql(p, second, gap_to_true=True).value is TruthValue.FALSE
    assert calls == []


@pytest.mark.parametrize("rank", [2, 3])
def test_range_verdicts_solve_against_the_factor_validation_made(monkeypatch, rank):
    calls = count_eliminations(monkeypatch)
    n = 40
    rng = np.random.default_rng(rank)
    q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    p = validate_projector(q @ q.conj().T)
    assert p.rank == rank
    assert calls == [n]  # P: the rank, the range basis and its factor in one
    calls.clear()
    in_range = StateVector(q @ random_unit(rng, rank))
    for _ in range(3):
        assert valuate(p, in_range).value is TruthValue.TRUE
    assert valuate_ql(p, in_range).value is TruthValue.TRUE
    assert calls == []  # a solve per range verdict, no elimination
    generic = StateVector(random_unit(rng, n))
    assert valuate(p, generic).value is TruthValue.GAP
    assert valuate_ql(p, generic).value is TruthValue.FALSE
    assert valuate_ql(p, generic, gap_to_true=True).value is TruthValue.TRUE
    assert calls == [n]  # I - P, once


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


def test_threads_valuating_shared_projectors_get_one_factor_per_policy(monkeypatch):
    cases = [random_instance(40, s, TargetKind.IN_KERNEL) for s in range(8)]
    policies = (TolerancePolicy(), TolerancePolicy(abs_eps=1e-8))
    seen = [[] for _ in cases]

    def worker():
        for (p, psi), got in zip(cases, seen):
            for tol in policies:
                verdict = valuate(p, psi, tol)
                factors = {kind: subspace_factor(p, kind, tol) for kind in BasisKind}
                got.append((tol, verdict, factors, kernel_basis(p, tol)))

    calls = count_eliminations(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # one elimination per (projector, kind, policy), however the threads raced
    assert calls == [40] * len(cases) * len(BasisKind) * len(policies)
    for (p, _), got in zip(cases, seen):
        assert len(p._memo) == len(BasisKind) * len(policies)
        assert all(isinstance(f, linalg.EchelonFactor) for f in p._memo.values())
        for tol in policies:
            mine = [g for g in got if g[0] == tol]
            assert len(mine) == len(threads)
            for kind in BasisKind:
                assert all(fs[kind] is p._memo[kind, tol] for _, _, fs, _ in mine)
            assert all(b is mine[0][2][BasisKind.KERNEL].basis for *_, b in mine)
            assert all(v == mine[0][1] for _, v, _, _ in mine)
            assert mine[0][1].value is TruthValue.FALSE
    # whichever thread built a factor, later verdicts eliminate nothing
    calls.clear()
    for p, psi in cases:
        for tol in policies:
            assert valuate(p, psi, tol).value is TruthValue.FALSE
    assert calls == []
