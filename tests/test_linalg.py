"""Projector validation, subspace bases, decomposition, and file IO."""

import io
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from propval import linalg, membership
from propval.fixtures import TargetKind, qubit_fixture, random_instance, spin52_fixture
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
    quoted = fx.reference_kernel_columns  # integer normalisation
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
    and reach the same echelon rows to rounding, multipliers stored below
    each pivot; it blocks the updates into panels and divides in numpy.
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


def rank_one_system():
    """n = 3 panels + 4, rank 1: every column after the first is skipped."""
    rng = np.random.default_rng(1)
    n = 3 * linalg._PANEL + 4
    u, v = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    return np.outer(u, v), n


def pivots_inside_skipped_runs():
    """Multiples of one column, but for a fresh direction in the middle of
    each panel; the run between them crosses the panel boundary."""
    rng = np.random.default_rng(2)
    n = 40
    u, w, z = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3))
    a = np.outer(u, rng.normal(size=n))
    a[:, 17], a[:, 36] = w, z
    return a, n


@settings(max_examples=150, deadline=None)
@given(system=panel_systems())
@example(system=rank_one_system())
@example(system=pivots_inside_skipped_runs())
def test_blocked_elimination_matches_the_unblocked_loop(system):
    """Pivots and interchanges exactly; every entry, multipliers included,
    within ``c n u`` of the larger of ``max|a|`` and ``max|U|`` (the pivot
    growth), n the larger dimension and u the unit roundoff.  The largest
    ratio seen over 6000 drawn systems was under 17."""
    a, ncols = system
    threshold = 1e-9 * linalg.max_abs(a)
    got, want = a.copy(), a.copy()
    cols, swapped = linalg._row_echelon(got, ncols, threshold)
    assert (cols, swapped) == unblocked_row_echelon(want, ncols, threshold)
    c, u = 64, 2.0**-53
    scale = max(linalg.max_abs(a), linalg.max_abs(want))
    assert np.abs(got - want).max() <= c * max(a.shape) * u * scale


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=64))
def test_validate_projector_rank_is_the_drawn_rank(data, n):
    """The trace gives the rank that a full elimination of ``P`` finds."""
    rank = data.draw(st.integers(min_value=1, max_value=n - 1), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    m = q @ q.conj().T
    assert validate_projector(m).rank == rank == matrix_rank(m)


@pytest.mark.parametrize("scale", [1e-12, 1e-10])
def test_a_projector_zero_within_tolerance_has_rank_zero(scale):
    """A relative pivot threshold finds 4 pivots in this noise; its trace
    rounds to 0, so every state reads FALSE, the zero projector's verdict."""
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    p = validate_projector(scale * (h + h.conj().T))
    assert p.rank == 0
    for e in np.eye(4):
        assert valuate(p, StateVector(e)).value is TruthValue.FALSE


def test_spin52_keeps_rank_one_at_a_zero_absolute_tolerance():
    """At ``abs_eps`` 0 the pivot threshold is 0, and a full elimination
    of spin52's ``P`` takes a rounding-noise pivot for a second unknown."""
    tol = TolerancePolicy(abs_eps=0.0, rel_eps=1e-9)
    p = validate_projector(spin52_fixture().projector.array, tol)
    assert p.rank == 1
    assert subspace_factor(p, BasisKind.RANGE, tol).unknowns == 1


@pytest.mark.parametrize("diagonal, trace", [(1.5, 3.0), (-0.5, -1.0)])
def test_a_trace_that_rounds_to_no_rank_is_rejected(diagonal, trace):
    """At a tolerance of 0.8, ``P² - P`` of these is within the bound."""
    with pytest.raises(NotIdempotent, match=f"trace {trace} "):
        validate_projector(diagonal * np.eye(2), TolerancePolicy(abs_eps=0.8))


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
@example(m=100, n=100, r=70, seed=1)  # U solved in three blocks
@example(m=40, n=100, r=40, seed=2)  # two blocks, 60 free columns
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


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0), complex(0, np.inf)]
)
def test_rank_decisions_reject_non_finite_entries(bad):
    a = np.array([[bad, 1.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteEntry):
        matrix_rank(a)
    with pytest.raises(NonFiniteEntry):
        null_space_basis(a)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(0, math.inf)]
)
def test_validate_projector_rejects_non_finite_entries_before_comparing(
    bad, monkeypatch
):
    m = np.zeros((3, 3), dtype=complex)
    m[0, 2] = bad  # and not Hermitian: the finiteness check must come first
    scanned = []
    real_max_abs = linalg.max_abs
    monkeypatch.setattr(
        linalg, "max_abs", lambda a: scanned.append(a) or real_max_abs(a)
    )
    with pytest.raises(NonFiniteEntry):
        validate_projector(m)
    # one scan, of m's entries as they are: no difference formed, no product
    assert len(scanned) == 1 and np.array_equal(scanned[0], m, equal_nan=True)


def test_a_finite_scale_may_overflow_without_a_non_finite_entry():
    a = np.full((2, 2), 1.5e308 + 1.5e308j)
    assert linalg.max_abs(a) == math.inf  # abs overflows
    assert linalg._finite_scale(a) == math.inf  # but no entry is NaN or inf


def test_null_space_basis_rejects_a_one_dimensional_array():
    with pytest.raises(DimensionMismatch):
        null_space_basis(np.ones(3))


def test_matrix_json_roundtrip(tmp_path):
    a = np.array([[1.5, -2j], [0.25 + 1j, 3.0]])
    path = tmp_path / "m.json"
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)


def test_saved_bytes_are_those_of_the_python_encoder(tmp_path):
    """``save_matrix`` writes the bytes ``json.dump`` writes for entries
    built one complex at a time, signed zeros and extreme floats too."""
    edges = np.array(
        [
            [complex(-0.0, 0.0), complex(0.0, -0.0)],
            [5e-324 - 1.7e308j, 1.7e308 + 5e-324j],
        ]
    )
    arrays = [edges, edges.T, np.zeros((0, 1), dtype=complex)]  # edges.T: column-major
    for fx in (qubit_fixture(), spin52_fixture()):
        arrays.append(fx.projector.array)
        arrays += [s.components.reshape(-1, 1) for s in fx.states.values()]
    path = tmp_path / "m.json"
    for a in arrays:
        save_matrix(path, a)
        entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
        reference = {"rows": a.shape[0], "cols": a.shape[1], "entries": entries}
        assert linalg.matrix_to_json_dict(a) == reference
        with io.StringIO() as want:
            json.dump(reference, want)
            assert path.read_text() == want.getvalue()
        bits = np.ascontiguousarray(a).view(np.uint64)
        assert np.array_equal(load_matrix(path).view(np.uint64), bits)


@pytest.mark.parametrize("shape", [(2, 2), (1, 2), (), (2, 1, 1)])
def test_a_state_is_one_dimensional_or_one_column(shape):
    """A 2x2 array flattened to four components would get a plausible
    verdict on a 4-dimensional projector; it is rejected instead."""
    with pytest.raises(DimensionMismatch, match=r"1-d or one column"):
        StateVector(np.full(shape, 0.5))
    column = StateVector(np.array([[S2], [S2]]))
    assert column.components.shape == (2,) and column.is_unit()


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


@pytest.mark.parametrize("rank", [1, 3])
def test_factors_are_immutable(rank):
    rng = np.random.default_rng(rank)
    q, _ = np.linalg.qr(rng.normal(size=(6, rank)) + 1j * rng.normal(size=(6, rank)))
    p = validate_projector(q @ q.conj().T)
    assert valuate(p, StateVector(random_unit(rng, 6))).value is TruthValue.GAP
    assert len(p._memo) == 2
    for f in p._memo.values():
        for array in (f.lu, f.last, f.perm):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        with pytest.raises(AttributeError):
            f.row_swaps = 0
        with pytest.raises(AttributeError):
            f.anchor = 0
        with pytest.raises(AttributeError):
            f.pivots = ()
    for basis in (range_basis(p), kernel_basis(p)):
        with pytest.raises(ValueError):
            basis.array[...] = 0


def count_eliminations(monkeypatch):
    """Columns of every array ``linalg._row_echelon`` runs on, in order."""
    calls = []
    original = linalg._row_echelon

    def counted(w, ncols, threshold, most=None):
        calls.append(w.shape[1])
        return original(w, ncols, threshold, most)

    monkeypatch.setattr(linalg, "_row_echelon", counted)
    return calls


@pytest.mark.parametrize("noise", [0.0, 1e-12])
def test_the_empty_kernel_is_factored_without_elimination(noise, monkeypatch):
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    p = validate_projector(np.eye(4) + noise * (h + h.conj().T))
    assert p.rank == 4
    calls = count_eliminations(monkeypatch)
    f = subspace_factor(p, BasisKind.KERNEL)
    # The rank decides: I - P is zero or noise, and its 4 columns are not
    # eliminated, where the relative pivot threshold would find pivots.
    assert calls == [0]
    assert f.unknowns == 0 and f.pivots == ()
    assert subspace_factor(p, BasisKind.KERNEL) is f
    assert calls == [0]
    with pytest.raises(FullRankProjector):
        kernel_basis(p)


def test_bases_are_computed_once_per_policy(monkeypatch):
    calls = count_eliminations(monkeypatch)
    drawn, _ = random_instance(8, 3, TargetKind.IN_RANGE)
    p = validate_projector(drawn.array)
    assert calls == []  # the rank is the trace: validation eliminates nothing
    for target, expected, eliminated in (
        (TargetKind.IN_RANGE, TruthValue.TRUE, [8]),  # P, on the first verdict
        (TargetKind.IN_KERNEL, TruthValue.FALSE, [8, 8]),  # I - P
        (TargetKind.GENERIC, TruthValue.GAP, [8, 8]),
    ):
        assert valuate(p, random_instance(8, 3, target)[1]).value is expected
        assert calls == eliminated
    bases = {BasisKind.RANGE: range_basis, BasisKind.KERNEL: kernel_basis}
    systems = {BasisKind.RANGE: p.array, BasisKind.KERNEL: np.eye(8) - p.array}
    assert p._bases == {}  # no verdict reads a basis
    for kind, basis in bases.items():
        f = subspace_factor(p, kind, TolerancePolicy())
        assert f is subspace_factor(p, kind) is p._memo[kind, DEFAULT_TOLERANCE]
        built = basis(p, TolerancePolicy())
        assert built is basis(p) is p._bases[kind, DEFAULT_TOLERANCE]
        assert np.array_equal(built.array, systems[kind][:, list(f.pivots)])
    assert calls == [8, 8]
    wider = TolerancePolicy(abs_eps=1e-6)
    assert np.array_equal(range_basis(p, wider).array, range_basis(p).array)
    assert np.array_equal(kernel_basis(p, wider).array, kernel_basis(p).array)
    assert calls == [8, 8, 8, 8]  # one per (kind, policy)
    assert all(isinstance(f, linalg.EchelonFactor) for f in p._memo.values())
    assert all(isinstance(b, Subspace) for b in p._bases.values())
    assert len(p._memo) == len(p._bases) == 4


def test_a_projector_is_eliminated_once_for_every_kernel_verdict(monkeypatch):
    calls = count_eliminations(monkeypatch)
    n = 40  # more than one panel
    drawn, first = random_instance(n, 5, TargetKind.IN_KERNEL)
    p = validate_projector(drawn.array)
    assert calls == []
    assert valuate(p, first).value is TruthValue.FALSE
    # P's leading panel, which holds its 5 range pivots, for the range check,
    # then I - P: the kernel basis and the factor in one
    assert calls == [linalg._PANEL, n]
    calls.clear()
    generic = random_instance(n, 5, TargetKind.GENERIC)[1]
    assert valuate(p, generic).value is TruthValue.GAP
    v = generic.components - p.array @ generic.components
    second = StateVector(v / np.linalg.norm(v))
    assert valuate(p, second).value is TruthValue.FALSE
    assert valuate_ql(p, second, gap_to_true=True).value is TruthValue.FALSE
    assert calls == []


@pytest.mark.parametrize("rank", [2, 3])
def test_range_verdicts_solve_against_the_first_verdicts_factor(monkeypatch, rank):
    calls = count_eliminations(monkeypatch)
    n = 40
    rng = np.random.default_rng(rank)
    q, _ = np.linalg.qr(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)))
    p = validate_projector(q @ q.conj().T)
    assert p.rank == rank
    assert calls == []
    in_range = StateVector(q @ random_unit(rng, rank))
    assert valuate(p, in_range).value is TruthValue.TRUE
    # P's leading panel, which holds the pivots: the range basis and its factor
    assert calls == [linalg._PANEL]
    calls.clear()
    for _ in range(2):
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


@pytest.mark.parametrize("order", ["C", "F"])
def test_the_kernel_system_is_i_minus_p_bit_for_bit(order):
    """The kernel factor builds ``I - P`` without the identity; its entries,
    the signs of zeros included, and its row-major layout, which decides
    how the elimination's products round, are those of ``np.eye(n) - P``."""
    v = np.zeros(6, dtype=complex)
    v[[1, 4]] = [0.6, 0.8j]  # zero rows and columns in P, +0 and -0 parts
    p = np.array(projector_from_state(StateVector(v)).array, order=order)
    want = np.eye(6) - p
    got = linalg._complement(p)
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for c in range(6):
        got = linalg._complement(p, c)
        assert np.array_equal(got.view(np.uint64), want[:, c].copy().view(np.uint64))


@pytest.mark.parametrize("abs_eps", [1e-16, 0.0])
def test_a_kernel_state_reads_false_at_a_tiny_tolerance(abs_eps):
    """At such a tolerance rounding noise clears the pivot threshold.  A
    full elimination of a rank-1 ``P`` then took up to 7 unknowns at
    n = 8, and a kernel state solved the range system: 14 of these 20
    read TRUE at 1e-16 and 16 at 0.  The range factor stops at the
    declared rank, so its one column decides."""
    tol = TolerancePolicy(abs_eps=abs_eps)
    for seed in range(20):
        p, psi = random_instance(8, seed, TargetKind.IN_KERNEL)
        assert subspace_factor(p, BasisKind.RANGE, tol).unknowns == p.rank == 1
        assert valuate(p, psi, tol).value is TruthValue.FALSE


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 100),
    lead=st.integers(0, 99),
    small=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_rank_stop_changes_no_result(n, lead, small, seed):
    """The range factor of a rank-1 projector stops after its one pivot,
    which leading components scaled small push into a later panel; up to
    n = 100 a full elimination runs on through three or four panels.
    Both factors give the same verdicts, tallies, final checks, row swaps,
    anchors and witness bits."""
    rng = np.random.default_rng(seed)
    v = random_unit(rng, n)
    v[: min(lead, n - 1)] *= small
    v /= np.linalg.norm(v)
    p = projector_from_state(StateVector(v))
    stopped = subspace_factor(p, BasisKind.RANGE)
    full = linalg._factor(p.array, DEFAULT_TOLERANCE, BasisKind.RANGE)
    assert stopped.pivots == full.pivots and stopped.unknowns == 1
    for name in ("positions", "anchor", "anchor_entry", "live_scale", "row_swaps"):
        assert getattr(stopped, name) == getattr(full, name), name
    assert stopped.charges == full.charges
    assert np.array_equal(stopped.perm, full.perm)
    assert np.array_equal(stopped.last, full.last)
    generic = random_unit(rng, n)
    perpendicular = generic - v * np.vdot(v, generic)
    for b in (np.exp(1j * rng.uniform(0, 6.3)) * v, perpendicular, generic):
        size = linalg._finite_scale(b)
        got, want = (
            membership._span_membership(f, b, DEFAULT_TOLERANCE, size)
            for f in (stopped, full)
        )
        assert (got.member, got.counts, got.final_check, got.row_swaps) == (
            want.member, want.counts, want.final_check, want.row_swaps
        )
        assert got.witness == want.witness


def test_the_range_factor_takes_exactly_the_declared_rank_of_pivots(monkeypatch):
    seen = []
    original = linalg._row_echelon

    def spy(w, ncols, threshold, most=None):
        cols, swapped = original(w, ncols, threshold, most)
        seen.append((ncols, most, len(cols)))
        return cols, swapped

    monkeypatch.setattr(linalg, "_row_echelon", spy)
    n = 100
    p, _ = random_instance(n, 4, TargetKind.IN_RANGE)
    assert subspace_factor(p, BasisKind.RANGE).unknowns == 1
    assert seen == [(linalg._PANEL, 1, 1)]  # the one pivot lies in P's first panel
    subspace_factor(p, BasisKind.KERNEL)
    assert seen[1] == (n, None, n - 1)  # the kernel runs to the end
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    validated = validate_projector(q @ q.conj().T)
    assert len(seen) == 2  # validation takes the rank from the trace
    subspace_factor(validated, BasisKind.RANGE)
    assert seen[2] == (linalg._PANEL, 3, 3)
    subspace_factor(validated, BasisKind.RANGE, TolerancePolicy(abs_eps=1e-12))
    assert seen[3] == (linalg._PANEL, 3, 3)
    # P's first panel is zero: no pivot lies there, and all of P is eliminated
    v = np.zeros(n, dtype=complex)
    v[linalg._PANEL :] = random_unit(rng, n - linalg._PANEL)
    late = projector_from_state(StateVector(v))
    assert subspace_factor(late, BasisKind.RANGE).pivots[0] >= linalg._PANEL
    assert seen[4:] == [(linalg._PANEL, 1, 0), (n, 1, 1)]
    # after the last pivot nothing is updated: beyond the first panel, the
    # rows below it are P's rows as the one interchange left them
    w = np.array(p.array)
    cols, swapped = original(w, n, DEFAULT_TOLERANCE.threshold(max_abs(w)), 1)
    order = list(range(n))
    order[0], order[swapped[0]] = order[swapped[0]], order[0]
    assert cols == [0]
    assert np.array_equal(w[1:, 32:], p.array[order][1:, 32:])


def reference_projector_factor(p, kind, tol=DEFAULT_TOLERANCE):
    """A projector's factor as it was built before it was read off its
    elimination: a full copy of ``P`` or ``I - P``, the threshold of its
    largest magnitude over every entry, a column-major copy of the
    eliminated unknowns, and the last unknown's column rebuilt from ``P``
    and taken through those steps by ``linalg._forward``."""
    kernel = kind is BasisKind.KERNEL
    w = linalg._complement(p.array) if kernel else np.array(p.array)
    threshold = tol.threshold(linalg._finite_scale(w))
    cols, swapped = linalg._row_echelon(w, p.dim, threshold, None if kernel else p.rank)
    t = len(cols) - 1
    lu = w.T[cols[:t]].T
    if swapped[t] != t:
        lu[[t, swapped[t]]] = lu[[swapped[t], t]]
    perm = list(range(p.dim))
    for r, s in enumerate(swapped[:t]):
        perm[r], perm[s] = perm[s], perm[r]
    column = linalg._complement(p.array, cols[-1]) if kernel else p.array[:, cols[-1]]
    last = linalg._forward(lu, np.array(perm), column)
    mags = np.abs(last[t:])
    live_scale = float(mags.max())
    above = mags > (tol.threshold(live_scale) if len(cols) == 1 else threshold)
    anchor = int(above.argmax()) if above.any() else None
    return linalg.EchelonFactor(
        lu,
        last,
        np.array(perm),
        tuple(range(t)),
        len(cols),
        anchor,
        0j if anchor is None else complex(last[t + anchor]),
        live_scale,
        linalg._charges(p.dim, len(cols), tuple(range(t))),
        sum(s != r for r, s in enumerate(swapped[:t])),
        tuple(cols),
    )


@st.composite
def projectors_with_states(draw):
    """A rank-1, rank-3 or nullity-1 projector, its leading rows scaled by
    1e-6 or zeroed (which moves the range pivots past the first panel),
    a state in its range, one in its kernel, a generic one, and the
    generator that draws the coefficients of a state in a span."""
    n = draw(st.integers(4, 80))
    rank = draw(st.sampled_from([1, 3, n - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    lead = min(draw(st.integers(0, n)), n - rank)
    a[:lead] *= draw(st.sampled_from([1.0, 1e-6, 0.0]))
    q, _ = np.linalg.qr(a)
    p = validate_projector(q @ q.conj().T)
    assert p.rank == rank
    generic = random_unit(rng, n)
    kernel = generic - q @ (q.conj().T @ generic)
    states = (q @ random_unit(rng, rank), kernel / np.linalg.norm(kernel), generic)
    return p, states, rng


@settings(max_examples=120, deadline=None)
@given(case=projectors_with_states())
def test_a_projector_factor_matches_the_full_copy_reference(case):
    """The factor read off one elimination of a panel or of ``I - P``
    takes the reference's pivots, interchanges, anchor and charges; its
    ``lu`` and ``last`` agree to rounding, its verdicts and tallies are
    the reference's, and a member's witness meets the numerical
    contract's normwise backward error."""
    p, states, rng = case
    complement = np.eye(p.dim) - p.array
    for kind, system in ((BasisKind.RANGE, p.array), (BasisKind.KERNEL, complement)):
        got, want = subspace_factor(p, kind), reference_projector_factor(p, kind)
        for name in ("pivots", "positions", "unknowns", "anchor", "charges"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.row_swaps == want.row_swaps
        assert np.array_equal(got.perm, want.perm)
        for name in ("lu", "last"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.abs(g - w).max(initial=0) <= 64 * p.dim * 2.0**-53 * max_abs(w)
        columns = system[:, list(got.pivots)]
        member = columns @ random_unit(rng, got.unknowns)  # in the span to rounding
        member /= np.linalg.norm(member)
        for b in (member, *states):
            size = linalg._finite_scale(b)
            mine, theirs = (
                membership._span_membership(f, b, DEFAULT_TOLERANCE, size)
                for f in (got, want)
            )
            assert (mine.member, mine.counts, mine.final_check, mine.row_swaps) == (
                theirs.member, theirs.counts, theirs.final_check, theirs.row_swaps
            )
        solved = membership._span_membership(got, member, DEFAULT_TOLERANCE, 1.0)
        assert solved.member
        x = np.array(solved.witness)
        residual = np.linalg.norm(columns @ x - member)
        scale = np.linalg.norm(columns, 2) * np.linalg.norm(x) + 1
        assert residual <= 16 * p.dim * 2.0**-53 * scale


def test_a_projector_factor_makes_no_pass_over_every_entry(monkeypatch):
    """Neither a projector's threshold scale nor its last column costs a
    pass of its own: no ``_finite_scale`` over the system, and no
    ``_forward`` when the last unknown is a pivot, as it always is for a
    projector.  A bare stack keeps its one finiteness pass."""
    rng = np.random.default_rng(7)
    n = 40
    q, _ = np.linalg.qr(rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    late = np.zeros(n, dtype=complex)
    late[linalg._PANEL :] = random_unit(rng, n - linalg._PANEL)
    projectors = [
        projector_from_state(StateVector(random_unit(rng, n))),
        projector_from_state(StateVector(late)),  # the range pivot past the panel
        validate_projector(q @ q.conj().T),
        validate_projector(np.eye(n) - q[:, :1] @ q[:, :1].conj().T),  # nullity 1
    ]
    stack = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    calls = []
    for name in ("_finite_scale", "_forward"):

        def spy(*args, _name=name, _original=getattr(linalg, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(linalg, name, spy)
    for p in projectors:
        for kind in BasisKind:
            subspace_factor(p, kind)
    assert calls == []
    f = linalg._factor(stack, DEFAULT_TOLERANCE)
    assert f.pivots[-1] == stack.shape[1] - 1  # the last unknown is a pivot
    assert calls == ["_finite_scale"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_both_projector_builders_reject_a_non_finite_entry(bad):
    """A projector's factor takes its threshold from the diagonal without a
    finiteness pass, so neither builder may let a NaN or inf through."""
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0
    for i, j in ((0, 0), (1, 2), (2, 1)):
        bad_m = m.copy()
        bad_m[i, j] = bad
        with pytest.raises(NonFiniteEntry):
            validate_projector(bad_m)
    for v in ([bad, 0.0, 0.0], [S2, S2 * bad, 0.0]):
        with pytest.raises(NonFiniteEntry):
            projector_from_state(StateVector(v))


def _traced(build):
    """``build()`` with the bytes its allocations peaked at and kept."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak - before, kept - before


def test_a_projector_factor_allocates_one_work_array():
    """numpy reports its buffers to tracemalloc.  In units of one n x n
    complex array, the range factor of a rank-1 projector peaks at its
    work array and the threshold's magnitudes; the kernel factor at its
    work array, the magnitudes or the panel products, and the ``lu`` it
    keeps, which is all it keeps."""
    n = 128
    unit = n * n * 16
    warm, _ = random_instance(n, 1, TargetKind.IN_RANGE)
    valuate(warm, random_instance(n, 1, TargetKind.GENERIC)[1])
    p, _ = random_instance(n, 2, TargetKind.IN_RANGE)
    _, peak, _ = _traced(lambda: subspace_factor(p, BasisKind.RANGE))
    assert peak <= 2 * unit
    f, peak, kept = _traced(lambda: subspace_factor(p, BasisKind.KERNEL))
    assert f.lu.nbytes > 0.98 * unit
    assert peak <= 3 * unit
    assert kept <= 1.1 * unit


def test_a_memo_build_may_miss_a_memo_itself(monkeypatch):
    # Under a fresh lock of the module lock's type (``_thread.lock`` has no
    # public constructor), in a daemon thread: a build that deadlocks holds
    # only that lock, and the rest of the run goes on.
    kind = type(linalg._FACTOR_BUILD)
    fresh = next(f for f in (threading.Lock, threading.RLock) if type(f()) is kind)
    monkeypatch.setattr(linalg, "_FACTOR_BUILD", fresh())
    outer, inner = {}, {}
    thread = threading.Thread(
        target=linalg._write_once,
        args=(outer, "k", linalg._write_once, inner, "k", object),
        daemon=True,
    )
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive(), "a nested memo miss deadlocked"
    assert outer["k"] is inner["k"]


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
    # (the range's in P's leading panel, which holds its pivots)
    factored = len(cases) * len(policies)
    assert sorted(calls) == [linalg._PANEL] * factored + [40] * factored
    for (p, _), got in zip(cases, seen):
        assert len(p._memo) == len(BasisKind) * len(policies)
        assert all(isinstance(f, linalg.EchelonFactor) for f in p._memo.values())
        for tol in policies:
            mine = [g for g in got if g[0] == tol]
            assert len(mine) == len(threads)
            for kind in BasisKind:
                assert all(fs[kind] is p._memo[kind, tol] for _, _, fs, _ in mine)
            assert all(b is p._bases[BasisKind.KERNEL, tol] for *_, b in mine)
            assert all(v == mine[0][1] for _, v, _, _ in mine)
            assert mine[0][1].value is TruthValue.FALSE
    # whichever thread built a factor, later verdicts eliminate nothing
    calls.clear()
    for p, psi in cases:
        for tol in policies:
            assert valuate(p, psi, tol).value is TruthValue.FALSE
    assert calls == []
    # and the racing threads' verdicts are the serial ones, bit for bit
    for (p, psi), got in zip(cases, seen):
        for tol in policies:
            serial = valuate(validate_projector(p.array, tol), psi, tol)
            assert all(v == serial for t, v, _, _ in got if t == tol)
