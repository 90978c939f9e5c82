"""Dense complex matrices, projector validation, and subspace bases.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The
value types below (:class:`StateVector`, :class:`Projector`,
:class:`SubspaceBasis`) are immutable wrappers: their backing arrays
are marked read-only on construction so instances can be shared freely
between threads.  A :class:`Projector` also memoises its range and
kernel bases, once per (basis kind, tolerance policy); a memoised basis
is a read-only :class:`SubspaceBasis` written at most once, so sharing
stays safe.

Rank decisions use Gaussian elimination with partial pivoting, treating
a pivot below ``abs_eps * max|entry|`` as zero.  Basis columns are
selected deterministically, lowest index first, so repeated runs pick
the same vectors.  That loop, :func:`_row_echelon`, is the package's
one elimination core; both kernel deciders in ``membership`` run it.

File format for matrices and vectors (vectors are n x 1)::

    {"rows": n, "cols": m, "entries": [[re, im], ...]}   # row-major
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import DEFAULT_TOLERANCE, PropvalError, TolerancePolicy


class NotSquare(PropvalError):
    pass


class NotHermitian(PropvalError):
    pass


class NotIdempotent(PropvalError):
    pass


class NotUnitNorm(PropvalError):
    pass


class ZeroProjector(PropvalError):
    pass


class FullRankProjector(PropvalError):
    pass


class DimensionMismatch(PropvalError):
    pass


class MalformedMatrixFile(PropvalError):
    pass


class NonFiniteEntry(PropvalError):
    pass


class BasisKind(Enum):
    RANGE = "range"
    KERNEL = "kernel"


def _freeze(obj, name, value):
    object.__setattr__(obj, name, value)
    value.setflags(write=False)


@dataclass(frozen=True)
class StateVector:
    """Column vector of complex components.

    Norm is not enforced here: decomposition parts are state-vector
    shaped but generally not unit.  Operations that need a unit vector
    check :meth:`is_unit` and raise :class:`NotUnitNorm`.
    """

    components: np.ndarray

    def __post_init__(self):
        arr = np.array(self.components, dtype=complex).reshape(-1)
        _freeze(self, "components", arr)

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    def is_unit(self, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
        return abs(self.norm - 1.0) <= tol.abs_eps + tol.rel_eps


@dataclass(frozen=True)
class Projector:
    """Validated Hermitian idempotent matrix with its precomputed rank.

    Construct through :func:`validate_projector` or
    :func:`projector_from_state`; the constructor itself performs no
    checks.  :func:`range_basis` and :func:`kernel_basis` compute each
    basis once per tolerance policy and keep it on the instance; the
    memo is write-once, holds read-only bases, and takes no part in
    equality.
    """

    array: np.ndarray
    rank: int
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _freeze(self, "array", np.array(self.array, dtype=complex))

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def nullity(self) -> int:
        return self.dim - self.rank


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent columns spanning a projector's range or kernel."""

    array: np.ndarray  # n x k, columns are the basis vectors
    kind: BasisKind

    def __post_init__(self):
        arr = np.array(self.array, dtype=complex)
        if arr.ndim != 2:
            raise DimensionMismatch("basis must be a 2-d column stack")
        _freeze(self, "array", arr)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def count(self) -> int:
        return self.array.shape[1]


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteEntry("matrix has a NaN or infinite entry")


def _row_echelon(
    w: np.ndarray, ncols: int, threshold: float
) -> tuple[list[int], int]:
    """Outer-product Gaussian elimination of the first ``ncols`` columns.

    Works in place on ``w`` (Golub & Van Loan, *Matrix Computations*,
    3.4).  Pivot ``r`` is the first entry of largest magnitude in column
    ``c`` at or below row ``r``; a column whose candidates all sit at or
    below ``threshold`` is skipped.  Each step subtracts
    ``outer(w[r+1:, c] / w[r, c], w[r, c+1:])`` below and right of the
    pivot.  Returns the pivot columns (pivot ``r`` in row ``r`` of
    ``w``) and the number of row interchanges.
    """
    cols: list[int] = []
    swaps = 0
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
            swaps += 1
        piv = complex(col[0])  # divide in Python: numpy's division rounds differently
        m = np.array([z / piv for z in col[1:].tolist()], dtype=complex)
        block = w[r + 1 :, c + 1 :]  # a view: no copy back into w
        block -= np.multiply.outer(m, w[r, c + 1 :])
        cols.append(c)
    return cols, swaps


def independent_columns(
    a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> list[int]:
    """Indices of a maximal independent column set, lowest index first.

    Row echelon form of ``a`` (:func:`_row_echelon`); a pivot at or
    below ``abs_eps * max|entry|`` is treated as zero and the column
    skipped.
    """
    work = np.array(a, dtype=complex)
    if work.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    return _row_echelon(work, work.shape[1], tol.abs_eps * max_abs(work))[0]


def matrix_rank(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> int:
    return len(independent_columns(a, tol))


def null_space_basis(
    a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Columns spanning the null space of ``a`` (possibly zero columns)."""
    a = np.asarray(a, dtype=complex)
    n_cols = a.shape[1]
    if n_cols == 0:
        return np.zeros((0, 0), dtype=complex)
    u, s, vh = np.linalg.svd(a)
    cutoff = tol.abs_eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def projector_from_state(
    psi: StateVector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Projector:
    """Rank-1 projector onto the line spanned by a unit vector."""
    if not psi.is_unit(tol):
        raise NotUnitNorm(f"state norm {psi.norm} deviates from 1")
    v = psi.components
    return Projector(np.outer(v, v.conj()), rank=1)


def validate_projector(
    m: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Projector:
    """Check finiteness, Hermiticity and idempotency, compute the rank.

    The independent columns that give the rank also seed the projector's
    range basis for ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    _require_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"projector matrix must be square, got shape {m.shape}")
    bound = tol.abs_eps + tol.rel_eps * max_abs(m)
    if max_abs(m - m.conj().T) > bound:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    if max_abs(m @ m - m) > bound:
        raise NotIdempotent("matrix is not idempotent within tolerance")
    cols = independent_columns(m, tol)
    p = Projector(m, rank=len(cols))
    p._bases[BasisKind.RANGE, tol] = SubspaceBasis(p.array[:, cols], BasisKind.RANGE)
    return p


def _basis(p: Projector, kind: BasisKind, tol: TolerancePolicy) -> SubspaceBasis:
    """The memoised basis of ``kind``, computed on the first request."""
    basis = p._bases.get((kind, tol))
    if basis is None:
        a = p.array
        if kind is BasisKind.KERNEL:
            a = np.eye(p.dim, dtype=complex) - a
        basis = SubspaceBasis(a[:, independent_columns(a, tol)], kind)
        basis = p._bases.setdefault((kind, tol), basis)
    return basis


def range_basis(
    p: Projector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> SubspaceBasis:
    """Independent columns of the projector matrix, lowest index first."""
    if p.rank == 0:
        raise ZeroProjector("range of the zero projector is {0}")
    return _basis(p, BasisKind.RANGE, tol)


def kernel_basis(
    p: Projector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> SubspaceBasis:
    """Independent columns of (I - M), lowest index first."""
    if p.rank == p.dim:
        raise FullRankProjector("kernel of a full-rank projector is {0}")
    return _basis(p, BasisKind.KERNEL, tol)


def decompose(
    psi: StateVector, p: Projector
) -> tuple[StateVector, StateVector]:
    """Split a vector into its range and kernel components (Pv, v - Pv)."""
    if psi.dim != p.dim:
        raise DimensionMismatch(
            f"state dim {psi.dim} does not match projector dim {p.dim}"
        )
    v = psi.components
    in_range = p.array @ v
    return StateVector(in_range), StateVector(v - in_range)


def matrix_to_json_dict(a: np.ndarray) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_json_dict(d: dict) -> np.ndarray:
    try:
        rows, cols, entries = int(d["rows"]), int(d["cols"]), d["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedMatrixFile(f"missing or invalid field: {exc}") from exc
    if rows < 0 or cols < 0 or len(entries) != rows * cols:
        raise MalformedMatrixFile(
            f"expected {rows * cols} entries, got {len(entries)}"
        )
    try:
        flat = [complex(re, im) for re, im in entries]
    except (TypeError, ValueError) as exc:
        raise MalformedMatrixFile("entries must be [re, im] pairs") from exc
    a = np.array(flat, dtype=complex).reshape(rows, cols)
    _require_finite(a)
    return a


def save_matrix(path, a: np.ndarray) -> None:
    with open(path, "w") as f:
        json.dump(matrix_to_json_dict(a), f)


def load_matrix(path) -> np.ndarray:
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as exc:
            raise MalformedMatrixFile(f"not valid JSON: {exc}") from exc
    return matrix_from_json_dict(d)


def load_state(path) -> StateVector:
    """Load a state vector stored as an n x 1 matrix file."""
    a = load_matrix(path)
    if a.shape[1] != 1:
        raise MalformedMatrixFile(
            f"state vector file must have cols = 1, got {a.shape[1]}"
        )
    return StateVector(a[:, 0])
