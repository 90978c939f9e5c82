"""Dense complex matrices, projector validation, subspaces and their factors.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The
value types below (:class:`StateVector`, :class:`Projector`,
:class:`Subspace`, :class:`EchelonFactor`) are immutable wrappers:
their backing arrays are marked read-only on construction so instances
can be shared freely between threads.  A :class:`Subspace` is the one
column-stack type: a projector's range or kernel basis and every
operand of the lattice in ``valuation`` alike.  A :class:`Projector`
memoises one factor per subspace and tolerance policy
(:func:`subspace_factor`): the elimination of ``P`` for its range, of
``I - P`` for its kernel.  The pivot columns of each are that
subspace's basis, so :func:`range_basis` and :func:`kernel_basis` read
it off the factor.  Each memo entry is written at most once, and a
lock on the miss path makes threads that miss the same entry build it
once, so sharing stays safe.

Rank decisions use Gaussian elimination with partial pivoting, treating
a pivot at or below ``abs_eps * max|entry|`` of the eliminated matrix as
zero; that one threshold serves bases, ranks, null spaces and factors
alike.  Basis columns are selected deterministically, lowest index
first, so repeated runs pick the same vectors.  That loop,
:func:`_row_echelon`, is the package's one elimination core: it picks
bases, gives null spaces by back-substitution, and its factors
(:func:`subspace_factor`, ``_factor``) serve every elimination decider
in ``membership``.  It works in panels of columns: one rank-1 update per
pivot inside a panel, then one matrix product for the block right of
and below it.  One elimination of ``P`` or ``I - P`` gives both the
basis and its factor, because a non-pivot column issues no update.

File format for matrices and vectors (vectors are n x 1)::

    {"rows": n, "cols": m, "entries": [[re, im], ...]}   # row-major
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
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
    check :meth:`is_unit` and raise :class:`NotUnitNorm`, or
    :class:`NonFiniteEntry` for a NaN or infinite component.
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
    checks.  :func:`subspace_factor` factors the range or kernel system
    once per tolerance policy and keeps the factor on the instance
    (:func:`validate_projector` seeds the range factor); the memo is
    write-once, holds read-only values, and takes no part in equality.
    """

    array: np.ndarray
    rank: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _freeze(self, "array", np.array(self.array, dtype=complex))

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def nullity(self) -> int:
        return self.dim - self.rank


@dataclass(frozen=True)
class Subspace:
    """Span of independent columns: an ``ambient_dim x dim`` stack (none = {0})."""

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=complex)
        if arr.ndim != 2:
            raise DimensionMismatch("subspace basis must be a 2-d column stack")
        _freeze(self, "array", arr)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=complex))

    @property
    def ambient_dim(self) -> int:
        return self.array.shape[0]

    @property
    def dim(self) -> int:
        return self.array.shape[1]


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteEntry("matrix has a NaN or infinite entry")


def _require_unit(psi: StateVector, tol: TolerancePolicy) -> None:
    """Raise :class:`NotUnitNorm` unless ``psi`` is a unit vector.

    A NaN or infinite component gives a NaN or infinite norm; such a
    state raises :class:`NonFiniteEntry` instead, as on every other path.
    """
    if not psi.is_unit(tol):
        _require_finite(psi.components)
        raise NotUnitNorm(f"state norm {psi.norm} deviates from 1")


_PANEL = 32  # columns eliminated per panel before the trailing block is updated


def _row_echelon(
    w: np.ndarray, ncols: int, threshold: float
) -> tuple[list[int], list[int]]:
    """Right-looking blocked Gaussian elimination of the first ``ncols`` columns.

    Works in place on ``w`` (Golub & Van Loan, *Matrix Computations*,
    3.4), ``_PANEL`` columns at a time.  Pivot ``r`` is the first entry
    of largest magnitude in column ``c`` at or below row ``r``; a column
    whose candidates all sit at or below ``threshold`` is skipped.  Every
    caller passes ``abs_eps * max|entry|`` of the matrix it eliminates,
    so a basis and a factor of the same matrix pick the same pivots.  Each
    step subtracts ``outer(w[r+1:, c] / w[r, c], w[r, c+1:end])`` below
    and right of the pivot, within the panel's columns, and stores the
    multipliers below the pivot in every panel.  At the panel's end its
    pivot rows get the panel's earlier updates right of the panel, and
    the rows below them one product ``L21 @ U12``.  The last panel spans
    every remaining column, so a system of at most ``_PANEL`` columns
    runs exactly the unblocked loop.  Row interchanges move whole rows,
    stored multipliers included, so on return ``w`` holds U on and above
    each pivot and the multipliers below it in the final row order
    (LAPACK's ``getrf`` layout).  Returns the pivot columns (pivot ``r``
    in row ``r`` of ``w``) and, per pivot, the row swapped into row
    ``r`` at its step (``r`` itself when none was).
    """
    cols: list[int] = []
    swapped: list[int] = []
    for c0 in range(0, ncols, _PANEL):
        last = ncols - c0 <= _PANEL
        end = w.shape[1] if last else c0 + _PANEL
        r0 = len(cols)
        for c in range(c0, min(c0 + _PANEL, ncols)):
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
            piv = complex(col[0])  # divide in Python: numpy's division rounds differently
            m = np.array([z / piv for z in col[1:].tolist()], dtype=complex)
            col[1:] = m
            block = w[r + 1 :, c + 1 : end]  # a view: no copy back into w
            block -= np.multiply.outer(m, w[r, c + 1 : end])
            cols.append(c)
            swapped.append(r + p)
        r1 = len(cols)
        if last or r1 == r0:
            continue
        pcols = cols[r0:]
        for i in range(r0 + 1, r1):
            w[i, end:] -= w[i, pcols[: i - r0]] @ w[r0:i, end:]
        w[r1:, end:] -= w[r1:, pcols] @ w[r0:r1, end:]
    return cols, swapped


@dataclass(frozen=True, eq=False)  # shared by identity, like the memo holding it
class EchelonFactor:
    """The right-hand-side-independent half of deciding ``B x = b``.

    Elimination picks its pivots and multipliers from the unknown
    columns alone, so everything except the right-hand side's own
    updates is fixed by ``B`` (LAPACK's ``getrf``/``getrs`` split; Golub
    & Van Loan, *Matrix Computations*, 3.2-3.4).  A factor holds what
    :mod:`~propval.membership` needs to decide one ``b`` in O(n^2):

    * ``lu`` -- n x t, the ``t`` eliminated unknowns: U on and above the
      diagonal, the multipliers below it, rows in the order left after
      the ``t`` interchanges;
    * ``swapped`` -- the row swapped into row ``r`` at step ``r``;
    * ``positions`` -- the unknown eliminated at step ``r``;
    * ``last`` -- the last unknown's column after those ``t`` steps, the
      column the cross-product check anchors on;
    * ``threshold`` -- ``abs_eps * max|entry|`` of the factored matrix,
      the one pivot and anchor threshold;
    * ``basis`` -- for a projector's range or kernel, the pivot columns
      of ``P`` or ``I - P`` that are the system's unknowns.

    Arrays are read-only, so a factor is shared freely between threads.
    """

    lu: np.ndarray
    last: np.ndarray
    swapped: tuple[int, ...]
    positions: tuple[int, ...]
    unknowns: int
    threshold: float
    basis: Subspace | None = None

    def __post_init__(self):
        self.lu.setflags(write=False)
        self.last.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.last.shape[0]

    @property
    def row_swaps(self) -> int:
        return sum(p != r for r, p in enumerate(self.swapped))

    def forward(self, b: np.ndarray) -> np.ndarray:
        """A fresh copy of ``b`` taken through the ``t`` elimination steps."""
        return _forward(self.lu, self.swapped, b)


def _forward(lu: np.ndarray, swapped, b: np.ndarray) -> np.ndarray:
    """``b`` through the steps of ``lu``: interchanges, then the multipliers.

    Column by column in the loop's order, so on a one-panel system each
    entry sees the same operations as in :func:`_row_echelon` itself.  A
    step never swaps a row above it, so applying every interchange first
    is the same arithmetic.
    """
    y = np.array(b, dtype=complex)
    for r, p in enumerate(swapped):
        if p != r:
            y[r], y[p] = y[p], y[r]
    for r in range(len(swapped)):
        y[r + 1 :] -= lu[r + 1 :, r] * y[r]
    return y


def _factor(
    a: np.ndarray, tol: TolerancePolicy, kind: BasisKind | None = None
) -> EchelonFactor:
    """One elimination of every column of ``a``, kept as an :class:`EchelonFactor`.

    The unknowns are every column of ``a`` or, with ``kind``, the pivot
    columns, kept as a basis of that kind; a non-pivot column issues no
    update, so eliminating ``a`` eliminates the basis too.  The pivot
    threshold is ``abs_eps * max|a|``, the one :func:`independent_columns`
    uses, so the basis is the one it picks.  The factor covers the
    unknowns before the last: if the last unknown was itself a pivot, its
    interchange is undone, and its column is forward-solved from ``a``
    like a right-hand side.
    """
    _require_finite(a)
    w = np.array(a, dtype=complex)
    threshold = tol.abs_eps * max_abs(w)
    cols, swapped = _row_echelon(w, w.shape[1], threshold)
    unknowns = cols if kind is not None else list(range(w.shape[1]))
    t = bisect_left(cols, unknowns[-1]) if unknowns else 0
    lu = w.T[cols[:t]].T  # n x t, each eliminated column contiguous
    if t < len(cols) and swapped[t] != t:
        lu[[t, swapped[t]]] = lu[[swapped[t], t]]
    position = {c: i for i, c in enumerate(unknowns)}
    last = a[:, unknowns[-1]] if unknowns else np.zeros(w.shape[0])
    return EchelonFactor(
        lu,
        _forward(lu, swapped[:t], last),
        tuple(swapped[:t]),
        tuple(position[c] for c in cols[:t]),
        len(unknowns),
        threshold,
        None if kind is None else Subspace(a[:, cols]),
    )


def independent_columns(
    a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> list[int]:
    """Indices of a maximal independent column set, lowest index first.

    Row echelon form of ``a`` (:func:`_row_echelon`); a pivot at or
    below ``abs_eps * max|entry|`` is treated as zero and the column
    skipped.
    """
    return _echelon(a, tol)[1]


def matrix_rank(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> int:
    return len(independent_columns(a, tol))


def _echelon(a: np.ndarray, tol: TolerancePolicy) -> tuple[np.ndarray, list[int]]:
    """A checked copy of ``a`` in row echelon form, and its pivot columns."""
    w = np.array(a, dtype=complex)
    if w.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    _require_finite(w)
    return w, _row_echelon(w, w.shape[1], tol.abs_eps * max_abs(w))[0]


def null_space_basis(
    a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Columns spanning the null space of ``a``, one per free column.

    From the row echelon form :func:`independent_columns` computes: the
    vector of free column ``c`` is 1 at ``c``, 0 at the other free
    columns, and solves ``U x = 0`` for the pivot entries by
    back-substitution, all free columns at once.  U is the pivot rows of
    the echelon form; a free column's entries left of a row's pivot are
    sub-threshold candidates the elimination skipped, taken as 0.
    """
    w, cols = _echelon(a, tol)
    n = w.shape[1]
    pivots = set(cols)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=complex)
    basis[free, range(len(free))] = 1
    if free:
        x = -w[: len(cols), free]
        x[np.greater.outer(cols, free)] = 0
        for i in range(len(cols) - 1, -1, -1):
            x[i] /= w[i, cols[i]]
            x[:i] -= np.multiply.outer(w[:i, cols[i]], x[i])
        basis[cols] = x
    return basis


def projector_from_state(
    psi: StateVector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Projector:
    """Rank-1 projector onto the line spanned by a unit vector."""
    _require_unit(psi, tol)
    v = psi.components
    return Projector(np.outer(v, v.conj()), rank=1)


def validate_projector(
    m: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Projector:
    """Check finiteness, Hermiticity and idempotency, compute the rank.

    The one elimination of ``m`` that gives the rank is kept as the
    projector's range factor for ``tol``.
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
    f = _factor(m, tol, BasisKind.RANGE)
    p = Projector(m, rank=f.unknowns)
    p._memo[BasisKind.RANGE, tol] = f
    return p


# Serialises memo misses so threads that miss the same key build its
# factor once; hits never take it.
_FACTOR_BUILD = threading.Lock()


def subspace_factor(
    p: Projector, kind: BasisKind, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> EchelonFactor:
    """The factor of ``p``'s range or kernel system, memoised per policy.

    One elimination of ``P`` (range) or ``I - P`` (kernel); its pivot
    columns are the subspace's basis and the system's unknowns, so a
    state's membership then costs one O(n k) solve against it, for a
    subspace of dimension k.
    """
    if kind is BasisKind.RANGE and p.rank == 0:
        raise ZeroProjector("range of the zero projector is {0}")
    if kind is BasisKind.KERNEL and p.rank == p.dim:
        raise FullRankProjector("kernel of a full-rank projector is {0}")
    value = p._memo.get((kind, tol))
    if value is None:
        with _FACTOR_BUILD:
            value = p._memo.get((kind, tol))
            if value is None:
                a = p.array if kind is BasisKind.RANGE else np.eye(p.dim) - p.array
                value = p._memo[kind, tol] = _factor(a, tol, kind)
    return value


def range_basis(
    p: Projector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Independent columns of the projector matrix, lowest index first."""
    return subspace_factor(p, BasisKind.RANGE, tol).basis


def kernel_basis(
    p: Projector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Independent columns of (I - M), lowest index first."""
    return subspace_factor(p, BasisKind.KERNEL, tol).basis


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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedMatrixFile(f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise MalformedMatrixFile("JSON nested too deeply") from None
    return matrix_from_json_dict(d)


def load_state(path) -> StateVector:
    """Load a state vector stored as an n x 1 matrix file."""
    a = load_matrix(path)
    if a.shape[1] != 1:
        raise MalformedMatrixFile(
            f"state vector file must have cols = 1, got {a.shape[1]}"
        )
    return StateVector(a[:, 0])
