"""Dense complex matrices, projector validation, subspaces and their factors.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The
value types below (:class:`StateVector`, :class:`Projector`,
:class:`Subspace`, :class:`EchelonFactor`) are immutable wrappers:
their backing arrays are marked read-only on construction so instances
can be shared freely between threads.  Like every record in the package
that holds an array, they compare and hash by identity; compare their
values through the arrays, with ``np.array_equal``.  A :class:`Subspace`
is the one column-stack type: a projector's range or kernel basis and
every operand of the lattice in ``valuation`` alike.  A :class:`Projector`
memoises one factor per subspace and tolerance policy
(:func:`subspace_factor`): the elimination of ``P`` for its range, on a
copy of the leading panels that hold its pivots, and of ``I - P`` for
its kernel, on one n x n work array, which the factor keeps as a view
when the eliminated unknowns are consecutive columns.  The pivot
columns of each are that subspace's basis; the factor keeps their
indices, and :func:`range_basis` and :func:`kernel_basis` build the
basis from them on their first call.  Each memo entry is written at
most once, and a lock on the miss path makes threads that miss the
same entry build it once, so sharing stays safe.

A projector's rank is declared, never eliminated: the rounded trace of
a validated matrix (:func:`validate_projector`), or 1 for one built
from a state.  Every other rank decision uses Gaussian elimination with
partial pivoting, treating a pivot at or below
``tol.threshold(max|entry|)`` of the eliminated matrix as zero; that
one threshold serves bases, ranks, null spaces and factors alike.  For
``P`` and ``I - P``, both positive semidefinite, the largest magnitude
is the largest on the diagonal (``|A_ij|**2 <= A_ii A_jj``), and the
threshold is taken from the diagonal alone.
Basis columns are selected deterministically, lowest index first, so
repeated runs pick the same vectors.  That loop,
:func:`_row_echelon`, is the package's one elimination core: it picks
bases, gives null spaces by back-substitution, and its factors
(:func:`subspace_factor`, ``_factor``) serve every elimination decider
in ``membership``.  It works in panels of ``_PANEL`` columns, left-looking
(Crout) inside a panel: a column receives the panel's earlier pivots in
one matrix-vector product, and a pivot row is finished across the whole
matrix in one vector-matrix product; at the panel's end one matrix
product updates the block below and right of it.  A pivot's multipliers
are one numpy division of its column.  One elimination of ``P`` or
``I - P`` gives both the basis and its factor, because a non-pivot
column makes no update; the range's elimination stops at the
projector's declared rank.  The factor is read off that one
elimination, the last unknown's column included, with no second pass
over the system.  The triangular solves against the echelon
form, for null spaces and for witnesses, run by blocks of the same
width: one LAPACK solve of a diagonal block and one product for the
rows beyond it (:func:`_forward`, :func:`_upper_solve`).  Under the
package's numerical contract (:mod:`~propval.numerics`) the pivots,
ranks and row swaps are results, while the factor's entries hold only
to rounding: how numpy rounds a step is not part of the contract.
Finiteness is checked where a matrix enters: by both :class:`Projector`
builders, and for a bare column stack on the pass that finds the
threshold's scale, where a NaN or infinite entry makes that scale
non-finite and raises :class:`NonFiniteEntry`.

File format for matrices and vectors (vectors are n x 1)::

    {"rows": n, "cols": m, "entries": [[re, im], ...]}   # row-major
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Column vector of complex components.

    Built from a 1-d array or a single column; any other shape raises
    :class:`DimensionMismatch`, so no matrix is read as a state.

    Norm is not enforced here: decomposition parts are state-vector
    shaped but generally not unit.  Operations that need a unit vector
    check :meth:`is_unit` and raise :class:`NotUnitNorm`, or
    :class:`NonFiniteEntry` for a NaN or infinite component.
    """

    components: np.ndarray

    def __post_init__(self):
        arr = np.array(self.components, dtype=complex)
        if arr.ndim != 1 and arr.shape[1:] != (1,):
            raise DimensionMismatch(f"a state is 1-d or one column, got {arr.shape}")
        _freeze(self, "components", arr.reshape(-1))

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    @property
    def norm(self) -> float:
        # numpy.linalg.norm's own formula for a complex vector, without its wrapper
        v = self.components
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))

    def is_unit(self, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
        return abs(self.norm - 1.0) <= tol.bound(1.0)


@dataclass(frozen=True, eq=False)
class Projector:
    """Validated Hermitian idempotent matrix with its declared rank.

    Built one way per source: a matrix from outside the package through
    :func:`validate_projector`, a rank-1 projector the package builds
    from a unit state through :func:`projector_from_state`.  The
    constructor itself performs no checks, and no module but this one
    calls it.  It takes ownership of a complex array and freezes it
    without a copy, so each builder hands it an array nothing else
    holds: :func:`validate_projector` copies the matrix from outside
    once, :func:`projector_from_state` passes its fresh outer product.
    Each declares the rank: the rounded trace, or 1.
    :func:`subspace_factor` factors the range or kernel system once per
    tolerance policy and keeps the factor on the instance, and
    :func:`range_basis` and :func:`kernel_basis` keep the bases they
    build from it; both memos are write-once (:func:`_write_once` is
    their one writer) and hold read-only values.
    """

    array: np.ndarray
    rank: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _freeze(self, "array", np.asarray(self.array, dtype=complex))

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def nullity(self) -> int:
        return self.dim - self.rank


@dataclass(frozen=True, eq=False)
class Subspace:
    """Span of independent columns: an ``ambient_dim x dim`` stack (none = {0}).

    ``dim`` is the column count, so a caller building a ``Subspace`` must
    pass independent columns; the constructor does not check, since that
    would take one elimination per basis.  :func:`range_basis`,
    :func:`kernel_basis` and the lattice operations in ``valuation``
    return independent columns; outside this module a projector's basis
    is read through those two functions, never off its factor.  {0} is
    ``Subspace(np.zeros((n, 0)))`` and the whole space
    ``Subspace(np.eye(n))``.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=complex)
        if arr.ndim != 2:
            raise DimensionMismatch("subspace basis must be a 2-d column stack")
        _freeze(self, "array", arr)

    @property
    def ambient_dim(self) -> int:
        return self.array.shape[0]

    @property
    def dim(self) -> int:
        return self.array.shape[1]


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _require_dim(got: int, want: int, what: str) -> None:
    """Raise :class:`DimensionMismatch` unless the two sizes agree."""
    if got != want:
        raise DimensionMismatch(f"{what} differ: {got} vs {want}")


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteEntry("matrix has a NaN or infinite entry")


def _finite_scale(a: np.ndarray) -> float:
    """``max_abs(a)``, raising :class:`NonFiniteEntry` on a NaN or infinite entry.

    One pass: such an entry makes the maximum NaN or infinite, and only
    then is ``a`` tested entry by entry (``abs`` of a finite entry near
    the largest float can overflow too).
    """
    scale = max_abs(a)
    if not math.isfinite(scale):
        _require_finite(a)
    return scale


def _require_unit(psi: StateVector, tol: TolerancePolicy) -> None:
    """Raise :class:`NotUnitNorm` unless ``psi`` is a unit vector.

    A NaN or infinite component gives a NaN or infinite norm; such a
    state raises :class:`NonFiniteEntry` instead, as on every other path.
    """
    if not psi.is_unit(tol):
        _require_finite(psi.components)
        raise NotUnitNorm(f"state norm {psi.norm} deviates from 1")


_PANEL = 32  # columns per elimination panel, rows per block of a triangular solve


def _consecutive(cols: list[int]) -> slice | list[int]:
    """Increasing ``cols`` as a slice when consecutive, so ``w[:, cols]`` is a view."""
    if cols and cols[-1] - cols[0] != len(cols) - 1:
        return cols
    return slice(cols[0], cols[-1] + 1) if cols else slice(0)


def _row_echelon(
    w: np.ndarray, ncols: int, threshold: float, most: int | None = None
) -> tuple[list[int], list[int]]:
    """Blocked Gaussian elimination of the first ``ncols`` columns, Crout in each panel.

    Works in place on ``w`` (Golub & Van Loan, *Matrix Computations*,
    3.2.11 and 3.4), ``_PANEL`` columns at a time.  Inside a panel it is
    left-looking: column ``c`` first receives the panel's earlier pivots
    in one product, ``w[r:, c] -= L[r:, pivots] @ U[pivots, c]``.  Pivot
    ``r`` is then the first entry of largest magnitude in column ``c`` at
    or below row ``r``; a column whose candidates all sit at or below
    ``threshold`` is skipped.  Every caller passes
    ``tol.threshold(max|entry|)`` of the matrix it eliminates (for ``P``
    or ``I - P``, its largest diagonal magnitude, the same maximum), so
    a basis and a factor of the same matrix pick the same pivots.  After its
    interchange the pivot column is divided by the pivot, giving the
    multipliers below it, and the pivot row is finished right of the pivot across the
    whole of ``w`` in one product with the panel's earlier pivot rows.
    At the panel's end the rows below its pivots get one product
    ``L21 @ U12`` over every column right of the panel.  Row interchanges
    move whole rows, stored multipliers included, so on return ``w``
    holds U on and above each pivot and the multipliers below it in the
    final row order (LAPACK's ``getrf`` layout); a skipped column holds
    what the pivots left of it made of it.  The elimination stops after
    ``most`` pivots (one per row by default) and skips the panel-end
    update after the last: the pivot columns and rows are final, and
    the columns right of the last pivot are left part-updated.
    Returns the pivot columns (pivot ``r`` in row ``r`` of ``w``) and,
    per pivot, the row swapped into row ``r`` at its step (``r`` itself
    when none was).
    """
    most = len(w) if most is None else most
    cols: list[int] = []
    swapped: list[int] = []
    for c0 in range(0, ncols, _PANEL):
        r0 = len(cols)
        stop = min(c0 + _PANEL, ncols)
        pivots = None  # the panel's pivot columns so far
        c = c0
        while c < stop and len(cols) < most:
            r = len(cols)
            col = w[r:, c]
            if pivots is not None:
                col -= w[r:, pivots] @ w[r0:r, c]
            mags = np.abs(col)
            p = int(mags.argmax())
            if not mags[p] > threshold:
                c += 1
                continue
            if p:
                w[r], w[r + p] = w[r + p].copy(), w[r].copy()
            col[1:] /= col[0]
            if pivots is not None:
                w[r, c + 1 :] -= w[r, pivots] @ w[r0:r, c + 1 :]
            cols.append(c)
            swapped.append(r + p)
            pivots = _consecutive(cols[r0:])
            c += 1
        if len(cols) == most:
            break
        if pivots is not None and stop < w.shape[1]:
            r1 = len(cols)
            w[r1:, stop:] -= w[r1:, pivots] @ w[r0:r1, stop:]
    return cols, swapped


@dataclass(frozen=True, eq=False)
class EchelonFactor:
    """The right-hand-side-independent half of deciding ``B x = b``.

    Elimination picks its pivots and multipliers from the unknown
    columns alone, so everything except the right-hand side's own
    updates is fixed by ``B`` (LAPACK's ``getrf``/``getrs`` split; Golub
    & Van Loan, *Matrix Computations*, 3.2-3.4).  A factor holds what
    :mod:`~propval.membership` needs to decide one ``b`` in O(n^2):

    * ``lu`` -- n x t, the ``t`` eliminated unknowns: U on and above the
      diagonal, the multipliers below it, rows in the order left after
      the ``t`` interchanges; the elimination's own columns, a view of
      its work array when they are consecutive, else a copy;
    * ``perm`` -- the ``t`` interchanges as one permutation: row ``i``
      after them is row ``perm[i]`` before;
    * ``positions`` -- the unknown eliminated at step ``r``: ``r`` itself
      when the unknowns are a projector's pivot columns;
    * ``last`` -- the last unknown's column after those ``t`` steps, as
      the elimination left it (:func:`_factor`);
    * ``anchor`` -- the first of the rows ``last[t:]`` left live whose
      magnitude exceeds the one pivot threshold, ``tol.threshold`` of the
      factored matrix's largest magnitude, or ``tol.threshold`` of the
      column's own largest magnitude when there is one unknown, as
      :func:`~propval.membership.range_membership` anchors it; ``None``
      if no row does.  The live system ``last[t:] * x = b`` is
      consistent iff ``last[t + a] * b[j] == last[t + j] * b[a]`` for
      every row ``j``, or, without an anchor, iff ``b`` is zero;
    * ``anchor_entry`` -- ``complex(last[t + anchor])`` (``0j`` without
      an anchor), so a verdict computes only the products that involve
      its ``b``;
    * ``live_scale`` -- the largest magnitude of the live rows
      ``last[t:]``; times a bound on ``max|b|`` it bounds every product
      of the check;
    * ``charges`` -- the (divisions, multiplications) each solve charges
      for the elimination (:func:`_charges`), the first pair below and
      right of each pivot, the second over the whole live block;
    * ``row_swaps`` -- how many of the ``t`` steps swapped rows;
    * ``pivots`` -- the factored matrix's pivot columns; for a
      projector's range or kernel they are the columns of ``P`` or
      ``I - P`` that are the system's unknowns and the subspace's basis,
      which :func:`range_basis` and :func:`kernel_basis` build on demand.

    Arrays are read-only, and every
    field is set once in :func:`_factor`, so a factor is shared freely
    between threads.
    """

    lu: np.ndarray
    last: np.ndarray
    perm: np.ndarray
    positions: tuple[int, ...]
    unknowns: int
    anchor: int | None
    anchor_entry: complex
    live_scale: float
    charges: tuple[tuple[int, int], tuple[int, int]]
    row_swaps: int
    pivots: tuple[int, ...]

    def __post_init__(self):
        for array in (self.lu, self.last, self.perm):
            array.setflags(write=False)


# A diagonal block's strict lower triangle, and the identity that fills the
# rest of a unit lower block.
_BELOW = np.tri(_PANEL, k=-1, dtype=bool)
_EYE = np.eye(_PANEL, dtype=complex)


def _forward(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b`` through the steps of ``lu``: its interchanges, then its multipliers.

    A step never swaps a row above it, so applying every interchange
    first, as the one permutation ``perm`` (``EchelonFactor.perm``), is
    the same arithmetic.  The multipliers are applied by blocks of ``_PANEL``
    steps: one solve with the block's unit lower triangle (LAPACK
    ``gesv``, backward stable; a width-1 block needs none), then one
    product for the rows below the block.  No triangular inverse is
    formed: for multipliers of magnitude at most 1 its norm can reach
    ``2**(_PANEL - 1)``.
    """
    y = np.asarray(b, dtype=complex)[perm]
    t = lu.shape[1]
    for i0 in range(0, t, _PANEL):
        i1 = min(i0 + _PANEL, t)
        k = i1 - i0
        if k > 1:
            unit = np.where(_BELOW[:k, :k], lu[i0:i1, i0:i1], _EYE[:k, :k])
            y[i0:i1] = np.linalg.solve(unit, y[i0:i1])
        y[i1:] -= lu[i1:, i0:i1] @ y[i0:i1]
    return y


def _upper_solve(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``U x = y`` in place of ``y``, U the upper triangle of square ``u``.

    ``y`` is one right-hand side or a column stack of them.  By blocks
    of ``_PANEL`` rows from the bottom: one solve with the diagonal
    block's upper triangle (LAPACK ``gesv``; a width-1 block is one
    division), then one product for the rows above the block.
    """
    for i0 in reversed(range(0, len(u), _PANEL)):
        i1 = min(i0 + _PANEL, len(u))
        k = i1 - i0
        if k > 1:
            upper = np.where(_BELOW[:k, :k], 0, u[i0:i1, i0:i1])
            y[i0:i1] = np.linalg.solve(upper, y[i0:i1])
        else:
            y[i0] /= u[i0, i0]
        y[:i0] -= u[:i0, i0:i1] @ y[i0:i1]
    return y


def _complement(p: np.ndarray, col: int | None = None) -> np.ndarray:
    """``I - p`` or its column ``col``, bit for bit as ``np.eye(n) - p`` holds it.

    One fresh array, row-major as that difference is: ``0 - p`` (rather
    than ``-p``, so a zero entry comes out +0 as it does from the
    identity's 0), then 1 added on the diagonal; ``1 - x`` and
    ``(0 - x) + 1`` round alike.  ``p`` is square, or ``n x 0``.
    """
    if col is not None:
        w = np.subtract(0.0, p[:, col])
        w[col] += 1
    else:
        w = np.subtract(0.0, p, order="C")
        w.reshape(-1)[:: len(w) + 1] += 1
    return w


def _factor(
    a: np.ndarray,
    tol: TolerancePolicy,
    kind: BasisKind | None = None,
    most: int | None = None,
) -> EchelonFactor:
    """One elimination of the columns of a system, kept as an :class:`EchelonFactor`.

    The system is a bare column stack ``a`` (``kind`` None), eliminated
    by :func:`_echelon`, or a projector's range or kernel system
    (:func:`_projector_echelon`), whose elimination stops after ``most``
    pivots if given.  ``a`` is never written.  The unknowns are every
    column or, with ``kind``, the pivot columns, the basis of that kind;
    a non-pivot column issues no update, so eliminating the system
    eliminates the basis too.  The factor covers the unknowns before the
    last and is read off the work array, which it keeps when those
    unknowns are consecutive columns (``lu`` is then a view).  So is the
    last unknown's column after those steps: a non-pivot column holds
    it as the elimination left it; if the last unknown was pivot ``t``,
    its step is undone, the interchange swapped back and the multipliers
    times the pivot, except at ``t = 0``, where the column is the
    system's own.  Everything a solve needs that does not depend on
    the state is computed here, once: the anchor of the live rows'
    cross-product check and their largest magnitude, the elimination's
    charges, the interchanges as one permutation and the row swaps.
    With one unknown the anchor threshold is ``tol.threshold`` of that
    largest magnitude, the column's own scale; that column is a column
    of a finite system (:func:`_echelon` checks a bare stack, and a
    :class:`Projector` is finite by construction).  Every system a
    decider factors passes through here, so a system without rows
    raises :class:`DimensionMismatch` here.
    """
    kernel = kind is BasisKind.KERNEL
    if kind is None:
        w = np.array(a, dtype=complex)
        cols, swapped, threshold = _echelon(w, tol)
    else:
        w, cols, swapped, threshold = _projector_echelon(a, tol, kernel, most)
    if not len(w):
        raise DimensionMismatch("a system needs at least one row, got 0")
    unknowns = cols if kind is not None else list(range(w.shape[1]))
    t = bisect_left(cols, unknowns[-1]) if unknowns else 0
    lu = w[:, _consecutive(cols[:t]) if t else []]  # an empty view would keep w
    positions = tuple(range(t)) if kind is not None else tuple(cols[:t])
    if not unknowns:
        last = np.zeros(len(w), dtype=complex)
    elif t == len(cols):  # not a pivot: the elimination left it updated
        last = w[:, unknowns[-1]].copy()
    elif not t:
        c = unknowns[-1]
        last = _complement(a, c) if kernel else np.array(a[:, c], dtype=complex)
    else:  # pivot t: undo its division and its interchange
        last = w[:, unknowns[-1]].copy()
        last[t + 1 :] *= last[t]
        s = swapped[t]
        lu[[t, s]], last[[t, s]] = lu[[s, t]], last[[s, t]]
    perm = list(range(len(w)))
    for r, p in enumerate(swapped[:t]):
        perm[r], perm[p] = perm[p], perm[r]
    mags = np.abs(last[t:])
    live_scale = float(mags.max(initial=0.0))
    above = mags > (tol.threshold(live_scale) if len(unknowns) == 1 else threshold)
    anchor = int(above.argmax()) if above.any() else None
    return EchelonFactor(
        lu,
        last,
        np.array(perm),
        positions,
        len(unknowns),
        anchor,
        0j if anchor is None else complex(last[t + anchor]),
        live_scale,
        _charges(len(w), len(unknowns), positions),
        sum(p != r for r, p in enumerate(swapped[:t])),
        tuple(cols),
    )


def _projector_echelon(
    a: np.ndarray, tol: TolerancePolicy, kernel: bool, most: int | None
) -> tuple[np.ndarray, list[int], list[int], float]:
    """A projector's range or kernel system in row echelon form (:func:`_row_echelon`).

    ``a`` is ``P``, or its first 0 columns for an empty subspace.  The
    work array is a fresh ``I - P`` (:func:`_complement`) for the
    kernel, else a copy of ``P``.  The pivot threshold is
    ``tol.threshold`` of the system's largest diagonal magnitude: in a
    positive semidefinite matrix ``|A_ij|**2 <= A_ii A_jj``, so that is
    its largest magnitude, and a :class:`Projector` is finite by
    construction, so no pass over all n² entries is made.  With
    ``most``, the copy of ``P`` holds only its leading ``most`` columns
    rounded up to whole panels, where the ``most`` pivots usually lie;
    if fewer lie there, the whole of ``P`` is copied and eliminated.
    Returns the work array, its pivot columns, the row swapped into row
    ``r`` at pivot ``r``, and the threshold.
    """
    if kernel:
        w = _complement(a)
        scale = np.abs(w.diagonal()).max(initial=0.0)
    else:
        scale = np.abs(a.diagonal()).max(initial=0.0)
        width = a.shape[1] if most is None else -(-most // _PANEL) * _PANEL
        w = np.array(a[:, :width])
    threshold = tol.threshold(float(scale))
    cols, swapped = _row_echelon(w, w.shape[1], threshold, most)
    if w.shape[1] < a.shape[1] and len(cols) < most:
        w = np.array(a)
        cols, swapped = _row_echelon(w, w.shape[1], threshold, most)
    return w, cols, swapped, threshold


def _charges(
    n: int, k: int, positions: tuple[int, ...]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """What a solve charges for the elimination of ``n`` rows, ``k`` unknowns.

    Step ``(r, c)`` is charged as if it ran in the solve, for
    ``a[j][l] -= (a[j][c] / a[r][c]) * a[r][l]`` over rows ``top..n-1``
    and columns ``left..k``: ``n - top`` divisions and
    ``(n - top)(k + 1 - left)`` multiplications (and as many
    subtractions).  Returns the (divisions, multiplications) summed over
    the steps for ``(top, left) = (r + 1, c + 1)``, below and right of
    the pivot, and for ``(r, c)``, the whole live block.
    """
    div = mul = block_mul = 0
    for r, c in enumerate(positions):
        height, width = n - r, k + 1 - c
        div += height - 1
        mul += (height - 1) * (width - 1)
        block_mul += height * width
    return (div, mul), (div + len(positions), block_mul)


def independent_columns(
    a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> list[int]:
    """Indices of a maximal independent column set, lowest index first.

    Row echelon form of a copy of ``a`` (:func:`_row_echelon`); a pivot
    at or below ``tol.threshold(max|entry|)`` is treated as zero and the
    column skipped.
    """
    return _echelon(np.array(a, dtype=complex), tol)[0]


def matrix_rank(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> int:
    return len(independent_columns(a, tol))


def _echelon(
    w: np.ndarray, tol: TolerancePolicy
) -> tuple[list[int], list[int], float]:
    """``w`` in row echelon form, in place (:func:`_row_echelon`).

    The caller owns ``w``, a complex array that must be 2-d and finite
    (:class:`NonFiniteEntry`).  Returns its pivot columns, the row
    swapped into row ``r`` at pivot ``r``, and the pivot threshold
    ``tol.threshold(max|w|)``.
    """
    if w.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    threshold = tol.threshold(_finite_scale(w))
    return *_row_echelon(w, w.shape[1], threshold), threshold


def null_space_basis(
    a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Columns spanning the null space of ``a``, one per free column.

    From the row echelon form :func:`independent_columns` computes: the
    vector of free column ``c`` is 1 at ``c``, 0 at the other free
    columns, and solves ``U x = 0`` for the pivot entries by blocked
    back-substitution (:func:`_upper_solve`), all free columns at once.
    U is the pivot rows of the echelon form; a free column's entries
    left of a row's pivot are sub-threshold candidates the elimination
    skipped, taken as 0.
    """
    w = np.array(a, dtype=complex)
    cols = _echelon(w, tol)[0]
    n = w.shape[1]
    pivots = set(cols)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=complex)
    basis[free, range(len(free))] = 1
    if free:
        x = -w[: len(cols), free]
        x[np.greater.outer(cols, free)] = 0
        basis[cols] = _upper_solve(w[: len(cols), cols], x)
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
    """Check finiteness, shape, Hermiticity and idempotency; the rank is the trace.

    The projector owns one copy of ``m``, made here.  A matrix without
    rows raises :class:`DimensionMismatch`.  The rank is ``round(Re tr
    m)``, and nothing is eliminated: the factors are built on demand
    (:func:`subspace_factor`), the range's stopping at that rank.  A
    rounded trace outside ``0..n`` raises :class:`NotIdempotent`.

    No other check is needed.  For a Hermitian ``P`` every eigenvalue
    satisfies ``|λ² - λ| <= ‖P² - P‖₂ <= n δ``, δ the bound of the
    idempotency check, so each lies within about ``2 n δ`` of 0 or 1,
    and the trace within ``2 n² δ`` of the count of eigenvalues near 1.
    Whenever ``2 n² δ < 1/2``, ``round`` gives that count.
    """
    m = np.array(m, dtype=complex)
    scale = _finite_scale(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"projector matrix must be square, got shape {m.shape}")
    n = len(m)
    if not n:
        raise DimensionMismatch("a projector needs at least one row, got 0")
    # Entries near the float range can overflow a deviation to inf or NaN,
    # silently; "not within the bound" rejects both.
    with np.errstate(over="ignore", invalid="ignore"):
        if not max_abs(m - m.conj().T) <= tol.bound(scale):
            raise NotHermitian("matrix is not Hermitian within tolerance")
        if not max_abs(m @ m - m) <= tol.bound(scale):
            raise NotIdempotent("matrix is not idempotent within tolerance")
        trace = float(m.trace().real)
    if not (math.isfinite(trace) and 0 <= round(trace) <= n):
        raise NotIdempotent(f"trace {trace} rounds to no rank in 0..{n}")
    return Projector(m, rank=round(trace))


# Serialises memo misses so threads that miss the same key build its
# value once; hits never take it.  Re-entrant: a build may miss a memo.
_FACTOR_BUILD = threading.RLock()


def _write_once(memo: dict, key, build, *args):
    """``memo[key]``, set to ``build(*args)`` unless another thread set it first."""
    with _FACTOR_BUILD:
        value = memo.get(key)
        if value is None:
            value = memo[key] = build(*args)
    return value


def subspace_factor(
    p: Projector, kind: BasisKind, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> EchelonFactor:
    """The factor of ``p``'s range or kernel system, memoised per policy.

    One elimination of ``P`` (range) or ``I - P`` (kernel) in place on
    one work array (:func:`_projector_echelon`): a copy of ``P``'s
    leading panels, or of all of ``P`` when fewer than ``p.rank`` pivots
    lie there, or a fresh n x n ``I - P`` (``P`` itself is never
    written).  The threshold's scale is the system's largest diagonal
    magnitude, and nothing else is computed from the system: the factor
    is read off the elimination.  Its pivot columns are the subspace's
    basis and the system's unknowns, so a state's membership then costs
    one O(n k) solve against it, for a subspace of dimension k.  The
    factor keeps the pivot columns' indices; :func:`range_basis` and
    :func:`kernel_basis` build the basis from them when asked.  Every
    projector factor is built here; validation builds none.  The
    declared rank decides, not pivots: the range's elimination stops
    after ``p.rank`` pivots, and where the rank says the subspace is {0}
    (0 for the range, ``n`` for the kernel) the factor has no unknowns
    and nothing is eliminated, since ``I - P`` of a full-rank ``P`` is
    noise in which the relative threshold finds pivots.  The kernel's
    elimination runs to the end.
    """
    value = p._memo.get((kind, tol))
    if value is None:
        empty = p.rank == (0 if kind is BasisKind.RANGE else p.dim)
        a = p.array[:, :0] if empty else p.array  # {0}: nothing to eliminate
        most = p.rank if kind is BasisKind.RANGE else None
        value = _write_once(p._memo, (kind, tol), _factor, a, tol, kind, most)
    return value


def _basis(p: Projector, kind: BasisKind, tol: TolerancePolicy) -> Subspace:
    """``p``'s basis of ``kind``, built once per policy (:func:`_pivot_columns`)."""
    basis = p._bases.get((kind, tol))
    if basis is None:
        basis = _write_once(p._bases, (kind, tol), _pivot_columns, p, kind, tol)
    return basis


def _pivot_columns(p: Projector, kind: BasisKind, tol: TolerancePolicy) -> Subspace:
    """The pivot columns of ``P`` or ``I - P`` in ``p``'s factor for ``tol``."""
    cols = _consecutive(list(subspace_factor(p, kind, tol).pivots))
    a = p.array if kind is BasisKind.RANGE else _complement(p.array)
    return Subspace(a[:, cols])


def range_basis(
    p: Projector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Independent columns of the projector matrix, lowest index first.

    The range factor's pivot columns of ``P``, copied into a
    :class:`Subspace` on the first call per policy and memoised.
    """
    basis = _basis(p, BasisKind.RANGE, tol)
    if not basis.dim:
        raise ZeroProjector("range of the zero projector is {0}")
    return basis


def kernel_basis(
    p: Projector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Independent columns of (I - M), lowest index first.

    The kernel factor's pivot columns of ``I - P``, built into a
    :class:`Subspace` on the first call per policy and memoised.
    """
    basis = _basis(p, BasisKind.KERNEL, tol)
    if not basis.dim:
        raise FullRankProjector("kernel of a full-rank projector is {0}")
    return basis


def decompose(
    psi: StateVector, p: Projector
) -> tuple[StateVector, StateVector]:
    """Split a vector into its range and kernel components (Pv, v - Pv)."""
    _require_dim(psi.dim, p.dim, "state and projector dims")
    v = psi.components
    in_range = p.array @ v
    return StateVector(in_range), StateVector(v - in_range)


def matrix_to_json_dict(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(np.atleast_2d(a), dtype=complex)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": a.view(float).reshape(-1, 2).tolist(),
    }


def _json_field(d: dict, name: str, convert):
    """``convert(d[name])``; a missing or unconvertible field is malformed."""
    try:
        return convert(d[name])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedMatrixFile(f"missing or invalid field {name!r}: {exc}") from exc


def _json_int(value) -> int:
    if type(value) is not int:  # 2.5, "2" and true are not JSON integers
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def matrix_from_json_dict(d: dict) -> np.ndarray:
    rows, cols = _json_field(d, "rows", _json_int), _json_field(d, "cols", _json_int)
    count = _json_field(d, "entries", len)
    if rows < 0 or cols < 0 or count != rows * cols:
        raise MalformedMatrixFile(f"expected {rows * cols} entries, got {count}")
    try:
        flat = [complex(re, im) for re, im in d["entries"]]
        if bool in set(map(type, chain.from_iterable(d["entries"]))):
            raise TypeError("true and false are not numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedMatrixFile(
            "field 'entries' must hold [re, im] pairs of floats"
        ) from exc
    a = np.array(flat, dtype=complex).reshape(rows, cols)
    _require_finite(a)
    return a


def save_matrix(path, a: np.ndarray) -> None:
    # json.dumps encodes in C; json.dump writes through the pure-Python encoder
    text = json.dumps(matrix_to_json_dict(a))
    with open(path, "w") as f:
        f.write(text)


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
