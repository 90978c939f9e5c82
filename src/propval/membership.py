"""Solvability checks for the range and kernel linear systems.

Every system runs one path: elimination, then one cross-product
consistency check on the rows it leaves.  Two instrumented kernel
formulations, the range check as their one-unknown case, and one
independent oracle:

* :func:`kernel_membership_iterative` and :func:`kernel_membership_matrix`
  -- Gaussian elimination with partial pivoting on the package's one
  elimination core (``linalg._row_echelon``, numpy rank-1 updates
  within a panel of columns and one matrix product per panel for the
  trailing block, also behind
  :func:`~propval.linalg.independent_columns`); the two run the
  same loop and differ only in what each step is charged.  The
  iterative form is charged for the rows below the pivot and the
  columns right of it, ``a[j][l] -= (a[j][c]/a[r][c]) * a[r][l]``; on a
  nondegenerate system with ``n-1`` unknowns that is exactly
  ``n(n-1)/2 - 1`` divisions and ``n(n-1)(2n-1)/6 - 1`` multiplications
  and as many subtractions.  The matrix form (column division, outer
  product, block subtraction) is also charged for the pivot row and
  column, O(n) divisions and O(n^2) multiplications/subtractions per
  step.  Verdict and witness are identical in both forms on every
  input; only the tallies differ.
* :func:`range_membership` -- the single-column system.  It has no
  column to eliminate, so the consistency check decides on every row
  in O(n) and is the whole tally: a membership verdict costs exactly
  ``2(n-1)`` multiplications and ``n-1`` comparisons, and a rejection
  exits at the first failed comparison.
* :func:`residual_oracle` -- least-squares residual test, used by the
  test suite as an uncounted second opinion.

Consistency of the eliminated system is decided by a cross-product
condition on the remaining rows (for the nondegenerate ``n-1`` unknown
case, one comparison on the trailing 2x2 block costing 2
multiplications).  On the kernel systems those final-check operations
are tallied in a separate counter on the result, not in the elimination
counter, because the closed-form totals above cover the elimination
loop only.

Every decider charges its :class:`OpCounter` directly: elimination one
closed-form amount per step, the cross-product check two
multiplications and one comparison per comparison made.  A result's
``counts`` is the tally of that call alone; the counter passed in
accumulates across calls.  Witness extraction (back-substitution, or
the single anchor division of the range check) is a convenience output
and is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, StateVector, SubspaceBasis, max_abs
from .linalg import _require_finite, _row_echelon
from .numerics import DEFAULT_TOLERANCE, OpCounter, PropvalError, TolerancePolicy

__all__ = [
    "AugmentedMatrix",
    "MembershipResult",
    "ZeroColumn",
    "kernel_membership_iterative",
    "kernel_membership_matrix",
    "membership_of",
    "range_membership",
    "residual_oracle",
]


class ZeroColumn(PropvalError):
    pass


@dataclass(frozen=True)
class AugmentedMatrix:
    """System matrix with the right-hand side appended as the last column."""

    body: np.ndarray  # n x (unknowns + 1)

    def __post_init__(self):
        arr = np.array(self.body, dtype=complex)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise DimensionMismatch(
                "augmented matrix needs at least one unknown column and a "
                "right-hand side"
            )
        _require_finite(arr)
        object.__setattr__(self, "body", arr)
        arr.setflags(write=False)

    @classmethod
    def from_system(cls, columns: np.ndarray, rhs: StateVector) -> "AugmentedMatrix":
        columns = np.asarray(columns, dtype=complex)
        if columns.shape[0] != rhs.dim:
            raise DimensionMismatch(
                f"matrix has {columns.shape[0]} rows, rhs has {rhs.dim}"
            )
        return cls(np.hstack([columns, rhs.components.reshape(-1, 1)]))

    @property
    def rows(self) -> int:
        return self.body.shape[0]

    @property
    def unknowns(self) -> int:
        return self.body.shape[1] - 1


@dataclass
class MembershipResult:
    member: bool
    witness: list[complex] | None
    counts: OpCounter
    final_check: OpCounter = field(default_factory=OpCounter)
    row_swaps: int = 0
    residual: float | None = None


def range_membership(
    r: SubspaceBasis | np.ndarray,
    psi: StateVector,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Decide solvability of the one-unknown system ``column * x = psi``.

    The one-unknown case of the elimination path: there is no column to
    eliminate, so the cross-product condition of :func:`_cross_consistency`
    decides on every row, ``column[a] * psi[j] == column[j] * psi[a]``,
    anchored on the first entry above ``abs_eps * max|column|``.  That
    check is the whole tally, reported as ``counts``: ``2(n-1)``
    multiplications and ``n-1`` comparisons for a member, two and one
    per comparison made on a rejection.
    """
    arr = r.array if isinstance(r, SubspaceBasis) else np.asarray(r, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[1] != 1:
        raise DimensionMismatch(
            f"range check expects exactly one column, got {arr.shape[1]}"
        )
    aug = AugmentedMatrix.from_system(arr, psi)
    # With no entry above the anchor threshold the shared check would
    # accept any zero right-hand side; a basis column must not be zero.
    scale = max_abs(aug.body[:, 0])
    if not scale > tol.abs_eps * scale:
        raise ZeroColumn("basis column is numerically zero")
    result = _eliminate(aug, None, tol, full_block=False)
    tally = result.final_check
    if ctx is not None:
        ctx.mul += tally.mul
        ctx.cmp += tally.cmp
    return MembershipResult(result.member, result.witness, tally)


def _cross_consistency(
    live: list[list[complex]],
    k: int,
    threshold: float,
    tol: TolerancePolicy,
    fctx: OpCounter,
) -> tuple[bool, list[complex] | None]:
    """Consistency of the one-unknown system left in the live rows.

    After elimination the live rows carry a single unknown column (the
    last one) plus the right-hand side.  With an anchor row ``a`` the
    system is consistent iff ``col[a]*rhs[j] == col[j]*rhs[a]`` for all
    other live rows; with no usable anchor, iff every live right-hand
    side is zero.  For the nondegenerate case of two live rows this is
    the trailing 2x2 cross condition: 2 multiplications, 1 comparison.
    """
    anchor = next((row for row in live if abs(row[k - 1]) > threshold), None)
    if anchor is None:
        for row in live:
            fctx.cmp += 1
            if not tol.equal(row[k], 0.0):
                return False, None
        return True, None
    a_col, a_rhs = anchor[k - 1], anchor[k]
    for row in live:
        if row is anchor:
            continue
        fctx.mul += 2
        fctx.cmp += 1
        if not tol.equal(a_col * row[k], row[k - 1] * a_rhs):
            return False, None
    return True, anchor


def _solution_from_echelon(
    pivots: list[tuple[int, list[complex]]],
    anchor_row: list[complex] | None,
    k: int,
) -> list[complex]:
    """Back-substitute through the recorded pivot rows; free unknowns are 0."""
    x = [0j] * k
    if anchor_row is not None:
        x[k - 1] = anchor_row[k] / anchor_row[k - 1]
    for c, row in reversed(pivots):
        acc = row[k]
        for c2 in range(c + 1, k):
            if x[c2] != 0:
                acc -= row[c2] * x[c2]
        x[c] = acc / row[c]
    return x


def _eliminate(
    aug: AugmentedMatrix,
    ctx: OpCounter | None,
    tol: TolerancePolicy,
    full_block: bool,
) -> MembershipResult:
    """Row-echelon elimination shared by both kernel formulations and the
    range check.

    Eliminates every unknown column except the last with
    ``linalg._row_echelon``, then applies the cross-product consistency
    condition to the remaining rows; a skipped column is a free unknown.
    Step ``(r, c)`` is charged for ``a[j][l] -= (a[j][c] / a[r][c]) * a[r][l]``
    over rows ``top..n-1`` and columns ``left..k``: below and right of
    the pivot, or with ``full_block`` the whole live block including the
    pivot row and column.  That is ``n - top`` divisions and
    ``(n - top)(k + 1 - left)`` multiplications and as many subtractions;
    ``full_block`` changes the charge only, not the arithmetic.
    """
    ctx = ctx if ctx is not None else OpCounter()
    start = ctx.snapshot()
    n, k = aug.rows, aug.unknowns
    work = aug.body.copy()
    threshold = tol.abs_eps * max_abs(aug.body[:, :k])
    cols, swaps = _row_echelon(work, k - 1, threshold)
    shift = 0 if full_block else 1  # (top, left) = (r, c) + shift
    for r, c in enumerate(cols):
        height = n - r - shift
        updated = height * (k + 1 - c - shift)
        ctx.div += height
        ctx.mul += updated
        ctx.add_sub += updated
    elimination = ctx.snapshot() - start
    fctx = OpCounter()
    member, anchor_row = _cross_consistency(
        work[len(cols) :].tolist(), k, threshold, tol, fctx
    )
    pivots = list(zip(cols, work[: len(cols)].tolist())) if member else []
    witness = _solution_from_echelon(pivots, anchor_row, k) if member else None
    return MembershipResult(member, witness, elimination, fctx, swaps)


def kernel_membership_iterative(
    aug: AugmentedMatrix,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Elimination updating the rows below and the columns right of the pivot.

    On a nondegenerate system with ``n-1`` unknowns this charges exactly
    ``n(n-1)/2 - 1`` divisions and ``n(n-1)(2n-1)/6 - 1`` multiplications
    and as many subtractions.
    """
    return _eliminate(aug, ctx, tol, full_block=False)


def kernel_membership_matrix(
    aug: AugmentedMatrix,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Elimination as column division, outer product and block subtraction.

    Each step is charged for the whole live block, pivot row and column
    included: O(n) divisions and O(n^2) multiplications and
    subtractions.  The arithmetic is that of
    :func:`kernel_membership_iterative`, so verdict and witness are
    equal bit for bit; only the tallies differ.
    """
    return _eliminate(aug, ctx, tol, full_block=True)


def residual_oracle(
    a: np.ndarray, psi: StateVector, oracle_tol: float = 1e-7
) -> MembershipResult:
    """Least-squares second opinion: consistent iff the residual is tiny.

    Independent of the counted deciders; never counted.
    """
    a = np.asarray(a, dtype=complex)
    b = psi.components
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"matrix has {a.shape[0]} rows, rhs has {b.shape[0]}")
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    member = residual < oracle_tol
    witness = [complex(z) for z in x] if member else None
    return MembershipResult(member, witness, OpCounter(), residual=residual)


def membership_of(
    columns: np.ndarray,
    psi: StateVector,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Does psi lie in the span of the given columns?

    Dispatch by width: an empty span contains only the zero vector, a
    single column is the O(n) range check, anything wider runs
    :func:`kernel_membership_iterative`.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise DimensionMismatch("expected a 2-d column stack")
    k = columns.shape[1]
    if k == 0:
        _require_finite(psi.components)
        member = bool(np.all(np.abs(psi.components) <= tol.abs_eps))
        return MembershipResult(member, [] if member else None, OpCounter())
    if k == 1:
        return range_membership(columns, psi, ctx, tol)
    return kernel_membership_iterative(
        AugmentedMatrix.from_system(columns, psi), ctx, tol
    )
