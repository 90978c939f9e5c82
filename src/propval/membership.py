"""Solvability checks for the range and kernel linear systems.

Three instrumented deciders plus one independent oracle:

* :func:`range_membership` -- O(n) cross-product consistency check for
  the single-column system.  A membership verdict costs exactly
  ``2(n-1)`` multiplications and ``n-1`` comparisons; a rejection exits
  at the first failed comparison.
* :func:`kernel_membership_iterative` and :func:`kernel_membership_matrix`
  -- Gaussian elimination with partial pivoting, both calls into one
  core that differ only in how much of the matrix each step updates.
  The iterative form updates the rows below the pivot and the columns
  right of it with ``a[j][l] -= (a[j][c]/a[r][c]) * a[r][l]``; on a
  nondegenerate system with ``n-1`` unknowns that is exactly
  ``n(n-1)/2 - 1`` divisions and ``n(n-1)(2n-1)/6 - 1`` multiplications
  and as many subtractions.  The matrix form (column division, outer
  product, block subtraction) also updates the pivot row and column,
  O(n) divisions and O(n^2) multiplications/subtractions per step.
  Verdict and witness are identical in both forms on every input; only
  the tallies differ.
* :func:`residual_oracle` -- least-squares residual test, used by the
  test suite as an uncounted second opinion.

Consistency of the eliminated system is decided by a cross-product
condition on the remaining rows (for the nondegenerate ``n-1`` unknown
case, one comparison on the trailing 2x2 block costing 2
multiplications).  Those final-check operations are tallied in a
separate counter on the result, not in the elimination counter, because
the closed-form totals above cover the elimination loop only.

Every decider charges its :class:`OpCounter` directly: elimination one
closed-form amount per step, the cross-product checks two
multiplications and one comparison per comparison made.  Witness
extraction (back-substitution, or the single anchor division of the
range check) is a convenience output and is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, StateVector, SubspaceBasis, max_abs
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

    The system is consistent iff all cross products against an anchor
    entry agree: ``column[a] * psi[j] == column[j] * psi[a]`` for every
    j.  The anchor is the first entry of the column above tolerance (the
    condition degenerates if anchored on a zero entry).
    """
    ctx = ctx if ctx is not None else OpCounter()
    arr = r.array if isinstance(r, SubspaceBasis) else np.asarray(r, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[1] != 1:
        raise DimensionMismatch(
            f"range check expects exactly one column, got {arr.shape[1]}"
        )
    if arr.shape[0] != psi.dim:
        raise DimensionMismatch(
            f"column has {arr.shape[0]} rows, state has {psi.dim}"
        )
    column = [complex(z) for z in arr[:, 0]]
    b = [complex(z) for z in psi.components]
    n = len(column)
    threshold = tol.abs_eps * max(abs(z) for z in column)
    anchor = next((i for i, z in enumerate(column) if abs(z) > threshold), None)
    if anchor is None:
        raise ZeroColumn("basis column is numerically zero")

    member = True
    for j in range(n):
        if j == anchor:
            continue
        ctx.mul += 2
        ctx.cmp += 1
        if not tol.equal(b[anchor] * column[j], b[j] * column[anchor]):
            member = False
            break
    witness = [b[anchor] / column[anchor]] if member else None
    return MembershipResult(member, witness, ctx.snapshot())


def _cross_consistency(
    rows: list[list[complex]],
    r: int,
    n: int,
    k: int,
    threshold: float,
    tol: TolerancePolicy,
    fctx: OpCounter,
) -> tuple[bool, list[complex] | None]:
    """Consistency of the one-unknown system left in rows r..n-1.

    After elimination the live rows carry a single unknown column (the
    last one) plus the right-hand side.  With an anchor row ``a`` the
    system is consistent iff ``col[a]*rhs[j] == col[j]*rhs[a]`` for all
    other live rows; with no usable anchor, iff every live right-hand
    side is zero.  For the nondegenerate case of two live rows this is
    the trailing 2x2 cross condition: 2 multiplications, 1 comparison.
    """
    live = range(r, n)
    anchor = next((j for j in live if abs(rows[j][k - 1]) > threshold), None)
    if anchor is None:
        for j in live:
            fctx.cmp += 1
            if not tol.equal(rows[j][k], 0.0):
                return False, None
        return True, None
    a_col, a_rhs = rows[anchor][k - 1], rows[anchor][k]
    for j in live:
        if j == anchor:
            continue
        fctx.mul += 2
        fctx.cmp += 1
        if not tol.equal(a_col * rows[j][k], rows[j][k - 1] * a_rhs):
            return False, None
    return True, list(rows[anchor])


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
    """Row-echelon elimination shared by both kernel formulations.

    Eliminates every unknown column except the last, then applies the
    cross-product consistency condition to the remaining rows.  The
    pivot row is the first of largest magnitude (row interchanges and
    the search are free); a column whose candidate pivots all sit below
    tolerance is skipped and contributes a free unknown.  Elimination
    stops early only once every row holds a pivot.

    Each step computes ``m = a[j][c] / a[r][c]`` and updates
    ``a[j][l] -= m * a[r][l]`` over rows ``top..n-1`` and columns
    ``left..k``: the rows below the pivot and the columns right of it,
    or with ``full_block`` the whole live block including the pivot row
    and column.  The rows both extents share go through the same scalar
    operations, so verdict and witness do not depend on the extent.  A
    step is charged ``n - top`` divisions and ``(n - top)(k + 1 - left)``
    multiplications and as many subtractions.
    """
    ctx = ctx if ctx is not None else OpCounter()
    start = ctx.snapshot()
    rows = [[complex(z) for z in row] for row in aug.body]
    n, k = aug.rows, aug.unknowns
    threshold = tol.abs_eps * max_abs(aug.body[:, :k])

    pivots: list[tuple[int, list[complex]]] = []
    swaps = 0
    r = 0
    for c in range(k - 1):
        if r == n:
            break
        p, best = r, abs(rows[r][c])
        for j in range(r + 1, n):
            mag = abs(rows[j][c])
            if mag > best:
                p, best = j, mag
        if not best > threshold:  # a NaN pivot is never accepted
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            swaps += 1
        prow = list(rows[r])  # copied: the full block update zeroes the pivot row
        piv = prow[c]
        top, left = (r, c) if full_block else (r + 1, c + 1)
        for j in range(top, n):
            rowj = rows[j]
            m = rowj[c] / piv
            for l in range(left, k + 1):
                rowj[l] = rowj[l] - m * prow[l]
        updated = (n - top) * (k + 1 - left)
        ctx.div += n - top
        ctx.mul += updated
        ctx.add_sub += updated
        pivots.append((c, prow))
        r += 1

    elimination = ctx.snapshot() - start
    fctx = OpCounter()
    member, anchor_row = _cross_consistency(rows, r, n, k, threshold, tol, fctx)
    witness = _solution_from_echelon(pivots, anchor_row, k) if member else None
    return MembershipResult(member, witness, elimination, fctx, swaps)


def kernel_membership_iterative(
    aug: AugmentedMatrix,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Elimination with the per-entry row update below and right of the pivot.

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

    Each step also zeroes the pivot row and column, so it is charged
    O(n) divisions and O(n^2) multiplications and subtractions on the
    whole live block.  Verdict and witness equal those of
    :func:`kernel_membership_iterative` bit for bit; only the tallies
    differ.
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
    single column uses the O(n) cross-product check, anything wider
    goes through elimination.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise DimensionMismatch("expected a 2-d column stack")
    k = columns.shape[1]
    if k == 0:
        member = bool(np.all(np.abs(psi.components) <= tol.abs_eps))
        return MembershipResult(member, [] if member else None, OpCounter())
    if k == 1:
        return range_membership(columns, psi, ctx, tol)
    return kernel_membership_iterative(
        AugmentedMatrix.from_system(columns, psi), ctx, tol
    )
