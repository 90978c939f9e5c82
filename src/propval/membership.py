"""Solvability checks for the range and kernel linear systems.

Every system runs one path, split as LAPACK splits ``getrf`` from
``getrs``: a *factor* of the unknown columns
(:class:`~propval.linalg.EchelonFactor`, one run of the package's one
elimination core ``linalg._row_echelon``, which never reads the
right-hand side), then a per-state *solve* that takes the right-hand
side through the factor's interchanges and multipliers, applies one
cross-product consistency check to the rows left live, and
back-substitutes a witness.  The factor costs O(n^3), the solve O(n^2).
Deciders:

* :func:`subspace_membership` -- the range or kernel system of a
  projector, one decider for both.  Its factor is memoised on the
  projector (:func:`~propval.linalg.subspace_factor`, whose pivot
  columns are the subspace's basis), so the elimination runs once per
  projector, subspace and tolerance policy and every state pays only
  the solve.  An empty subspace contains only the zero vector, and a
  one-column subspace goes to :func:`range_membership`.
* :func:`kernel_membership_iterative` and :func:`kernel_membership_matrix`
  -- the same factor and solve on a bare :class:`AugmentedMatrix`; the
  two differ only in what each step is charged.  The iterative form is
  charged for the rows below the pivot and the columns right of it,
  ``a[j][l] -= (a[j][c]/a[r][c]) * a[r][l]``; on a nondegenerate system
  with ``n-1`` unknowns that is exactly ``n(n-1)/2 - 1`` divisions and
  ``n(n-1)(2n-1)/6 - 1`` multiplications and as many subtractions.  The
  matrix form (column division, outer product, block subtraction) is
  also charged for the pivot row and column, O(n) divisions and O(n^2)
  multiplications/subtractions per step.  Verdict and witness are
  identical in both forms on every input; only the tallies differ.
* :func:`range_membership` -- the single-column system.  It has no
  column to eliminate, so the consistency check decides on every row
  in O(n) and is the whole tally: a membership verdict costs exactly
  ``2(n-1)`` multiplications and ``n-1`` comparisons, and a rejection
  is charged up to the first failed comparison.
* :func:`residual_oracle` -- least-squares residual test, used by the
  test suite as an uncounted second opinion.

Consistency of the eliminated system is decided by a cross-product
condition on the remaining rows (for the nondegenerate ``n-1`` unknown
case, one comparison on the trailing 2x2 block costing 2
multiplications).  The first comparison runs on Python ``complex``
values and every further one in a single numpy pass that repeats
CPython's complex arithmetic, so each is decided bit for bit as a loop
of :meth:`~propval.numerics.TolerancePolicy.equal` calls would decide
it.  On the kernel systems those final-check operations are tallied in
a separate counter on the result, not in the elimination counter,
because the closed-form totals above cover the elimination loop only.

Every decider charges its :class:`OpCounter` directly: elimination one
closed-form amount per step, the cross-product check two
multiplications and one comparison per comparison up to and including
the first that fails, although the numpy pass decides them all.  The
elimination is charged to every solve, as if it ran there: the tally is
the paper's cost of deciding the system, which a memoised factor saves
in wall time but not in operations.  A result's ``counts`` is the tally
of that call alone; the counter passed in accumulates across calls.
Witness extraction (back-substitution, or the single anchor division of
the range check) is a convenience output and is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionMismatch,
    BasisKind,
    EchelonFactor,
    Projector,
    StateVector,
    Subspace,
    subspace_factor,
)
from .linalg import _factor, _require_finite
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
    "subspace_membership",
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
    r: Subspace | np.ndarray,
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
    per comparison made on a rejection.  One ``hypot`` pass over the
    column gives its scale, its finiteness and the anchor.
    """
    arr = r.array if isinstance(r, Subspace) else np.asarray(r, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[1] != 1:
        raise DimensionMismatch(
            f"range check expects exactly one column, got {arr.shape[1]}"
        )
    b = _rhs(arr.shape[0], psi)
    col = arr[:, 0]
    mags = _magnitudes(col)
    scale = mags.max(initial=0.0)  # NaN or inf if an entry is
    if not math.isfinite(scale):
        _require_finite(col)
    # With no entry above the anchor threshold the check would accept
    # any zero right-hand side; a basis column must not be zero.
    threshold = tol.abs_eps * scale
    if not scale > threshold:
        raise ZeroColumn("basis column is numerically zero")
    tally = OpCounter()
    member, x = _cross_consistency(col, b, mags > threshold, tol, tally)
    if ctx is not None:
        ctx.mul += tally.mul
        ctx.cmp += tally.cmp
    return MembershipResult(member, [x] if member else None, tally)


def _rhs(rows: int, psi: StateVector) -> np.ndarray:
    """The state's components, checked against a system of ``rows`` rows."""
    if rows != psi.dim:
        raise DimensionMismatch(f"matrix has {rows} rows, rhs has {psi.dim}")
    _require_finite(psi.components)
    return psi.components


def _magnitudes(z: np.ndarray) -> np.ndarray:
    """``abs`` of every entry as CPython computes it: ``hypot(re, im)``."""
    return np.hypot(z.real, z.imag)


def _cross_consistency(
    col: np.ndarray,
    rhs: np.ndarray,
    above: np.ndarray,
    tol: TolerancePolicy,
    fctx: OpCounter,
) -> tuple[bool, complex | None]:
    """Consistency of the one-unknown system ``col * x = rhs``.

    After elimination the live rows carry a single unknown column (the
    last one) plus the right-hand side.  ``above`` marks the rows where
    ``|col|`` exceeds the threshold.  With an anchor row ``a``, the first
    of them, the system is consistent iff ``col[a]*rhs[j] == col[j]*rhs[a]``
    within ``tol`` for all other rows; with no anchor, iff every
    right-hand side is zero.  The tally is that of the loop that stops at
    the first failing row: 2 multiplications and 1 comparison per
    comparison up to and including it.  For the nondegenerate case of
    two live rows this is the trailing 2x2 cross condition: 2
    multiplications, 1 comparison.

    The first comparison runs on Python ``complex`` values; it alone
    decides that 2x2 check and most rejections.  Any further rows are
    decided together in one numpy pass (:func:`_first_cross_failure`),
    whose fixed cost of some 20 numpy calls would otherwise be paid by
    every small system.  Returns the verdict and the unknown's value,
    ``rhs[a] / col[a]`` (0 without an anchor).
    """
    n = col.shape[0]
    if not n:  # a wide system can leave no live row: nothing to compare
        return True, 0j
    anchor = int(above.argmax())
    if not above[anchor]:
        fail = _first_nonzero(rhs, tol)
        fctx.cmp += n if fail is None else fail + 1
        return (True, 0j) if fail is None else (False, None)
    a_col, a_rhs = complex(col[anchor]), complex(rhs[anchor])
    j = int(anchor == 0)  # the first row compared
    if j < n and not tol.equal(a_col * complex(rhs[j]), complex(col[j]) * a_rhs):
        fail = j
    elif n <= 2:
        fail = None
    else:
        fail = _first_cross_failure(col, rhs, anchor, tol)
    made = n - 1 if fail is None else fail + 1 - (anchor < fail)
    fctx.mul += 2 * made
    fctx.cmp += made
    return (True, a_rhs / a_col) if fail is None else (False, None)


def _first_cross_failure(
    col: np.ndarray, rhs: np.ndarray, anchor: int, tol: TolerancePolicy
) -> int | None:
    """The first row ``j`` where ``tol.equal(col[a]*rhs[j], col[j]*rhs[a])`` fails.

    Every row is decided in one numpy pass, bit for bit as
    :meth:`TolerancePolicy.equal` decides it on ``complex`` values: both
    products by CPython's formula on real and imaginary parts (stacked,
    so one 2 x n pass computes them), magnitudes by ``hypot``.  numpy's
    complex ``*`` and ``abs`` round differently.  Products beyond the
    float range become inf or NaN as in CPython, without a warning.  A
    difference within ``abs_eps`` passes whatever the products' size, so
    their magnitudes are computed only if some row is further apart.
    Returns None if every row passes; the anchor row is not compared.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.concatenate((rhs, col)).reshape(2, -1)
        s = x[::-1, anchor, None]  # col[a] scales rhs, rhs[a] scales col
        re = s.real * x.real - s.imag * x.imag
        im = s.real * x.imag + s.imag * x.real
        dist = np.hypot(re[0] - re[1], im[0] - im[1])
        ok = dist <= tol.abs_eps
        ok[anchor] = True
        fail = _first_false(ok)
        if fail is not None:
            ok = dist <= tol.abs_eps + tol.rel_eps * np.hypot(re, im).max(axis=0)
            ok[anchor] = True
            fail = _first_false(ok)
    return fail


def _first_nonzero(rhs: np.ndarray, tol: TolerancePolicy) -> int | None:
    """The first entry of ``rhs`` that ``tol.equal`` tells apart from zero."""
    size = _magnitudes(rhs)
    return _first_false(size <= tol.abs_eps + tol.rel_eps * size)


def _first_false(ok: np.ndarray) -> int | None:
    first = int(ok.argmin())
    return None if ok[first] else first


def _back_substitute(f: EchelonFactor, y: np.ndarray, x_last: complex) -> list[complex]:
    """Solve the eliminated rows upward, one column of U at a time.

    ``x[c] = y[i] / U[i, c]``, then ``y[:i] -= U[:i, c] * x[c]``; free
    unknowns are 0.  The column sweep, not a dot product of each row
    with the solved tail, is what keeps one-panel witnesses at the bits
    the row-by-row loop gave (the spin52 witness in
    ``tests/golden_cli.json``): a row dot product sums in another order
    and moves its first entry from -8.02e-16 to -7.45e-16.
    """
    x = [0j] * f.unknowns
    x[-1] = x_last
    t = len(f.positions)
    if x_last != 0:
        y[:t] -= f.last[:t] * x_last
    for i in range(t - 1, -1, -1):
        xi = complex(y[i]) / complex(f.lu[i, i])  # Python division, as in the loop
        x[f.positions[i]] = xi
        if xi != 0:
            y[:i] -= f.lu[:i, i] * xi
    return x


def _solve(
    f: EchelonFactor,
    b: np.ndarray,
    ctx: OpCounter | None,
    tol: TolerancePolicy,
    full_block: bool,
) -> MembershipResult:
    """Decide ``B x = b`` from the factor of ``B``: the per-state half.

    Takes a copy of ``b`` through the factor's interchanges and multipliers,
    applies :func:`_cross_consistency` to the rows left live, and
    back-substitutes a witness -- O(n^2) where the elimination was
    O(n^3).  Step ``(r, c)`` of the factored elimination is charged as
    if it had run here, for ``a[j][l] -= (a[j][c] / a[r][c]) * a[r][l]``
    over rows ``top..n-1`` and columns ``left..k``: below and right of
    the pivot, or with ``full_block`` the whole live block including the
    pivot row and column.  That is ``n - top`` divisions and
    ``(n - top)(k + 1 - left)`` multiplications and as many
    subtractions; the charge depends on ``(n, k)`` and the pivots only,
    never on the state, and ``full_block`` changes the charge only.
    """
    ctx = ctx if ctx is not None else OpCounter()
    start = ctx.snapshot()
    n, k = f.rows, f.unknowns
    y = f.forward(b)
    shift = 0 if full_block else 1  # (top, left) = (r, c) + shift
    for r, c in enumerate(f.positions):
        height = n - r - shift
        updated = height * (k + 1 - c - shift)
        ctx.div += height
        ctx.mul += updated
        ctx.add_sub += updated
    elimination = ctx.snapshot() - start
    fctx = OpCounter()
    t = len(f.positions)
    live = f.last[t:]
    member, x_last = _cross_consistency(
        live, y[t:], _magnitudes(live) > f.threshold, tol, fctx
    )
    witness = _back_substitute(f, y, x_last) if member else None
    return MembershipResult(member, witness, elimination, fctx, f.row_swaps)


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
    f = _factor(aug.body[:, :-1], tol)
    return _solve(f, aug.body[:, -1], ctx, tol, full_block=False)


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
    f = _factor(aug.body[:, :-1], tol)
    return _solve(f, aug.body[:, -1], ctx, tol, full_block=True)


def subspace_membership(
    p: Projector,
    kind: BasisKind,
    psi: StateVector,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Does psi lie in the range or the kernel of ``p``?

    Solves against ``p``'s memoised :func:`~propval.linalg.subspace_factor`:
    the first request per subspace and tolerance policy pays the one
    O(n^3) elimination of ``P`` or ``I - P``, which also picks the
    basis, and every state pays only the O(n k) :func:`_solve` for a
    subspace of dimension k.
    Verdict, witness and tallies are those of :func:`membership_of` on
    the basis: an empty subspace contains only the zero vector, and a
    one-column subspace is the O(n) :func:`range_membership`.
    """
    if p.rank == (0 if kind is BasisKind.RANGE else p.dim):
        return membership_of(np.zeros((p.dim, 0)), psi, ctx, tol)
    f = subspace_factor(p, kind, tol)
    if f.unknowns < 2:
        return membership_of(f.basis.array, psi, ctx, tol)
    return _solve(f, _rhs(p.dim, psi), ctx, tol, full_block=False)


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
    single column is the O(n) range check, anything wider is factored
    and solved as :func:`kernel_membership_iterative` does, without
    building an augmented system.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise DimensionMismatch("expected a 2-d column stack")
    k = columns.shape[1]
    if k == 0:
        member = _first_nonzero(_rhs(columns.shape[0], psi), tol) is None
        return MembershipResult(member, [] if member else None, OpCounter())
    if k == 1:
        return range_membership(columns, psi, ctx, tol)
    b = _rhs(columns.shape[0], psi)
    return _solve(_factor(columns, tol), b, ctx, tol, full_block=False)
