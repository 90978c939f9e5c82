"""Solvability checks for the range and kernel linear systems.

Every system runs one path, split as LAPACK splits ``getrf`` from
``getrs``: a *factor* of the unknown columns
(:class:`~propval.linalg.EchelonFactor`, one run of the package's one
elimination core ``linalg._row_echelon``, which never reads the
right-hand side), then a per-state *solve* that takes the right-hand
side through the factor's interchanges and multipliers, applies one
cross-product consistency check to the rows left live, and
back-substitutes a witness.  The factor costs O(n^3), the solve O(n^2).
One span decider, ``_span_membership``, reads the span's width off the
factor: with no unknowns the state must be zero, with one the factor's
anchored column decides alone, with more the factor is solved.  Deciders:

* :func:`subspace_membership` -- the range or kernel system of a
  projector, one decider for both.  Its factor is memoised on the
  projector (:func:`~propval.linalg.subspace_factor`, whose pivot
  columns are the subspace's basis; an empty subspace has an empty
  factor), so the elimination runs once per projector, subspace and
  tolerance policy and every state pays only the solve.  The factor
  also keeps the state-independent half of the cross-product check (its
  last column, whose live rows the check runs on, the anchor row and
  the anchor's entry), the elimination's charge and the row swaps, so a
  solve does only the arithmetic that involves its state.
* :func:`membership_of` -- any column stack, factored per call, and
  :func:`range_membership`, the one-column case.  It has no column to
  eliminate, so the consistency check decides on every row in O(n) and
  is the whole tally: a membership verdict costs exactly ``2(n-1)``
  multiplications and ``n-1`` comparisons, and a rejection is charged
  up to the first failed comparison.  A zero column spans {0}: ``n``
  comparisons with zero and no multiplications.
* :func:`kernel_membership_iterative` and :func:`kernel_membership_matrix`
  -- the same factor and solve on a column stack of any width but 0,
  with the state as right-hand side: the solve keeps its own tallies,
  so a one-unknown check is reported as ``final_check``.  The two
  differ only in what each step is charged.  The iterative form is
  charged for the rows below the pivot and the columns right of it,
  ``a[j][l] -= (a[j][c]/a[r][c]) * a[r][l]``; on a nondegenerate system
  with ``n-1`` unknowns that is exactly ``n(n-1)/2 - 1`` divisions and
  ``n(n-1)(2n-1)/6 - 1`` multiplications and as many subtractions.  The
  matrix form (column division, outer product, block subtraction) is
  also charged for the pivot row and column, O(n) divisions and O(n^2)
  multiplications/subtractions per step.  Verdict and witness are
  identical in both forms on every input; only the tallies differ.
* :func:`residual_oracle` -- least-squares residual test, used by the
  test suite as an uncounted second opinion.

Consistency of the eliminated system is decided by a cross-product
condition on the remaining rows (for the nondegenerate ``n-1`` unknown
case, one comparison on the trailing 2x2 block costing 2
multiplications).  The first comparison runs on Python ``complex``
values and every further one in a single numpy pass, each against
:meth:`~propval.numerics.TolerancePolicy.bound` of the larger product's
magnitude, as :meth:`~propval.numerics.TolerancePolicy.equal` decides;
a zero check compares a magnitude with ``bound`` of itself, and every
anchor threshold is :meth:`~propval.numerics.TolerancePolicy.threshold`
of its column's largest magnitude.  Verdicts, tallies and row swaps are
exact and witnesses hold to a normwise backward error, as the numerical
contract in :mod:`~propval.numerics` states.  On the kernel systems
those final-check operations are tallied in a separate counter on the
result, not in the elimination counter, because the closed-form totals
above cover the elimination loop only.

Each step returns its tally, and each public decider adds its result's
``counts`` to the :class:`OpCounter` passed in, in one place
(``_charged``).  The tallies are the closed-form amounts of the
elimination's steps (summed once, when the factor is built) and, for
the cross-product check, two multiplications and one comparison per
comparison up to and including the first that fails, although the
numpy pass decides them all.  The elimination is charged to every
solve, as if it ran there: the tally is the paper's cost of deciding the
system, which a memoised factor saves in wall time but not in
operations.  A result's ``counts`` is the tally of that call alone; the
counter passed in accumulates across calls.  Witness extraction
(back-substitution, or the single anchor division of the range check)
is a convenience output and is not counted.

Each state is checked once, by the entry point that receives it.  The
public deciders check its dimension and that every entry is finite
(the bare forms, with their column stack, in ``_system``).
``valuation.valuate`` and ``valuate_ql`` check its dimension and unit
norm, once: a norm within tolerance of 1 is finite, so every entry is
finite and at most ``1 + tol.bound(1.0)``.  They decide on the
components with ``_span_membership`` on the projector's factor, as
:func:`subspace_membership` does after its own checks.
``valuation.demo_nondistributivity`` checks its state's dimension and
finiteness once, as the public deciders do, and decides it the same
way on every factor it needs.  Every such check leaves a bound on the
state's largest magnitude, and the cross-product check's numpy pass
switches numpy's error state only when that bound times the factor's
``live_scale`` does not rule out overflow.  The bound serves the
one-unknown check only: in a solve the eliminated rows can grow the
state's entries, and the switch stays.
"""

from __future__ import annotations

import contextlib
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
from .linalg import _factor, _finite_scale, _forward, _require_dim, _upper_solve
from .numerics import DEFAULT_TOLERANCE, OpCounter, TolerancePolicy

__all__ = [
    "MembershipResult",
    "kernel_membership_iterative",
    "kernel_membership_matrix",
    "membership_of",
    "range_membership",
    "residual_oracle",
    "subspace_membership",
]


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

    :func:`membership_of` on exactly one column.  There is no column to
    eliminate, so the cross-product condition of
    :func:`_cross_consistency` decides on every row,
    ``column[a] * psi[j] == column[j] * psi[a]``, anchored on the first
    entry above ``tol.threshold(max|column|)``.  That check is the whole
    tally, reported as ``counts``: ``2(n-1)`` multiplications and
    ``n-1`` comparisons for a member, two and one per comparison made on
    a rejection.  A zero column spans {0}: each entry of ``psi`` is
    compared with zero, ``n`` comparisons and no multiplications for a
    member, and a rejection is charged up to its first nonzero entry.
    """
    arr = r.array if isinstance(r, Subspace) else np.asarray(r, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[1:] != (1,):
        raise DimensionMismatch(f"range check expects one column, got {arr.shape}")
    return membership_of(arr, psi, ctx, tol)


def _charged(ctx: OpCounter | None, result: MembershipResult) -> MembershipResult:
    """``result``, its ``counts`` added to ``ctx`` unless that is None."""
    if ctx is not None:
        ctx += result.counts
    return result


def _span_membership(
    f: EchelonFactor, b: np.ndarray, tol: TolerancePolicy, size: float
) -> MembershipResult:
    """Is ``b`` in the span of ``f``'s unknowns?  Decided by their number.

    ``b`` is checked already: as many finite entries as ``f`` has rows,
    none larger in magnitude than ``size``.  None: ``b`` must be zero;
    witness ``[]``, no charge.  One: the anchored column's check is the
    whole tally, with no eliminated row, so ``size`` bounds its products;
    a column without an anchor spans {0}.  More: :func:`_solve`.
    """
    if f.unknowns > 1:
        return _solve(f, b, tol, full_block=False)
    if not f.unknowns:
        member = _first_nonzero(b, tol) is None
        return MembershipResult(member, [] if member else None, OpCounter())
    member, x, tally = _cross_consistency(f, b, tol, size)
    return MembershipResult(member, [x] if member else None, tally)


def _rhs(rows: int, psi: StateVector) -> tuple[np.ndarray, float]:
    """The state's components, checked against a system of ``rows`` rows.

    Returns them with their largest magnitude, from the finiteness pass.
    """
    _require_dim(psi.dim, rows, "rhs and matrix rows")
    return psi.components, _finite_scale(psi.components)


def _system(
    columns: np.ndarray, psi: StateVector, tol: TolerancePolicy, least: int
) -> tuple[EchelonFactor, np.ndarray, float]:
    """A bare column stack's factor, and the state checked against it.

    The stack must be 2-d with at least ``least`` columns, else
    :class:`DimensionMismatch`; :func:`_rhs` checks the state, and
    :func:`~propval.linalg._factor` that the columns are finite and
    have a row.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2 or columns.shape[1] < least:
        raise DimensionMismatch(
            f"expected a 2-d stack of at least {least} columns, got {columns.shape}"
        )
    b, size = _rhs(columns.shape[0], psi)
    return _factor(columns, tol), b, size


def _cross_consistency(
    f: EchelonFactor, rhs: np.ndarray, tol: TolerancePolicy, size: float
) -> tuple[bool, complex | None, OpCounter]:
    """Consistency of the one-unknown system ``col * x = rhs``.

    After elimination the live rows carry a single unknown column, the
    factor's ``last`` column below its ``t`` eliminated rows, plus the
    right-hand side ``rhs`` on those rows.  The factor holds that
    column's anchor row ``a``, the first where ``|col|`` exceeds the
    anchor threshold, and ``col[a]``.  With an anchor the system is
    consistent iff ``col[a]*rhs[j] == col[j]*rhs[a]`` within ``tol`` for
    all other rows; with none, iff every right-hand side is zero.  The
    tally is that of the loop that stops at the first failing row: 2
    multiplications and 1 comparison per comparison up to and including
    it.  For the nondegenerate case of two live rows this is the
    trailing 2x2 cross condition: 2 multiplications, 1 comparison.

    The first comparison runs on Python ``complex`` values; it alone
    decides that 2x2 check and most rejections.  Any further rows are
    decided together in one numpy pass (:func:`_first_cross_failure`),
    whose fixed cost of some ten numpy calls would otherwise be paid by
    every small system.  ``size`` bounds ``max|rhs|`` (``math.inf`` if
    nothing does), so ``f.live_scale * size`` bounds that pass's
    products.  Returns the verdict, the unknown's value
    ``rhs[a] / col[a]`` (0 without an anchor; None on a rejection) and
    the tally.
    """
    col, anchor, a_col = f.last[len(f.positions) :], f.anchor, f.anchor_entry
    n = col.shape[0]
    if not n:  # a wide system can leave no live row: nothing to compare
        return True, 0j, OpCounter()
    if anchor is None:
        fail = _first_nonzero(rhs, tol)
        tally = OpCounter(cmp=n if fail is None else fail + 1)
        return (True, 0j, tally) if fail is None else (False, None, tally)
    a_rhs = complex(rhs[anchor])
    j = int(anchor == 0)  # the first row compared
    if j < n and not tol.equal(a_col * complex(rhs[j]), complex(col[j]) * a_rhs):
        fail = j
    elif n <= 2:
        fail = None
    else:
        fail = _first_cross_failure(col, rhs, anchor, tol, f.live_scale * size)
    made = n - 1 if fail is None else fail + 1 - (anchor < fail)
    tally = OpCounter(mul=2 * made, cmp=made)
    return (True, a_rhs / a_col, tally) if fail is None else (False, None, tally)


# With B = max|col| * max|rhs|, where B + tol.bound(B) stays below this, every
# value in _first_cross_failure is finite.  Each real product in numpy's
# complex product is at most B and so is each part of the product
# (|a.re b.re| + |a.im b.im| <= |a||b|), so each part of a difference is at
# most 2B, its magnitude at most 3B, and the tolerance bound at most
# tol.bound(B): all below 2**1023, rounding included.
_FINITE_PRODUCTS = 2.0**1020


def _first_cross_failure(
    col: np.ndarray,
    rhs: np.ndarray,
    anchor: int,
    tol: TolerancePolicy,
    bound: float,
) -> int | None:
    """The first row ``j`` where ``tol.equal(col[a]*rhs[j], col[j]*rhs[a])`` fails.

    Every row is decided in one numpy pass: the products ``col[a]*rhs``
    and ``rhs[a]*col`` by numpy's complex ``*``, magnitudes by
    ``np.abs``, and :meth:`TolerancePolicy.bound` of the larger
    magnitude.  A product may round differently from a ``complex`` one,
    so a row within rounding of its bound may be decided either way; the
    numerical contract (:mod:`~propval.numerics`) makes the verdict
    exact only away from the bound.  Products beyond the float range
    become inf or NaN without a warning: numpy's error state is switched
    for the pass unless ``bound``, the caller's upper bound on
    ``max|col| * max|rhs|`` (``math.inf`` proves nothing), proves every
    value in it finite.  A difference within ``tol.bound(0.0)`` passes
    whatever the products' size, so their magnitudes are computed only
    if some row is further apart.
    Returns None if every row passes; the anchor row is not compared.
    """
    if bound + tol.bound(bound) < _FINITE_PRODUCTS:
        state = contextlib.nullcontext()
    else:
        state = np.errstate(over="ignore", invalid="ignore")
    with state:
        p, q = col[anchor] * rhs, rhs[anchor] * col
        dist = np.abs(p - q)
        ok = dist <= tol.bound(0.0)
        ok[anchor] = True
        fail = _first_false(ok)
        if fail is not None:
            size = np.maximum(np.abs(p), np.abs(q))
            ok = dist <= tol.bound(size)
            ok[anchor] = True
            fail = _first_false(ok)
    return fail


def _first_nonzero(rhs: np.ndarray, tol: TolerancePolicy) -> int | None:
    """The first entry of ``rhs`` that ``tol.equal`` tells apart from zero.

    ``tol.bound`` of a magnitude may pass the float range; it is then
    inf, as on ``complex`` values, and raises no warning.
    """
    size = np.abs(rhs)
    with np.errstate(over="ignore"):
        return _first_false(size <= tol.bound(size))


def _first_false(ok: np.ndarray) -> int | None:
    first = int(ok.argmin())
    return None if ok[first] else first


def _back_substitute(f: EchelonFactor, y: np.ndarray, x_last: complex) -> list[complex]:
    """Solve the eliminated rows for the pivot unknowns; free unknowns are 0.

    The last unknown's share is taken off first, then U is solved by
    blocks (:func:`~propval.linalg._upper_solve`).  The witness meets the
    numerical contract's normwise backward error
    (:mod:`~propval.numerics`); its bits depend on how the solve is
    blocked and are not part of the contract.
    """
    t = len(f.positions)
    z = y[:t]
    if x_last != 0:
        z -= f.last[:t] * x_last
    x = [0j] * f.unknowns
    x[-1] = x_last
    for position, xi in zip(f.positions, _upper_solve(f.lu[:t], z).tolist()):
        x[position] = xi
    return x


def _solve(
    f: EchelonFactor, b: np.ndarray, tol: TolerancePolicy, full_block: bool
) -> MembershipResult:
    """Decide ``B x = b`` from the factor of ``B``: the per-state half.

    Takes a copy of ``b`` through the factor's interchanges and multipliers,
    applies the factor's cross-product check to the rows left live, and
    back-substitutes a witness -- O(n^2) where the elimination was
    O(n^3).  Only that arithmetic involves ``b``; the check's anchor and
    column, the elimination's charge and the row swaps come with the
    factor.  Each factored step is charged as if it had run here, below
    and right of the pivot or, with ``full_block``, over the whole live
    block including the pivot row and column (``EchelonFactor.charges``);
    the charge depends on ``(n, k)`` and the pivots only, never on the
    state, and ``full_block`` changes the charge only.  Nothing bounds
    the live rows of ``b``: the eliminated rows can grow its entries.
    """
    div, mul = f.charges[full_block]
    elimination = OpCounter(mul=mul, div=div, add_sub=mul)
    y = _forward(f.lu, f.perm, b)
    member, x_last, check = _cross_consistency(
        f, y[len(f.positions) :], tol, math.inf
    )
    witness = _back_substitute(f, y, x_last) if member else None
    return MembershipResult(member, witness, elimination, check, f.row_swaps)


def kernel_membership_iterative(
    columns: np.ndarray,
    psi: StateVector,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Elimination updating the rows below and the columns right of the pivot.

    Decides ``columns x = psi`` for a stack of at least one column.  On
    a nondegenerate system with ``n-1`` unknowns this charges exactly
    ``n(n-1)/2 - 1`` divisions and ``n(n-1)(2n-1)/6 - 1`` multiplications
    and as many subtractions.
    """
    f, b, _ = _system(columns, psi, tol, least=1)
    return _charged(ctx, _solve(f, b, tol, full_block=False))


def kernel_membership_matrix(
    columns: np.ndarray,
    psi: StateVector,
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
    f, b, _ = _system(columns, psi, tol, least=1)
    return _charged(ctx, _solve(f, b, tol, full_block=True))


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
    basis, and every state pays only the O(n k) solve for a subspace of
    dimension k.  Verdict, witness and tallies are those of
    :func:`membership_of` on the basis.
    """
    b, size = _rhs(p.dim, psi)
    return _charged(ctx, _span_membership(subspace_factor(p, kind, tol), b, tol, size))


ORACLE_TOLERANCE = 1e-7  # residual_oracle accepts a residual norm below this


def residual_oracle(a: np.ndarray, psi: StateVector) -> MembershipResult:
    """Least-squares second opinion: consistent iff the residual is tiny.

    Independent of the counted deciders; never counted.
    """
    a = np.asarray(a, dtype=complex)
    b = psi.components
    _require_dim(psi.dim, a.shape[0], "rhs and matrix rows")
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    member = residual < ORACLE_TOLERANCE
    witness = [complex(z) for z in x] if member else None
    return MembershipResult(member, witness, OpCounter(), residual=residual)


def membership_of(
    columns: np.ndarray,
    psi: StateVector,
    ctx: OpCounter | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> MembershipResult:
    """Does psi lie in the span of the given columns?

    Factored as :func:`kernel_membership_iterative` factors the same
    columns, then decided by width: an empty span holds only the zero
    vector, one column is the O(n) range check, anything wider is
    solved.
    """
    f, b, size = _system(columns, psi, tol, least=0)
    return _charged(ctx, _span_membership(f, b, tol, size))
