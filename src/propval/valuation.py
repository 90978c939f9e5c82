"""Truth assignment for quantum propositions and subspace-lattice semantics.

A proposition is a projector; a pure state assigns it a verdict by
membership: ``TRUE`` if the state lies in the projector's range,
``FALSE`` if in its kernel, and ``GAP`` when in neither (the ranges and
kernels of a projector split the space, so TRUE and FALSE exclude each
other).  Each verdict carries the operation tallies of the membership
checks that ran.  Both systems are decided by the one decider behind
:func:`~propval.membership.subspace_membership`, against the factor
each projector keeps per subspace, so a verdict after the first on a
projector costs a solve, never an elimination.  The state is checked
once per verdict, for its dimension and unit norm, and the decider
runs on its components without checking them again.

:func:`valuate_ql` is the two-valued variant that collapses the gap
into FALSE by deciding on the range system alone (both outcomes then
cost O(n) for rank-1 projectors); the symmetric gap-to-TRUE collapse,
deciding on the kernel system alone, sits behind a flag.

Compound propositions live in the lattice of subspaces: conjunction is
subspace intersection (:func:`meet`), disjunction is span of the union
(:func:`join`).  Meet, join and :func:`span_equal` all decide rank on
the one elimination core of :mod:`~propval.linalg` and its one pivot
threshold, so the null space behind a meet and the rank behind the
join of the same pair count the same pivots of ``[A | B]``.  Partial
pivoting does not reveal rank on every matrix: the unit
upper-triangular matrix with -1 above the diagonal has every pivot 1
and counts as full rank, however close to singular (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 9); that is the answer the
whole lattice gives.  This lattice is famously not distributive;
:func:`demo_nondistributivity` builds the standard counterexample from
a pair of noncommuting projectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    BasisKind,
    Projector,
    StateVector,
    Subspace,
    independent_columns,
    kernel_basis,
    matrix_rank,
    null_space_basis,
    range_basis,
    subspace_factor,
)
from .linalg import _factor, _finite_scale, _require_dim, _require_unit
from .membership import _span_membership
from .numerics import DEFAULT_TOLERANCE, OpCounter, PropvalError, TolerancePolicy

__all__ = [
    "CommutingOperators",
    "NondistributivityReport",
    "PhiNotInRange",
    "Subspace",
    "TruthValue",
    "TruthVerdict",
    "demo_nondistributivity",
    "join",
    "meet",
    "span_equal",
    "valuate",
    "valuate_ql",
]

#: Frobenius-norm floor above which two projectors count as noncommuting.
COMMUTATOR_TOLERANCE = 1e-6


class CommutingOperators(PropvalError):
    pass


class PhiNotInRange(PropvalError):
    pass


class TruthValue(Enum):
    TRUE = "true"
    FALSE = "false"
    GAP = "gap"


@dataclass(frozen=True)
class TruthVerdict:
    """Verdict plus the operation tallies of the paths that produced it.

    ``cost_true_path`` covers the range-system check (always run),
    ``cost_false_path`` the kernel-system elimination (zero if the range
    check already succeeded), and ``cost_gap_path`` their sum when both
    checks failed.  Kernel tallies are the elimination loop only; the
    final consistency condition is tallied separately on the membership
    results.
    """

    value: TruthValue
    cost_true_path: OpCounter
    cost_false_path: OpCounter
    cost_gap_path: OpCounter | None
    witness: list[complex] | None


def _unit_state(
    p: Projector, psi: StateVector, tol: TolerancePolicy
) -> tuple[np.ndarray, float]:
    """``psi``'s components, checked once for every decision on ``p``.

    The state must have ``p``'s dimension and unit norm.  A norm within
    tolerance of 1 is finite, so every component is finite and at most
    ``1 + tol.bound(1.0)`` in magnitude; that bound is returned with the
    components.
    """
    _require_dim(psi.dim, p.dim, "state and projector dims")
    _require_unit(psi, tol)
    return psi.components, 1.0 + tol.bound(1.0)


def valuate(
    p: Projector, psi: StateVector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> TruthVerdict:
    """Three-valued verdict: range member, else kernel member, else gap."""
    b, size = _unit_state(p, psi, tol)
    range_factor = subspace_factor(p, BasisKind.RANGE, tol)
    range_result = _span_membership(range_factor, b, tol, size)
    decisive, kernel_counts = range_result, OpCounter()
    if range_result.member:
        value = TruthValue.TRUE
    else:
        kernel_factor = subspace_factor(p, BasisKind.KERNEL, tol)
        decisive = _span_membership(kernel_factor, b, tol, size)
        value = TruthValue.FALSE if decisive.member else TruthValue.GAP
        kernel_counts = decisive.counts
    gap = range_result.counts + kernel_counts if value is TruthValue.GAP else None
    return TruthVerdict(
        value, range_result.counts, kernel_counts, gap, decisive.witness
    )


def valuate_ql(
    p: Projector,
    psi: StateVector,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
    gap_to_true: bool = False,
) -> TruthVerdict:
    """Two-valued verdict deciding on a single membership system.

    Default: TRUE iff the range system is consistent (gap collapses into
    FALSE).  With ``gap_to_true`` the kernel system decides instead:
    FALSE iff it is consistent (gap collapses into TRUE).
    """
    b, size = _unit_state(p, psi, tol)
    kind = BasisKind.KERNEL if gap_to_true else BasisKind.RANGE
    result = _span_membership(subspace_factor(p, kind, tol), b, tol, size)
    if gap_to_true:
        value = TruthValue.FALSE if result.member else TruthValue.TRUE
        return TruthVerdict(value, OpCounter(), result.counts, None, result.witness)
    value = TruthValue.TRUE if result.member else TruthValue.FALSE
    return TruthVerdict(value, result.counts, OpCounter(), None, result.witness)


def meet(
    a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Intersection of two subspaces.

    A vector lies in both spans iff A u = B v for some coefficient
    vectors u, v, i.e. iff (u, -v) lies in the null space of the stacked
    matrix [A | -B]; the intersection is then spanned by the A u.
    """
    _require_dim(a.ambient_dim, b.ambient_dim, "ambient dims")
    pairs = null_space_basis(np.hstack([a.array, -b.array]), tol)
    vectors = a.array @ pairs[: a.dim, :]
    return Subspace(vectors[:, independent_columns(vectors, tol)])


def join(
    a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Span of the union: stack the bases, drop dependent columns."""
    _require_dim(a.ambient_dim, b.ambient_dim, "ambient dims")
    stacked = np.hstack([a.array, b.array])
    return Subspace(stacked[:, independent_columns(stacked, tol)])


def span_equal(
    a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> bool:
    """Span equality by rank: rank(A) == rank(B) == rank([A B])."""
    _require_dim(a.ambient_dim, b.ambient_dim, "ambient dims")
    ra, rb = matrix_rank(a.array, tol), matrix_rank(b.array, tol)
    if ra != rb:
        return False
    return matrix_rank(np.hstack([a.array, b.array]), tol) == ra


@dataclass(frozen=True)
class NondistributivityReport:
    """Outcome of the distributive-law counterexample.

    Verdicts are two-valued (membership of phi in the compound
    subspace).  ``violated`` records that the subspace on the left of
    the distributive law differs in span from the one on the right.
    """

    lhs_value: TruthValue  # [[Q and (P or not-P)]] at phi
    meet_with_p: TruthValue  # [[Q and P]] at phi
    meet_with_complement: TruthValue  # [[Q and not-P]] at phi
    lhs_dim: int
    rhs_dim: int
    lhs_equals_q: bool
    commutator_norm: float
    violated: bool


def demo_nondistributivity(
    q: Projector,
    p: Projector,
    phi: StateVector,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> NondistributivityReport:
    """Exhibit Q and (P or not-P) differing from (Q and P) or (Q and not-P).

    Requires noncommuting projectors and a state phi inside the range
    of Q.  The left side then contains phi while both conjuncts on the
    right are the zero subspace.  phi is checked once, here, for its
    dimension and finiteness; every membership below decides on its
    components with ``_span_membership``, as :func:`valuate` does.
    """
    _require_dim(q.dim, p.dim, "projector dims")
    _require_dim(phi.dim, q.dim, "state and projector dims")
    b, size = phi.components, _finite_scale(phi.components)
    commutator_norm = float(
        np.linalg.norm(q.array @ p.array - p.array @ q.array)
    )
    if commutator_norm <= COMMUTATOR_TOLERANCE:
        raise CommutingOperators(
            f"commutator norm {commutator_norm:.3e} is below "
            f"{COMMUTATOR_TOLERANCE:.1e}"
        )
    q_factor = subspace_factor(q, BasisKind.RANGE, tol)
    if not _span_membership(q_factor, b, tol, size).member:
        raise PhiNotInRange("phi must lie in the range of the first projector")

    q_range = range_basis(q, tol)
    p_range = range_basis(p, tol)
    p_kernel = kernel_basis(p, tol)
    lhs = meet(q_range, join(p_range, p_kernel, tol), tol)
    with_p = meet(q_range, p_range, tol)
    with_complement = meet(q_range, p_kernel, tol)
    rhs = join(with_p, with_complement, tol)

    def verdict(s: Subspace) -> TruthValue:
        member = _span_membership(_factor(s.array, tol), b, tol, size).member
        return TruthValue.TRUE if member else TruthValue.FALSE

    return NondistributivityReport(
        lhs_value=verdict(lhs),
        meet_with_p=verdict(with_p),
        meet_with_complement=verdict(with_complement),
        lhs_dim=lhs.dim,
        rhs_dim=rhs.dim,
        lhs_equals_q=span_equal(lhs, q_range, tol),
        commutator_norm=commutator_norm,
        violated=not span_equal(lhs, rhs, tol),
    )
