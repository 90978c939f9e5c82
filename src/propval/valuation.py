"""Truth assignment for quantum propositions and subspace-lattice semantics.

A proposition is a projector; a pure state assigns it a verdict by
membership: ``TRUE`` if the state lies in the projector's range,
``FALSE`` if in its kernel, and ``GAP`` when in neither (the ranges and
kernels of a projector split the space, so TRUE and FALSE exclude each
other).  Each verdict carries the operation tallies of the membership
checks that ran.

:func:`valuate_ql` is the two-valued variant that collapses the gap
into FALSE by deciding on the range system alone (both outcomes then
cost O(n) for rank-1 projectors); the symmetric gap-to-TRUE collapse,
deciding on the kernel system alone, sits behind a flag.

Compound propositions live in the lattice of subspaces: conjunction is
subspace intersection (:func:`meet`), disjunction is span of the union
(:func:`join`).  This lattice is famously not distributive;
:func:`demo_nondistributivity` builds the standard counterexample from
a pair of noncommuting projectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DimensionMismatch,
    NotUnitNorm,
    Projector,
    StateVector,
    SubspaceBasis,
    independent_columns,
    kernel_basis,
    matrix_rank,
    null_space_basis,
    range_basis,
)
from .membership import membership_of
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


def _range_columns(p: Projector, tol: TolerancePolicy) -> np.ndarray:
    if p.rank == 0:
        return np.zeros((p.dim, 0), dtype=complex)
    return range_basis(p, tol).array


def _kernel_columns(p: Projector, tol: TolerancePolicy) -> np.ndarray:
    if p.rank == p.dim:
        return np.zeros((p.dim, 0), dtype=complex)
    return kernel_basis(p, tol).array


def _check_state(p: Projector, psi: StateVector, tol: TolerancePolicy) -> None:
    if psi.dim != p.dim:
        raise DimensionMismatch(
            f"state dim {psi.dim} does not match projector dim {p.dim}"
        )
    if not psi.is_unit(tol):
        raise NotUnitNorm(f"state norm {psi.norm} deviates from 1")


def valuate(
    p: Projector, psi: StateVector, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> TruthVerdict:
    """Three-valued verdict: range member, else kernel member, else gap."""
    _check_state(p, psi, tol)
    range_result = membership_of(_range_columns(p, tol), psi, OpCounter(), tol)
    decisive, kernel_counts = range_result, OpCounter()
    if range_result.member:
        value = TruthValue.TRUE
    else:
        decisive = membership_of(_kernel_columns(p, tol), psi, OpCounter(), tol)
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
    _check_state(p, psi, tol)
    if gap_to_true:
        result = membership_of(_kernel_columns(p, tol), psi, OpCounter(), tol)
        value = TruthValue.FALSE if result.member else TruthValue.TRUE
        return TruthVerdict(value, OpCounter(), result.counts, None, result.witness)
    result = membership_of(_range_columns(p, tol), psi, OpCounter(), tol)
    value = TruthValue.TRUE if result.member else TruthValue.FALSE
    return TruthVerdict(value, result.counts, OpCounter(), None, result.witness)


@dataclass(frozen=True)
class Subspace:
    """Subspace given by independent spanning columns (none = {0})."""

    array: np.ndarray  # ambient_dim x dim

    def __post_init__(self):
        arr = np.array(self.array, dtype=complex)
        if arr.ndim != 2:
            raise DimensionMismatch("subspace basis must be a 2-d column stack")
        object.__setattr__(self, "array", arr)
        arr.setflags(write=False)

    @classmethod
    def from_basis(cls, basis: SubspaceBasis) -> "Subspace":
        return cls(basis.array)

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

    def contains(
        self, psi: StateVector, tol: TolerancePolicy = DEFAULT_TOLERANCE
    ) -> bool:
        return membership_of(self.array, psi, OpCounter(), tol).member


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def meet(
    a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Intersection of two subspaces.

    A vector lies in both spans iff A u = B v for some coefficient
    vectors u, v, i.e. iff (u, -v) lies in the null space of the stacked
    matrix [A | -B]; the intersection is then spanned by the A u.
    """
    _require_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = np.hstack([a.array, -b.array])
    pairs = null_space_basis(stacked, tol)
    if pairs.shape[1] == 0:
        return Subspace.zero(a.ambient_dim)
    vectors = a.array @ pairs[: a.dim, :]
    cols = independent_columns(vectors, tol)
    if not cols:
        return Subspace.zero(a.ambient_dim)
    return Subspace(vectors[:, cols])


def join(
    a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Subspace:
    """Span of the union: stack the bases, drop dependent columns."""
    _require_same_ambient(a, b)
    stacked = np.hstack([a.array, b.array])
    if stacked.shape[1] == 0:
        return Subspace.zero(a.ambient_dim)
    cols = independent_columns(stacked, tol)
    return Subspace(stacked[:, cols])


def span_equal(
    a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> bool:
    """Span equality by rank: rank(A) == rank(B) == rank([A B])."""
    _require_same_ambient(a, b)
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
    commutator_tol: float = COMMUTATOR_TOLERANCE,
) -> NondistributivityReport:
    """Exhibit Q and (P or not-P) differing from (Q and P) or (Q and not-P).

    Requires noncommuting projectors and a state phi inside the range
    of Q.  The left side then contains phi while both conjuncts on the
    right are the zero subspace.
    """
    if q.dim != p.dim:
        raise DimensionMismatch(f"projector dims differ: {q.dim} vs {p.dim}")
    if phi.dim != q.dim:
        raise DimensionMismatch(f"state dim {phi.dim} does not match {q.dim}")
    commutator_norm = float(
        np.linalg.norm(q.array @ p.array - p.array @ q.array)
    )
    if commutator_norm <= commutator_tol:
        raise CommutingOperators(
            f"commutator norm {commutator_norm:.3e} is below {commutator_tol:.1e}"
        )
    q_range = Subspace(_range_columns(q, tol))
    if not q_range.contains(phi, tol):
        raise PhiNotInRange("phi must lie in the range of the first projector")

    p_range = Subspace(_range_columns(p, tol))
    p_kernel = Subspace(_kernel_columns(p, tol))
    lhs = meet(q_range, join(p_range, p_kernel, tol), tol)
    with_p = meet(q_range, p_range, tol)
    with_complement = meet(q_range, p_kernel, tol)
    rhs = join(with_p, with_complement, tol)

    def verdict(s: Subspace) -> TruthValue:
        return TruthValue.TRUE if s.contains(phi, tol) else TruthValue.FALSE

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
