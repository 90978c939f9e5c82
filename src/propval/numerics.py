"""Operation counting, the shared tolerance policy and the numerical contract.

Every algorithm in this package charges one unit per complex
multiplication, division, addition/subtraction, or comparison.  Counts
accumulate in an :class:`OpCounter` passed around as an explicit
argument; there is no process-global counting state, so concurrent runs
with independent counters never interfere.  Each decider adds the
tally of its call to the counter once: a closed-form amount per
elimination step (run as numpy matrix-vector products within a panel
of columns and one matrix product per panel) or per comparison.  A
system's comparisons run on ``complex`` values or in one numpy pass,
and are charged up to the first that fails, as a loop stopping there
would be.
Passing ``None`` as the counter disables counting without changing any
numeric result.

Every tolerance decision is made by a single :class:`TolerancePolicy`
shared across the package, since the values flowing through the
pipelines involve irrational entries evaluated in double precision.
It states its two formulas once.  :meth:`TolerancePolicy.bound` is
``abs_eps + rel_eps * size``, the largest difference that counts as
equal next to a magnitude ``size``: it decides ``equal``, the
cross-product and zero checks of a solve, a unit norm and a
projector's Hermiticity and idempotency.
:meth:`TolerancePolicy.threshold` is ``abs_eps * scale``, the magnitude
at or below which an entry counts as zero next to ``scale``: it
decides pivots, anchors and the printed zero parts of a witness.

Numerical contract.  The paper's results are verdicts and operation
tallies, so those are exact: every verdict, every closed-form tally
(early-exit index included), the row swaps and the conjecture-1
verdicts are fixed by the input and the policy, on any input where no
decision -- a comparison, a pivot choice, a rank -- sits within
rounding of its threshold.  A witness ``x`` of ``B x = b`` is not
bit-fixed: for ``b`` in the span of ``B`` it meets the normwise
backward error bound ``||B x - b|| <= c n u (||B|| ||x|| + ||b||)``
(Rigal & Gaches 1967; Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 7.1), with ``u = 2**-53``, ``n`` the rows of
``B`` and ``c = 16``.  Gaussian elimination with partial pivoting meets
it while its pivot growth stays modest (Higham, 9.3).  The command line
prints witness entries to 9 significant digits, and a part at or below
``threshold(1.0)`` as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class PropvalError(Exception):
    """Base class for every validation error raised by this package."""


class InvalidTolerance(PropvalError):
    pass


@dataclass
class OpCounter:
    """Tally of primitive operations.

    One complex multiply, divide, add/subtract, or comparison counts as
    exactly one unit.  Total work is the sum of the four tallies.
    """

    mul: int = 0
    div: int = 0
    add_sub: int = 0
    cmp: int = 0

    @property
    def total(self) -> int:
        return self.mul + self.div + self.add_sub + self.cmp

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            self.mul + other.mul,
            self.div + other.div,
            self.add_sub + other.add_sub,
            self.cmp + other.cmp,
        )

    def __iadd__(self, other: "OpCounter") -> "OpCounter":
        self.mul += other.mul
        self.div += other.div
        self.add_sub += other.add_sub
        self.cmp += other.cmp
        return self

    def as_dict(self) -> dict[str, int]:
        return {
            "mul": self.mul,
            "div": self.div,
            "add_sub": self.add_sub,
            "cmp": self.cmp,
            "total": self.total,
        }


@dataclass(frozen=True)
class TolerancePolicy:
    """Symmetric approximate equality, ``|a-b| <= bound(max(|a|, |b|))``.

    Both fields must be finite and non-negative, else
    :class:`InvalidTolerance`: an infinite bound accepts every
    comparison, and a NaN field would not equal itself as a memo key.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self):
        for name in ("abs_eps", "rel_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidTolerance(f"{name} must be finite and >= 0, got {value}")

    def bound(self, size: float) -> float:
        """The largest difference that counts as equal next to magnitude ``size``.

        ``abs_eps + rel_eps * size``, on a float or elementwise on a numpy
        array; the one place this formula is written.
        """
        return self.abs_eps + self.rel_eps * size

    def threshold(self, scale: float) -> float:
        """The magnitude at or below which an entry counts as zero next to ``scale``.

        ``abs_eps * scale``, on a float; the one place this formula is
        written.  With ``scale`` the largest magnitude of a matrix it is
        that matrix's pivot threshold, with the largest of a column that
        column's anchor threshold.
        """
        return self.abs_eps * scale

    def equal(self, a: complex, b: complex) -> bool:
        return abs(a - b) <= self.bound(max(abs(a), abs(b)))


DEFAULT_TOLERANCE = TolerancePolicy()
