"""Primitive-operation counting and the shared tolerance policy.

Every algorithm in this package charges one unit per complex
multiplication, division, addition/subtraction, or comparison.  Counts
accumulate in an :class:`OpCounter` passed around as an explicit
argument; there is no process-global counting state, so concurrent runs
with independent counters never interfere.  The deciders increment
the counter fields directly, by a closed-form amount per elimination
step (run as numpy block updates) or per comparison (on plain
``complex`` values).  Passing ``None`` as the counter disables counting
without changing any numeric result.

Equality of scalars is decided by a single :class:`TolerancePolicy`
shared across the package, since the values flowing through the
pipelines involve irrational entries evaluated in double precision.
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

    def snapshot(self) -> "OpCounter":
        return OpCounter(self.mul, self.div, self.add_sub, self.cmp)

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            self.mul + other.mul,
            self.div + other.div,
            self.add_sub + other.add_sub,
            self.cmp + other.cmp,
        )

    def __sub__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            self.mul - other.mul,
            self.div - other.div,
            self.add_sub - other.add_sub,
            self.cmp - other.cmp,
        )

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
    """Symmetric approximate equality: |a-b| <= abs_eps + rel_eps*max(|a|,|b|).

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

    def equal(self, a: complex, b: complex) -> bool:
        return abs(a - b) <= self.abs_eps + self.rel_eps * max(abs(a), abs(b))

    def is_zero(self, a: complex) -> bool:
        return abs(a) <= self.abs_eps


DEFAULT_TOLERANCE = TolerancePolicy()
