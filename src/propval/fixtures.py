"""Worked-example data and the seeded random-instance generator.

Two hand-checked fixtures ship with the package: a two-level system
with the spin-up-along-y projector (one state per verdict), and a
six-level system whose projector matrix, kernel system, and kernel
solution are known in closed form.  Fixture numerics are kept as
``coefficient * sqrt(radicand) / denominator`` triples and materialised
to floats at load, so the stored ground truth stays in radical form.

:func:`random_instance` draws reproducible rank-1 instances for the
benchmarks and property tests.  The projector stream depends only on
``(seed, n)``, so the three target states of one instance share their
projector; :func:`random_states` draws it once for several states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .linalg import (
    Projector,
    StateVector,
    projector_from_state,
    save_matrix,
    validate_projector,
)
from .numerics import PropvalError
from .valuation import TruthValue

__all__ = [
    "DegenerateDraw",
    "FixtureSet",
    "TargetKind",
    "export_fixture",
    "fixture_by_name",
    "qubit_fixture",
    "random_instance",
    "random_states",
    "spin52_fixture",
]


class DegenerateDraw(PropvalError):
    pass


class TargetKind(Enum):
    IN_RANGE = "in_range"
    IN_KERNEL = "in_kernel"
    GENERIC = "generic"


def _val(coeff: int, radicand: int = 1, den: int = 1) -> float:
    return coeff * math.sqrt(radicand) / den


def _column(triples, den: int) -> np.ndarray:
    return np.array([_val(c, r, den) for c, r in triples], dtype=complex)


@dataclass(frozen=True, eq=False)
class FixtureSet:
    """Projector, named states, expected verdicts, and reference data."""

    name: str
    projector: Projector
    states: dict[str, StateVector]
    expected: dict[str, TruthValue]
    expected_witness: dict[str, list[complex]] = field(default_factory=dict)
    #: Kernel columns in the normalisation their solution is quoted for.
    reference_kernel_columns: np.ndarray | None = None
    expected_kernel_witness: list[complex] | None = None
    reference_range_column: np.ndarray | None = None


def qubit_fixture() -> FixtureSet:
    """Two-level system, projector onto span{(1/sqrt2)[1, i]}.

    The three states exercise each verdict: the spanning vector itself
    (TRUE), its orthogonal partner (1/sqrt2)[1, -i] (FALSE), and the
    first basis vector (GAP).
    """
    h = _val(1, 1, 2)  # 1/2
    matrix = np.array([[h, -1j * h], [1j * h, h]], dtype=complex)
    s = _val(1, 2, 2)  # 1/sqrt(2)
    states = {
        "y_plus": StateVector(np.array([s, 1j * s])),
        "y_minus": StateVector(np.array([s, -1j * s])),
        "z_up": StateVector(np.array([1.0, 0.0])),
    }
    return FixtureSet(
        name="qubit",
        projector=validate_projector(matrix),
        states=states,
        expected={
            "y_plus": TruthValue.TRUE,
            "y_minus": TruthValue.FALSE,
            "z_up": TruthValue.GAP,
        },
        reference_range_column=np.array([1.0, 1.0j], dtype=complex),
    )


# Six-level fixture, all entries coeff*sqrt(radicand) over a common
# denominator.  The projector is rank 1 with trace 1.
_SPIN52_MATRIX = (  # symmetric, denominator 32
    ((1, 1), (1, 5), (1, 10), (1, 10), (1, 5), (1, 1)),
    ((1, 5), (5, 1), (5, 2), (5, 2), (5, 1), (1, 5)),
    ((1, 10), (5, 2), (10, 1), (10, 1), (5, 2), (1, 10)),
    ((1, 10), (5, 2), (10, 1), (10, 1), (5, 2), (1, 10)),
    ((1, 5), (5, 1), (5, 2), (5, 2), (5, 1), (1, 5)),
    ((1, 1), (1, 5), (1, 10), (1, 10), (1, 5), (1, 1)),
)
_SPIN52_RANGE_DIRECTION = ((1, 1), (1, 5), (1, 10), (1, 10), (1, 5), (1, 1))
_SPIN52_KERNEL_COLUMNS = (  # columns, integer normalisation (32 x the kernel basis)
    ((31, 1), (-1, 5), (-1, 10), (-1, 10), (-1, 5), (-1, 1)),
    ((-1, 5), (27, 1), (-5, 2), (-5, 2), (-5, 1), (-1, 5)),
    ((-1, 10), (-5, 2), (22, 1), (-10, 1), (-5, 2), (-1, 10)),
    ((-1, 10), (-5, 2), (-10, 1), (22, 1), (-5, 2), (-1, 10)),
    ((-1, 5), (-5, 1), (-5, 2), (-5, 2), (27, 1), (-1, 5)),
)
# State (1/(4 sqrt 2))[sqrt5, -3, sqrt2, sqrt2, -3, sqrt5], rationalised
# to denominator 8.
_SPIN52_STATE = ((1, 10), (-3, 2), (2, 1), (2, 1), (-3, 2), (1, 10))
# Solution of the integer-normalised kernel system, denominator 32.
_SPIN52_KERNEL_WITNESS = ((0, 1), (-1, 2), (-1, 1), (-1, 1), (-1, 2))


def spin52_fixture() -> FixtureSet:
    """Six-level system whose state lies in the projector's kernel.

    The fixture ships the kernel columns in their integer normalisation
    together with the known solution of ``columns x = psi``,
    (1/32)[0, -sqrt2, -1, -1, -sqrt2];
    the range system built from the quoted direction is inconsistent,
    so the verdict for the state is FALSE.
    """
    matrix = np.array(
        [[_val(c, r, 32) for c, r in row] for row in _SPIN52_MATRIX],
        dtype=complex,
    )
    psi = StateVector(_column(_SPIN52_STATE, 8))
    kernel_cols = np.column_stack(
        [_column(col, 1) for col in _SPIN52_KERNEL_COLUMNS]
    )
    witness_scaled = [complex(z) for z in _column(_SPIN52_KERNEL_WITNESS, 32)]
    # The same solution against the kernel basis drawn from (I - M),
    # whose columns carry a 1/32 factor relative to the integer form.
    witness_unscaled = [32 * w for w in witness_scaled]
    return FixtureSet(
        name="spin52",
        projector=validate_projector(matrix),
        states={"psi": psi},
        expected={"psi": TruthValue.FALSE},
        expected_witness={"psi": witness_unscaled},
        reference_kernel_columns=kernel_cols,
        expected_kernel_witness=witness_scaled,
        reference_range_column=_column(_SPIN52_RANGE_DIRECTION, 1),
    )


_FIXTURES = {"qubit": qubit_fixture, "spin52": spin52_fixture}


def fixture_by_name(name: str) -> FixtureSet:
    try:
        return _FIXTURES[name]()
    except KeyError:
        raise PropvalError(
            f"unknown fixture {name!r}; available: {sorted(_FIXTURES)}"
        ) from None


def export_fixture(fixture: FixtureSet, directory) -> list[Path]:
    """Write the projector and states as matrix JSON files; return paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    proj_path = directory / f"{fixture.name}_projector.json"
    save_matrix(proj_path, fixture.projector.array)
    paths.append(proj_path)
    for key, state in fixture.states.items():
        state_path = directory / f"{fixture.name}_state_{key}.json"
        save_matrix(state_path, state.components.reshape(-1, 1))
        paths.append(state_path)
    return paths


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


_MAX_RETRIES = 8  # fresh draws tried for a component orthogonal to the direction

_TARGET_SALT = {
    TargetKind.IN_RANGE: 1,
    TargetKind.IN_KERNEL: 2,
    TargetKind.GENERIC: 3,
}


def random_instance(
    n: int,
    seed: int,
    target: TargetKind,
) -> tuple[Projector, StateVector]:
    """Seeded rank-1 projector with a state of the requested kind.

    The projector depends on ``(seed, n)`` only.  IN_RANGE applies a
    random phase to the spanning vector, IN_KERNEL normalises the
    component of a fresh draw orthogonal to it, GENERIC returns an
    independent random unit vector (a gap state with probability 1).
    """
    projector, (state,) = random_states(n, seed, [target])
    return projector, state


def random_states(
    n: int, seed: int, targets: list[TargetKind]
) -> tuple[Projector, list[StateVector]]:
    """One projector and a state per target, as :func:`random_instance` draws them.

    ``random_states(n, seed, targets)[1][i]`` is
    ``random_instance(n, seed, targets[i])[1]``, and the projector is
    theirs too, but it is built once.
    """
    if n < 2 or seed < 0:
        raise PropvalError(f"need dimension >= 2 and seed >= 0, got {n} and {seed}")
    direction = _unit_vector(np.random.default_rng([seed, n, 0]), n)
    projector = projector_from_state(StateVector(direction))
    return projector, [_target_state(direction, seed, t) for t in targets]


def _target_state(
    direction: np.ndarray, seed: int, target: TargetKind
) -> StateVector:
    n = len(direction)
    rng = np.random.default_rng([seed, n, _TARGET_SALT[target]])
    if target is TargetKind.IN_RANGE:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return StateVector(phase * direction)
    if target is TargetKind.GENERIC:
        return StateVector(_unit_vector(rng, n))
    for _ in range(_MAX_RETRIES):
        draw = _unit_vector(rng, n)
        perp = draw - direction * np.vdot(direction, draw)
        norm = np.linalg.norm(perp)
        if norm > 1e-6:
            return StateVector(perp / norm)
    raise DegenerateDraw(
        f"no usable orthogonal component after {_MAX_RETRIES} draws"
    )
