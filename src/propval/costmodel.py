"""Cost accounting: measured operation counts and parallel cost algebra.

:func:`benchmark_paths` runs the valuation pipeline on seeded random
rank-1 instances and records the operation tallies of each verdict path
(range check alone, kernel elimination alone, and their sum for the
gap).  :func:`fit_growth` fits a log-log slope to those tallies: the
range path grows linearly with the dimension while the kernel and gap
paths grow cubically.

The cost algebra prices a computation of work T1 and span Tinf on p
processors.  Classically the running time is bounded below by both
T1/p (work law) and Tinf (span law), so the greedy schedule
``T_p = max(T1/p, Tinf)`` is used and efficiency never exceeds 1.  A
quantum processor bank is allowed a per-processor efficiency above 1:
its running time is ``X_q = T1/(q*eff)``, clamped up to the span if the
request is infeasible, and its cost ``q*X_q`` can undercut the serial
work.

:func:`conjecture1_report` asks whether the per-path costs grow at the
same rate under a given machine model: they do not under serial or
classical-parallel execution (cost is at least the work, which is
linear on one path and cubic on the others), but they do on the quantum
model where every elimination step runs in constant time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fixtures import TargetKind, random_states
from .numerics import (
    DEFAULT_TOLERANCE,
    OpCounter,
    PropvalError,
    TolerancePolicy,
)
from .valuation import TruthValue, valuate

__all__ = [
    "CostProfile",
    "CostSample",
    "Conjecture1Report",
    "GrowthFit",
    "InsufficientSamples",
    "InvalidBounds",
    "ModelKind",
    "PathKind",
    "benchmark_paths",
    "classical_cost",
    "conjecture1_report",
    "fit_growth",
    "quantum_cost",
    "samples_to_csv",
]

CSV_HEADER = "n,path,mul,div,add_sub,cmp,total"

#: Verdict band for conjecture1_report: slopes are "equal growth" when
#: all pairwise differences stay inside it.  Linear and cubic paths sit
#: 2.0 apart, so 0.5 separates them with a wide margin.
DEFAULT_SLOPE_BAND = 0.5


class InsufficientSamples(PropvalError):
    pass


class InvalidBounds(PropvalError):
    pass


class PathKind(Enum):
    RANGE_TRUE = "range_true"
    KERNEL_FALSE = "kernel_false"
    GAP_BOTH = "gap_both"


class ModelKind(Enum):
    SERIAL = "serial"
    CLASSICAL_PRAM = "classical_pram"
    QUANTUM_QPRAM = "quantum_qpram"


_PATH_TARGET = {
    PathKind.RANGE_TRUE: (TargetKind.IN_RANGE, TruthValue.TRUE),
    PathKind.KERNEL_FALSE: (TargetKind.IN_KERNEL, TruthValue.FALSE),
    PathKind.GAP_BOTH: (TargetKind.GENERIC, TruthValue.GAP),
}


@dataclass(frozen=True)
class CostSample:
    n: int
    path: PathKind
    counts: OpCounter


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class CostProfile:
    """Derived quantities of one scheduled computation.

    ``time`` already satisfies the span law (and, classically, the work
    law); ``clamped`` records that a quantum efficiency request was
    infeasible and the span-law floor was applied.
    """

    work_t1: float
    span_tinf: float
    processors: int
    time: float
    kind: ModelKind
    clamped: bool = False

    @property
    def speedup(self) -> float:
        return self.work_t1 / self.time

    @property
    def efficiency(self) -> float:
        return self.speedup / self.processors

    @property
    def cost(self) -> float:
        return self.processors * self.time


def benchmark_paths(
    n_values: list[int],
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> list[CostSample]:
    """One sample per (n, path), ordered by n then path.

    Each dimension draws one random rank-1 projector and three states
    (in range, in kernel, generic), as :func:`random_instance` would for
    each path; the recorded counts are the contracted tallies of the
    corresponding verdict path.  The projector is built once per
    dimension and serves all three paths, so its bases are computed once
    too.  Deterministic given the seed.
    """
    samples = []
    targets = [_PATH_TARGET[path][0] for path in PathKind]
    for n in n_values:
        if n < 3:
            raise InvalidBounds(f"benchmark dimensions start at 3, got {n}")
        projector, states = random_states(n, seed, targets)
        for path, state in zip(PathKind, states):
            target, expected = _PATH_TARGET[path]
            verdict = valuate(projector, state, tol)
            if verdict.value is not expected:
                raise PropvalError(
                    f"instance (n={n}, seed={seed}, {target.value}) produced "
                    f"{verdict.value.value}, expected {expected.value}"
                )
            counts = {
                PathKind.RANGE_TRUE: verdict.cost_true_path,
                PathKind.KERNEL_FALSE: verdict.cost_false_path,
                PathKind.GAP_BOTH: verdict.cost_gap_path,
            }[path]
            samples.append(CostSample(n, path, counts))
    return samples


def samples_to_csv(samples: list[CostSample]) -> str:
    lines = [CSV_HEADER]
    for s in samples:
        c = s.counts
        lines.append(
            f"{s.n},{s.path.value},{c.mul},{c.div},{c.add_sub},{c.cmp},{c.total}"
        )
    return "\n".join(lines) + "\n"


def _loglog_fit(ns: list[float], values: list[float]) -> GrowthFit:
    """Least-squares line through ``(log n, log value)``, in closed form.

    With ``dx`` and ``dy`` the deviations from the means, the slope is
    ``sum(dx*dy) / sum(dx*dx)`` and the line passes through the means:
    the normal equations of a straight-line fit, solved by hand.
    """
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    dx, dy = xs - xs.mean(), ys - ys.mean()
    slope = dx @ dy / (dx @ dx)
    intercept = ys.mean() - slope * xs.mean()
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    ss_tot = float(dy @ dy)
    if ss_tot <= 1e-14 * max(1.0, float(np.sum(ys * ys))):
        r_squared = 1.0  # constant data: the fit is exact
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return GrowthFit(float(slope), float(intercept), r_squared)


def _path_fit(samples: list[CostSample], path: PathKind, cost) -> GrowthFit:
    """Log-log fit of ``cost(sample)`` against n over ``path``'s samples."""
    picked = [s for s in samples if s.path is path]
    dims = len({s.n for s in picked})
    if dims < 4:
        raise InsufficientSamples(
            f"need at least 4 distinct dimensions for {path.value}, got {dims}"
        )
    return _loglog_fit([s.n for s in picked], [cost(s) for s in picked])


def fit_growth(samples: list[CostSample], path: PathKind) -> GrowthFit:
    """Log-log least-squares slope of total operations against n."""
    return _path_fit(samples, path, lambda s: s.counts.total)


def _check_bounds(t1: float, tinf: float, processors: int) -> None:
    if not (math.isfinite(t1) and math.isfinite(tinf)):
        raise InvalidBounds(f"work and span must be finite, got {t1} and {tinf}")
    if tinf > t1:
        raise InvalidBounds(f"span {tinf} exceeds work {t1}")
    if tinf < 1 or t1 < 1:
        raise InvalidBounds("work and span must be at least 1")
    if processors < 1:
        raise InvalidBounds("processor count must be positive")


def classical_cost(t1: float, tinf: float, p: int) -> CostProfile:
    """Greedy-schedule classical profile: T_p = max(T1/p, Tinf)."""
    _check_bounds(t1, tinf, p)
    t_p = max(t1 / p, tinf)
    return CostProfile(t1, tinf, p, t_p, ModelKind.CLASSICAL_PRAM)


def quantum_cost(t1: float, tinf: float, q: int, eq_: float) -> CostProfile:
    """Quantum profile with requested per-processor efficiency ``eq_``.

    ``X_q = T1/(q*eq_)`` unless that undercuts the span, in which case
    the time is clamped to the span and the achieved efficiency (read
    off the returned profile) drops below the request.
    """
    _check_bounds(t1, tinf, q)
    if not (math.isfinite(eq_) and eq_ > 0):
        raise InvalidBounds(
            f"quantum efficiency must be finite and positive, got {eq_}"
        )
    x_q = t1 / (q * eq_)
    clamped = x_q < tinf
    if clamped:
        x_q = tinf
    return CostProfile(t1, tinf, q, x_q, ModelKind.QUANTUM_QPRAM, clamped)


def _span_formula(sample: CostSample) -> float:
    """Span of each verdict path, as a formula in n.

    The range check is a chain of dependent comparisons, so its span is
    its own work.  The elimination runs n-2 sequential steps whose
    internal operations parallelise freely, plus the final condition:
    span n-1.  The gap path runs both in sequence (range part bounded
    by its full 3(n-1) chain).
    """
    n = sample.n
    if sample.path is PathKind.RANGE_TRUE:
        return float(sample.counts.total)
    if sample.path is PathKind.KERNEL_FALSE:
        return float(n - 1)
    return float(3 * (n - 1) + (n - 1))


def _model_cost(sample: CostSample, model: ModelKind, eq_: float | None) -> float:
    t1 = float(sample.counts.total)
    if model is ModelKind.SERIAL:
        return t1
    tinf = min(_span_formula(sample), t1)
    if model is ModelKind.CLASSICAL_PRAM:
        p = max(1, round(t1 / tinf))
        return classical_cost(t1, tinf, p).cost
    # Quantum: one processor bank; eq_=None means "as efficient as the
    # step structure allows", i.e. the running time reaches the span.
    requested = t1 / tinf if eq_ is None else eq_
    return quantum_cost(t1, tinf, 1, requested).cost


@dataclass(frozen=True)
class Conjecture1Report:
    model: ModelKind
    eq_: float | None
    slopes: dict[PathKind, float]
    r_squared: dict[PathKind, float]
    band: float
    verdict: str  # "satisfied" | "violated"

    def as_dict(self) -> dict:
        return {
            "model": self.model.value,
            "eq": self.eq_,
            "slopes": {p.value: s for p, s in self.slopes.items()},
            "r_squared": {p.value: r for p, r in self.r_squared.items()},
            "band": self.band,
            "verdict": self.verdict,
        }


def conjecture1_report(
    samples: list[CostSample],
    model: ModelKind,
    eq_: float | None = None,
) -> Conjecture1Report:
    """Equal-growth verdict for the per-path costs under a machine model.

    Satisfied iff the fitted log-log slopes of all three paths agree
    pairwise within ``DEFAULT_SLOPE_BAND``.
    """
    slopes: dict[PathKind, float] = {}
    r2: dict[PathKind, float] = {}
    for path in PathKind:
        fit = _path_fit(samples, path, lambda s: _model_cost(s, model, eq_))
        slopes[path] = fit.slope
        r2[path] = fit.r_squared
    spread = max(slopes.values()) - min(slopes.values())
    verdict = "satisfied" if spread <= DEFAULT_SLOPE_BAND else "violated"
    return Conjecture1Report(model, eq_, slopes, r2, DEFAULT_SLOPE_BAND, verdict)


def doubling_grid(min_n: int, max_n: int) -> list[int]:
    """Dimensions min_n, 2*min_n, ... capped at max_n."""
    if min_n < 3 or max_n < min_n:
        raise InvalidBounds(
            f"need 3 <= min_n <= max_n, got min_n={min_n}, max_n={max_n}"
        )
    grid = []
    n = min_n
    while n <= max_n:
        grid.append(n)
        n *= 2
    return grid
