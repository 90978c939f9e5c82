"""Benchmark sampling, growth fitting, and the work/span cost algebra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from propval.costmodel import (
    CostSample,
    InsufficientSamples,
    InvalidBounds,
    ModelKind,
    PathKind,
    benchmark_paths,
    classical_cost,
    conjecture1_report,
    doubling_grid,
    fit_growth,
    quantum_cost,
    samples_to_csv,
)
from propval.costmodel import _loglog_fit
from propval import linalg
from propval.fixtures import TargetKind, random_instance
from propval.numerics import OpCounter
from propval.valuation import valuate


def by_path(samples, path):
    return [s for s in samples if s.path is path]


def synthetic_samples(counts_for_n):
    return [
        CostSample(n, PathKind.RANGE_TRUE, OpCounter(mul=counts_for_n(n)))
        for n in (8, 16, 32, 64, 128)
    ]


# -------------------------------------------------------------- sampling


@pytest.mark.parametrize("seed", [0, 23])
def test_benchmark_paths_draws_one_projector_per_dimension(seed, monkeypatch):
    grid = [3, 8, 40]
    built = []
    post_init = linalg.Projector.__post_init__
    monkeypatch.setattr(
        linalg.Projector, "__post_init__", lambda p: built.append(p) or post_init(p)
    )
    samples = benchmark_paths(grid, seed)
    assert [p.dim for p in built] == grid
    monkeypatch.undo()
    targets = {
        PathKind.RANGE_TRUE: (TargetKind.IN_RANGE, "cost_true_path"),
        PathKind.KERNEL_FALSE: (TargetKind.IN_KERNEL, "cost_false_path"),
        PathKind.GAP_BOTH: (TargetKind.GENERIC, "cost_gap_path"),
    }
    expected = []
    for n in grid:
        for path, (target, cost) in targets.items():
            projector, state = random_instance(n, seed, target)  # fresh per path
            counts = getattr(valuate(projector, state), cost)
            expected.append(CostSample(n, path, counts))
    assert samples == expected


def test_benchmark_counts_for_n6_match_the_contracts():
    samples = {s.path: s for s in benchmark_paths([6], seed=12)}
    kernel = samples[PathKind.KERNEL_FALSE].counts
    assert kernel.div == 6 * 5 // 2 - 1 == 14
    assert kernel.mul == 6 * 5 * 11 // 6 - 1 == 54
    assert kernel.add_sub == kernel.mul
    rng = samples[PathKind.RANGE_TRUE].counts
    assert rng.mul == 2 * (6 - 1) == 10
    assert rng.cmp == 5
    gap = samples[PathKind.GAP_BOTH].counts
    assert gap.total > kernel.total  # both systems ran


def test_benchmark_smallest_dimension_has_work_on_every_path():
    for sample in benchmark_paths([3], seed=12):
        assert sample.counts.total > 0


def test_benchmark_rejects_tiny_dimensions():
    with pytest.raises(InvalidBounds):
        benchmark_paths([2], seed=1)


def test_benchmark_is_deterministic_and_ordered():
    a = benchmark_paths([3, 5, 8], seed=77)
    b = benchmark_paths([3, 5, 8], seed=77)
    assert a == b
    assert [s.n for s in a] == [3, 3, 3, 5, 5, 5, 8, 8, 8]


def test_benchmark_extracts_each_basis_once_per_dimension(monkeypatch):
    calls = []
    original = linalg._row_echelon

    def counted(w, ncols, threshold, most=None, start=0):
        calls.append(w.shape[1])
        return original(w, ncols, threshold, most, start)

    monkeypatch.setattr(linalg, "_row_echelon", counted)
    benchmark_paths([3, 4, 5], seed=11)
    assert calls == [3, 3, 4, 4, 5, 5]  # per dimension: P's factor, then I - P's


def test_csv_schema():
    samples = benchmark_paths([3, 4], seed=5)
    text = samples_to_csv(samples)
    lines = text.strip().split("\n")
    assert lines[0] == "n,path,mul,div,add_sub,cmp,total"
    assert len(lines) == 1 + len(samples)
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "range_true"
    assert int(first[-1]) == sum(int(x) for x in first[2:-1])


# --------------------------------------------------------------- fitting


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(3, 4096), st.floats(1.0, 1e12)),
        min_size=2,
        max_size=12,
        unique_by=lambda point: point[0],
    )
)
@example(  # the default bench's kernel_false totals
    points=[
        (8, 305), (16, 2597), (32, 21325), (64, 172701), (128, 1389885), (256, 11151997)
    ]
)
def test_the_closed_form_fit_agrees_with_polyfit(points):
    ns, values = zip(*points)
    fit = _loglog_fit(list(ns), list(values))
    slope, intercept = np.polyfit(np.log(ns), np.log(values), 1)
    assert abs(fit.slope - slope) <= 1e-12 * max(1.0, abs(slope))
    assert abs(fit.intercept - intercept) <= 1e-12 * max(1.0, abs(intercept))


def test_fit_growth_recovers_polynomial_degrees():
    linear = synthetic_samples(lambda n: n)
    cubic = synthetic_samples(lambda n: n**3)
    flat = synthetic_samples(lambda n: 7)
    assert abs(fit_growth(linear, PathKind.RANGE_TRUE).slope - 1) < 1e-9
    assert abs(fit_growth(cubic, PathKind.RANGE_TRUE).slope - 3) < 1e-9
    flat_fit = fit_growth(flat, PathKind.RANGE_TRUE)
    assert abs(flat_fit.slope) < 1e-9
    assert flat_fit.r_squared == 1.0


def test_fit_growth_needs_four_distinct_dimensions():
    samples = benchmark_paths([3, 4, 5], seed=2)
    with pytest.raises(InsufficientSamples):
        fit_growth(samples, PathKind.RANGE_TRUE)


def test_measured_slopes_on_a_small_grid():
    samples = benchmark_paths([8, 16, 32, 64], seed=6)
    assert 0.8 <= fit_growth(samples, PathKind.RANGE_TRUE).slope <= 1.2
    assert 2.7 <= fit_growth(samples, PathKind.KERNEL_FALSE).slope <= 3.3
    assert 2.7 <= fit_growth(samples, PathKind.GAP_BOTH).slope <= 3.3


# ----------------------------------------------------------- cost algebra


def test_serial_execution_profile():
    profile = classical_cost(100, 1, 1)
    assert profile.time == 100
    assert profile.efficiency == 1.0
    assert profile.cost == 100


def test_span_bound_regime():
    profile = classical_cost(100, 10, 100)
    assert profile.time == 10
    assert abs(profile.efficiency - 0.1) < 1e-12
    assert profile.cost == 1000


def test_matrix_step_scaling_model():
    # work c*n^2 with constant span: full parallelism keeps cost at c*n^2
    for n in (4, 16, 64):
        work = 3 * n * n
        profile = classical_cost(work, 3, n * n)
        assert profile.cost == work
        assert profile.efficiency == 1.0


def test_classical_rejects_inverted_bounds():
    with pytest.raises(InvalidBounds):
        classical_cost(10, 20, 4)
    with pytest.raises(InvalidBounds):
        classical_cost(10, 5, 0)


def test_quantum_unit_efficiency_matches_classical():
    classical = classical_cost(120, 4, 8)
    quantum = quantum_cost(120, 4, 8, 1.0)
    assert quantum.time == classical.time
    assert quantum.cost == classical.cost


def test_quantum_feasible_request():
    profile = quantum_cost(100, 1, 10, 2.0)
    assert profile.time == 5
    assert profile.cost == 50
    assert not profile.clamped
    assert profile.efficiency == 2.0


def test_quantum_infeasible_request_is_clamped():
    profile = quantum_cost(100, 50, 10, 2.0)
    assert profile.clamped
    assert profile.time == 50
    assert abs(profile.efficiency - 0.2) < 1e-12
    assert profile.cost == 500


def test_quantum_rejects_nonpositive_efficiency():
    with pytest.raises(InvalidBounds):
        quantum_cost(10, 1, 2, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    t1=st.floats(min_value=1, max_value=1e9),
    span_frac=st.floats(min_value=0.0, max_value=1.0),
    p=st.integers(min_value=1, max_value=4096),
)
def test_classical_laws_hold(t1, span_frac, p):
    tinf = 1 + (t1 - 1) * span_frac
    profile = classical_cost(t1, tinf, p)
    assert profile.time >= t1 / p - 1e-9 * t1  # work law
    assert profile.time >= tinf  # span law
    assert profile.efficiency <= 1 + 1e-12
    assert profile.cost >= t1 - 1e-6 * t1  # cost is at least the work


@settings(max_examples=300, deadline=None)
@given(
    t1=st.floats(min_value=1, max_value=1e9),
    span_frac=st.floats(min_value=0.0, max_value=1.0),
    q_frac=st.floats(min_value=0.0, max_value=1.0),
    eq_=st.floats(min_value=1.0, max_value=16.0),
)
def test_quantum_chain_holds_for_feasible_processor_counts(
    t1, span_frac, q_frac, eq_
):
    tinf = 1 + (t1 - 1) * span_frac
    parallelism = t1 / tinf
    q = max(1, int(q_frac * math.floor(parallelism)))
    profile = quantum_cost(t1, tinf, q, eq_)
    assert profile.time >= tinf  # span law survives the clamp
    slack = 1e-9 * t1
    assert t1 / tinf >= t1 / profile.time - slack
    assert t1 / profile.time >= q - 1e-9 * q
    assert profile.cost <= t1 + slack


def test_classical_cost_monotone_beyond_parallelism():
    t1, tinf = 1000.0, 10.0
    parallelism = int(t1 / tinf)
    costs = [classical_cost(t1, tinf, p).cost for p in range(parallelism, 500, 7)]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


# ------------------------------------------------------ conjecture report


@pytest.fixture(scope="module")
def small_grid_samples():
    return benchmark_paths([8, 16, 32, 64], seed=3)


def test_conjecture1_verdicts_per_model(small_grid_samples):
    serial = conjecture1_report(small_grid_samples, ModelKind.SERIAL)
    classical = conjecture1_report(small_grid_samples, ModelKind.CLASSICAL_PRAM)
    quantum = conjecture1_report(small_grid_samples, ModelKind.QUANTUM_QPRAM)
    assert serial.verdict == "violated"
    assert classical.verdict == "violated"
    assert quantum.verdict == "satisfied"
    assert serial.slopes[PathKind.KERNEL_FALSE] > 2.5
    assert quantum.slopes[PathKind.KERNEL_FALSE] < 1.5


def test_conjecture1_quantum_without_advantage_stays_violated(small_grid_samples):
    # unit efficiency cannot beat the serial asymmetry
    report = conjecture1_report(small_grid_samples, ModelKind.QUANTUM_QPRAM, eq_=1.0)
    assert report.verdict == "violated"


def test_conjecture1_requires_enough_samples():
    samples = benchmark_paths([8, 16], seed=3)
    with pytest.raises(InsufficientSamples):
        conjecture1_report(samples, ModelKind.SERIAL)


def test_conjecture1_report_serialisation(small_grid_samples):
    report = conjecture1_report(small_grid_samples, ModelKind.SERIAL)
    d = report.as_dict()
    assert d["model"] == "serial"
    assert set(d["slopes"]) == {"range_true", "kernel_false", "gap_both"}
    assert d["verdict"] in {"satisfied", "violated"}


def test_doubling_grid():
    assert doubling_grid(8, 256) == [8, 16, 32, 64, 128, 256]
    assert doubling_grid(3, 3) == [3]
    with pytest.raises(InvalidBounds):
        doubling_grid(2, 8)
    with pytest.raises(InvalidBounds):
        doubling_grid(16, 8)


def test_growth_fit_r_squared_close_to_one_on_measured_counts(small_grid_samples):
    for path in PathKind:
        assert fit_growth(small_grid_samples, path).r_squared > 0.99
