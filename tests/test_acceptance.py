"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS/FAIL lines.  Criteria 4 and 7 share one benchmark
over the doubling grid 8..256.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from propval.costmodel import (
    ModelKind,
    PathKind,
    benchmark_paths,
    classical_cost,
    conjecture1_report,
    fit_growth,
    quantum_cost,
)
from propval.fixtures import TargetKind, qubit_fixture, random_instance, spin52_fixture
from propval.linalg import (
    StateVector,
    kernel_basis,
    projector_from_state,
    range_basis,
    validate_projector,
)
from propval.membership import (
    AugmentedMatrix,
    kernel_membership_iterative,
    kernel_membership_matrix,
    range_membership,
    residual_oracle,
)
from propval.numerics import OpCounter
from propval.valuation import (
    Subspace,
    TruthValue,
    demo_nondistributivity,
    join,
    meet,
    span_equal,
    valuate,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


@pytest.fixture(scope="module")
def bench_samples():
    return benchmark_paths([8, 16, 32, 64, 128, 256], seed=20240901)


def test_criterion_1_qubit_regression():
    with criterion(1, "qubit worked example: TRUE / FALSE / GAP in under 1 ms"):
        fx = qubit_fixture()
        expected = {
            "y_plus": TruthValue.TRUE,
            "y_minus": TruthValue.FALSE,
            "z_up": TruthValue.GAP,
        }
        valuate(fx.projector, fx.states["y_plus"])  # warm-up
        started = time.perf_counter()
        values = {
            key: valuate(fx.projector, state).value
            for key, state in fx.states.items()
        }
        elapsed = time.perf_counter() - started
        assert values == expected
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_spin52_regression():
    with criterion(2, "six-level worked example: kernel witness and FALSE verdict"):
        fx = spin52_fixture()
        valuate(fx.projector, fx.states["psi"])  # warm-up
        started = time.perf_counter()
        kernel = kernel_membership_iterative(fx.reference_kernel_system)
        rng = range_membership(
            fx.reference_range_column.reshape(-1, 1), fx.states["psi"]
        )
        verdict = valuate(fx.projector, fx.states["psi"])
        elapsed = time.perf_counter() - started
        assert kernel.member
        expected = np.array(fx.expected_kernel_witness)
        assert np.max(np.abs(np.array(kernel.witness) - expected)) < 1e-9
        assert not rng.member
        assert verdict.value is TruthValue.FALSE
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_3_exact_operation_counts():
    with criterion(3, "exact counts for n in 3..64 (integer equality)"):
        for n in range(3, 65):
            proj, in_range = random_instance(n, seed=11, target=TargetKind.IN_RANGE)
            ctx = OpCounter()
            res = range_membership(range_basis(proj), in_range, ctx)
            assert res.member
            assert ctx.mul == 2 * (n - 1)
            assert ctx.cmp == n - 1

            _, in_kernel = random_instance(n, seed=11, target=TargetKind.IN_KERNEL)
            aug = AugmentedMatrix.from_system(kernel_basis(proj).array, in_kernel)
            ctx = OpCounter()
            kernel_membership_iterative(aug, ctx)
            assert ctx.div == n * (n - 1) // 2 - 1
            assert ctx.mul == n * (n - 1) * (2 * n - 1) // 6 - 1
            assert ctx.add_sub == ctx.mul


def test_criterion_4_growth_rates(bench_samples):
    with criterion(4, "log-log slopes: linear range path, cubic kernel/gap paths"):
        started = time.perf_counter()
        range_fit = fit_growth(bench_samples, PathKind.RANGE_TRUE)
        kernel_fit = fit_growth(bench_samples, PathKind.KERNEL_FALSE)
        gap_fit = fit_growth(bench_samples, PathKind.GAP_BOTH)
        elapsed = time.perf_counter() - started
        assert 0.8 <= range_fit.slope <= 1.2, range_fit
        assert 2.7 <= kernel_fit.slope <= 3.3, kernel_fit
        assert 2.7 <= gap_fit.slope <= 3.3, gap_fit
        for fit in (range_fit, kernel_fit, gap_fit):
            assert fit.r_squared > 0.99
        assert elapsed < 30.0


def test_criterion_5_oracle_equivalence():
    with criterion(5, "1000 seeded instances agree with the residual oracle"):
        started = time.perf_counter()
        targets = list(TargetKind)
        for i in range(1000):
            n = 3 + (i % 30)
            proj, psi = random_instance(n, seed=50_000 + i, target=targets[i % 3])

            rbasis = range_basis(proj)
            r = range_membership(rbasis, psi)
            assert r.member == residual_oracle(rbasis.array, psi).member
            if r.member:
                err = np.linalg.norm(
                    rbasis.array @ np.array(r.witness) - psi.components
                )
                assert err < 1e-7

            aug = AugmentedMatrix.from_system(kernel_basis(proj).array, psi)
            it = kernel_membership_iterative(aug)
            mx = kernel_membership_matrix(aug)
            oracle = residual_oracle(aug.body[:, :-1], psi)
            assert it.member == mx.member == oracle.member
            if it.member:
                assert np.max(np.abs(np.array(it.witness) - np.array(mx.witness))) < 1e-9
                for res in (it, mx):
                    err = np.linalg.norm(
                        aug.body[:, :-1] @ np.array(res.witness) - psi.components
                    )
                    assert err < 1e-7
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0


def test_criterion_6_cost_law_suite():
    with criterion(6, "work/span/efficiency laws on 10^4 random tuples"):
        rng = np.random.default_rng(424242)
        started = time.perf_counter()
        undercut = 0
        for _ in range(10_000):
            t1 = float(rng.uniform(1.0, 1e6))
            tinf = float(rng.uniform(1.0, t1))
            p = int(rng.integers(1, 2048))
            profile = classical_cost(t1, tinf, p)
            assert profile.time >= t1 / p - 1e-9 * t1  # work law
            assert profile.time >= tinf  # span law
            assert profile.efficiency <= 1 + 1e-12

            parallelism = t1 / tinf
            q = int(rng.integers(1, max(2, math.floor(parallelism) + 1)))
            eq_ = float(rng.uniform(1.0, 8.0))
            quantum = quantum_cost(t1, tinf, q, eq_)
            assert quantum.time >= tinf  # span law survives clamping
            slack = 1e-9 * t1
            assert t1 / tinf >= t1 / quantum.time - slack
            assert t1 / quantum.time >= q - 1e-9 * q
            if not quantum.clamped and eq_ > 1:
                assert quantum.cost < t1
                undercut += 1
        elapsed = time.perf_counter() - started
        assert undercut > 0
        assert elapsed < 5.0


def test_criterion_7_conjecture1_verdicts(bench_samples):
    with criterion(7, "equal-cost verdict per machine model"):
        serial = conjecture1_report(bench_samples, ModelKind.SERIAL)
        classical = conjecture1_report(bench_samples, ModelKind.CLASSICAL_PRAM)
        quantum = conjecture1_report(bench_samples, ModelKind.QUANTUM_QPRAM)
        assert serial.verdict == "violated"
        assert classical.verdict == "violated"
        assert quantum.verdict == "satisfied"


def test_criterion_8_nondistributivity_and_lattice_laws():
    with criterion(8, "distributive-law counterexample and lattice properties"):
        fx = qubit_fixture()
        z_up = validate_projector(np.array([[1.0, 0.0], [0.0, 0.0]]))
        report = demo_nondistributivity(fx.projector, z_up, fx.states["y_plus"])
        assert report.lhs_value is TruthValue.TRUE
        assert report.meet_with_p is TruthValue.FALSE
        assert report.meet_with_complement is TruthValue.FALSE
        assert report.violated

        rng = np.random.default_rng(777)
        for _ in range(500):
            n = int(rng.integers(2, 17))
            ka = int(rng.integers(1, n + 1))
            kb = int(rng.integers(1, n + 1))
            a_raw = rng.normal(size=(n, ka)) + 1j * rng.normal(size=(n, ka))
            b_raw = rng.normal(size=(n, kb)) + 1j * rng.normal(size=(n, kb))
            s = Subspace(np.linalg.qr(a_raw)[0][:, :ka])
            t = Subspace(np.linalg.qr(b_raw)[0][:, :kb])
            assert span_equal(meet(s, s), s)  # idempotence
            assert span_equal(meet(s, join(s, t)), s)  # absorption

            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            p = projector_from_state(StateVector(v / np.linalg.norm(v)))
            full = join(
                Subspace(range_basis(p).array), Subspace(kernel_basis(p).array)
            )
            assert full.dim == n
