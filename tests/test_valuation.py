"""Truth assignment, the gap-collapse variants, and lattice semantics."""

import math
import re

import numpy as np
import pytest

from propval import linalg, membership, valuation
from propval.fixtures import TargetKind, qubit_fixture, random_instance, spin52_fixture
from propval.linalg import (
    BasisKind,
    DimensionMismatch,
    NonFiniteEntry,
    NotUnitNorm,
    StateVector,
    decompose,
    kernel_basis,
    matrix_rank,
    projector_from_state,
    range_basis,
    validate_projector,
)
from propval.membership import (
    kernel_membership_iterative,
    kernel_membership_matrix,
    membership_of,
    range_membership,
    residual_oracle,
    subspace_membership,
)
from propval.numerics import OpCounter
from propval.valuation import (
    CommutingOperators,
    PhiNotInRange,
    Subspace,
    TruthValue,
    demo_nondistributivity,
    join,
    meet,
    span_equal,
    valuate,
    valuate_ql,
)

S2 = 1 / math.sqrt(2)


def random_subspace(rng, n, k):
    a = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    q, _ = np.linalg.qr(a)
    return Subspace(q[:, :k])


def z_up_projector(n=2):
    m = np.zeros((n, n))
    m[0, 0] = 1.0
    return validate_projector(m)


# -------------------------------------------------------------- valuate


def test_qubit_fixture_verdicts():
    fx = qubit_fixture()
    values = {
        key: valuate(fx.projector, state).value for key, state in fx.states.items()
    }
    assert values == fx.expected


def test_spin52_state_is_false_with_witness():
    fx = spin52_fixture()
    verdict = valuate(fx.projector, fx.states["psi"])
    assert verdict.value is TruthValue.FALSE
    assert np.allclose(verdict.witness, fx.expected_witness["psi"], atol=1e-9)
    assert verdict.cost_gap_path is None


def test_gap_cost_is_the_sum_of_both_paths():
    proj, psi = random_instance(9, seed=21, target=TargetKind.GENERIC)
    verdict = valuate(proj, psi)
    assert verdict.value is TruthValue.GAP
    assert verdict.cost_gap_path == verdict.cost_true_path + verdict.cost_false_path
    assert verdict.witness is None


def test_true_verdict_skips_the_kernel_system():
    proj, psi = random_instance(9, seed=21, target=TargetKind.IN_RANGE)
    verdict = valuate(proj, psi)
    assert verdict.value is TruthValue.TRUE
    assert verdict.cost_false_path.total == 0
    assert verdict.cost_true_path.mul == 2 * 8


def test_valuate_rejects_bad_states():
    fx = qubit_fixture()
    with pytest.raises(NotUnitNorm):
        valuate(fx.projector, StateVector([2.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        valuate(fx.projector, StateVector([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_non_finite_states_name_the_non_finite_entry(bad):
    """A NaN or infinite component makes the norm NaN or infinite too;
    the error names the entry, not the norm."""
    fx = qubit_fixture()
    psi = StateVector([bad, 0.0])
    for decide in (
        lambda: valuate(fx.projector, psi),
        lambda: valuate_ql(fx.projector, psi),
        lambda: valuate_ql(fx.projector, psi, gap_to_true=True),
        lambda: projector_from_state(psi),
    ):
        with pytest.raises(NonFiniteEntry):
            decide()


def test_valuate_trivial_projectors():
    psi = StateVector([0.6, 0.8])
    assert valuate(validate_projector(np.eye(2)), psi).value is TruthValue.TRUE
    assert valuate(validate_projector(np.zeros((2, 2))), psi).value is TruthValue.FALSE


def test_valuate_general_rank_projector():
    m = np.diag([1.0, 1.0, 0.0])
    p = validate_projector(m)
    third = StateVector([0.0, 0.0, 1.0])
    plane = StateVector([S2, S2, 0.0])
    tilted = StateVector([S2, 0.0, S2])
    assert valuate(p, plane).value is TruthValue.TRUE
    assert valuate(p, third).value is TruthValue.FALSE
    assert valuate(p, tilted).value is TruthValue.GAP


# ------------------------------------------------- degenerate projectors

NO_OPS = OpCounter()
FULL_SPACE_OPS = OpCounter(mul=20, div=6, add_sub=20)  # n = 4, k = 4 unknowns
E0 = np.eye(4)[0]
V = np.array([1.0, 1j, -1.0, 0.5]) / math.sqrt(3.25)


def hermitian_noise(scale):
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * (h + h.conj().T)


def assert_verdict(got, value, true, false, gap, witness):
    assert (got.value, got.cost_true_path, got.cost_false_path) == (value, true, false)
    assert got.cost_gap_path == gap
    if witness is None:
        assert got.witness is None
    else:
        assert got.witness == pytest.approx(list(witness), abs=1e-11)


@pytest.mark.parametrize("state", [E0, V], ids=["e0", "v"])
def test_the_zero_projector_verdicts(state):
    p, psi = validate_projector(np.zeros((4, 4))), StateVector(state)
    assert p.rank == 0
    false = TruthValue.FALSE
    assert_verdict(valuate(p, psi), false, NO_OPS, FULL_SPACE_OPS, None, state)
    assert_verdict(valuate_ql(p, psi), false, NO_OPS, NO_OPS, None, None)
    assert_verdict(
        valuate_ql(p, psi, gap_to_true=True), false, NO_OPS, FULL_SPACE_OPS, None, state
    )


@pytest.mark.parametrize("noise", [0.0, 1e-12])
@pytest.mark.parametrize("state", [E0, V], ids=["e0", "v"])
def test_the_identity_and_near_identity_verdicts(state, noise):
    p = validate_projector(np.eye(4) + hermitian_noise(noise))
    psi = StateVector(state)
    assert p.rank == 4
    true = TruthValue.TRUE
    assert_verdict(valuate(p, psi), true, FULL_SPACE_OPS, NO_OPS, None, state)
    assert_verdict(valuate_ql(p, psi), true, FULL_SPACE_OPS, NO_OPS, None, state)
    # The kernel of a full-rank P is {0}, even where I - P is noise.
    assert_verdict(
        valuate_ql(p, psi, gap_to_true=True), true, NO_OPS, NO_OPS, None, None
    )


def test_the_near_rank_one_verdicts():
    p = validate_projector(np.outer(V, V.conj()) + hermitian_noise(1e-12))
    assert p.rank == 1
    kernel = OpCounter(mul=13, div=5, add_sub=13)  # n = 4, k = 3 unknowns
    e0, v = StateVector(E0), StateVector(V)
    rejected, accepted = OpCounter(mul=2, cmp=1), OpCounter(mul=6, cmp=3)
    gap, false, true = TruthValue.GAP, TruthValue.FALSE, TruthValue.TRUE
    assert_verdict(valuate(p, e0), gap, rejected, kernel, rejected + kernel, None)
    assert_verdict(valuate_ql(p, e0), false, rejected, NO_OPS, None, None)
    assert_verdict(valuate_ql(p, e0, gap_to_true=True), true, NO_OPS, kernel, None, None)
    witness = [math.sqrt(3.25)]  # v[a] / P[a, 0] on the anchor a = 0
    assert_verdict(valuate(p, v), true, accepted, NO_OPS, None, witness)
    assert_verdict(valuate_ql(p, v), true, accepted, NO_OPS, None, witness)
    assert_verdict(valuate_ql(p, v, gap_to_true=True), true, NO_OPS, kernel, None, None)


# ----------------------------------------------------------- valuate_ql


def test_ql_collapses_gap_to_false():
    fx = qubit_fixture()
    values = {
        key: valuate_ql(fx.projector, state).value
        for key, state in fx.states.items()
    }
    assert values == {
        "y_plus": TruthValue.TRUE,
        "y_minus": TruthValue.FALSE,
        "z_up": TruthValue.FALSE,
    }


def test_ql_gap_to_true_variant_decides_on_the_kernel_system():
    fx = qubit_fixture()
    values = {
        key: valuate_ql(fx.projector, state, gap_to_true=True).value
        for key, state in fx.states.items()
    }
    assert values == {
        "y_plus": TruthValue.TRUE,
        "y_minus": TruthValue.FALSE,
        "z_up": TruthValue.TRUE,
    }


def test_ql_true_coincides_with_three_valued_true():
    for i in range(30):
        target = list(TargetKind)[i % 3]
        proj, psi = random_instance(4 + (i % 5), seed=300 + i, target=target)
        three = valuate(proj, psi).value
        two = valuate_ql(proj, psi).value
        assert (two is TruthValue.TRUE) == (three is TruthValue.TRUE)


def test_ql_cost_is_linear_on_both_outcomes():
    n = 40
    for target in (TargetKind.IN_RANGE, TargetKind.GENERIC):
        proj, psi = random_instance(n, seed=77, target=target)
        verdict = valuate_ql(proj, psi)
        assert verdict.cost_true_path.total <= 3 * (n - 1)
        assert verdict.cost_false_path.total == 0


# --------------------------------------------------------------- lattice


def test_meet_of_distinct_lines_is_zero():
    a = Subspace(np.array([[1.0], [1.0j]]) / math.sqrt(2))
    b = Subspace(np.array([[1.0], [0.0]]))
    assert meet(a, b).dim == 0


def test_meet_idempotent_and_identity():
    rng = np.random.default_rng(31)
    s = random_subspace(rng, 5, 2)
    assert span_equal(meet(s, s), s)
    assert span_equal(meet(s, Subspace(np.eye(5))), s)


def test_join_of_range_and_kernel_is_everything():
    rng = np.random.default_rng(32)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = projector_from_state(StateVector(v / np.linalg.norm(v)))
    joined = join(range_basis(p), kernel_basis(p))
    assert joined.dim == 6
    assert span_equal(joined, Subspace(np.eye(6)))


def test_join_with_zero_and_distinct_lines():
    rng = np.random.default_rng(33)
    s = random_subspace(rng, 4, 2)
    assert span_equal(join(s, Subspace(np.zeros((4, 0)))), s)
    a = Subspace(np.array([[1.0], [0.0], [0.0]]))
    b = Subspace(np.array([[0.0], [1.0], [1.0]]) / math.sqrt(2))
    assert join(a, b).dim == 2


def test_meet_and_join_of_empty_operands_are_the_zero_subspace():
    rng = np.random.default_rng(35)
    zero, s = Subspace(np.zeros((4, 0))), random_subspace(rng, 4, 2)
    for a, b in [(zero, zero), (zero, s), (s, zero)]:
        assert meet(a, b).array.shape == (4, 0)
    assert join(zero, zero).array.shape == (4, 0)
    disjoint = Subspace(np.eye(4)[:, 2:])
    assert meet(Subspace(np.eye(4)[:, :2]), disjoint).array.shape == (4, 0)


@pytest.mark.parametrize("n", [30, 40, 60])
def test_meet_and_join_keep_the_dimension_law_on_one_rank_policy(n):
    # GEPP's non-rank-revealing matrix: a near-singular SVD rank and the
    # pivot rank differ by one, so two policies would break the law.
    u = np.eye(n) - np.triu(np.ones((n, n)), 1)
    a, b = Subspace(u[:, : n // 2]), Subspace(u[:, n // 2 :])
    assert meet(a, b).dim + join(a, b).dim == a.dim + b.dim


def test_lattice_laws_on_random_pairs():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        s = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        t = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        assert span_equal(meet(s, t), meet(t, s))
        assert span_equal(join(s, t), join(t, s))
        assert span_equal(meet(s, join(s, t)), s)  # absorption
        assert span_equal(join(s, meet(s, t)), s)


def test_lattice_and_basis_outputs_have_independent_columns():
    # Subspace.dim is the column count; meet, join and the projector bases
    # must hand back independent columns for it to be the dimension.
    rng = np.random.default_rng(38)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        shared = random_subspace(rng, n, int(rng.integers(1, n + 1))).array
        s = Subspace(np.hstack([shared, random_subspace(rng, n, 1).array]))
        t = Subspace(np.hstack([shared, shared[:, :1] * 2j]))  # dependent columns
        zero = Subspace(np.zeros((n, 0)))
        for out in (meet(s, t), join(s, t), meet(t, t), join(t, zero)):
            assert matrix_rank(out.array) == out.dim
        rank = int(rng.integers(1, n))
        q = random_subspace(rng, n, rank).array
        p = validate_projector(q @ q.conj().T)
        for basis in (range_basis(p), kernel_basis(p)):
            assert matrix_rank(basis.array) == basis.dim
        assert (range_basis(p).dim, kernel_basis(p).dim) == (rank, n - rank)


def test_lattice_associativity():
    rng = np.random.default_rng(36)
    for _ in range(15):
        n = int(rng.integers(3, 9))
        s, t, u = (
            random_subspace(rng, n, int(rng.integers(1, n + 1))) for _ in range(3)
        )
        assert span_equal(join(join(s, t), u), join(s, join(t, u)))
        assert span_equal(meet(meet(s, t), u), meet(s, meet(t, u)))


def test_lattice_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        meet(Subspace(np.eye(2)), Subspace(np.eye(3)))


# Every call that compares two sizes, on a size-2 operand and a size-3 one.
_QUBIT = qubit_fixture()
_P2, _Y_PLUS = _QUBIT.projector, _QUBIT.states["y_plus"]
_S3 = StateVector([1.0, 0.0, 0.0])
_B2, _E2, _E3 = np.array([[1.0], [0.0]]), Subspace(np.eye(2)), Subspace(np.eye(3))
SIZE_CHECKS = {
    "valuate": lambda: valuate(_P2, _S3),
    "valuate_ql": lambda: valuate_ql(_P2, _S3),
    "valuate_ql-gap-to-true": lambda: valuate_ql(_P2, _S3, gap_to_true=True),
    "subspace_membership-range": lambda: subspace_membership(
        _P2, BasisKind.RANGE, _S3
    ),
    "subspace_membership-kernel": lambda: subspace_membership(
        _P2, BasisKind.KERNEL, _S3
    ),
    "membership_of": lambda: membership_of(_B2, _S3),
    "range_membership": lambda: range_membership(_B2, _S3),
    "kernel_membership_iterative": lambda: kernel_membership_iterative(_B2, _S3),
    "kernel_membership_matrix": lambda: kernel_membership_matrix(_B2, _S3),
    "residual_oracle": lambda: residual_oracle(_B2, _S3),
    "decompose": lambda: decompose(_S3, _P2),
    "meet": lambda: meet(_E2, _E3),
    "join": lambda: join(_E2, _E3),
    "span_equal": lambda: span_equal(_E2, _E3),
    "demo-projectors": lambda: demo_nondistributivity(
        _P2, z_up_projector(3), _Y_PLUS
    ),
    "demo-state": lambda: demo_nondistributivity(_P2, z_up_projector(), _S3),
}


@pytest.mark.parametrize("call", SIZE_CHECKS.values(), ids=SIZE_CHECKS.keys())
def test_every_size_check_raises_with_both_sizes(call):
    with pytest.raises(DimensionMismatch) as raised:
        call()
    assert {"2", "3"} <= set(re.findall(r"\d+", str(raised.value)))


# ------------------------------------------------- nondistributivity demo


def test_qubit_demo_violates_distributivity():
    fx = qubit_fixture()
    phi = fx.states["y_plus"]
    report = demo_nondistributivity(fx.projector, z_up_projector(), phi)
    assert report.lhs_value is TruthValue.TRUE
    assert report.meet_with_p is TruthValue.FALSE
    assert report.meet_with_complement is TruthValue.FALSE
    assert report.lhs_equals_q
    assert report.rhs_dim == 0
    assert report.violated


def test_spin52_demo_violates_distributivity():
    fx = spin52_fixture()
    column = range_basis(fx.projector).array[:, 0]
    phi = StateVector(column / np.linalg.norm(column))
    report = demo_nondistributivity(fx.projector, z_up_projector(6), phi)
    assert report.violated
    assert report.lhs_value is TruthValue.TRUE


def test_demo_rejects_commuting_operators():
    fx = qubit_fixture()
    with pytest.raises(CommutingOperators):
        demo_nondistributivity(fx.projector, fx.projector, fx.states["y_plus"])


def test_demo_rejects_phi_outside_the_range():
    fx = qubit_fixture()
    with pytest.raises(PhiNotInRange):
        demo_nondistributivity(fx.projector, z_up_projector(), fx.states["z_up"])


def test_the_demo_checks_phi_once(monkeypatch):
    """One demo call makes one finiteness pass over phi, at its entry; the
    range check and the three lattice verdicts decide on its components."""
    fx = qubit_fixture()
    phi = fx.states["y_plus"]
    passes = []
    for module in (linalg, membership, valuation):
        for name in ("_finite_scale", "_require_finite"):
            if hasattr(module, name):

                def spy(a, *args, _check=getattr(module, name), **kwargs):
                    if np.shape(a) == (phi.dim,) and np.array_equal(a, phi.components):
                        passes.append(_check.__name__)
                    return _check(a, *args, **kwargs)

                monkeypatch.setattr(module, name, spy)
    assert demo_nondistributivity(fx.projector, z_up_projector(), phi).violated
    assert passes == ["_finite_scale"]
    with pytest.raises(NonFiniteEntry):
        demo_nondistributivity(
            fx.projector, z_up_projector(), StateVector([np.nan, 1.0])
        )


def test_noncommuting_projector_gives_gap_on_range_states():
    # a state in the range of Q lands in neither subspace of a
    # noncommuting P
    rng = np.random.default_rng(35)
    hits = 0
    for _ in range(20):
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = rng.normal(size=5) + 1j * rng.normal(size=5)
        q = projector_from_state(StateVector(u / np.linalg.norm(u)))
        p = projector_from_state(StateVector(w / np.linalg.norm(w)))
        commutator = np.linalg.norm(q.array @ p.array - p.array @ q.array)
        if commutator <= 1e-6:
            continue
        phi = StateVector(range_basis(q).array[:, 0] / np.linalg.norm(u))
        phi = StateVector(phi.components / np.linalg.norm(phi.components))
        assert valuate(p, phi).value is TruthValue.GAP
        hits += 1
    assert hits >= 18
