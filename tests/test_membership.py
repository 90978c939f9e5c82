"""Range and kernel solvability deciders and their counting contracts."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from propval import linalg, membership
from propval.fixtures import TargetKind, random_instance, spin52_fixture
from propval.linalg import (
    BasisKind,
    DimensionMismatch,
    NonFiniteEntry,
    StateVector,
    kernel_basis,
    range_basis,
    subspace_factor,
    validate_projector,
)
from propval.membership import (
    MembershipResult,
    kernel_membership_iterative,
    kernel_membership_matrix,
    membership_of,
    range_membership,
    residual_oracle,
    subspace_membership,
)
from propval.numerics import DEFAULT_TOLERANCE, OpCounter, TolerancePolicy
from propval.valuation import Subspace, TruthValue, valuate, valuate_ql

S2 = 1 / math.sqrt(2)


def divisions_closed_form(n):
    return n * (n - 1) // 2 - 1


def multiplications_closed_form(n):
    return n * (n - 1) * (2 * n - 1) // 6 - 1


def test_closed_forms_match_per_step_sums():
    # oracle: the elimination performs (n-i) divisions and (n-i)^2
    # multiplications at step i = 1..n-2
    for n in range(3, 80):
        assert divisions_closed_form(n) == sum(n - i for i in range(1, n - 1))
        assert multiplications_closed_form(n) == sum(
            (n - i) ** 2 for i in range(1, n - 1)
        )


# ---------------------------------------------------------------- range


def test_range_membership_qubit_plus_state():
    column = np.array([[0.5], [0.5j]])  # first column of the y projector
    psi = StateVector([S2, S2 * 1j])
    res = range_membership(column, psi)
    assert res.member
    assert res.counts.as_dict() == {
        "mul": 2,
        "div": 0,
        "add_sub": 0,
        "cmp": 1,
        "total": 3,
    }


def test_range_membership_spin52_state_is_outside():
    fx = spin52_fixture()
    res = range_membership(
        fx.reference_range_column.reshape(-1, 1), fx.states["psi"]
    )
    assert not res.member
    assert res.witness is None


def test_range_membership_of_column_itself():
    rng = np.random.default_rng(0)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    res = range_membership(v.reshape(-1, 1), StateVector(v))
    assert res.member
    assert abs(res.witness[0] - 1) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 17, 64])
def test_range_membership_member_counts_are_exact(n):
    proj, psi = random_instance(n, seed=42, target=TargetKind.IN_RANGE)
    ctx = OpCounter()
    res = range_membership(range_basis(proj), psi, ctx)
    assert res.member
    assert ctx.mul == 2 * (n - 1)
    assert ctx.cmp == n - 1
    assert ctx.div == 0 and ctx.add_sub == 0


@pytest.mark.parametrize("n", [3, 8, 33])
def test_range_membership_rejection_exits_early(n):
    proj, psi = random_instance(n, seed=42, target=TargetKind.GENERIC)
    ctx = OpCounter()
    res = range_membership(range_basis(proj), psi, ctx)
    assert not res.member
    assert 1 <= ctx.cmp <= n - 1
    assert ctx.mul == 2 * ctx.cmp


def test_range_membership_reanchors_past_zero_entries():
    column = np.array([[0.0], [2.0], [4.0j]])
    psi = StateVector(np.array([0.0, 1.0, 2.0j]) / math.sqrt(5))
    ctx = OpCounter()
    res = range_membership(column, psi, ctx)
    assert res.member
    assert ctx.mul == 4 and ctx.cmp == 2  # contract unchanged by re-anchoring
    assert abs(res.witness[0] - 1 / (2 * math.sqrt(5))) < 1e-12


@pytest.mark.parametrize("width", [1, 2, 3])
def test_a_zero_column_spans_the_zero_vector_on_every_path(width):
    """A stack of zero columns spans {0}, whatever decides it: a state is a
    member iff it is zero, with a witness of zeros.  Each entry is compared
    with zero, up to the first nonzero one; no multiplication is made."""
    columns = np.zeros((4, width))
    deciders = [membership_of, kernel_membership_iterative, kernel_membership_matrix]
    if width == 1:
        deciders.append(range_membership)
    for psi, member, compared in (
        (StateVector(np.zeros(4)), True, 4),
        (StateVector(np.eye(4)[0]), False, 1),
        (StateVector(np.eye(4)[2]), False, 3),
    ):
        for decide in deciders:
            res = decide(columns, psi)
            assert res.member is member
            assert res.witness == ([0j] * width if member else None)
            assert res.counts + res.final_check == OpCounter(cmp=compared)


def test_range_membership_shape_errors():
    with pytest.raises(DimensionMismatch):
        range_membership(np.eye(3), StateVector(np.eye(3)[0]))
    with pytest.raises(DimensionMismatch):
        range_membership(np.ones((3, 1)), StateVector([1.0, 0.0]))


def reference_range_membership(column, psi, ctx, tol=DEFAULT_TOLERANCE):
    """The range check's own anchor search and comparison loop.

    A copy of the loop that decided the one-unknown system before it ran
    on the shared elimination path; kept as the reference the shared path
    must match bit for bit, tallies included.
    """
    column = [complex(z) for z in column]
    b = [complex(z) for z in psi.components]
    threshold = tol.threshold(max(abs(z) for z in column))
    anchor = next((i for i, z in enumerate(column) if abs(z) > threshold), None)
    if anchor is None:  # a zero column spans {0}
        for j in range(len(column)):
            ctx.cmp += 1
            if not tol.equal(b[j], 0):
                return False, None
        return True, [0j]
    for j in range(len(column)):
        if j == anchor:
            continue
        ctx.mul += 2
        ctx.cmp += 1
        if not tol.equal(b[anchor] * column[j], b[j] * column[anchor]):
            return False, None
    return True, [b[anchor] / column[anchor]]


@st.composite
def one_column_systems(draw):
    """Columns with zero, tiny and leading-zero entries; states on, off and
    near the span, some within a few tolerances of the comparison bound."""
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    column = rng.normal(size=n) + 1j * rng.normal(size=n)
    column *= draw(st.sampled_from([1.0, 1e-3, 1e3]))
    leading = draw(st.integers(0, n - 1))
    column[:leading] = draw(st.sampled_from([0.0, 1e-12, 1e-12j]))
    for j in range(leading, n):
        kind = draw(st.sampled_from(["generic"] * 4 + ["zero", "tiny"]))
        if kind == "zero":
            column[j] = 0
        elif kind == "tiny":
            column[j] *= 1e-12
    coefficient = rng.normal() + 1j * rng.normal()
    family = draw(st.sampled_from(["span", "off", "near"]))
    if family == "span":
        rhs = coefficient * column
    elif family == "off":
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    else:
        rhs = coefficient * column
        j = draw(st.integers(0, n - 1))
        margin = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
        rhs[j] += margin * 1e-9 / (np.abs(column).max() or 1.0)
    return column, StateVector(rhs)


@settings(max_examples=400, deadline=None)
@given(system=one_column_systems())
def test_range_check_matches_its_own_loop(system):
    column, psi = system
    assert_range_check_matches_reference(column, psi)


def assert_range_check_matches_reference(column, psi):
    want_ctx = OpCounter()
    want = reference_range_membership(column, psi, want_ctx)
    for decide in (range_membership, membership_of):
        ctx = OpCounter()
        res = decide(column.reshape(-1, 1), psi, ctx)
        assert (res.member, res.witness) == want
        assert res.counts == ctx == want_ctx  # early-exit index included


@st.composite
def long_one_column_systems(draw):
    """n = 65..512, past the first comparison into the vectorised pass: the
    anchor placed late behind entries at or below the anchor threshold,
    more such entries after it, and states on the span, off it, or moved
    off it at one row before or after the anchor."""
    n = draw(st.integers(65, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    column = rng.normal(size=n) + 1j * rng.normal(size=n)
    column *= draw(st.sampled_from([1.0, 1e-3, 1e3]))
    anchor = draw(st.integers(1, n - 2))
    below = draw(st.sampled_from([0.0, 1e-12]))  # times |entry|: under 1e-9 max
    quiet = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    quiet[: anchor + 1] = False
    column[:anchor] *= below
    column[quiet] *= below
    rhs = (rng.normal() + 1j * rng.normal()) * column
    family = draw(st.sampled_from(["span", "off", "before", "after"]))
    if family == "off":
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    elif family != "span":
        rows = (0, anchor) if family == "before" else (anchor + 1, n)
        j = draw(st.integers(rows[0], rows[1] - 1))
        margin = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 1e6]))
        rhs[j] += margin * 1e-9 / abs(column[anchor])
    return column, StateVector(rhs)


@settings(max_examples=300, deadline=None)
@given(system=long_one_column_systems())
def test_long_range_checks_match_the_loop(system):
    assert_range_check_matches_reference(*system)


@pytest.mark.parametrize("family", ["span", "off"])
@pytest.mark.parametrize("state_scale", [1e160, 1e-160, 1e200, 1e-200])
@pytest.mark.parametrize("column_scale", [1e160, 1e-160, 1e200, 1e-200])
def test_range_check_matches_the_loop_at_extreme_scales(
    column_scale, state_scale, family
):
    """Products past the float range become inf or NaN, or underflow,
    and raise no warning.  The first row compared (row 1, after the anchor
    in row 0) is zero on both sides and passes, so every further row runs
    in the vectorised pass, the anchor row's own product included.  Where
    the products overflow on a state off the span, numpy's complex ``*``
    and the loop's ``complex`` one can overflow at different rows, so the
    verdict is the loop's but the early exit is only checked to be one a
    loop could take: two multiplications per comparison, at least one and
    at most ``n - 1`` comparisons."""
    rng = np.random.default_rng(5)
    n = 100
    direction = rng.normal(size=n) + 1j * rng.normal(size=n)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    if family == "span":
        rhs = (rng.normal() + 1j * rng.normal()) * direction
    direction[1] = rhs[1] = 0
    column, psi = column_scale * direction, StateVector(state_scale * rhs)
    if family == "span" or column_scale * state_scale < 1e300:
        assert_range_check_matches_reference(column, psi)
        return
    want_ctx = OpCounter()
    want = reference_range_membership(column, psi, want_ctx)
    for decide in (range_membership, membership_of):
        ctx = OpCounter()
        res = decide(column.reshape(-1, 1), psi, ctx)
        assert (res.member, res.witness) == want
        assert res.counts == ctx
        assert ctx.mul == 2 * ctx.cmp and 1 <= ctx.cmp <= n - 1


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e150, 1e-150])
def test_vectorised_comparisons_decide_as_the_policy(scale):
    """Each row sits a relative margin of 1e-6 inside or outside the bound
    of its own tolerance, far beyond rounding, so the vectorised pass must
    decide it as ``TolerancePolicy.equal`` on ``complex`` values does."""
    rng = np.random.default_rng(11)
    for _ in range(150):
        col = (rng.normal(size=2) + 1j * rng.normal(size=2)) * scale
        rhs = col * (rng.normal() + 1j * rng.normal())
        rhs += (rng.normal(size=2) + 1j * rng.normal(size=2)) * scale * 1e-8
        p, q = complex(col[0]) * complex(rhs[1]), complex(col[1]) * complex(rhs[0])
        gap, size = abs(p - q), max(abs(p), abs(q))
        for margin in (1 + 1e-6, 1 - 1e-6):
            for tol in (
                TolerancePolicy(gap * margin, 0.0),
                TolerancePolicy(0.0, gap / size * margin),
            ):
                fail = membership._first_cross_failure(col, rhs, 0, tol, math.inf)
                assert tol.equal(p, q) is (margin > 1)
                assert (fail is None) is (margin > 1), (col, rhs, tol)


def test_counts_are_this_calls_tally_while_ctx_accumulates():
    proj, psi = random_instance(6, seed=4, target=TargetKind.GENERIC)
    rcols, kcols = range_basis(proj).array, kernel_basis(proj).array
    unit = StateVector(rcols[:, 0] / np.linalg.norm(rcols[:, 0]))
    empty, zero = np.zeros((6, 0)), StateVector(np.zeros(6))
    deciders = [  # (decider, member, charged); psi lies in neither subspace
        (lambda ctx: range_membership(rcols, psi, ctx), False, True),
        (lambda ctx: kernel_membership_iterative(kcols, psi, ctx), False, True),
        (lambda ctx: kernel_membership_matrix(kcols, psi, ctx), False, True),
        (lambda ctx: membership_of(rcols, psi, ctx), False, True),
        (lambda ctx: membership_of(kcols, psi, ctx), False, True),
        (lambda ctx: subspace_membership(proj, BasisKind.RANGE, psi, ctx), False, True),
        (lambda ctx: subspace_membership(proj, BasisKind.KERNEL, psi, ctx), False, True),
        (lambda ctx: subspace_membership(proj, BasisKind.RANGE, unit, ctx), True, True),
        (lambda ctx: membership_of(empty, zero, ctx), True, False),
        (lambda ctx: membership_of(empty, psi, ctx), False, False),
    ]
    assert (kcols.shape[1], rcols.shape[1]) == (5, 1)
    for decide, member, charged in deciders:
        tally = decide(None).counts
        assert (tally.total > 0) is charged
        start = dict(mul=7, div=5, add_sub=3, cmp=2)
        ctx = OpCounter(**start)
        result = decide(ctx)
        assert result.member is member
        assert result.counts == tally
        assert ctx == OpCounter(**start) + tally


# ---------------------------------------------------------------- kernel


def test_kernel_iterative_spin52_reference_witness():
    fx = spin52_fixture()
    res = kernel_membership_iterative(fx.reference_kernel_columns, fx.states["psi"])
    assert res.member
    assert np.allclose(res.witness, fx.expected_kernel_witness, atol=1e-12)
    assert res.final_check.as_dict() == {
        "mul": 2,
        "div": 0,
        "add_sub": 0,
        "cmp": 1,
        "total": 3,
    }


def test_kernel_matrix_spin52_gives_the_same_witness():
    fx = spin52_fixture()
    res = kernel_membership_matrix(fx.reference_kernel_columns, fx.states["psi"])
    assert res.member
    assert np.allclose(res.witness, fx.expected_kernel_witness, atol=1e-12)


def test_kernel_membership_of_everything_for_zero_projector():
    # kernel basis of the zero projector is the identity: any state fits
    rng = np.random.default_rng(1)
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    res = kernel_membership_iterative(np.eye(4), StateVector(psi))
    assert res.member
    assert np.allclose(res.witness, psi, atol=1e-12)


def test_kernel_rejects_range_vector():
    proj, psi = random_instance(7, seed=3, target=TargetKind.IN_RANGE)
    cols = kernel_basis(proj).array
    res = kernel_membership_iterative(cols, psi)
    assert not res.member
    oracle = residual_oracle(cols, psi)
    assert not oracle.member


def test_kernel_homogeneous_system_is_consistent():
    rng = np.random.default_rng(2)
    cols = rng.normal(size=(5, 4))
    res = kernel_membership_iterative(cols, StateVector(np.zeros(5)))
    assert res.member
    assert np.allclose(res.witness, 0)


def test_kernel_iterative_counts_match_closed_forms():
    for n in range(3, 65):
        for target in (TargetKind.IN_KERNEL, TargetKind.GENERIC):
            proj, psi = random_instance(n, seed=9, target=target)
            ctx = OpCounter()
            kernel_membership_iterative(kernel_basis(proj).array, psi, ctx)
            assert ctx.div == divisions_closed_form(n), (n, target)
            assert ctx.mul == multiplications_closed_form(n), (n, target)
            assert ctx.add_sub == ctx.mul


def test_matrix_version_counts_per_step_block_sizes():
    for n in range(3, 41):
        proj, psi = random_instance(n, seed=1, target=TargetKind.IN_KERNEL)
        ctx = OpCounter()
        res = kernel_membership_matrix(kernel_basis(proj).array, psi, ctx)
        assert res.member, n
        # oracle: live block at step i spans s = n-i+1 rows and columns
        sizes = [n - i + 1 for i in range(1, n - 1)]
        assert ctx.div == sum(sizes), n
        assert ctx.mul == sum(s * s for s in sizes), n
        assert ctx.add_sub == ctx.mul


@pytest.mark.parametrize("n", [3, 4, 9, 24, 128, 256, 300])
def test_matrix_and_iterative_agree_bitwise(n):
    for seed in range(4 if n < 100 else 1):
        for target in TargetKind:
            proj, psi = random_instance(n, seed, target)
            cols = kernel_basis(proj).array
            a = kernel_membership_iterative(cols, psi)
            b = kernel_membership_matrix(cols, psi)
            assert a.member == b.member == residual_oracle(cols, psi).member
            assert a.row_swaps == b.row_swaps
            if a.member:
                assert a.witness == b.witness  # one loop serves both forms
                residual = np.linalg.norm(cols @ np.array(a.witness) - psi.components)
                assert residual < 1e-7


@st.composite
def degenerate_systems(draw):
    """n x k systems, k up to n+3, with zero and scaled-duplicate columns."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(2, n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    for j in range(k):
        kind = draw(st.sampled_from(["generic", "zero", "duplicate"]))
        if kind == "zero":
            cols[:, j] = 0
        elif kind == "duplicate" and j > 0:
            scale = draw(st.sampled_from([2.0, -0.5j, 3 + 1j]))
            cols[:, j] = scale * cols[:, draw(st.integers(0, j - 1))]
    if draw(st.booleans()):
        rhs = cols @ (rng.normal(size=k) + 1j * rng.normal(size=k))
    else:
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return cols, StateVector(rhs)


@settings(max_examples=300, deadline=None)
@given(system=degenerate_systems())
def test_both_formulations_match_the_oracle_on_any_shape(system):
    cols, psi = system
    it = kernel_membership_iterative(cols, psi)
    mx = kernel_membership_matrix(cols, psi)
    assert it.member == mx.member
    assert it.witness == mx.witness  # one loop serves both forms
    assert it.row_swaps == mx.row_swaps
    assert it.member == residual_oracle(cols, psi).member
    if it.member:
        residual = np.linalg.norm(cols @ np.array(it.witness) - psi.components)
        assert residual < 1e-7


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(0, math.inf)]
)
@pytest.mark.parametrize("where", ["column", "rhs"])
def test_non_finite_systems_are_rejected(bad, where):
    cols = np.eye(3, 2, dtype=complex)
    rhs = np.array([1.0, 0.0, 0.0], dtype=complex)
    if where == "column":
        cols[1, 0] = bad
    else:
        rhs[2] = bad
    psi = StateVector(rhs)
    with pytest.raises(NonFiniteEntry):
        membership_of(cols, psi)
    for one_column in (membership_of, range_membership):  # the range check
        with pytest.raises(NonFiniteEntry):
            one_column(cols[:, :1], psi)
    if where == "rhs":
        with pytest.raises(NonFiniteEntry):
            membership_of(cols[:, :0], psi)  # the empty span
        # The projector deciders check the state themselves: valuate checks
        # it once and decides on its components without these checks.
        p = validate_projector(np.diag([1.0, 1.0, 0.0]))
        for kind in BasisKind:
            with pytest.raises(NonFiniteEntry):
                subspace_membership(p, kind, psi)
            with pytest.raises(DimensionMismatch):
                subspace_membership(p, kind, StateVector(rhs[:2]))
    for decide in (kernel_membership_iterative, kernel_membership_matrix):
        with pytest.raises(NonFiniteEntry):
            decide(cols, psi)
        with pytest.raises(NonFiniteEntry):
            decide(cols[:, :1], psi)


def test_wide_system_uses_every_unknown_column():
    cols = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    psi = StateVector([0.0, 1.0])
    assert membership_of(cols, psi).member
    assert residual_oracle(cols, psi).member


# ---------------------------------------------------------------- oracle


def test_residual_oracle_on_spin52_systems():
    fx = spin52_fixture()
    psi = fx.states["psi"]
    kernel = residual_oracle(fx.reference_kernel_columns, psi)
    assert kernel.member and kernel.residual < 1e-7
    rng = residual_oracle(fx.reference_range_column.reshape(-1, 1), psi)
    assert not rng.member


def test_residual_oracle_identity_system():
    psi = StateVector(np.array([0.6, 0.8j]))
    res = residual_oracle(np.eye(2), psi)
    assert res.member
    assert np.allclose(res.witness, psi.components)
    assert res.counts.total == 0  # the oracle is never counted


# ------------------------------------------------------------- agreement


def test_verdicts_agree_with_oracle_across_instances():
    checked = 0
    for i in range(120):
        n = 3 + (i % 14)
        target = list(TargetKind)[i % 3]
        proj, psi = random_instance(n, seed=1000 + i, target=target)
        rbasis = range_basis(proj)
        r = range_membership(rbasis, psi)
        assert r.member == residual_oracle(rbasis.array, psi).member
        kcols = kernel_basis(proj).array
        k_it = kernel_membership_iterative(kcols, psi)
        k_mx = kernel_membership_matrix(kcols, psi)
        oracle = residual_oracle(kcols, psi)
        assert k_it.member == k_mx.member == oracle.member
        for res in (r, k_it, k_mx):
            if res.member:
                a = rbasis.array if res is r else kcols
                err = np.linalg.norm(a @ np.array(res.witness) - psi.components)
                assert err < 1e-7
        checked += 1
    assert checked == 120


def test_trichotomy_for_rank_one_instances():
    for i in range(60):
        n = 3 + (i % 10)
        target = list(TargetKind)[i % 3]
        proj, psi = random_instance(n, seed=7000 + i, target=target)
        in_range = range_membership(range_basis(proj), psi).member
        in_kernel = kernel_membership_iterative(kernel_basis(proj).array, psi).member
        assert not (in_range and in_kernel)
        expected = {
            TargetKind.IN_RANGE: (True, False),
            TargetKind.IN_KERNEL: (False, True),
            TargetKind.GENERIC: (False, False),
        }[target]
        assert (in_range, in_kernel) == expected


def test_membership_dispatch_by_width():
    psi = StateVector(np.array([0.0, 0.0, 0.0]))
    assert membership_of(np.zeros((3, 0)), psi).member
    unit = StateVector(np.array([1.0, 0.0, 0.0]))
    assert not membership_of(np.zeros((3, 0)), unit).member
    assert membership_of(np.eye(3), unit).member  # full basis via elimination
    assert membership_of(np.eye(3)[:, :1], unit).member  # single column


def test_a_zero_check_whose_relative_bound_overflows_raises_no_warning():
    """On {0} a state is decided entry by entry against zero.  With
    ``rel_eps = 1e300`` and entries of 1e100 the relative bound passes the
    float range: it is inf, as ``TolerancePolicy.equal`` computes it on
    ``complex`` values, and no warning is raised (tier 1 makes a
    RuntimeWarning an error)."""
    tol = TolerancePolicy(1e300, 1e300)
    p = validate_projector(np.zeros((3, 3)), tol)
    assert p.rank == 0
    psi = StateVector(1e100 * np.array([1, 2j, 0]))
    want = all(tol.equal(complex(z), 0) for z in psi.components)
    assert subspace_membership(p, BasisKind.RANGE, psi, tol=tol).member is want


BARE_DECIDERS = {
    "membership_of": membership_of,
    "range_membership": range_membership,
    "kernel-iterative": kernel_membership_iterative,
    "kernel-matrix": kernel_membership_matrix,
}


def malformed_stacks():
    """Every bare decider on every stack it cannot take, against a 3-entry
    state: not 2-d, a row count other than the state's, and no column where
    a system needs one.  ``range_membership`` reads a 1-d column as its one
    column and ``membership_of`` an empty stack as the span {0}; a
    ``Subspace`` is 2-d too."""
    stacks = {
        "1-d": np.zeros(3),
        "0-d": np.array(0.0),
        "3-d": np.zeros((3, 1, 1)),
        "row-mismatch": np.ones((2, 1)),
        "no-columns": np.zeros((3, 0)),
    }
    takes = {("range_membership", "1-d"), ("membership_of", "no-columns")}
    for name, decide in BARE_DECIDERS.items():
        for shape, stack in stacks.items():
            if (name, shape) not in takes:
                yield pytest.param(decide, stack, id=f"{name}-{shape}")
    yield pytest.param(lambda stack, _: Subspace(stack), np.zeros(3), id="Subspace")


@pytest.mark.parametrize("decide, stack", malformed_stacks())
def test_a_malformed_stack_is_rejected(decide, stack):
    with pytest.raises(DimensionMismatch):
        decide(stack, StateVector(np.array([1.0, 0.0, 0.0])))


@pytest.mark.parametrize(
    "decide",
    [
        lambda: validate_projector(np.zeros((0, 0))),
        lambda: membership_of(np.zeros((0, 2)), StateVector(np.zeros(0))),
        lambda: membership_of(np.zeros((0, 0)), StateVector(np.zeros(0))),
        lambda: range_membership(np.zeros((0, 1)), StateVector(np.zeros(0))),
        lambda: kernel_membership_iterative(np.zeros((0, 1)), StateVector(np.zeros(0))),
        lambda: kernel_membership_matrix(np.zeros((0, 2)), StateVector(np.zeros(0))),
    ],
    ids=[
        "projector",
        "column-stack",
        "empty-stack",
        "range-column",
        "bare-iterative",
        "bare-matrix",
    ],
)
def test_a_system_without_rows_is_rejected(decide):
    with pytest.raises(DimensionMismatch, match="at least one row"):
        decide()


def test_the_empty_span_checks_the_state_dimension():
    zero = membership_of(np.zeros((3, 0)), StateVector(np.zeros(3)))
    assert zero.member and zero.counts == OpCounter()
    with pytest.raises(DimensionMismatch):
        membership_of(np.zeros((3, 0)), StateVector(np.zeros(5)))
    with pytest.raises(DimensionMismatch):
        membership_of(Subspace(np.zeros((3, 0))).array, StateVector(np.zeros(4)))


# ------------------------------------------------- factor against the loop


# The numerical contract's constant times the unit roundoff (numerics): two
# roundings of one decision may differ by 16 n u times the magnitudes compared.
CONTRACT_UNIT = 16 * 2.0**-53


@dataclass
class ReferenceDecision(MembershipResult):
    """:func:`reference_eliminate`'s result and how closely to match it.

    ``near_bound`` says some comparison the reference made, up to and
    including the one that decided, sits within the rounding band of its
    bound: ``16 n u`` times the magnitudes it compares.  Another rounding
    of the same system may decide that comparison the other way.
    ``system`` is the columns and right-hand side decided, and
    ``accepted`` the norm of the live residual the check accepts: per
    live row, its bound plus its band over the anchor entry.
    """

    near_bound: bool = False
    system: tuple = ()
    accepted: float = 0.0


def reference_eliminate(columns, psi, ctx, tol, full_block):
    """The kernel decider before it was split into a factor and a solve.

    A copy of the per-state elimination that ran every unknown column
    but the last through ``linalg._row_echelon`` with the state appended,
    then the cross check on the live rows and a row-by-row
    back-substitution; kept as the reference the factored path must
    match: verdict, tallies and interchanges exactly, witness to rounding,
    unless a deciding comparison sits within rounding of its bound.
    """
    elimination = OpCounter()
    n, k = columns.shape
    body = np.column_stack([columns, psi.components])  # the state appended
    work = body.copy()
    threshold = tol.threshold(linalg.max_abs(columns))
    cols, swapped = linalg._row_echelon(work, k - 1, threshold)
    shift = 0 if full_block else 1
    for r, c in enumerate(cols):
        height = n - r - shift
        updated = height * (k + 1 - c - shift)
        elimination.div += height
        elimination.mul += updated
        elimination.add_sub += updated
    ctx += elimination
    fctx = OpCounter()
    live = work[len(cols) :].tolist()
    # the largest magnitude the last unknown's column and the state reach
    col_scale, rhs_scale = (
        max(linalg.max_abs(body[:, j]), linalg.max_abs(work[:, j]))
        for j in (k - 1, k)
    )
    anchor = next((row for row in live if abs(row[k - 1]) > threshold), None)
    if anchor is None:
        pairs = [(row[k], 0.0) for row in live]
        band, divisor = CONTRACT_UNIT * n * rhs_scale, 1.0
    else:
        pairs = [
            (anchor[k - 1] * row[k], row[k - 1] * anchor[k])
            for row in live
            if row is not anchor
        ]
        band, divisor = CONTRACT_UNIT * n * col_scale * rhs_scale, abs(anchor[k - 1])
    member, near_bound, accepted = True, False, 0.0
    for a, b in pairs:
        bound = tol.bound(max(abs(a), abs(b)))
        accepted += ((bound + band) / divisor) ** 2
        if member:
            fctx.mul += 0 if anchor is None else 2
            fctx.cmp += 1
            near_bound |= abs(abs(a - b) - bound) <= band
            member = tol.equal(a, b)
    swaps = sum(p != r for r, p in enumerate(swapped))
    extra = (near_bound, (columns, psi.components), math.sqrt(accepted))
    if not member:
        return ReferenceDecision(False, None, elimination, fctx, swaps, None, *extra)
    x = [0j] * k
    if anchor is not None:
        x[k - 1] = anchor[k] / anchor[k - 1]
    for c, row in reversed(list(zip(cols, work[: len(cols)].tolist()))):
        acc = row[k]
        for c2 in range(c + 1, k):
            if x[c2] != 0:
                acc -= row[c2] * x[c2]
        x[c] = acc / row[c]
    return ReferenceDecision(True, x, elimination, fctx, swaps, None, *extra)


def reference_membership_of(cols, psi, tol=DEFAULT_TOLERANCE):
    """``membership_of``'s dispatch over :func:`reference_eliminate`."""
    result = reference_eliminate(cols, psi, OpCounter(), tol, False)
    if cols.shape[1] == 1:  # the range check reports its cross check as counts
        return replace(result, counts=result.final_check, final_check=OpCounter())
    return result


def assert_meets_the_contract(want, witness):
    """``witness`` solves ``want``'s system to the numerical contract's
    normwise backward error, plus the live residual the check accepts."""
    b, rhs = want.system
    x = np.array(witness)
    residual = np.linalg.norm(b @ x - rhs)
    scale = np.linalg.norm(b, 2) * np.linalg.norm(x) + np.linalg.norm(rhs)
    assert residual <= CONTRACT_UNIT * len(b) * scale + want.accepted


def assert_same_decision(got, want):
    """Verdict, tallies and interchanges exactly, and the witness to
    rounding; where a deciding comparison sits within rounding of its
    bound (``want.near_bound``), either verdict, with each member's
    witness within the numerical contract."""
    assert got.row_swaps == want.row_swaps
    if want.near_bound:
        for result in (got, want):
            if result.member:
                assert_meets_the_contract(want, result.witness)
            else:
                assert result.witness is None
        return
    assert got.member == want.member
    assert got.counts == want.counts
    assert got.final_check == want.final_check
    if want.member:
        w, g = np.array(want.witness), np.array(got.witness)
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
    else:
        assert got.witness is None


def projector_with_state(draw, n_min, last_row_scales):
    """A rank 1..3 projector, n up to 80, and a unit state in its range,
    in its kernel, generic, or a kernel state moved a few tolerances off.

    The range basis's last row is scaled by one of ``last_row_scales``:
    below 1, the largest entry of ``I - P`` sits in its last column,
    which the kernel basis drops.
    """
    n = draw(st.integers(n_min, 80))
    rank = min(draw(st.integers(1, 3)), n - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    raw = normal(n, rank)
    raw[-1] *= draw(st.sampled_from(last_row_scales))
    q, _ = np.linalg.qr(raw)
    m = q @ q.conj().T
    family = draw(st.sampled_from(["range", "kernel", "generic", "near"]))
    v = normal(n)
    if family == "range":
        v = q @ normal(rank)
    elif family in ("kernel", "near"):
        v = v - m @ v
    v /= np.linalg.norm(v)
    if family == "near":
        j = draw(st.integers(0, n - 1))
        v[j] += draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])) * 1e-9
        v /= np.linalg.norm(v)
    return m, StateVector(v)


@st.composite
def projector_systems(draw):
    return projector_with_state(draw, 2, [1.0])


def two_panel_case():
    """n = 80, rank 40, a state in the range: the range unknowns, and the
    kernel's, span two elimination panels."""
    rng = np.random.default_rng(40)
    raw = rng.normal(size=(80, 40)) + 1j * rng.normal(size=(80, 40))
    q, _ = np.linalg.qr(raw)
    v = q @ (rng.normal(size=40) + 1j * rng.normal(size=40))
    return q @ q.conj().T, StateVector(v / np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(case=projector_systems(), columns=st.sampled_from(["basis", "all"]))
@example(case=two_panel_case(), columns="basis")
def test_factored_deciders_match_the_per_state_elimination(case, columns):
    m, psi = case
    p = validate_projector(m)  # fresh: the range factor only
    in_range = subspace_membership(p, BasisKind.RANGE, psi)
    assert_same_decision(in_range, reference_membership_of(range_basis(p).array, psi))
    got = subspace_membership(p, BasisKind.KERNEL, psi)
    basis = kernel_basis(p).array
    assert_same_decision(got, reference_membership_of(basis, psi))
    verdict = valuate(p, psi)
    assert verdict.cost_true_path == in_range.counts
    if verdict.value is TruthValue.TRUE:
        assert verdict.witness == in_range.witness
    else:
        assert verdict.cost_false_path == got.counts
        assert verdict.witness == got.witness
    # bare systems: the kernel basis, or every column of I - P with free unknowns
    cols = basis if columns == "basis" else np.eye(p.dim) - p.array
    for decide, full_block in (
        (kernel_membership_iterative, False),
        (kernel_membership_matrix, True),
    ):
        want = reference_eliminate(
            cols, psi, OpCounter(), DEFAULT_TOLERANCE, full_block
        )
        assert_same_decision(decide(cols, psi), want)


@st.composite
def subspaces_of_width_two_or_more(draw):
    return projector_with_state(draw, 5, [1.0, 0.3, 0.05, 1e-3])


@settings(max_examples=150, deadline=None)
@given(case=subspaces_of_width_two_or_more(), kind=st.sampled_from(BasisKind))
def test_one_pivot_threshold_picks_what_the_basis_columns_pick(case, kind):
    """Factoring P or I - P scales the pivot threshold by its largest
    diagonal magnitude, its maximum entry to rounding; factoring the
    basis columns alone by their own maximum.  Both pick the same pivots
    and interchanges and reach the same verdicts, also when the largest
    entry sits in a column the basis drops."""
    m, psi = case
    p = validate_projector(m)
    fused = subspace_factor(p, kind)
    basis = (range_basis if kind is BasisKind.RANGE else kernel_basis)(p).array
    alone = linalg._factor(basis, DEFAULT_TOLERANCE)
    factored = p.array if kind is BasisKind.RANGE else np.eye(p.dim) - p.array
    scale = np.abs(np.diag(factored)).max()
    if scale > np.abs(basis).max():
        fused_threshold = DEFAULT_TOLERANCE.threshold(scale)
        assert fused_threshold > linalg._echelon(basis.copy(), DEFAULT_TOLERANCE)[2]
    assert fused.positions == alone.positions == tuple(range(fused.unknowns - 1))
    assert np.array_equal(fused.perm, alone.perm)
    count = p.rank if kind is BasisKind.RANGE else p.nullity
    assert fused.unknowns == alone.unknowns == count
    bare = kernel_membership_iterative(basis, psi)
    assert subspace_membership(p, kind, psi).member == bare.member


# ------------------------------------------ blocked solves against the loops


def columnwise_forward(f, b):
    """Reference: ``b`` through the factor's steps one column at a time.

    The per-column loop ``linalg._forward`` ran before it was blocked by
    panels: the interchanges, then ``y[r+1:] -= L[r+1:, r] * y[r]`` per
    step; kept as the reference the blocked forward must match.
    """
    y = np.array(b, dtype=complex)[f.perm]
    for r in range(f.lu.shape[1]):
        y[r + 1 :] -= f.lu[r + 1 :, r] * y[r]
    return y


def columnwise_back_substitute(f, y, x_last):
    """Reference: U solved upward one column at a time, as
    ``membership._back_substitute`` did before it was blocked."""
    x = [0j] * f.unknowns
    x[-1] = x_last
    t = len(f.positions)
    y = y[:t] - f.last[:t] * x_last
    for i in range(t - 1, -1, -1):
        xi = complex(y[i]) / complex(f.lu[i, i])
        x[f.positions[i]] = xi
        y[:i] -= f.lu[:i, i] * xi
    return x


def columnwise_solve(f, b, full_block):
    """``membership._solve`` over the per-column loops."""
    div, mul = f.charges[full_block]
    y = columnwise_forward(f, b)
    t = len(f.positions)
    member, x_last, check = membership._cross_consistency(
        f, y[t:], DEFAULT_TOLERANCE, math.inf
    )
    witness = columnwise_back_substitute(f, y, x_last) if member else None
    elimination = OpCounter(mul=mul, div=div, add_sub=mul)
    return MembershipResult(member, witness, elimination, check, f.row_swaps)


@st.composite
def spans_over_panels(draw):
    """Independent columns, up to four panels and one more, with zero and
    scaled-duplicate columns planted among them, so that the factor skips
    pivot columns; a leading zero column gives ``t = 0``.  The state is in
    the span, moved off it at one row by a quarter or four tolerances (a
    row the elimination leaves as it is would put a move of one tolerance
    within rounding of the bound), or generic."""
    panel = linalg._PANEL
    rank = draw(st.one_of(st.integers(1, 3), st.integers(panel - 1, 4 * panel + 1)))
    n = rank + draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    columns = list(normal(n, rank).T)
    for _ in range(draw(st.integers(0, 4))):
        j = draw(st.integers(0, len(columns)))
        scale = draw(st.sampled_from([0.0, 2.0, -0.5j, 1e-3]))
        columns.insert(j, scale * columns[max(j - 1, 0)])
    if len(columns) == 1 or rank == 1 and draw(st.booleans()):
        columns.insert(0, np.zeros(n))  # no pivot before the last unknown
    b = np.stack(columns, axis=1)
    family = draw(st.sampled_from(["span", "near", "generic"]))
    v = b @ normal(b.shape[1]) if family != "generic" else normal(n)
    v /= np.linalg.norm(v)
    if family == "near":
        v[draw(st.integers(0, n - 1))] += draw(st.sampled_from([0.25, 4.0])) * 1e-9
        v /= np.linalg.norm(v)
    return b, StateVector(v), family


@settings(max_examples=150, deadline=None)
@given(case=spans_over_panels())
def test_blocked_solves_match_the_columnwise_loops(case):
    """Verdict, tallies and interchanges exactly; a witness of a state in
    the span within the numerical contract's normwise backward error."""
    b, psi, family = case
    f = linalg._factor(b, DEFAULT_TOLERANCE)
    y = psi.components
    got = membership_of(b, psi)
    want = columnwise_solve(f, y, full_block=False)
    assert (got.member, got.counts, got.final_check, got.row_swaps) == (
        want.member, want.counts, want.final_check, want.row_swaps
    )
    matrix = kernel_membership_matrix(b, psi)
    block = columnwise_solve(f, y, full_block=True)
    assert (matrix.member, matrix.counts, matrix.final_check) == (
        block.member, block.counts, block.final_check
    )
    if family == "span":
        assert got.member
        x = np.array(got.witness)
        residual = np.linalg.norm(b @ x - y)
        scale = np.linalg.norm(b, 2) * np.linalg.norm(x) + np.linalg.norm(y)
        assert residual <= 16 * len(b) * 2.0**-53 * scale


def test_blocked_forward_matches_the_columnwise_loop_on_every_width():
    """Factors of 0 to 4 panels of eliminated unknowns and one more: the
    blocked forward is the per-column loop's to rounding."""
    rng = np.random.default_rng(18)
    for t in (0, 1, 2, 31, 32, 33, 64, 65, 127, 128, 129):
        b = rng.normal(size=(t + 3, t + 1)) + 1j * rng.normal(size=(t + 3, t + 1))
        f = linalg._factor(b, DEFAULT_TOLERANCE)
        assert len(f.positions) == t
        v = rng.normal(size=t + 3) + 1j * rng.normal(size=t + 3)
        want = columnwise_forward(f, v)
        got = linalg._forward(f.lu, f.perm, v)
        assert np.abs(got - want).max() <= 64 * len(v) * 2.0**-53 * np.abs(want).max()


# ------------------------------------------------- one factor, many states


@st.composite
def states_for_one_subspace(draw, m, kind):
    """24 states for the range or kernel of ``m``: members, members moved
    a few tolerances off at one row, generic states, and members scaled
    by 1e-12 to 1e12."""
    n = len(m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def normal():
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    states = []
    for _ in range(24):
        v = normal()
        v = m @ v if kind is BasisKind.RANGE else v - m @ v
        v /= np.linalg.norm(v)
        family = draw(st.sampled_from(["member", "near", "generic", "scaled"]))
        if family == "near":
            margin = draw(st.sampled_from([0.25, 1.0, 4.0]))
            v[draw(st.integers(0, n - 1))] += margin * 1e-9
        elif family == "generic":
            v = normal() / math.sqrt(2 * n)
        elif family == "scaled":
            v *= draw(st.sampled_from([1e-12, 1e-6, 1e6, 1e12]))
        states.append(StateVector(v))
    return states


@pytest.mark.parametrize("kind", BasisKind)
@pytest.mark.parametrize("shape", ["rank-1", "rank-3", "nullity-1"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_one_memoised_factor_decides_many_states(kind, shape, data):
    """Every state decided on one shared factor gets the per-row loops'
    verdict, tallies and interchanges, and the fresh factor's witness bits."""
    n = data.draw(st.integers(4, 40))
    rank = {"rank-1": 1, "rank-3": 3, "nullity-1": n - 1}[shape]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    raw[0] *= data.draw(st.sampled_from([1.0, 1e-6]))  # tiny: thresholds matter
    q, _ = np.linalg.qr(raw)
    m = q @ q.conj().T
    p = validate_projector(m)
    f = subspace_factor(p, kind)
    basis = (range_basis if kind is BasisKind.RANGE else kernel_basis)(p).array
    for psi in data.draw(states_for_one_subspace(m, kind)):
        got = subspace_membership(p, kind, psi)
        fresh = subspace_membership(validate_projector(m), kind, psi)
        assert (got.member, got.witness, got.row_swaps) == (
            fresh.member, fresh.witness, fresh.row_swaps
        )
        assert (got.counts, got.final_check) == (fresh.counts, fresh.final_check)
        if basis.shape[1] == 1:
            tally = OpCounter()
            want = reference_range_membership(basis[:, 0], psi, tally)
            assert (got.member, got.witness) == want
            assert got.counts == tally
            assert (got.final_check, got.row_swaps) == (OpCounter(), 0)
        else:
            assert_same_decision(got, reference_membership_of(basis, psi))
    assert subspace_factor(p, kind) is f


def test_a_rank_one_verdict_on_its_factor_computes_no_magnitudes(monkeypatch):
    """The column's magnitudes, threshold and anchor come with the factor:
    a TRUE verdict on a memoised rank-1 range computes no magnitude of the
    factor's column, only products and the state's own magnitudes."""
    proj, psi = random_instance(64, seed=8, target=TargetKind.IN_RANGE)
    p = validate_projector(proj.array)
    assert valuate(p, psi).value is TruthValue.TRUE
    column = subspace_factor(p, BasisKind.RANGE).last
    seen = []
    original = np.abs

    def spy(x, *args, **kwargs):
        seen.append(x)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", spy)
    assert valuate(p, psi).value is TruthValue.TRUE
    assert subspace_membership(p, BasisKind.RANGE, psi).member
    assert seen and not any(np.shares_memory(x, column) for x in seen)
    seen.clear()
    range_membership(column, psi)  # a bare column is anchored per call, on a copy
    assert any(np.array_equal(x, column) for x in seen)


@pytest.mark.parametrize("scale", [1.0, 1e301, 1e308])
def test_the_error_state_is_switched_unless_the_bound_proves_products_finite(scale):
    """The cross check leaves numpy's error state alone only where
    ``max|col| * max|state|`` proves its products finite.  At scale 1 it
    does for every state below; at 1e301 for unit states only; at 1e308
    for none.  States with entries of 1e12 overflow the products at the
    two large scales, which must raise no warning (tier 1 turns a
    RuntimeWarning into an error).  valuate and valuate_ql, which decide
    on the state they checked, give subspace_membership's verdict, tally
    and witness, and that is the per-row loop's."""
    rng = np.random.default_rng(12)
    n = 8
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    d /= np.linalg.norm(d)
    p = linalg.Projector(scale * np.outer(d, d.conj()), rank=1)  # not validated
    column = range_basis(p).array[:, 0]
    for _ in range(20):
        member = StateVector(np.exp(1j * rng.uniform(0, 2 * math.pi)) * d)
        off = rng.normal(size=n) + 1j * rng.normal(size=n)
        off[:2] = d[:2]  # the anchor row and the first row compared agree
        off /= np.linalg.norm(off)
        big = off.copy()
        big[2:] *= 1e12  # decided in the numpy pass
        off, big = StateVector(off), StateVector(big)
        true = valuate(p, member)
        assert true.value is TruthValue.TRUE
        for psi, verdict in ((member, true), (off, valuate_ql(p, off)), (big, None)):
            got = subspace_membership(p, BasisKind.RANGE, psi)
            tally = OpCounter()
            assert (got.member, got.witness) == reference_range_membership(
                column, psi, tally
            )
            assert got.counts == tally
            if verdict is not None:
                value = TruthValue.TRUE if got.member else TruthValue.FALSE
                assert verdict.value is value
                assert verdict.cost_true_path == got.counts
                assert verdict.witness == got.witness


def test_eliminated_rows_keep_the_error_state_switched():
    """A solve keeps numpy's error state switched for its cross check:
    forward elimination can grow the state's entries past any bound taken
    before it.  Wilkinson's growth matrix (multipliers -1) doubles the
    state at each of its four steps, so the live rows carry 16 where the
    state held 1.  Their cross products, about 2**1023.5, differ by more
    than the float range, although ``max|col| * max|state|``, about
    2**1019.5, would prove them finite."""
    big = 2.0**1019.5
    n, t = 7, 4
    columns = np.zeros((n, t + 1), dtype=complex)
    for c in range(t):
        columns[c, c], columns[c + 1 :, c] = big, -big
    columns[t:, t] = [big, big, -big]
    assert linalg._factor(columns, DEFAULT_TOLERANCE).positions == tuple(range(t))
    psi = StateVector(np.ones(n))
    got = membership_of(columns, psi)
    want = kernel_membership_iterative(columns, psi)
    assert not got.member
    assert (got.member, got.witness, got.counts, got.final_check) == (
        want.member, want.witness, want.counts, want.final_check
    )
