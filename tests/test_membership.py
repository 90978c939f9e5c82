"""Range and kernel solvability deciders and their counting contracts."""

import math

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
    AugmentedMatrix,
    MembershipResult,
    ZeroColumn,
    kernel_membership_iterative,
    kernel_membership_matrix,
    membership_of,
    range_membership,
    residual_oracle,
    subspace_membership,
)
from propval.numerics import DEFAULT_TOLERANCE, OpCounter, TolerancePolicy
from propval.valuation import Subspace, TruthValue, valuate

S2 = 1 / math.sqrt(2)


def kernel_system(projector, psi):
    return AugmentedMatrix.from_system(kernel_basis(projector).array, psi)


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


def test_range_membership_zero_column():
    with pytest.raises(ZeroColumn):
        range_membership(np.zeros((4, 1)), StateVector(np.eye(4)[0]))


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
    threshold = tol.abs_eps * max(abs(z) for z in column)
    anchor = next((i for i, z in enumerate(column) if abs(z) > threshold), None)
    if anchor is None:
        raise ZeroColumn("basis column is numerically zero")
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
    want_ctx = OpCounter()
    try:
        want = reference_range_membership(column, psi, want_ctx)
    except ZeroColumn:
        with pytest.raises(ZeroColumn):
            range_membership(column, psi)
        with pytest.raises(ZeroColumn):
            membership_of(column.reshape(-1, 1), psi)
        return
    for decide in (range_membership, membership_of):
        ctx = OpCounter()
        res = decide(column.reshape(-1, 1), psi, ctx)
        assert (res.member, res.witness) == want
        assert res.counts == ctx == want_ctx  # early-exit index included


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
    exactly as in the loop over ``complex`` values, and raise no warning.
    The first row compared (row 1, after the anchor in row 0) is zero on
    both sides and passes, so every further row runs in the vectorised
    pass, the anchor row's own product included."""
    rng = np.random.default_rng(5)
    n = 100
    direction = rng.normal(size=n) + 1j * rng.normal(size=n)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    if family == "span":
        rhs = (rng.normal() + 1j * rng.normal()) * direction
    direction[1] = rhs[1] = 0
    assert_range_check_matches_reference(
        column_scale * direction, StateVector(state_scale * rhs)
    )


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e150, 1e-150])
def test_vectorised_comparisons_round_as_cpython(scale):
    """Each row sits exactly on the bound of its own tolerance, so the
    vectorised pass agrees with ``TolerancePolicy.equal`` on ``complex``
    values only if its products, differences, magnitudes and bound carry
    the same bits."""
    rng = np.random.default_rng(11)
    for _ in range(150):
        col = (rng.normal(size=2) + 1j * rng.normal(size=2)) * scale
        rhs = col * (rng.normal() + 1j * rng.normal())
        rhs += (rng.normal(size=2) + 1j * rng.normal(size=2)) * scale * 1e-8
        p, q = complex(col[0]) * complex(rhs[1]), complex(col[1]) * complex(rhs[0])
        gap, size = abs(p - q), max(abs(p), abs(q))
        for tol in (
            TolerancePolicy(gap, 0.0),
            TolerancePolicy(math.nextafter(gap, 0.0), 0.0),
            TolerancePolicy(0.0, gap / size),
            TolerancePolicy(0.0, math.nextafter(gap / size, 0.0)),
        ):
            fail = membership._first_cross_failure(col, rhs, 0, tol)
            assert (fail is None) == tol.equal(p, q), (col, rhs, tol)


def test_counts_are_this_calls_tally_while_ctx_accumulates():
    proj, psi = random_instance(6, seed=4, target=TargetKind.GENERIC)
    rcols, kcols = range_basis(proj).array, kernel_basis(proj).array
    aug = AugmentedMatrix.from_system(kcols, psi)
    deciders = [
        lambda ctx: range_membership(rcols, psi, ctx),
        lambda ctx: kernel_membership_iterative(aug, ctx),
        lambda ctx: kernel_membership_matrix(aug, ctx),
        lambda ctx: membership_of(rcols, psi, ctx),
        lambda ctx: membership_of(kcols, psi, ctx),
    ]
    for decide in deciders:
        tally = decide(None).counts
        assert tally.total > 0
        ctx = OpCounter(mul=7, div=5, add_sub=3, cmp=2)
        before = ctx.snapshot()
        assert decide(ctx).counts == tally
        assert ctx == before + tally


# ---------------------------------------------------------------- kernel


def test_kernel_iterative_spin52_reference_witness():
    fx = spin52_fixture()
    res = kernel_membership_iterative(fx.reference_kernel_system)
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
    res = kernel_membership_matrix(fx.reference_kernel_system)
    assert res.member
    assert np.allclose(res.witness, fx.expected_kernel_witness, atol=1e-12)


def test_kernel_membership_of_everything_for_zero_projector():
    # kernel basis of the zero projector is the identity: any state fits
    rng = np.random.default_rng(1)
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    aug = AugmentedMatrix.from_system(np.eye(4), StateVector(psi))
    res = kernel_membership_iterative(aug)
    assert res.member
    assert np.allclose(res.witness, psi, atol=1e-12)


def test_kernel_rejects_range_vector():
    proj, psi = random_instance(7, seed=3, target=TargetKind.IN_RANGE)
    aug = kernel_system(proj, psi)
    res = kernel_membership_iterative(aug)
    assert not res.member
    oracle = residual_oracle(aug.body[:, :-1], psi)
    assert not oracle.member


def test_kernel_homogeneous_system_is_consistent():
    rng = np.random.default_rng(2)
    cols = rng.normal(size=(5, 4))
    aug = AugmentedMatrix.from_system(cols, StateVector(np.zeros(5)))
    res = kernel_membership_iterative(aug)
    assert res.member
    assert np.allclose(res.witness, 0)


def test_kernel_iterative_counts_match_closed_forms():
    for n in range(3, 65):
        for target in (TargetKind.IN_KERNEL, TargetKind.GENERIC):
            proj, psi = random_instance(n, seed=9, target=target)
            ctx = OpCounter()
            kernel_membership_iterative(kernel_system(proj, psi), ctx)
            assert ctx.div == divisions_closed_form(n), (n, target)
            assert ctx.mul == multiplications_closed_form(n), (n, target)
            assert ctx.add_sub == ctx.mul


def test_matrix_version_counts_per_step_block_sizes():
    for n in range(3, 41):
        proj, psi = random_instance(n, seed=1, target=TargetKind.IN_KERNEL)
        ctx = OpCounter()
        res = kernel_membership_matrix(kernel_system(proj, psi), ctx)
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
            aug = kernel_system(proj, psi)
            a = kernel_membership_iterative(aug)
            b = kernel_membership_matrix(aug)
            cols = aug.body[:, :-1]
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
    aug = AugmentedMatrix.from_system(cols, psi)
    it = kernel_membership_iterative(aug)
    mx = kernel_membership_matrix(aug)
    assert it.member == mx.member
    assert it.witness == mx.witness  # one loop serves both forms
    assert it.row_swaps == mx.row_swaps
    assert it.member == residual_oracle(cols, psi).member
    if it.member:
        residual = np.linalg.norm(cols @ np.array(it.witness) - psi.components)
        assert residual < 1e-7


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
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
    with pytest.raises(NonFiniteEntry):
        membership_of(cols[:, :1], psi)  # one column: the range check
    if where == "rhs":
        with pytest.raises(NonFiniteEntry):
            membership_of(cols[:, :0], psi)  # the empty span
    for decide in (kernel_membership_iterative, kernel_membership_matrix):
        with pytest.raises(NonFiniteEntry):
            decide(AugmentedMatrix.from_system(cols, psi))


def test_wide_system_uses_every_unknown_column():
    cols = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    psi = StateVector([0.0, 1.0])
    assert membership_of(cols, psi).member
    assert residual_oracle(cols, psi).member


# ---------------------------------------------------------------- oracle


def test_residual_oracle_on_spin52_systems():
    fx = spin52_fixture()
    psi = fx.states["psi"]
    kernel = residual_oracle(fx.reference_kernel_system.body[:, :-1], psi)
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
        aug = kernel_system(proj, psi)
        k_it = kernel_membership_iterative(aug)
        k_mx = kernel_membership_matrix(aug)
        oracle = residual_oracle(aug.body[:, :-1], psi)
        assert k_it.member == k_mx.member == oracle.member
        for res in (r, k_it, k_mx):
            if res.member:
                a = rbasis.array if res is r else aug.body[:, :-1]
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
        in_kernel = kernel_membership_iterative(kernel_system(proj, psi)).member
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


def test_the_empty_span_checks_the_state_dimension():
    zero = membership_of(np.zeros((3, 0)), StateVector(np.zeros(3)))
    assert zero.member and zero.counts == OpCounter()
    with pytest.raises(DimensionMismatch):
        membership_of(np.zeros((3, 0)), StateVector(np.zeros(5)))
    with pytest.raises(DimensionMismatch):
        membership_of(Subspace.zero(3).array, StateVector(np.zeros(4)))


# ------------------------------------------------- factor against the loop


def reference_eliminate(aug, ctx, tol, full_block):
    """The kernel decider before it was split into a factor and a solve.

    A copy of the per-state elimination that ran every unknown column
    but the last through ``linalg._row_echelon`` with the state appended,
    then the cross check on the live rows and a row-by-row
    back-substitution; kept as the reference the factored path must
    match: verdict, tallies and interchanges exactly, witness to rounding.
    """
    start = ctx.snapshot()
    n, k = aug.rows, aug.unknowns
    work = aug.body.copy()
    threshold = tol.abs_eps * linalg.max_abs(aug.body[:, :k])
    cols, swapped = linalg._row_echelon(work, k - 1, threshold)
    shift = 0 if full_block else 1
    for r, c in enumerate(cols):
        height = n - r - shift
        updated = height * (k + 1 - c - shift)
        ctx.div += height
        ctx.mul += updated
        ctx.add_sub += updated
    elimination = ctx.snapshot() - start
    fctx = OpCounter()
    live = work[len(cols) :].tolist()
    anchor = next((row for row in live if abs(row[k - 1]) > threshold), None)
    member = True
    if anchor is None:
        for row in live:
            fctx.cmp += 1
            if not tol.equal(row[k], 0.0):
                member = False
                break
    else:
        for row in live:
            if row is anchor:
                continue
            fctx.mul += 2
            fctx.cmp += 1
            if not tol.equal(anchor[k - 1] * row[k], row[k - 1] * anchor[k]):
                member = False
                break
    swaps = sum(p != r for r, p in enumerate(swapped))
    if not member:
        return MembershipResult(False, None, elimination, fctx, swaps)
    x = [0j] * k
    if anchor is not None:
        x[k - 1] = anchor[k] / anchor[k - 1]
    for c, row in reversed(list(zip(cols, work[: len(cols)].tolist()))):
        acc = row[k]
        for c2 in range(c + 1, k):
            if x[c2] != 0:
                acc -= row[c2] * x[c2]
        x[c] = acc / row[c]
    return MembershipResult(True, x, elimination, fctx, swaps)


def reference_membership_of(cols, psi, tol=DEFAULT_TOLERANCE):
    """``membership_of``'s dispatch over :func:`reference_eliminate`."""
    result = reference_eliminate(
        AugmentedMatrix.from_system(cols, psi), OpCounter(), tol, False
    )
    if cols.shape[1] == 1:  # the range check reports its cross check as counts
        return MembershipResult(result.member, result.witness, result.final_check)
    return result


def assert_same_decision(got, want):
    assert got.member == want.member
    assert got.counts == want.counts
    assert got.final_check == want.final_check
    assert got.row_swaps == want.row_swaps
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
    aug = AugmentedMatrix.from_system(cols, psi)
    for decide, full_block in (
        (kernel_membership_iterative, False),
        (kernel_membership_matrix, True),
    ):
        want = reference_eliminate(aug, OpCounter(), DEFAULT_TOLERANCE, full_block)
        assert_same_decision(decide(aug), want)


@st.composite
def subspaces_of_width_two_or_more(draw):
    return projector_with_state(draw, 5, [1.0, 0.3, 0.05, 1e-3])


@settings(max_examples=150, deadline=None)
@given(case=subspaces_of_width_two_or_more(), kind=st.sampled_from(BasisKind))
def test_one_pivot_threshold_picks_what_the_basis_columns_pick(case, kind):
    """Factoring P or I - P scales the pivot threshold by its maximum
    entry; factoring the basis columns alone by their own maximum.  Both
    pick the same pivots and interchanges and reach the same verdicts,
    also when the largest entry sits in a column the basis drops."""
    m, psi = case
    p = validate_projector(m)
    fused = subspace_factor(p, kind)
    basis = fused.basis.array
    alone = linalg._factor(basis, DEFAULT_TOLERANCE)
    factored = p.array if kind is BasisKind.RANGE else np.eye(p.dim) - p.array
    if np.abs(factored).max() > np.abs(basis).max():
        assert fused.threshold > alone.threshold
    assert fused.positions == alone.positions == tuple(range(fused.unknowns - 1))
    assert fused.swapped == alone.swapped
    count = p.rank if kind is BasisKind.RANGE else p.nullity
    assert fused.unknowns == alone.unknowns == count
    bare = kernel_membership_iterative(AugmentedMatrix.from_system(basis, psi))
    assert subspace_membership(p, kind, psi).member == bare.member
