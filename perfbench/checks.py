"""Expected outputs, derived independently of the code under test.

Tallies follow the paper's closed forms.  A single basis column is
decided by the O(n) cross-product check: a member costs ``2(n-1)``
multiplications and ``n-1`` comparisons, a non-member stops at the first
failed comparison ``c`` (``2c`` multiplications, ``c`` comparisons).
Wider bases go through elimination: with ``n`` rows and ``k`` unknowns,
step ``c`` updates ``n-1-c`` rows over ``k-c`` columns, so ``k = n-1``
gives ``n(n-1)/2 - 1`` divisions and ``n(n-1)(2n-1)/6 - 1``
multiplications and subtractions.  The elimination tally does not depend
on the verdict.

Witnesses are checked by residual against the documented basis choice:
the lowest-index independent columns of ``P`` (range) or ``I - P``
(kernel), which for the seeded draws are the first ``k`` columns.
"""

from __future__ import annotations

import numpy as np

KEYS = ("mul", "div", "add_sub", "cmp")


def elimination_tally(n: int, k: int) -> dict[str, int]:
    steps = range(min(k - 1, n - 1))
    div = sum(n - 1 - c for c in steps)
    mul = sum((n - 1 - c) * (k - c) for c in steps)
    return {"mul": mul, "div": div, "add_sub": mul, "cmp": 0}


def tally_problem(counts: dict, n: int, k: int, member: bool) -> str | None:
    """None if ``counts`` is the tally of deciding a k-column basis."""
    got = {key: counts[key] for key in KEYS}
    if k >= 2:
        want = elimination_tally(n, k)
        return None if got == want else f"tally {got} != {want}"
    if k == 0:
        return None if not any(got.values()) else f"tally {got} != 0"
    if member:
        want = {"mul": 2 * (n - 1), "div": 0, "add_sub": 0, "cmp": n - 1}
        return None if got == want else f"tally {got} != {want}"
    if got["div"] or got["add_sub"] or got["mul"] != 2 * got["cmp"]:
        return f"tally {got} is not an early-exit range check"
    if not 1 <= got["cmp"] <= n - 1:
        return f"tally {got}: early exit outside 1..{n - 1}"
    return None


def counts_dict(counter) -> dict[str, int]:
    return {key: getattr(counter, key) for key in KEYS}


def minus(a: dict, b: dict) -> dict:
    return {key: a[key] - b[key] for key in KEYS}


def plus(a: dict, b: dict) -> dict:
    return {key: a[key] + b[key] for key in KEYS}


def witness_problem(
    basis: np.ndarray, witness, psi: np.ndarray, rel: float
) -> str | None:
    """None if ``basis[:, :len(witness)] @ witness`` reproduces psi."""
    if witness is None:
        return "missing witness"
    w = np.asarray(witness, dtype=complex)
    cols = basis[:, : w.size]
    residual = float(np.linalg.norm(cols @ w - psi))
    scale = 1.0 + float(np.sum(np.abs(w))) * float(np.max(np.abs(cols)))
    if residual > rel * scale:
        return f"witness residual {residual:.3e} above {rel * scale:.3e}"
    return None


def oracle_value(oracle, projector: np.ndarray, psi, range_cols=None) -> str:
    """Three-valued verdict from residual_oracle on the range and kernel.

    ``range_cols`` may give a spanning set of the range that is cheaper
    to solve against than the full projector.
    """
    cols = projector if range_cols is None else range_cols
    if oracle(cols, psi).member:
        return "true"
    n = projector.shape[0]
    if oracle(np.eye(n, dtype=complex) - projector, psi).member:
        return "false"
    return "gap"


def verdict_problems(
    ql: bool,
    expected: str,
    got: str,
    tallies: tuple[dict, dict, dict | None],
    witness,
    projector: np.ndarray,
    rank: int,
    psi: np.ndarray,
    rel: float,
) -> list[str]:
    """Everything wrong with one valuate / valuate_ql verdict.

    ``expected`` is the three-valued truth of the generated input;
    ``tallies`` are the range-path, kernel-path and gap tallies.
    """
    n = projector.shape[0]
    want = ("true" if expected == "true" else "false") if ql else expected
    if got != want:
        return [f"verdict {got} != {want}"]
    range_c, kernel_c, gap_c = tallies
    problems = [tally_problem(range_c, n, rank, want == "true")]
    if ql or want == "true":
        problems.append(tally_problem(kernel_c, n, 0, False))
    else:
        problems.append(tally_problem(kernel_c, n, n - rank, want == "false"))
    if want == "gap":
        if gap_c is None or {k: gap_c[k] for k in KEYS} != plus(range_c, kernel_c):
            problems.append(f"gap tally {gap_c} != range + kernel")
    elif gap_c is not None:
        problems.append(f"unexpected gap tally {gap_c}")
    if want == "true":
        problems.append(witness_problem(projector, witness, psi, rel))
    elif want == "false" and not ql:
        complement = np.eye(n, dtype=complex) - projector
        problems.append(witness_problem(complement, witness, psi, rel))
    elif witness is not None:
        problems.append(f"unexpected witness {witness}")
    return [p for p in problems if p]
