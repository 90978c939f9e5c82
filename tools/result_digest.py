"""Digest what propval decides on fixed seeded families, one line per family.

Run from anywhere::

    python tools/result_digest.py [SOURCE_DIR]

``SOURCE_DIR`` is the directory that holds the ``propval`` package to
import; it defaults to the ``src`` beside this script, so two checkouts
compare by running the script of either on both.  Every family runs at
three tolerance policies: the default, and ``abs_eps = rel_eps`` of
1e-12 and of 1e-6.  The families:

* ``random_states`` -- rank-1 projectors and their range, kernel and
  generic states, as ``propval bench`` draws them;
* ``qr_projectors`` -- validated projectors of drawn rank (the QR of a
  complex normal n x r matrix), in C and Fortran order;
* ``fixtures`` -- the qubit and spin52 fixtures, their reference
  systems and both nondistributivity demos;
* ``bare_stacks`` -- column stacks with zero or duplicate columns on
  the elimination's panel edges;
* ``lattice`` -- meet, join and span equality.

Each line holds the family's record count, one sha256 of what the
numerical contract fixes (verdicts, tallies, final checks, row swaps,
ranks, basis dimensions, error classes) and one sha256 of the bits
(witness and basis bytes).  Standard library and numpy only.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np

_POLICIES = (None, 1e-12, 1e-6)  # None: the default policy
_PANEL_EDGES = (31, 32, 63, 64)  # _row_echelon works in panels of 32 columns


class Digest:
    """The record count and the two running sha256 digests of one family.

    ``errors`` is the package's base error class: a call that raises one
    records the error's class name as its result.
    """

    def __init__(self, errors: type[Exception]):
        self.errors = errors
        self.count = 0
        self.contract = hashlib.sha256()
        self.bits = hashlib.sha256()

    def attempt(self, call):
        """``(call(), None)``, or ``(None, the error's class name)``."""
        try:
            return call(), None
        except self.errors as exc:
            return None, type(exc).__name__

    def add(self, contract, *bits) -> None:
        self.count += 1
        self.contract.update(repr(contract).encode() + b"\n")
        for value in bits:
            data = b"-" if value is None else np.asarray(value, complex).tobytes()
            self.bits.update(len(data).to_bytes(8, "little") + data)

    def line(self, name: str) -> str:
        return (
            f"{name:14} {self.count:6} "
            f"contract {self.contract.hexdigest()} bits {self.bits.hexdigest()}"
        )


def _tally(c) -> tuple[int, int, int, int]:
    return c.mul, c.div, c.add_sub, c.cmp


def _membership(d: Digest, label, call) -> None:
    r, error = d.attempt(call)
    if error:
        d.add((label, error))
    else:
        counts = (_tally(r.counts), _tally(r.final_check), r.row_swaps)
        d.add((label, r.member, counts), r.witness)


def _verdict(d: Digest, label, call) -> None:
    v, error = d.attempt(call)
    if error:
        d.add((label, error))
    else:
        gap = None if v.cost_gap_path is None else _tally(v.cost_gap_path)
        tallies = (_tally(v.cost_true_path), _tally(v.cost_false_path), gap)
        d.add((label, v.value.value, tallies), v.witness)


def _basis(d: Digest, label, call) -> None:
    s, error = d.attempt(call)
    if error:
        d.add((label, error))
    else:
        d.add((label, s.ambient_dim, s.dim), s.array)


def _policies(pv):
    for eps in _POLICIES:
        if eps is None:
            yield "default", pv.DEFAULT_TOLERANCE
        else:
            yield eps, pv.TolerancePolicy(abs_eps=eps, rel_eps=eps)


def _projector(d: Digest, pv, label, p, states, tol) -> None:
    """Every verdict on ``p`` for each state, and both bases."""
    d.add((label, "rank", p.rank))
    for name, psi in states:
        at = (label, name)
        _verdict(d, at + ("valuate",), lambda: pv.valuate(p, psi, tol))
        _verdict(d, at + ("ql",), lambda: pv.valuate_ql(p, psi, tol))
        _verdict(
            d, at + ("ql-gap",), lambda: pv.valuate_ql(p, psi, tol, gap_to_true=True)
        )
        for kind in pv.BasisKind:
            _membership(
                d,
                at + (kind.value,),
                lambda: pv.subspace_membership(p, kind, psi, pv.OpCounter(), tol),
            )
    _basis(d, (label, "range"), lambda: pv.range_basis(p, tol))
    _basis(d, (label, "kernel"), lambda: pv.kernel_basis(p, tol))


def _normal(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unit(rng, n: int) -> np.ndarray:
    v = _normal(rng, n)
    return v / np.linalg.norm(v)


def random_states(pv, d: Digest) -> None:
    kinds = list(pv.TargetKind)
    for n in (*range(2, 18), 31, 32, 33, 64, 100):
        for seed in range(3):
            for tag, tol in _policies(pv):
                p, states = pv.random_states(n, seed, kinds)
                named = [(k.value, s) for k, s in zip(kinds, states)]
                _projector(d, pv, (n, seed, tag), p, named, tol)


def qr_projectors(pv, d: Digest) -> None:
    for n in (*range(2, 34), 40, 64, 65, 70):
        rng = np.random.default_rng([n, 7])
        for rank in sorted({1, max(n // 3, 1), n - 1}):
            q, _ = np.linalg.qr(_normal(rng, n, rank))
            m = q @ q.conj().T
            generic = _unit(rng, n)
            off = generic - m @ generic
            states = [
                ("range", pv.StateVector(q @ _unit(rng, rank))),
                ("kernel", pv.StateVector(off / np.linalg.norm(off))),
                ("generic", pv.StateVector(generic)),
            ]
            for order in "CF":
                for tag, tol in _policies(pv):
                    label = (n, rank, order, tag)
                    p, error = d.attempt(
                        lambda: pv.validate_projector(np.array(m, order=order), tol)
                    )
                    if error:
                        d.add((label, error))
                    else:
                        _projector(d, pv, label, p, states, tol)


def fixtures(pv, d: Digest) -> None:
    for name in ("qubit", "spin52"):
        for tag, tol in _policies(pv):
            fixture = pv.fixture_by_name(name)
            p, error = d.attempt(
                lambda: pv.validate_projector(fixture.projector.array, tol)
            )
            if error:
                d.add((name, tag, error))
                continue
            _projector(d, pv, (name, tag), p, sorted(fixture.states.items()), tol)
            psi = fixture.states.get("psi")
            if fixture.reference_kernel_columns is not None:
                a = fixture.reference_kernel_columns
                for form in (
                    pv.kernel_membership_iterative,
                    pv.kernel_membership_matrix,
                    pv.membership_of,
                ):
                    _membership(
                        d, (name, tag, form.__name__), lambda: form(a, psi, None, tol)
                    )
            if fixture.reference_range_column is not None:
                column = fixture.reference_range_column[:, None]
                for state, phi in sorted(fixture.states.items()):
                    _membership(
                        d,
                        (name, tag, "range_membership", state),
                        lambda: pv.range_membership(column, phi, None, tol),
                    )
            _demo(d, pv, (name, tag), p, tol)


def _demo(d: Digest, pv, label, q, tol) -> None:
    """The nondistributivity demo as ``propval demo`` runs it on ``q``."""

    def run():
        p = pv.projector_from_state(pv.StateVector(np.eye(q.dim)[0]), tol)
        column = pv.range_basis(q, tol).array[:, 0]
        phi = pv.StateVector(column / np.linalg.norm(column))
        return pv.demo_nondistributivity(q, p, phi, tol)

    r, error = d.attempt(run)
    if error:
        d.add((label, "demo", error))
        return
    values = (r.lhs_value, r.meet_with_p, r.meet_with_complement)
    contract = (
        tuple(v.value for v in values),
        r.lhs_dim,
        r.rhs_dim,
        r.lhs_equals_q,
        r.violated,
    )
    d.add((label, "demo", contract), [r.commutator_norm])


def _stack(rng, n: int, k: int, rank: int, edits) -> np.ndarray:
    a = _normal(rng, n, rank) @ _normal(rng, rank, k)
    for j, edit in zip((j for j in _PANEL_EDGES if j < k), edits):
        if edit == "zero":
            a[:, j] = 0
        elif edit == "duplicate":
            a[:, j] = -0.5j * a[:, j - 1]
    return a


def bare_stacks(pv, d: Digest) -> None:
    shapes = ((8, 3, 2), (40, 34, 34), (40, 40, 12), (70, 66, 5), (70, 66, 66))
    patterns = ("generic", "zero", "duplicate")
    for i, (n, k, rank) in enumerate(shapes):
        for j, edit in enumerate(patterns):
            rng = np.random.default_rng([i, j, 11])
            a = _stack(rng, n, k, rank, [patterns[(j + e) % 3] for e in range(4)])
            member = a @ _normal(rng, k)
            states = [
                ("member", pv.StateVector(member / np.linalg.norm(member))),
                ("generic", pv.StateVector(_unit(rng, n))),
            ]
            for tag, tol in _policies(pv):
                label = (n, k, rank, edit, tag)
                cols, error = d.attempt(lambda: pv.independent_columns(a, tol))
                d.add((label, "independent", error or cols))
                null, error = d.attempt(lambda: pv.null_space_basis(a, tol))
                d.add((label, "null", error or null.shape), null)
                for state, psi in states:
                    for form in (
                        pv.membership_of,
                        pv.kernel_membership_iterative,
                        pv.kernel_membership_matrix,
                    ):
                        _membership(
                            d,
                            label + (state, form.__name__),
                            lambda: form(a, psi, pv.OpCounter(), tol),
                        )
                    first = a[:, :1]
                    _membership(
                        d,
                        label + (state, "range_membership"),
                        lambda: pv.range_membership(first, psi, None, tol),
                    )


def lattice(pv, d: Digest) -> None:
    for n in range(2, 13):
        rng = np.random.default_rng([n, 13])
        shared = _normal(rng, n, n // 3)  # a direction in both, from n = 3
        a = pv.Subspace(np.hstack([shared, _normal(rng, n, n // 4)]))
        mixed = shared @ rng.normal(size=(n // 3, n // 3))
        b = pv.Subspace(np.hstack([_normal(rng, n, (n + 1) // 4), mixed]))
        for tag, tol in _policies(pv):
            for x_name, x in (("a", a), ("b", b)):
                for y_name, y in (("a", a), ("b", b)):
                    label = (n, tag, x_name, y_name)
                    _basis(d, label + ("meet",), lambda: pv.meet(x, y, tol))
                    _basis(d, label + ("join",), lambda: pv.join(x, y, tol))
                    equal, error = d.attempt(lambda: pv.span_equal(x, y, tol))
                    d.add(label + ("span_equal", error or equal))


FAMILIES = {
    f.__name__: f
    for f in (random_states, qr_projectors, fixtures, bare_stacks, lattice)
}


def family_line(pv, name: str) -> str:
    """The digest line of family ``name`` on the imported package ``pv``."""
    d = Digest(pv.PropvalError)
    FAMILIES[name](pv, d)
    return d.line(name)


def main(argv: list[str]) -> int:
    source = Path(argv[0]) if argv else Path(__file__).parents[1] / "src"
    sys.path.insert(0, str(source.resolve()))
    pv = importlib.import_module("propval")
    print(f"propval from {Path(pv.__file__).parent}")
    for name in FAMILIES:
        print(family_line(pv, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
