"""Command-line interface.

Subcommands::

    propval valuate PROJECTOR STATE [--ql [--gap-to-true]]
    propval bench [--grid double [--min-n N] [--max-n N] | --grid N1,...] [--seed S]
                  [--out F]
    propval cost --t1 W --tinf S (--p P | --q Q --eq E)
    propval demo nondistributivity --fixture {qubit,spin52}
    propval fixtures export NAME [--dir D]

Exit status 0 means the command evaluated (whatever the verdict);
status 2 means the input or configuration was rejected, with a
diagnostic naming the violated invariant.  Reports are JSON with
numbers rendered to 9 significant digits; default seeds are fixed, so
default runs are byte-reproducible.  The environment variable
``PROPVAL_TOLERANCE`` overrides the absolute comparison tolerance; it
is read on every call.

:func:`main` can be called repeatedly in one process: the first call
builds the parser and later calls reuse it, so a one-shot ``propval``
process builds one parser, as before.  :func:`build_parser` returns a
fresh parser on every call, safe to extend.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import costmodel, fixtures
from .linalg import (
    StateVector,
    load_matrix,
    load_state,
    projector_from_state,
    range_basis,
    validate_projector,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    InvalidTolerance,
    OpCounter,
    PropvalError,
    TolerancePolicy,
)
from .valuation import demo_nondistributivity, valuate, valuate_ql

DEFAULT_SEED = 20240901

ENV_TOLERANCE = "PROPVAL_TOLERANCE"


def _tolerance(args) -> TolerancePolicy:
    """The default policy, its absolute tolerance set by the environment,
    then by ``--tolerance``."""
    changes = {}
    for source, text in (
        (ENV_TOLERANCE, os.environ.get(ENV_TOLERANCE)),
        ("--tolerance", args.tolerance),
    ):
        if text is not None:
            try:
                changes["abs_eps"] = float(text)
            except ValueError:
                raise InvalidTolerance(
                    f"{source} must be a number, got {text!r}"
                ) from None
    return dataclasses.replace(DEFAULT_TOLERANCE, **changes)


def _nine_digits(x: float) -> float:
    return float(f"{x:.9g}")


def _json_scalar(z: complex, tol: TolerancePolicy):
    """9 significant digits; a part at or below ``tol.threshold(1.0)`` is
    rounding noise: a real part prints as ``0.0``, an imaginary part is
    left out."""
    re = _nine_digits(z.real) if abs(z.real) > tol.threshold(1.0) else 0.0
    if abs(z.imag) <= tol.threshold(1.0):
        return re
    return [re, _nine_digits(z.imag)]


def _emit(report: dict) -> None:
    print(json.dumps(report))


def _counts_entry(counts: OpCounter | None):
    return counts.as_dict() if counts is not None else None


def cmd_valuate(args) -> int:
    tol = _tolerance(args)
    projector = validate_projector(load_matrix(args.projector), tol)
    state = load_state(args.state)
    if args.ql:
        verdict = valuate_ql(projector, state, tol, gap_to_true=args.gap_to_true)
    else:
        verdict = valuate(projector, state, tol)
    report = {
        "verdict": verdict.value.value,
        "witness": None
        if verdict.witness is None
        else [_json_scalar(z, tol) for z in verdict.witness],
        "counts": {
            "range_path": _counts_entry(verdict.cost_true_path),
            "kernel_path": _counts_entry(verdict.cost_false_path),
            "gap_total": _counts_entry(verdict.cost_gap_path),
        },
    }
    _emit(report)
    return 0


def _parse_grid(args) -> list[int]:
    if args.grid == "double":
        return costmodel.doubling_grid(
            8 if args.min_n is None else args.min_n,
            256 if args.max_n is None else args.max_n,
        )
    try:
        return sorted({int(part) for part in args.grid.split(",")})
    except ValueError:
        raise costmodel.InvalidBounds(
            f"grid must be 'double' or comma-separated dimensions, got {args.grid!r}"
        ) from None


def cmd_bench(args) -> int:
    tol = _tolerance(args)
    grid = _parse_grid(args)
    samples = costmodel.benchmark_paths(grid, args.seed, tol)
    csv_text = costmodel.samples_to_csv(samples)
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    summary: dict = {"seed": args.seed, "grid": grid}
    try:
        summary["slopes"] = {
            path.value: _nine_digits(costmodel.fit_growth(samples, path).slope)
            for path in costmodel.PathKind
        }
        summary["conjecture1"] = {
            model.value: costmodel.conjecture1_report(samples, model).verdict
            for model in costmodel.ModelKind
        }
    except costmodel.InsufficientSamples as exc:
        summary["fit_error"] = f"{type(exc).__name__}: {exc}"
    _emit(summary)
    return 0


def cmd_cost(args) -> int:
    if args.p is not None:
        profile = costmodel.classical_cost(args.t1, args.tinf, args.p)
    else:
        profile = costmodel.quantum_cost(args.t1, args.tinf, args.q, args.eq)
    _emit(
        {
            "kind": profile.kind.value,
            "work_t1": _nine_digits(profile.work_t1),
            "span_tinf": _nine_digits(profile.span_tinf),
            "processors": profile.processors,
            "time": _nine_digits(profile.time),
            "cost": _nine_digits(profile.cost),
            "speedup": _nine_digits(profile.speedup),
            "efficiency": _nine_digits(profile.efficiency),
            "clamped": profile.clamped,
        }
    )
    return 0


def cmd_demo_nondistributivity(args) -> int:
    tol = _tolerance(args)
    fixture = fixtures.fixture_by_name(args.fixture)
    q = fixture.projector
    p = projector_from_state(StateVector(np.eye(q.dim)[0]), tol)
    phi = _range_state(fixture, tol)
    report = demo_nondistributivity(q, p, phi, tol)
    _emit(
        {
            "fixture": fixture.name,
            "lhs": report.lhs_value.value,
            "meet_with_p": report.meet_with_p.value,
            "meet_with_complement": report.meet_with_complement.value,
            "lhs_dim": report.lhs_dim,
            "rhs_dim": report.rhs_dim,
            "lhs_equals_q": report.lhs_equals_q,
            "commutator_norm": _nine_digits(report.commutator_norm),
            "violated": report.violated,
        }
    )
    return 0


def _range_state(fixture, tol):
    """A unit state inside the fixture projector's range."""
    column = range_basis(fixture.projector, tol).array[:, 0]
    return StateVector(column / np.linalg.norm(column))


def cmd_fixtures_export(args) -> int:
    fixture = fixtures.fixture_by_name(args.name)
    paths = fixtures.export_fixture(fixture, args.dir)
    _emit({"fixture": fixture.name, "files": [str(p) for p in paths]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propval",
        description="Truth-value assignment for quantum propositions via "
        "linear-system solvability, with operation counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("valuate", help="three-valued verdict for a state")
    p_val.add_argument("projector", help="projector matrix JSON file")
    p_val.add_argument("state", help="state vector JSON file (n x 1)")
    p_val.add_argument(
        "--ql", action="store_true", help="two-valued variant (gap collapses)"
    )
    p_val.add_argument(
        "--gap-to-true",
        action="store_true",
        help="with --ql, collapse the gap into TRUE instead of FALSE",
    )
    p_val.set_defaults(func=cmd_valuate)

    p_bench = sub.add_parser("bench", help="operation-count benchmark")
    p_bench.add_argument("--min-n", type=int, help="with --grid double (default: 8)")
    p_bench.add_argument("--max-n", type=int, help="with --grid double (default: 256)")
    p_bench.add_argument(
        "--grid",
        default="double",
        help="'double' or comma-separated dimensions (default: double)",
    )
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_bench.add_argument("--out", help="write the CSV here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)

    p_cost = sub.add_parser("cost", help="work/span cost profile")
    p_cost.add_argument("--t1", type=float, required=True, help="work")
    p_cost.add_argument("--tinf", type=float, required=True, help="span")
    p_cost.add_argument("--p", type=int, help="classical processors")
    p_cost.add_argument("--q", type=int, help="quantum processors")
    p_cost.add_argument("--eq", type=float, help="requested quantum efficiency")
    p_cost.set_defaults(func=cmd_cost)

    p_demo = sub.add_parser("demo", help="demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_nd = demo_sub.add_parser(
        "nondistributivity", help="distributive-law counterexample"
    )
    p_nd.add_argument("--fixture", choices=list(fixtures._FIXTURES), default="qubit")
    p_nd.set_defaults(func=cmd_demo_nondistributivity)

    p_fix = sub.add_parser("fixtures", help="fixture utilities")
    fix_sub = p_fix.add_subparsers(dest="fixtures_command", required=True)
    p_exp = fix_sub.add_parser("export", help="write fixture files")
    p_exp.add_argument("name", choices=list(fixtures._FIXTURES))
    p_exp.add_argument("--dir", default=".")
    p_exp.set_defaults(func=cmd_fixtures_export)

    for evaluating in (p_val, p_bench, p_nd):  # one declaration, read by _tolerance
        evaluating.add_argument("--tolerance", help="absolute tolerance")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses, built on its first call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "cost" and (args.p is None) == (args.q is None):
        parser.error("provide exactly one of --p or --q")
    if args.command == "cost" and args.eq is not None and args.q is None:
        parser.error("--eq requires --q")
    if args.command == "cost" and args.q is not None and args.eq is None:
        parser.error("--q requires --eq")
    if args.command == "valuate" and args.gap_to_true and not args.ql:
        parser.error("--gap-to-true requires --ql")
    if args.command == "bench" and args.grid != "double":
        if args.min_n is not None or args.max_n is not None:
            parser.error("--min-n/--max-n require --grid double")
    try:
        return args.func(args)
    except (PropvalError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
