"""The three workloads: what one request is, its inputs, and its checks.

Every workload draws its inputs from the run's seed, hands the program
only projectors, states or files (``sweep`` hands it the seed, because
its request is the program's own ``propval bench``), and calls
propval through module attributes at call time, so that the traced run
sees the patched names.  A request cycle is a fixed, seeded order over
the workload's distinct requests; runs repeat whole cycles.

``check`` runs outside the timed region and returns
``(problems, verdicts, oracle_disagreements)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from checks import (
    counts_dict,
    elimination_tally,
    minus,
    oracle_value,
    tally_problem,
    verdict_problems,
)


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def ql_value(three_valued: str) -> str:
    return "true" if three_valued == "true" else "false"


class Sweep:
    """One default ``propval bench``: benchmark_paths, growth fits, conjecture 1."""

    name = "sweep"
    cycle = 1
    EXPECTED_CONJECTURE1 = {
        "serial": "violated",
        "classical_pram": "violated",
        "quantum_qpram": "satisfied",
    }
    PATH_VALUE = {"range_true": "true", "kernel_false": "false", "gap_both": "gap"}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self, pv: SimpleNamespace) -> None:
        self.pv = pv
        self.grid = pv.costmodel.doubling_grid(8, 256)
        self._sweep(pv.costmodel.doubling_grid(4, 32), self.seed)

    def _sweep(self, grid, seed):
        cm = self.pv.costmodel
        samples = cm.benchmark_paths(grid, seed)
        fits = {path: cm.fit_growth(samples, path) for path in cm.PathKind}
        reports = {m: cm.conjecture1_report(samples, m) for m in cm.ModelKind}
        return samples, fits, reports

    def request(self, i: int) -> int:
        return self.seed * 100_003 + i

    def describe(self, seed: int) -> str:
        return f"benchmark_paths(doubling_grid(8, 256), seed={seed})"

    def call(self, seed: int):
        return self._sweep(self.grid, seed)

    def check(self, seed: int, out) -> tuple[list[str], int, int]:
        samples, _, reports = out
        cm, fx = self.pv.costmodel, self.pv.fixtures
        problems = []
        order = [(n, p.value) for n in self.grid for p in cm.PathKind]
        if [(s.n, s.path.value) for s in samples] != order:
            problems.append("samples are not one per (n, path) in grid order")
        for s in samples:
            n, c = s.n, counts_dict(s.counts)
            if s.path.value == "range_true":
                problem = tally_problem(c, n, 1, True)
            elif s.path.value == "kernel_false":
                problem = tally_problem(c, n, n - 1, True)
            else:
                problem = tally_problem(minus(c, elimination_tally(n, n - 1)), n, 1, False)
            if problem:
                problems.append(f"n={n} {s.path.value}: {problem}")
        got = {m.value: r.verdict for m, r in reports.items()}
        if got != self.EXPECTED_CONJECTURE1:
            problems.append(f"conjecture 1 verdicts {got}")
        disagree = 0
        targets = {t.value: t for t in fx.TargetKind}
        kinds = {"range_true": "in_range", "kernel_false": "in_kernel", "gap_both": "generic"}
        for s in samples:
            p, psi = fx.random_instance(s.n, seed, targets[kinds[s.path.value]])
            a = p.array
            anchor = int(np.argmax(np.linalg.norm(a, axis=0)))
            oracle = oracle_value(
                self.pv.membership.residual_oracle, a, psi, a[:, [anchor]]
            )
            if oracle != self.PATH_VALUE[s.path.value]:
                disagree += 1
                problems.append(f"n={s.n} {s.path.value}: oracle says {oracle}")
        return problems, len(samples), disagree


class RangeShared:
    """valuate / valuate_ql at n=256 on a few projectors reused as the same objects."""

    name = "range-shared"
    N = 256
    PROJECTORS = 4
    # Per projector: in-range states for valuate, generic ones for valuate_ql.
    # The mix is uneven so that the median and p90 fall inside the slower
    # (full range check) group rather than on the edge between the two.
    TRUE_STATES = 24
    GENERIC_STATES = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._oracle: dict[int, str] = {}

    def setup(self, pv: SimpleNamespace) -> None:
        self.pv = pv
        rng = np.random.default_rng([self.seed, 1])
        self.directions, self.projectors, reqs = [], [], []
        for j in range(self.PROJECTORS):
            d = unit_vector(rng, self.N)
            self.directions.append(d)
            self.projectors.append(pv.linalg.validate_projector(np.outer(d, d.conj())))
            for _ in range(self.TRUE_STATES):
                phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                reqs.append(("valuate", j, pv.linalg.StateVector(phase * d), "true"))
            for _ in range(self.GENERIC_STATES):
                generic = pv.linalg.StateVector(unit_vector(rng, self.N))
                reqs.append(("valuate_ql", j, generic, "gap"))
        order = rng.permutation(len(reqs))
        self.reqs = [(int(k),) + reqs[k] for k in order]
        self.cycle = len(self.reqs)
        for i in range(self.cycle):
            self.call(self.request(i))

    def request(self, i: int):
        return self.reqs[i % self.cycle]

    def describe(self, req) -> str:
        key, mode, j, _, expected = req
        return f"{mode}(projector {j}, state {key}; generated as {expected})"

    def call(self, req):
        _, mode, j, psi, _ = req
        return getattr(self.pv.valuation, mode)(self.projectors[j], psi)

    def check(self, req, verdict) -> tuple[list[str], int, int]:
        key, mode, j, psi, expected = req
        ql = mode == "valuate_ql"
        tallies = (
            counts_dict(verdict.cost_true_path),
            counts_dict(verdict.cost_false_path),
            None if verdict.cost_gap_path is None else counts_dict(verdict.cost_gap_path),
        )
        problems = verdict_problems(
            ql, expected, verdict.value.value, tallies, verdict.witness,
            self.projectors[j].array, 1, psi.components, 1e-9,
        )
        if key not in self._oracle:
            member = self.pv.membership.residual_oracle(
                self.directions[j].reshape(-1, 1), psi
            ).member
            self._oracle[key] = "true" if member else "false"
        disagree = int(ql_value(verdict.value.value) != self._oracle[key])
        if disagree:
            problems.append(f"oracle says {self._oracle[key]}")
        return problems, 1, disagree


class CliSmall:
    """``propval valuate`` / ``valuate --ql`` / ``demo nondistributivity`` in process."""

    name = "cli-small"
    N = 16
    PROJECTORS_PER_RANK = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._oracle: dict[int, str] = {}

    def _case(self, projector, rank, proj_path, psi, state_path, expected, ref=None):
        return SimpleNamespace(
            projector=projector, rank=rank, proj_path=str(proj_path), psi=psi,
            state_path=str(state_path), expected=expected, witness_ref=ref,
        )

    def setup(self, pv: SimpleNamespace) -> None:
        self.pv = pv
        self.workdir.mkdir(parents=True, exist_ok=True)
        cases, self.fixture_arrays = [], {}
        for name in ("qubit", "spin52"):
            fixture = pv.fixtures.fixture_by_name(name)
            proj_path, *state_paths = pv.fixtures.export_fixture(fixture, self.workdir)
            self.fixture_arrays[name] = np.array(fixture.projector.array)
            for (key, state), state_path in zip(fixture.states.items(), state_paths):
                cases.append(self._case(
                    self.fixture_arrays[name], fixture.projector.rank, proj_path,
                    np.array(state.components), state_path,
                    fixture.expected[key].value, fixture.expected_witness.get(key),
                ))
        rng = np.random.default_rng([self.seed, 2])
        n = self.N
        for rank in (1, 2):
            for j in range(self.PROJECTORS_PER_RANK):
                raw = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                q, _ = np.linalg.qr(raw)
                p = q @ q.conj().T
                proj_path = self.workdir / f"rank{rank}_{j}_projector.json"
                pv.linalg.save_matrix(proj_path, p)
                inside = q @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))
                draw = unit_vector(rng, n)
                states = {
                    "true": inside / np.linalg.norm(inside),
                    "false": (draw - p @ draw) / np.linalg.norm(draw - p @ draw),
                    "gap": unit_vector(rng, n),
                }
                for expected, psi in states.items():
                    state_path = self.workdir / f"rank{rank}_{j}_state_{expected}.json"
                    pv.linalg.save_matrix(state_path, psi.reshape(-1, 1))
                    cases.append(self._case(p, rank, proj_path, psi, state_path, expected))
        reqs = []
        for case in cases:
            argv = ["valuate", case.proj_path, case.state_path]
            reqs.append((argv, case))
            reqs.append((argv + ["--ql"], case))
        for name in ("qubit", "spin52"):
            reqs.append((["demo", "nondistributivity", "--fixture", name], name))
        order = rng.permutation(len(reqs))
        self.reqs = [(int(k),) + reqs[k] for k in order]
        self.cycle = len(self.reqs)
        for i in range(self.cycle):
            self.call(self.request(i))

    def request(self, i: int):
        return self.reqs[i % self.cycle]

    def describe(self, req) -> str:
        return "propval " + " ".join(req[1])

    def call(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pv.cli.main(list(req[1]))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, req, out) -> tuple[list[str], int, int]:
        key, argv, case = req
        code, stdout, stderr = out
        if code != 0:
            return [f"exit {code}: {stderr.strip()}"], 0, 0
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return [f"unparsable output {stdout!r}"], 0, 0
        if argv[0] == "demo":
            return self._check_demo(key, case, report)
        ql = "--ql" in argv
        counts = report["counts"]
        witness = report["witness"]
        if witness is not None:
            witness = [complex(*w) if isinstance(w, list) else complex(w) for w in witness]
        problems = verdict_problems(
            ql, case.expected, report["verdict"],
            (counts["range_path"], counts["kernel_path"], counts["gap_total"]),
            witness, case.projector, case.rank, case.psi, 1e-7,
        )
        if case.witness_ref is not None and not ql:
            ref = np.asarray(case.witness_ref)
            if witness is None or not np.allclose(witness, ref, rtol=1e-6, atol=1e-6):
                problems.append(f"witness {witness} != fixture {case.witness_ref}")
        if key not in self._oracle:
            self._oracle[key] = oracle_value(
                self.pv.membership.residual_oracle, case.projector,
                self.pv.linalg.StateVector(case.psi),
            )
        want = ql_value(self._oracle[key]) if ql else self._oracle[key]
        disagree = int(report["verdict"] != want)
        if disagree:
            problems.append(f"oracle says {want}")
        return problems, 1, disagree

    def _check_demo(self, key, name, report) -> tuple[list[str], int, int]:
        q = self.fixture_arrays[name]
        p = np.zeros_like(q)
        p[0, 0] = 1.0
        want = {
            "fixture": name, "lhs": "true", "meet_with_p": "false",
            "meet_with_complement": "false", "lhs_dim": 1, "rhs_dim": 0,
            "lhs_equals_q": True, "violated": True,
        }
        problems = [
            f"{k} {report.get(k)!r} != {v!r}" for k, v in want.items() if report.get(k) != v
        ]
        commutator = float(np.linalg.norm(q @ p - p @ q))
        if not math.isclose(report.get("commutator_norm", -1.0), commutator, rel_tol=1e-6):
            problems.append(f"commutator_norm {report.get('commutator_norm')} != {commutator}")
        if key not in self._oracle:
            phi = q[:, 0] / np.linalg.norm(q[:, 0])
            member = self.pv.membership.residual_oracle(
                q, self.pv.linalg.StateVector(phi)
            ).member
            self._oracle[key] = "true" if member else "false"
        disagree = int(report.get("lhs") != self._oracle[key])
        return problems, 1, disagree


WORKLOADS = {w.name: w for w in (Sweep, RangeShared, CliSmall)}
