"""propval benchmark: end-to-end and per-layer timings of three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload {sweep,range-shared,cli-small} \\
        --seed N --seconds S --trace {0,1}

One client calls propval in process, in a closed loop: it sends the
next request when the previous one has returned.  The program is
imported from ``src/`` of the directory above this one; without it the
run exits with status 2 and prints no result.  BLAS is pinned to one
thread and ``PROPVAL_TOLERANCE`` is removed before numpy is imported.

``--trace 0`` reports the end-to-end metrics of ``layers.END_TO_END``.
Every timing is divided by the time of a reference kernel run just
before and after it (see ``reference.py``), so that the host's changes
in speed cancel.  ``setup_s`` is the median of several set-ups spread
over the run, each a fresh import of propval, input generation and file
writing, and one warm-up pass; it is reported in seconds on a host where
one kernel run takes ``REF_NOMINAL_S``.  Latency, throughput and the
time of a pass over the request cycle are medians over the whole run,
in units of one kernel run (``ref``).  The same figures as timed, in
seconds, are printed beside them.
``--trace 1`` alternates untraced and traced passes over the request
cycle and reports the per-layer metrics of ``layers.PER_LAYER``, timed
by wrappers around propval's public functions (see ``spans.py``).
Every output is checked outside the timed region; a request that
raises or gives a wrong verdict, witness or tally counts as failed and
is listed on stderr with its input.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

from layers import END_TO_END, MOPS_DIMENSION, PER_LAYER, TARGETS
from spans import END, NAME, NOTE, START, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS, which cannot be imported before numpy is pinned.
WORKLOAD_NAMES = ("sweep", "range-shared", "cli-small")
SETUP_REPEATS = 11
MODULES = ("cli", "costmodel", "fixtures", "linalg", "membership", "numerics", "valuation")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
ENV_TOLERANCE = "PROPVAL_TOLERANCE"
SHOWN_FAILURES = 20
# Reference kernel runs before and after each pass: about 5% of a pass each.
REF_RUNS = {"sweep": 24, "range-shared": 5, "cli-small": 2}
# setup_s is set-up time in ref units times this: seconds on a host where
# one kernel run takes 3 ms.  On the 2-vCPU Xeon KVM guest the benchmark
# was tuned on, a run took 1.3 to 3.3 ms, depending on the host's load.
REF_NOMINAL_S = 0.003


def pin_environment() -> dict:
    """One BLAS thread and the default tolerance; call before importing numpy."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    was_set = os.environ.pop(ENV_TOLERANCE, None) is not None
    return {
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "propval_tolerance": "unset" + (" (removed for the run)" if was_set else ""),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(np, env: dict) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "simd_baseline": simd.get("baseline"),
        "simd_found": simd.get("found"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **env,
    }


def import_propval() -> SimpleNamespace:
    """Fresh import of propval from SRC, so each set-up pays for it."""
    for name in [m for m in sys.modules if m == "propval" or m.startswith("propval.")]:
        del sys.modules[name]
    package = importlib.import_module("propval")
    if Path(package.__file__).resolve().parent != (SRC / "propval").resolve():
        raise RuntimeError(f"propval imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"propval.{m}") for m in MODULES}
    )


def measure(new_workload, seconds: float, reference, ref_runs: int, tracer=None,
            targets=()) -> SimpleNamespace:
    """Whole request cycles until ``seconds`` of wall time have passed.

    ``new_workload()`` sets the workload up afresh; its SETUP_REPEATS
    timed calls are spread evenly over the run, so that set-up time
    samples the host at different moments, like the requests do.
    The reference kernel runs ``ref_runs`` times just before and just
    after every set-up and every untraced pass over the cycle, so
    ``res.refs[2k]`` and ``res.refs[2k + 1]`` bracket pass ``k``.
    With a tracer, odd cycles run with the span wrappers installed, and
    at least one cycle of each kind runs.
    Outputs are checked after each cycle, with the wrappers removed.
    """
    res = SimpleNamespace(
        setups=[], setup_refs=[], latencies=[], traced_latencies=[], passes=[], refs=[],
        attempted=0, failed=0, verdicts=0, disagree=0, failures=[],
    )
    reference.kernel()
    i, block = 0, 0
    start = time.perf_counter()
    while (elapsed_run := time.perf_counter() - start) < seconds or (
        tracer is not None and block < 2
    ):
        if len(res.setups) < SETUP_REPEATS and elapsed_run >= (
            len(res.setups) * seconds / SETUP_REPEATS
        ):
            before = reference.seconds(ref_runs)
            started = time.perf_counter()
            workload = new_workload()
            res.setups.append(time.perf_counter() - started)
            res.setup_refs.append((before + reference.seconds(ref_runs)) / 2)
        traced = tracer is not None and block % 2 == 1
        outputs = []
        if traced:
            tracer.install(targets)
        else:
            res.refs.append(reference.seconds(ref_runs))
        try:
            for _ in range(workload.cycle):
                req = workload.request(i)
                i += 1
                root = tracer.begin("request") if traced else -1
                started = time.perf_counter()
                try:
                    out, error = workload.call(req), None
                except Exception as exc:  # counted as a failed request
                    out, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - started
                if traced:
                    tracer.end(root)
                outputs.append((req, out, error, elapsed))
        finally:
            if traced:
                tracer.restore()
        if not traced:
            res.refs.append(reference.seconds(ref_runs))
        block += 1
        elapsed_all = [e for *_, e in outputs]
        (res.traced_latencies if traced else res.latencies).extend(elapsed_all)
        raised = sum(error is not None for _, _, error, _ in outputs)
        if not traced:
            res.passes.append((elapsed_all, raised))
        for req, out, error, _ in outputs:
            res.attempted += 1
            if error is not None:
                problems = [error]
            else:
                try:
                    problems, verdicts, disagree = workload.check(req, out)
                except Exception as exc:  # malformed output the checks did not expect
                    problems, verdicts, disagree = [f"check raised {exc!r}"], 0, 0
                res.verdicts += verdicts
                res.disagree += disagree
            if problems:
                res.failed += 1
                if len(res.failures) < SHOWN_FAILURES:
                    res.failures.append((workload.describe(req), problems))
    res.workload = workload
    return res


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method), or the only value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def in_ref_units(res) -> list[tuple[list[float], int]]:
    """Each pass's request times over the kernel time at that request.

    The kernel time is interpolated linearly between the timings just
    before and just after the pass, at the middle of the request.
    """
    passes = []
    for (latencies, raised), before, after in zip(
        res.passes, res.refs[0::2], res.refs[1::2]
    ):
        total, done, scaled = sum(latencies), 0.0, []
        for x in latencies:
            ref = before + (after - before) * (done + x / 2) / total
            scaled.append(x / ref)
            done += x
        passes.append((scaled, raised))
    return passes


def end_to_end(res) -> dict[str, float]:
    passes = in_ref_units(res)
    lat = [x for latencies, _ in passes for x in latencies]
    completed = len(lat) - sum(raised for _, raised in passes)
    return {
        "setup_s": statistics.median(
            took / ref for took, ref in zip(res.setups, res.setup_refs)
        ) * REF_NOMINAL_S,
        "sweep_ref": statistics.median(sum(latencies) for latencies, _ in passes),
        "verdict_p50_ref": statistics.median(lat),
        "verdict_p90_ref": quantile(lat, 90),
        "verdicts_per_ref": completed / sum(lat),
        "verified_ratio": (res.attempted - res.failed) / res.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def span_stats(tracer) -> dict[str, dict]:
    """Per span name: durations, notes and total self time."""
    stats: dict[str, dict] = defaultdict(lambda: {"durations": [], "notes": [], "self": 0.0})
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        entry = stats[span[NAME]]
        entry["durations"].append(span[END] - span[START])
        entry["notes"].append(span[NOTE])
        entry["self"] += own
    return stats


def per_layer(stats: dict, res) -> dict[str, float]:
    empty = {"durations": [], "notes": [], "self": 0.0}

    def get(span: str) -> dict:
        return stats.get(span, empty)

    def notes(span: str) -> list:
        return [n for n in get(span)["notes"] if n is not None]

    def per_call_ms(total: float, span: str) -> float:
        calls = len(get(span)["durations"])
        return total / calls * 1e3 if calls else 0.0

    def calls_per_key(span: str) -> float:
        keys = set(notes(span))
        return len(get(span)["durations"]) / len(keys) if keys else 0.0

    elim = get("membership.kernel_membership_iterative")
    at_n = [
        (note[1], duration)
        for note, duration in zip(elim["notes"], elim["durations"])
        if note is not None and note[0] == MOPS_DIMENSION
    ]
    ops = notes("valuation.valuate") + notes("valuation.valuate_ql")
    special = {
        "membership.kernel_membership_iterative.mops_per_s": (
            sum(o for o, _ in at_n) / sum(d for _, d in at_n) / 1e6 if at_n else 0.0
        ),
        "membership.elimination_share": (
            sum(elim["durations"]) / sum(get("request")["durations"])
        ),
        "membership.oracle_disagree_ratio": res.disagree / max(res.verdicts, 1),
        "numerics.ops_per_verdict": sum(ops) / len(ops) if ops else 0.0,
        "trace.overhead_ratio": (
            statistics.median(res.traced_latencies) / statistics.median(res.latencies)
        ),
    }
    values = {}
    for name, *_ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stat == "ms":
            values[name] = per_call_ms(sum(get(span)["durations"]), span)
        elif stat == "self_ms":
            values[name] = per_call_ms(get(span)["self"], span)
        else:
            values[name] = calls_per_key(span)
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "propval" / "__init__.py").is_file():
        print(f"error: no propval sources under {SRC}", file=sys.stderr)
        return 2
    env = pin_environment()
    sys.path.insert(0, str(SRC))
    import numpy as np
    from reference import Reference
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"

    def new_workload():
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup(import_propval())
        return workload

    try:
        tracer = Tracer() if args.trace else None
        res = measure(
            new_workload, args.seconds, Reference(), REF_RUNS[args.workload],
            tracer, TARGETS,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print(f"propval benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine_block(np, env)))
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    if args.trace:
        stats = span_stats(tracer)
        metrics = per_layer(stats, res)
        report_spans(stats)
        if tracer.missing:
            print("not traced (absent): " + ", ".join(tracer.missing))
        moves = {name: row[-1] for name, *row in PER_LAYER}
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}  (moves {moves[name]})")
    else:
        metrics = end_to_end(res)
        lat = res.latencies
        above = sum(
            x > metrics["verdict_p90_ref"] for p, _ in in_ref_units(res) for x in p
        )
        ref_q = " ".join(f"{q * 1e3:.4g}" for q in statistics.quantiles(res.refs, n=4))
        per_pass = f"median of {len(res.passes)} passes of {res.workload.cycle} requests"
        counts = {
            "setup_s": f"median of {len(res.setups)} set-ups spread over the run, "
            f"{statistics.median(res.setups):.6g} s as timed",
            "sweep_ref": f"{per_pass}; in seconds "
            f"{statistics.median(sum(p) for p, _ in res.passes):.6g}",
            "verdict_p50_ref": f"{len(lat)} requests; in ms "
            f"{statistics.median(lat) * 1e3:.6g}",
            "verdict_p90_ref": f"{len(lat)} requests, "
            f"{above} above; in ms {quantile(lat, 90) * 1e3:.6g}",
            "verdicts_per_ref": f"over {sum(lat):.3f} s of request time; per second "
            f"{(len(lat) - sum(r for _, r in res.passes)) / sum(lat):.6g}",
            "verified_ratio": f"{res.attempted - res.failed} of {res.attempted}",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}  ({counts[name]})")
        print(f"  1 ref = {statistics.median(res.refs) * 1e3:.6g} ms (median of "
              f"{len(res.refs)} timings of {REF_RUNS[args.workload]} kernel runs; "
              f"quartiles {ref_q} ms)")
    print(f"checked {res.attempted} requests, {res.verdicts} verdicts against "
          f"residual_oracle ({res.disagree} disagree), {res.failed} failed")
    for what, problems in res.failures:
        print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def report_spans(stats: dict) -> None:
    """Spans by total self time, with self time as a share of request time."""
    total = sum(stats["request"]["durations"])
    print(f"{'span':48} {'calls':>8} {'incl_ms':>11} {'self_ms':>11} {'self%':>6}")
    for name, e in sorted(stats.items(), key=lambda kv: -kv[1]["self"]):
        print(f"{name:48} {len(e['durations']):8d} {sum(e['durations']) * 1e3:11.3f} "
              f"{e['self'] * 1e3:11.3f} {100 * e['self'] / total:6.2f}")


if __name__ == "__main__":
    sys.exit(main())
