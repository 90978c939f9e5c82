"""Metric tables, the traced functions, and which metric each layer moves.

``END_TO_END`` and ``PER_LAYER`` are the metrics BENCHMARK.json lists,
in the same order.  Each per-layer row names the end-to-end metric and
workload it is expected to move; later changes cite them by name.
Span names are ``<module>.<function>`` of the function timed.
"""

from __future__ import annotations

from spans import Target

# name, unit, better, bound (share of the parent's median).  Timings are
# divided by a reference kernel's time (see reference.py), which cancels
# most of the host's changes in speed; what is left gave spreads (IQR over
# median, ten 36 s runs on a 2-vCPU Xeon KVM guest) of up to 0.05 on
# medians and 0.09 on p90.  Set-up time is timed only a few times per
# run, so it keeps the widest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("sweep_ref", "ref", "lower", 0.2),
    ("verdict_p50_ref", "ref", "lower", 0.2),
    ("verdict_p90_ref", "ref", "lower", 0.25),
    ("verdicts_per_ref", "1/ref", "higher", 0.2),
    ("verified_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("cli.main.self_ms", "ms", "lower", "verdict_p50_ref on cli-small"),
    ("linalg.load_matrix.ms", "ms", "lower", "verdict_p50_ref on cli-small"),
    ("linalg.validate_projector.ms", "ms", "lower", "verdict_p50_ref on cli-small"),
    ("linalg.range_basis.ms", "ms", "lower", "verdicts_per_ref on range-shared"),
    ("linalg.range_basis.calls_per_projector", "count", "lower",
     "verdicts_per_ref on range-shared"),
    ("linalg.kernel_basis.ms", "ms", "lower", "sweep_ref on sweep"),
    ("linalg.kernel_basis.calls_per_projector", "count", "lower", "sweep_ref on sweep"),
    ("linalg.independent_columns.self_ms", "ms", "lower",
     "verdicts_per_ref on range-shared, verdict_p50_ref on cli-small"),
    ("linalg.null_space_basis.ms", "ms", "lower", "verdict_p90_ref on cli-small"),
    ("membership.range_membership.ms", "ms", "lower", "verdicts_per_ref on range-shared"),
    ("membership.kernel_membership_iterative.ms", "ms", "lower", "sweep_ref on sweep"),
    ("membership.kernel_membership_iterative.mops_per_s", "Mop/s", "higher",
     "sweep_ref on sweep"),
    ("membership.elimination_share", "ratio", "lower", "sweep_ref on sweep"),
    ("membership.oracle_disagree_ratio", "ratio", "lower",
     "verified_ratio on every workload"),
    ("valuation.valuate.self_ms", "ms", "lower",
     "verdicts_per_ref on range-shared, verdict_p50_ref on cli-small"),
    ("valuation.valuate_ql.self_ms", "ms", "lower",
     "verdicts_per_ref on range-shared, verdict_p50_ref on cli-small"),
    ("valuation.demo_nondistributivity.ms", "ms", "lower", "verdict_p90_ref on cli-small"),
    ("fixtures.random_instance.ms", "ms", "lower", "sweep_ref on sweep"),
    ("fixtures.random_instance.calls_per_n", "count", "lower", "sweep_ref on sweep"),
    ("costmodel.benchmark_paths.self_ms", "ms", "lower", "sweep_ref on sweep"),
    ("costmodel.conjecture1_report.ms", "ms", "lower", "sweep_ref on sweep"),
    ("numerics.ops_per_verdict", "count", "lower",
     "none: an exact tally that moves only when a change says why"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of the traced run itself"),
)

# Elimination rate is reported at the paper's largest default dimension.
MOPS_DIMENSION = 256


def projector_key(args, result):
    """Content key of a projector, so redraws of the same matrix group."""
    a = args[0].array
    return a.shape, a.diagonal().tobytes(), a[0].tobytes()


def draw_key(args, result):
    """(n, seed) of a random_instance call: one projector draw."""
    return args[0], args[1]


def elimination_note(args, result):
    c = result.counts
    return args[0].rows, c.mul + c.div + c.add_sub


def verdict_ops(args, result):
    return result.cost_true_path.total + result.cost_false_path.total


TARGETS = (
    Target("propval.cli", "main", "cli.main"),
    Target("propval.linalg", "load_matrix", "linalg.load_matrix"),
    Target("propval.linalg", "validate_projector", "linalg.validate_projector"),
    Target("propval.linalg", "range_basis", "linalg.range_basis", projector_key),
    Target("propval.linalg", "kernel_basis", "linalg.kernel_basis", projector_key),
    Target("propval.linalg", "independent_columns", "linalg.independent_columns"),
    Target("propval.linalg", "null_space_basis", "linalg.null_space_basis"),
    Target("propval.membership", "range_membership", "membership.range_membership"),
    Target(
        "propval.membership",
        "kernel_membership_iterative",
        "membership.kernel_membership_iterative",
        elimination_note,
    ),
    Target("propval.valuation", "valuate", "valuation.valuate", verdict_ops),
    Target("propval.valuation", "valuate_ql", "valuation.valuate_ql", verdict_ops),
    Target(
        "propval.valuation", "demo_nondistributivity", "valuation.demo_nondistributivity"
    ),
    Target("propval.fixtures", "random_instance", "fixtures.random_instance", draw_key),
    Target("propval.costmodel", "benchmark_paths", "costmodel.benchmark_paths"),
    Target("propval.costmodel", "conjecture1_report", "costmodel.conjecture1_report"),
)
