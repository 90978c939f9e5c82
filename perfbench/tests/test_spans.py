"""Tests of the benchmark's own machinery: self time, patching, tables.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from checks import elimination_tally  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402
from run import in_ref_units  # noqa: E402
from spans import Target, Tracer, covered, self_times  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        ["request", 0.0, 10.0, -1, None],  # 0
        ["a", 1.0, 6.0, 0, None],  # 1: child of request
        ["b", 2.0, 3.0, 1, None],  # 2: child of a
        ["c", 2.5, 4.0, 1, None],  # 3: child of a, overlaps b
        ["d", 7.0, 9.0, 0, None],  # 4: child of request
        ["e", 8.5, 12.0, 4, None],  # 5: child of d, runs past its parent
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 5 - 2, 1, 1.5, 2 - 0.5, 3.5])


def test_covered_merges_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert covered([(-1.0, 1.0), (9.0, 11.0)], 0.0, 10.0) == 2.0
    assert covered([(2.0, 8.0), (3.0, 4.0)], 0.0, 10.0) == 6.0


@pytest.fixture()
def fake_package():
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    package = types.ModuleType("fakepkg")

    def work(x):
        return 2 * x

    home.work = work
    user.work = work  # as after ``from .home import work``
    user.call = lambda x: user.work(x)
    modules = {"fakepkg": package, "fakepkg.home": home, "fakepkg.user": user}
    sys.modules.update(modules)
    yield home, user, work
    for name in modules:
        del sys.modules[name]


def test_install_patches_importing_modules_and_restore_undoes_it(fake_package):
    home, user, work = fake_package
    tracer = Tracer("fakepkg")
    tracer.install(
        [
            Target("fakepkg.home", "work", "home.work", lambda args, r: args[0]),
            Target("fakepkg.home", "absent", "home.absent"),
        ]
    )
    assert home.work is not work and user.work is home.work
    assert tracer.missing == ["fakepkg.home.absent"]
    root = tracer.begin("request")
    assert user.call(21) == 42
    tracer.end(root)
    tracer.restore()
    assert home.work is work and user.work is work
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("request", -1, None), ("home.work", 0, 21)]


def test_benchmark_json_lists_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]


@pytest.mark.parametrize("n", [3, 6, 17, 256])
def test_elimination_tally_matches_the_closed_form(n):
    tally = elimination_tally(n, n - 1)
    assert tally["div"] == n * (n - 1) // 2 - 1
    assert tally["mul"] == tally["add_sub"] == n * (n - 1) * (2 * n - 1) // 6 - 1


def test_request_times_are_divided_by_the_interpolated_kernel_time():
    res = types.SimpleNamespace(
        passes=[([1.0, 3.0], 0), ([2.0], 1)],
        refs=[1.0, 3.0, 0.5, 0.5],
    )
    # pass 0 runs from 0 to 4; its requests' middles are at 0.5 and 2.5
    assert in_ref_units(res) == [
        (pytest.approx([1.0 / 1.25, 3.0 / 2.25]), 0),
        (pytest.approx([4.0]), 1),
    ]
