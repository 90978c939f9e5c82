"""Command-line surface: verdicts, benchmarks, cost profiles, demos."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import propval
from propval import cli
from propval.cli import main
from propval.fixtures import export_fixture, fixture_by_name
from propval.linalg import save_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().split("\n")[-1])


@pytest.fixture()
def spin52_files(tmp_path):
    paths = export_fixture(fixture_by_name("spin52"), tmp_path)
    return [str(p) for p in paths]


@pytest.fixture()
def qubit_files(tmp_path):
    paths = export_fixture(fixture_by_name("qubit"), tmp_path)
    return {p.stem.replace("qubit_", ""): str(p) for p in paths}


# Exact stdout of commands on the exported fixtures.  Every system these
# commands eliminate fits in one elimination panel, so the bytes,
# roundoff-level witness components included, must not change with how
# larger systems are blocked.  The default ``bench`` prints tallies and
# slopes only: every range-path tally and gap-path early exit from n = 8
# to 256.
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_stdout_is_byte_identical_to_the_recorded_output(
    capsys, tmp_path, command
):
    for name in ("qubit", "spin52"):
        export_fixture(fixture_by_name(name), tmp_path)
    argv = [
        str(tmp_path / arg) if arg.endswith(".json") else arg
        for arg in command.split()
    ]
    for _ in range(2):  # a repeat in the same process reuses the parser
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == GOLDEN[command]


def test_valuate_spin52_fixture_files(capsys, spin52_files):
    code, out, _ = run(capsys, "valuate", *spin52_files)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "false"
    witness = report["witness"]
    assert len(witness) == 5
    assert abs(witness[1] + math.sqrt(2)) < 1e-6
    assert report["counts"]["kernel_path"]["div"] == 14
    assert report["counts"]["gap_total"] is None


def test_valuate_gap_state(capsys, qubit_files):
    code, out, _ = run(
        capsys, "valuate", qubit_files["projector"], qubit_files["state_z_up"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "gap"


def test_valuate_identity_projector(capsys, tmp_path):
    proj = tmp_path / "identity.json"
    state = tmp_path / "state.json"
    save_matrix(proj, np.eye(3))
    save_matrix(state, np.array([[0.0], [1.0], [0.0]]))
    code, out, _ = run(capsys, "valuate", str(proj), str(state))
    assert code == 0
    assert json.loads(out)["verdict"] == "true"


def test_valuate_ql_flags(capsys, qubit_files):
    args = [qubit_files["projector"], qubit_files["state_z_up"]]
    code, out, _ = run(capsys, "valuate", *args, "--ql")
    assert code == 0 and json.loads(out)["verdict"] == "false"
    code, out, _ = run(capsys, "valuate", *args, "--ql", "--gap-to-true")
    assert code == 0 and json.loads(out)["verdict"] == "true"


def test_valuate_rejects_invalid_projector(capsys, tmp_path):
    proj = tmp_path / "bad.json"
    state = tmp_path / "state.json"
    save_matrix(proj, np.array([[2.0, 0.0], [0.0, 0.0]]))  # not idempotent
    save_matrix(state, np.array([[1.0], [0.0]]))
    code, _, err = run(capsys, "valuate", str(proj), str(state))
    assert code == 2
    assert "NotIdempotent" in err


@pytest.mark.parametrize(
    "projector, state",
    [
        ([[np.nan, 0.0], [0.0, 0.0]], [[1.0], [0.0]]),
        ([[np.inf, 0.0], [0.0, 0.0]], [[1.0], [0.0]]),
        ([[1.0, 0.0], [0.0, 0.0]], [[np.nan], [0.0]]),
    ],
    ids=["nan-projector", "infinity-projector", "nan-state"],
)
def test_valuate_rejects_non_finite_entries(capsys, tmp_path, projector, state):
    proj = tmp_path / "proj.json"
    vec = tmp_path / "state.json"
    save_matrix(proj, np.array(projector))  # json writes NaN / Infinity literals
    save_matrix(vec, np.array(state))
    code, out, err = run(capsys, "valuate", str(proj), str(vec))
    assert code == 2 and out == ""
    assert "NonFiniteEntry" in err


@pytest.mark.parametrize(
    "content", [b"[" * 100000, b"\xff\xfe{}"], ids=["deeply-nested", "not-utf8"]
)
def test_valuate_rejects_malformed_matrix_files(capsys, qubit_files, tmp_path, content):
    broken = tmp_path / "broken.json"
    broken.write_bytes(content)
    for argv in (
        [str(broken), qubit_files["state_z_up"]],
        [qubit_files["projector"], str(broken)],
    ):
        code, out, err = run(capsys, "valuate", *argv)
        assert code == 2 and out == ""
        assert "MalformedMatrixFile" in err


def test_valuate_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "valuate", str(tmp_path / "none.json"), str(tmp_path / "none.json")
    )
    assert code == 2
    assert "error:" in err


def test_bench_writes_csv_and_summary(capsys, tmp_path):
    out_file = tmp_path / "bench.csv"
    code, out, _ = run(
        capsys,
        "bench",
        "--grid",
        "8,12,16,24",
        "--seed",
        "5",
        "--out",
        str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "n,path,mul,div,add_sub,cmp,total"
    assert len(lines) == 1 + 4 * 3
    summary = last_json(out)
    assert summary["conjecture1"]["serial"] == "violated"
    assert summary["conjecture1"]["quantum_qpram"] == "satisfied"
    assert set(summary["slopes"]) == {"range_true", "kernel_false", "gap_both"}


def test_bench_default_seed_is_reproducible(capsys, tmp_path):
    a_file, b_file = tmp_path / "a.csv", tmp_path / "b.csv"
    _, a_out, _ = run(capsys, "bench", "--grid", "8,12,16,24", "--out", str(a_file))
    _, b_out, _ = run(capsys, "bench", "--grid", "8,12,16,24", "--out", str(b_file))
    assert a_file.read_bytes() == b_file.read_bytes()
    assert a_out == b_out


def test_bench_single_dimension_still_emits_samples(capsys):
    code, out, _ = run(capsys, "bench", "--grid", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,path,mul,div,add_sub,cmp,total"
    assert len([l for l in lines if l.startswith("8,")]) == 3
    assert "InsufficientSamples" in last_json(out)["fit_error"]


def test_bench_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "bench", "--grid", "1,2")
    assert code == 2
    assert "InvalidBounds" in err
    code, _, err = run(capsys, "bench", "--min-n", "64", "--max-n", "8")
    assert code == 2


def test_cost_classical_perfect_speedup(capsys):
    code, out, _ = run(capsys, "cost", "--t1", "100", "--tinf", "1", "--p", "100")
    assert code == 0
    report = json.loads(out)
    assert report["efficiency"] == 1.0
    assert report["cost"] == 100.0


def test_cost_quantum_feasible(capsys):
    code, out, _ = run(
        capsys, "cost", "--t1", "100", "--tinf", "1", "--q", "10", "--eq", "2.0"
    )
    report = json.loads(out)
    assert code == 0
    assert report["time"] == 5.0
    assert report["cost"] == 50.0
    assert report["clamped"] is False


def test_cost_quantum_clamped(capsys):
    code, out, _ = run(
        capsys, "cost", "--t1", "100", "--tinf", "50", "--q", "10", "--eq", "2.0"
    )
    report = json.loads(out)
    assert code == 0
    assert report["time"] == 50.0
    assert report["efficiency"] == 0.2
    assert report["clamped"] is True


@pytest.mark.parametrize(
    "bounds",
    [
        ["--t1", "10", "--tinf", "20", "--p", "2"],
        ["--t1", "nan", "--tinf", "1", "--p", "2"],
        ["--t1", "10", "--tinf", "nan", "--p", "2"],
        ["--t1", "inf", "--tinf", "1", "--p", "2"],
        ["--t1", "inf", "--tinf", "inf", "--q", "2", "--eq", "1"],
        ["--t1", "10", "--tinf", "1", "--q", "2", "--eq", "nan"],
        ["--t1", "10", "--tinf", "1", "--q", "2", "--eq", "inf"],
        ["--t1", "10", "--tinf", "1", "--q", "2", "--eq", "0"],
    ],
    ids=[
        "inverted",
        "nan-work",
        "nan-span",
        "infinite-work",
        "infinite-both",
        "nan-efficiency",
        "infinite-efficiency",
        "zero-efficiency",
    ],
)
def test_cost_rejects_invalid_bounds(capsys, bounds):
    code, out, err = run(capsys, "cost", *bounds)
    assert code == 2
    assert out == ""
    assert "InvalidBounds" in err


def test_cost_requires_exactly_one_processor_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--t1", "10", "--tinf", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--t1", "10", "--tinf", "1", "--p", "2", "--q", "3"])
    assert exc.value.code == 2


def test_cost_rejects_eq_without_q(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--t1", "10", "--tinf", "2", "--p", "2", "--eq", "3"])
    assert exc.value.code == 2
    assert "--eq requires --q" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", ["qubit", "spin52"])
def test_demo_nondistributivity(capsys, fixture):
    code, out, _ = run(capsys, "demo", "nondistributivity", "--fixture", fixture)
    assert code == 0
    report = json.loads(out)
    assert report["violated"] is True
    assert report["lhs"] == "true"
    assert report["meet_with_p"] == "false"
    assert report["meet_with_complement"] == "false"


def test_demo_commuting_override_fails(capsys):
    code, _, err = run(
        capsys, "demo", "nondistributivity", "--fixture", "qubit", "--p-from-q"
    )
    assert code == 2
    assert "CommutingOperators" in err


def test_fixtures_export_lists_files(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures", "export", "qubit", "--dir", str(tmp_path))
    assert code == 0
    files = json.loads(out)["files"]
    assert len(files) == 4  # projector + three states
    for f in files:
        assert json.loads(Path(f).read_text())["rows"] == 2


def test_tolerance_env_override(capsys, qubit_files, monkeypatch):
    monkeypatch.setenv("PROPVAL_TOLERANCE", "0.8")
    # with an absurdly wide tolerance every comparison succeeds
    code, out, _ = run(
        capsys, "valuate", qubit_files["projector"], qubit_files["state_z_up"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "true"


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "abc"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_invalid_tolerance_is_rejected(capsys, qubit_files, monkeypatch, value, source):
    argv = ["valuate", qubit_files["projector"], qubit_files["state_z_up"]]
    if source == "flag":
        argv.append(f"--tolerance={value}")
    else:
        monkeypatch.setenv("PROPVAL_TOLERANCE", value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "InvalidTolerance" in err
    if value == "abc":
        assert ("--tolerance" if source == "flag" else "PROPVAL_TOLERANCE") in err


def test_main_builds_one_parser_for_many_calls(capsys, qubit_files, monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (
        ["valuate", qubit_files["projector"], qubit_files["state_y_plus"]],
        ["valuate", qubit_files["projector"], qubit_files["state_y_plus"], "--ql"],
        ["cost", "--t1", "10", "--tinf", "1", "--p", "2"],
        ["demo", "nondistributivity", "--fixture", "spin52"],
        ["bench", "--grid", "8"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()
    cli._parser.cache_clear()


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import propval.cli\n"
        "print(len(built), propval.cli._parser.cache_info().currsize)\n"
    )
    src = str(Path(propval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]


def test_the_tolerance_variable_is_read_on_every_call(
    capsys, qubit_files, monkeypatch
):
    monkeypatch.delenv("PROPVAL_TOLERANCE", raising=False)
    argv = ["valuate", qubit_files["projector"], qubit_files["state_z_up"]]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["verdict"] == "gap"
    monkeypatch.setenv("PROPVAL_TOLERANCE", "0.8")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["verdict"] == "true"


def test_a_reused_parser_still_rejects_bad_usage(capsys, qubit_files):
    verdict = ["valuate", qubit_files["projector"], qubit_files["state_y_plus"]]
    valid = ["cost", "--t1", "10", "--tinf", "1", "--p", "2"]
    assert run(capsys, *verdict)[0] == 0
    assert run(capsys, *valid)[0] == 0
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--t1", "10", "--tinf", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: propval ")
        assert "provide exactly one of --p or --q" in captured.err
    code, out, _ = run(capsys, *valid)
    assert code == 0 and json.loads(out)["processors"] == 2
