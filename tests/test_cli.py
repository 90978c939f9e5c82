"""Command-line surface: verdicts, benchmarks, cost profiles, demos."""

import json
import math

import numpy as np
import pytest

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


def test_cost_rejects_inverted_bounds(capsys):
    code, _, err = run(capsys, "cost", "--t1", "10", "--tinf", "20", "--p", "2")
    assert code == 2
    assert "InvalidBounds" in err


def test_cost_requires_exactly_one_processor_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--t1", "10", "--tinf", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--t1", "10", "--tinf", "1", "--p", "2", "--q", "3"])
    assert exc.value.code == 2


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
        assert json.loads(open(f).read())["rows"] == 2


def test_tolerance_env_override(capsys, qubit_files, monkeypatch):
    monkeypatch.setenv("PROPVAL_TOLERANCE", "0.8")
    # with an absurdly wide tolerance every comparison succeeds
    code, out, _ = run(
        capsys, "valuate", qubit_files["projector"], qubit_files["state_z_up"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "true"
