import json

import pytest

from amrsched.cli import main
from amrsched.evaluation import evaluate_solution
from amrsched.model import load_instance, solution_from_ids
from test_model import SOLOMON_SAMPLE


def run(argv):
    return main([str(a) for a in argv])


def test_solve_writes_reloadable_solution(hospital12_path, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = run(["solve", "--instance", hospital12_path, "--iterations", 400,
                "--seed", 0, "--out", out])
    assert code == 0
    table = capsys.readouterr().out
    for col in ("AMR No.", "Service Route", "Distance (m)", "Load (kg)",
                "Number of Charges", "Mean Arrival Time of Requests"):
        assert col in table
    payload = json.loads(out.read_text())
    inst = load_instance(hospital12_path)
    sol = solution_from_ids(inst, [a["trips"] for a in payload["amrs"]])
    ev = evaluate_solution(inst, sol)
    assert ev.objective == pytest.approx(payload["objective"], abs=1e-12)
    assert ev.amr_count == payload["m"]
    assert ev.total_distance == pytest.approx(payload["distance"], abs=1e-12)


def test_solve_verbose_trace(hospital12_path, capsys):
    code = run(["solve", "--instance", hospital12_path, "--iterations", 5,
                "--seed", 1, "--verbose"])
    assert code == 0
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line]
    assert len(err_lines) == 5
    first = err_lines[0].split(",")
    assert first[0] == "1" and len(first) == 3


def test_solve_on_case_study(hospital64_path, tmp_path, capsys):
    out = tmp_path / "case.json"
    code = run(["solve", "--instance", hospital64_path, "--iterations", 60,
                "--seed", 0, "--out", out])
    assert code == 0
    table = capsys.readouterr().out
    assert "Mean Arrival Time of Requests" in table
    payload = json.loads(out.read_text())
    assert payload["m"] >= 3
    assert len(payload["per_request"]) == 64


def test_validate_round_trip(hospital12_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    run(["solve", "--instance", hospital12_path, "--iterations", 400,
         "--seed", 0, "--out", sol])
    capsys.readouterr()
    out = tmp_path / "mc.json"
    code = run(["validate", "--instance", hospital12_path, "--solution", sol,
                "--mc-samples", 5000, "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["samples"] == 5000
    assert report["max_violation"] <= 0.07


def test_validate_infeasible_plan_exit_code(hospital12_path, tmp_path, capsys):
    bad = {"amrs": [{"trips": [[
        "d", 9, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, "d"]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = run(["validate", "--instance", hospital12_path, "--solution", path])
    assert code == 2


def test_oracle_command(hospital12_path, tmp_path, capsys):
    # restrict to a 4-request sub-instance via a temporary file
    inst = load_instance(hospital12_path)
    from helpers import sub_instance
    from amrsched.model import serialize_instance
    sub = sub_instance(inst, [1, 2, 3, 4])
    sub_path = tmp_path / "sub.json"
    sub_path.write_text(serialize_instance(sub))
    out = tmp_path / "exact.json"
    code = run(["oracle", "--instance", sub_path, "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["objective"] == pytest.approx(66.2)
    assert payload["feasible"] is True


def test_convert_solomon(tmp_path, capsys):
    src = tmp_path / "r101.txt"
    src.write_text(SOLOMON_SAMPLE)
    out = tmp_path / "converted.json"
    code = run(["convert", "--solomon", src, "--profile", "small", "--out", out])
    assert code == 0
    inst = load_instance(out)
    assert inst.n_requests == 15
    assert [r.floor for r in inst.requests] == [1] * 5 + [2] * 5 + [3] * 5


def test_convert_empty_solomon_fails(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    code = run(["convert", "--solomon", src])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_instance_fails_cleanly(capsys):
    code = run(["solve", "--instance", "nope.json", "--iterations", 1])
    assert code == 1
    assert "no such instance file" in capsys.readouterr().err


def test_bench_csv(hospital12_path, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--instance", hospital12_path, "--iterations",
                "50,100", "--repeats", 2, "--jobs", 1, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,m,sum_distance,f,time_seconds,seed"
    assert len(lines) == 1 + 4
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["50", "50", "100", "100"]
    assert [r[5] for r in rows] == ["0", "1", "0", "1"]
    # same seed, larger N never does worse
    f50 = min(float(r[3]) for r in rows if r[0] == "50")
    f100 = min(float(r[3]) for r in rows if r[0] == "100")
    assert f100 <= f50


def test_solve_with_overrides(hospital12_path, capsys, tmp_path):
    out = tmp_path / "sol.json"
    code = run(["solve", "--instance", hospital12_path, "--iterations", 200,
                "--seed", 0, "--xi1", 50, "--scale-variance", 10,
                "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    # xi1 override visible in the objective: 2 AMRs cost 100 plus distance
    assert payload["objective"] == pytest.approx(
        50 * payload["m"] + 0.01 * payload["distance"])


@pytest.mark.parametrize("command, solution_text", [
    ("solve", None),        # --iterations 0: ValueError from solve
    ("validate", ""),       # empty file: JSONDecodeError
    ("validate", "{}"),     # no "amrs" key
    ("validate", '{"amrs": [{}]}'),             # AMR without "trips"
    ("validate", '{"amrs": [{"trips": 5}]}'),   # "trips" not a list
    ("validate", '{"amrs": [5]}'),              # AMR not an object
    ("validate", '{"amrs": [{"trips": [5]}]}'),  # trip body not a list
    ("validate", '{"amrs": [{"trips": [[{}]]}]}'),  # stop not an id
    ("validate", '{"amrs": [{"trips": [[1e400]]}]}'),  # inf stop
])
def test_bad_input_is_one_error_line(command, solution_text, hospital12_path,
                                     tmp_path, capsys):
    argv = [command, "--instance", hospital12_path]
    if command == "solve":
        argv += ["--iterations", 0]
    else:
        path = tmp_path / "sol.json"
        path.write_text(solution_text)
        argv += ["--solution", path]
    assert_one_error_line(argv, capsys)


@pytest.mark.parametrize("option, value", [
    ("--epsilon", 0),
    ("--epsilon", 1),
    ("--epsilon", "nan"),
    ("--delta", 1),
    ("--xi1", -1),
    ("--scale-variance", "nan"),
])
def test_bad_option_is_one_error_line(option, value, hospital12_path, capsys):
    """An override that breaks an instance invariant is refused before any
    plan is built (a NaN chance quantile would pass every plan)."""
    assert_one_error_line(["solve", "--instance", hospital12_path,
                           "--iterations", 5, option, value], capsys)


def assert_one_error_line(argv, capsys):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
