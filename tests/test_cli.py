import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from amrsched.cli import main
from amrsched.evaluation import evaluate_solution
from amrsched.model import (PARAM_GROUPS, InstanceError, load_instance,
                            solution_from_ids)
from helpers import SOLOMON_SAMPLE, battery_starved_payload


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
    assert report.keys() == {"samples", "max_violation", "per_request"}
    assert report["samples"] == 5000
    assert report["max_violation"] <= 0.07
    assert len(report["per_request"]) == 12
    for stats in report["per_request"]:
        assert stats.keys() == {"id", "violation_frequency", "mean_arrival"}


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


def test_bench_starts_no_more_workers_than_tasks(hospital12_path, tmp_path,
                                                 monkeypatch):
    started = []

    class SerialPool:
        """Records the worker count asked for and runs the tasks in line."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    for repeats, workers in ((2, [2]), (1, [])):
        started.clear()
        out = tmp_path / f"bench{repeats}.csv"
        code = run(["bench", "--instance", hospital12_path, "--iterations", 20,
                    "--repeats", repeats, "--jobs", 64, "--out", out])
        assert code == 0
        assert started == workers
        assert len(out.read_text().splitlines()) == 1 + repeats


_COLD_START = """
import sys
import amrsched, amrsched.cli
amrsched.cli.main(["solve", "--instance", sys.argv[1], "--iterations", "5"])
print(sorted({"numpy", "multiprocessing"} & set(sys.modules)))
inst = amrsched.load_instance(sys.argv[1])
report = amrsched.mc_validate(inst, amrsched.solve(inst, 5)[0], 100)
print(report.samples, len(report.per_request))
"""


def test_cold_start_loads_neither_numpy_nor_multiprocessing(hospital12_path):
    """`import amrsched` and `solve` start without numpy and multiprocessing;
    mc_validate imports numpy when called.  A fresh interpreter, because
    tests/helpers.py imports numpy into this one."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(hospital12_path)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120, check=True)
    *_table, loaded, report = proc.stdout.splitlines()
    assert loaded == "[]"
    assert report == "100 12"


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


def test_solve_ends_when_the_penalized_cost_overflows(hospital12_path):
    """With xi1 = 1e308 two AMRs cost inf; the descent must still end, since
    a candidate that also prices inf is no improvement.  A subprocess, so a
    descent that never ends fails on the timeout instead of hanging."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "amrsched.cli", "solve", "--instance",
         str(hospital12_path), "--xi1", "1e308", "--iterations", "3"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_solve_unrepairable_battery_exit_code(tmp_path, capsys):
    """No charging stop can save the battery: exit 2 (infeasible) with one
    stderr line, not a traceback or exit 1."""
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(battery_starved_payload()))
    code = run(["solve", "--instance", path, "--iterations", 20, "--seed", 0])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "no zero-penalty solution found; best shown is infeasible\n"


@pytest.mark.parametrize("command, payload", [
    ("solve", None),        # --iterations 0: ValueError from solve
    ("bench", "5,x"),       # --iterations not a list of integers
    ("validate", ""),       # empty file: JSONDecodeError
    ("validate", "{}"),     # no "amrs" key
    ("validate", '{"amrs": [{}]}'),             # AMR without "trips"
    ("validate", '{"amrs": [{"trips": 5}]}'),   # "trips" not a list
    ("validate", '{"amrs": [5]}'),              # AMR not an object
    ("validate", '{"amrs": [{"trips": [5]}]}'),  # trip body not a list
    ("validate", '{"amrs": [{"trips": [[{}]]}]}'),  # stop not an id
    ("validate", '{"amrs": [{"trips": [[1e400]]}]}'),  # inf stop
    # the paper optimum with an empty trip and an AMR with no trips: refused,
    # not read as a plan of fewer AMRs
    ("validate", '{"amrs": [{"trips": [[1, 3, 6, 7], [], [9, 11, 10]]}, '
                 '{"trips": [[4, 2, 5, 8, 12]]}]}'),
    ("validate", '{"amrs": [{"trips": [[1, 3, 6, 7], [9, 11, 10]]}, '
                 '{"trips": [[4, 2, 5, 8, 12]]}, {"trips": []}]}'),
    # every request served, but a 'd' inside a trip: refused, not dropped
    ("validate", '{"amrs": [{"trips": [[1, 3, 6, 7, "d", 9, 11, 10]]}, '
                 '{"trips": [[4, 2, 5, 8, 12]]}]}'),
    # "instance": hospital12 with one field set; the error names the field
    ("instance", "requests = 5"),
    ("instance", "requests.0 = 5"),
    ("instance", 'requests.0.demand = "abc"'),
    ("instance", "requests.0.id = true"),
    ("instance", "requests.0.floor = 1.7"),
    ("instance", "requests.0.window = [true, 30000]"),
    ("instance", "amr = 5"),
    pytest.param("instance", "amr.speed = 1" + "0" * 400,
                 id="instance-amr.speed = 10**400"),   # no float holds it
    ("instance", "cost = 5"),
    ("instance", 'stoch = "x"'),
    ("instance", "depot = 5"),
    ("instance", "charging.0 = 5"),
    ("instance", "charging.0.floor = null"),
    ("instance", "distance.1 = 5"),
    ("instance", "distance.0 = [0]"),      # the default shift start reads row 0
    ("instance", "floor_diff.0 = [0]"),
    ("instance", 'floor_diff.1.2 = "abc"'),
    # clock strings out of range or signed
    ("instance", 'requests.0.window.1 = "8:70"'),
    ("instance", 'requests.0.window.0 = "8:10:99"'),
    ("instance", 'requests.0.window.0 = "-1:00"'),
    ("instance", 'shift_start = "25:00"'),
    # finite but beyond one day: no overflow in the route table
    ("instance", "amr.speed = 1e-320"),
    ("instance", "stoch.sigma0_sq = 1e308"),
    ("instance", "stoch.stop_overhead = 1e308"),
    ("instance", "shift_start = 1e308"),
    ("instance", "shift_start = -1e308"),
    ("instance", "requests.0.window.0 = -1e308"),
])
def test_bad_input_is_one_error_line(command, payload, hospital12_path,
                                     tmp_path, capsys):
    if command == "instance":
        field, value = payload.split(" = ")
        keys = [int(k) if k.isdigit() else k for k in field.split(".")]
        data = json.loads(hospital12_path.read_text())
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = json.loads(value)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        err = assert_one_error_line(["solve", "--instance", path,
                                     "--iterations", 1], capsys)
        assert re.sub(r"\.(\d+)", r"[\1]", field) in err
        return
    argv = [command, "--instance", hospital12_path]
    if command == "solve":
        argv += ["--iterations", 0]
    elif command == "bench":
        argv += ["--iterations", payload]
    else:
        path = tmp_path / "sol.json"
        path.write_text(payload)
        argv += ["--solution", path]
    assert_one_error_line(argv, capsys)


def test_floor_no_float_holds_is_one_error_line(hospital12_path, tmp_path,
                                                capsys):
    """With floor_diff derived from the floors, a floor of 10**400 is refused
    by name instead of overflowing the derivation."""
    data = json.loads(hospital12_path.read_text())
    del data["floor_diff"]
    data["requests"][0]["floor"] = 10 ** 400
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    err = assert_one_error_line(["solve", "--instance", path, "--iterations", 1],
                                capsys)
    assert "requests[0].floor" in err


MUTATIONS = (("drop", None), ("string", "x"), ("bool", True), ("null", None),
             ("list", []), ("nan", math.nan), ("inf", math.inf), ("zero", 0),
             ("negative", -1e6), ("huge", 1e300), ("tiny", 1e-320))


def test_schema_mutations_load_or_fail_cleanly(hospital12_path, tmp_path,
                                               capsys):
    """Each parameter of the schema, each request field, shift_start, the
    floors and one cell of each matrix, dropped, retyped or set to an extreme
    value: the load gives an InstanceError or a valid instance, and solving
    a valid one exits 0, 1 or 2 with no traceback."""
    text = hospital12_path.read_text()
    paths = [(group, f.metadata["key"])
             for group, cls in PARAM_GROUPS.items() for f in fields(cls)]
    paths += [("requests", 0, key) for key in json.loads(text)["requests"][0]]
    paths += [("requests", 0, "window", 0), ("requests", 0, "window", 1),
              ("shift_start",), ("depot", "floor"), ("charging", 0, "floor"),
              ("distance", 0, 1), ("floor_diff", 0, 1)]
    path = tmp_path / "inst.json"
    loaded = 0
    for keys in paths:
        for name, value in MUTATIONS:
            data = json.loads(text)
            target = data
            for key in keys[:-1]:
                target = target[key]
            if name != "drop":
                target[keys[-1]] = value
            elif isinstance(target, list) or keys[-1] in target:
                del target[keys[-1]]
            payload = json.dumps(data)
            try:
                load_instance(payload)
            except InstanceError:
                continue
            loaded += 1
            path.write_text(payload)
            code = run(["solve", "--instance", path, "--iterations", 1])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (keys, name)
            assert "Traceback" not in err, (keys, name)
    assert loaded  # some mutations (huge costs, a dropped default) load


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


def test_bad_matrix_is_one_short_error_line(hospital64_path, capsys):
    """Every cell of a negated matrix breaks the same rule: the line names
    the first and counts the rest instead of listing 2108 cells."""
    err = assert_one_error_line(["solve", "--instance", hospital64_path,
                                 "--iterations", 5, "--scale-distance", -1],
                                capsys)
    assert "distance[0][1] must be >= 0 (and 2107 more cells)" in err
    assert len(err.encode()) < 300


BENCH = ["bench", "--instance", "HOSPITAL12", "--iterations", 5]


@pytest.mark.parametrize("argv", [
    ["solve"],                                            # no --instance
    ["solve", "--instance", "x.json", "--iterations", "abc"],
    ["plan"],                                             # unknown command
    BENCH[:-1] + [","],                                   # no N values
    BENCH[:-1] + ["5,0"],                                 # refused before N = 5 runs
    BENCH + ["--repeats", 0],
    BENCH + ["--repeats", -1],
    BENCH + ["--jobs", 0],
    BENCH + ["--jobs", -2],
])
def test_usage_error_is_one_error_line(argv, hospital12_path, capsys):
    """A usage error exits 1 (2 means infeasible) with one line, not a
    usage block; --help still exits 0.  Bench refuses counts that would
    run nothing or run serially against what was asked."""
    assert_one_error_line([hospital12_path if a == "HOSPITAL12" else a
                           for a in argv], capsys)
    with pytest.raises(SystemExit) as exit_info:
        run(["solve", "--help"])
    assert exit_info.value.code == 0


def assert_one_error_line(argv, capsys):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err
