import json
import math
import random
from functools import reduce
from operator import getitem

import pytest

from amrsched.model import (InstanceError, StructuralError, instance_to_dict,
                            load_instance, parse_time, format_time,
                            scale_distance, scale_variance, serialize_instance,
                            solution_from_ids, validate_instance)
from amrsched.evaluation import evaluate_solution, solution_cost
from amrsched.vns import solve
from helpers import random_instance

SOLOMON_SAMPLE = """\
R101

VEHICLE
NUMBER     CAPACITY
  25         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME   DUE DATE   SERVICE TIME

    0      35         35          0          0        230          0
    1      41         49         10        161        171         10
    2      35         17          7         50         60         10
    3      55         45         13        116        126         10
    4      55         20         19        149        159         10
    5      15         30         26         34         44         10
    6      25         30          3         99        109         10
    7      20         50          5         81         91         10
    8      10         43          9         95        105         10
    9      55         60         16         97        107         10
   10      30         60         16        124        134         10
   11      20         65         12         67         77         10
   12      50         35         19         63         73         10
   13      30         25         23        159        169         10
   14      15         10         20         32         42         10
   15      30          5          8         61         71         10
   16      10         20         19         75         85         10
   17       5         30          2        157        167         10
"""


def test_parse_time_formats():
    assert parse_time("8:10") == 29400.0
    assert parse_time("10:40:30") == 38430.0
    assert parse_time(3600) == 3600.0
    assert format_time(29400) == "8:10:00"
    assert format_time(38430.4) == "10:40:30"
    with pytest.raises(InstanceError):
        parse_time("8h10")
    with pytest.raises(InstanceError):
        parse_time("8:")


def test_load_hospital12(hospital12):
    inst = hospital12
    assert inst.n_requests == 12
    assert inst.distance[0][1] == 100.0
    assert inst.floor_diff[0][1] == 1.0
    r1 = inst.requests[0]
    assert (r1.window_open, r1.window_close) == (29400.0, 30000.0)
    assert r1.demand == 4.0
    assert validate_instance(inst) == []
    # defaulted departure: earliest opening minus the longest depot leg
    assert inst.shift_start == pytest.approx(29400 - (150 + 6 + 51.25))


def test_empty_instance_is_valid_and_solves():
    data = {
        "requests": [],
        "depot": {"floor": 0},
        "charging": [],
        "distance": [[0.0]],
        "floor_diff": [[0.0]],
        "amr": {"capacity": 20, "speed": 1, "consume_rate": 1e-5,
                "charge_rate": 1e-4, "alpha": 0, "beta": 0.8, "battery_init": 1},
        "cost": {"xi1": 30, "xi2": 0.01, "epsilon": 0.05},
    }
    inst = load_instance(json.dumps(data))
    assert inst.n_requests == 0
    sol, ev, _ = solve(inst, 1)
    assert ev.amr_count == 0
    assert ev.objective == 0.0
    assert ev.feasible


def test_validate_flags_demand_and_window(hospital12):
    data = instance_to_dict(hospital12)
    data["requests"][2]["demand"] = data["amr"]["capacity"] + 1
    with pytest.raises(InstanceError, match=r"requests\[2\].demand"):
        load_instance(json.dumps(data))
    data = instance_to_dict(hospital12)
    data["requests"][4]["window"] = [30000, 30000]
    with pytest.raises(InstanceError, match=r"requests\[4\].window"):
        load_instance(json.dumps(data))


def test_validate_flags_asymmetry(hospital12):
    data = instance_to_dict(hospital12)
    data["distance"][0][1] = 999
    with pytest.raises(InstanceError, match=r"distance\[0\]\[1\]"):
        load_instance(json.dumps(data))


@pytest.mark.parametrize("keys, value, message", [
    ([("amr", "speed")], math.inf, r"amr\.speed must be finite"),
    ([("distance", 0, 1), ("distance", 1, 0)], math.nan,
     r"distance\[0\]\[1\] and \[1\]\[0\] must be finite"),
    ([("requests", 3, "service_var")], math.inf,
     r"requests\[3\]\.service_var must be finite"),
    ([("cost", "epsilon")], math.nan, r"cost\.epsilon must be in \(0, 1\)"),
])
def test_validate_rejects_non_finite(hospital12, keys, value, message):
    data = instance_to_dict(hospital12)
    for *parents, last in keys:
        reduce(getitem, parents, data)[last] = value
    with pytest.raises(InstanceError, match=message):
        load_instance(json.dumps(data))


def test_round_trip_field_for_field(hospital12):
    again = load_instance(serialize_instance(hospital12))
    assert instance_to_dict(again) == instance_to_dict(hospital12)
    rng = random.Random(3)
    inst = random_instance(rng, 5)
    again = load_instance(serialize_instance(inst))
    assert instance_to_dict(again) == instance_to_dict(inst)


def test_coordinates_alternative():
    data = {
        "requests": [
            {"id": 1, "demand": 2, "window": [100, 4000], "service_mean": 60,
             "service_var": 4, "floor": 1},
            {"id": 2, "demand": 2, "window": [100, 4000], "service_mean": 60,
             "service_var": 4, "floor": 3},
        ],
        "depot": {"floor": 0},
        "charging": [{"floor": 0}],
        "coordinates": [[0, 0], [30, 40], [60, 80], [0, 0]],
        "amr": {"capacity": 20, "speed": 1, "consume_rate": 1e-6,
                "charge_rate": 1e-4, "alpha": 0, "beta": 0.8, "battery_init": 1},
        "cost": {"xi1": 30, "xi2": 0.01, "epsilon": 0.05},
    }
    inst = load_instance(json.dumps(data))
    assert inst.distance[0][1] == pytest.approx(50.0)
    assert inst.distance[1][2] == pytest.approx(50.0)
    assert inst.floor_diff[1][2] == 2.0
    assert inst.floor_diff[0][3] == 0.0


def test_unknown_format_and_parse_failure():
    with pytest.raises(InstanceError, match="unknown instance format"):
        load_instance("{}", format="csv")
    with pytest.raises(InstanceError, match="does not parse"):
        load_instance("{not json")
    with pytest.raises(InstanceError, match="no such instance file"):
        load_instance("missing_file.json")


def test_solomon_small_profile_floors():
    inst = load_instance(SOLOMON_SAMPLE, format="solomon", profile="small")
    assert inst.n_requests == 15
    floors = [r.floor for r in inst.requests]
    assert floors == [1] * 5 + [2] * 5 + [3] * 5
    assert inst.amr.capacity == 200.0
    assert inst.depot_floor == 0
    r1 = inst.requests[0]
    assert (r1.window_open, r1.window_close) == (161.0, 171.0)
    assert r1.demand == 10.0
    # Euclidean distance from the depot: (35,35) -> (41,49)
    assert inst.distance[0][1] == pytest.approx(math.hypot(6, 14))
    assert validate_instance(inst) == []


def test_solomon_large_profile_keeps_all():
    inst = load_instance(SOLOMON_SAMPLE, format="solomon", profile="large")
    assert inst.n_requests == 17
    assert [r.floor for r in inst.requests][-2:] == [4, 4]


def test_solomon_rejects_empty(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(InstanceError):
        load_instance(empty, format="solomon")
    with pytest.raises(InstanceError):
        load_instance("VEHICLE\nCUSTOMER\n", format="solomon")


def test_scale_distance_rescales_and_keeps_windows(hospital12):
    scaled = scale_distance(hospital12, 4.0)
    assert scaled.distance[0][1] == 400.0
    assert scaled.travel_mean[0][1] == pytest.approx(400 + 6 + 51.25)
    assert scaled.requests == hospital12.requests
    # battery drain follows the distances
    assert scaled.drain[0][1] == pytest.approx(4 * hospital12.drain[0][1])


def test_scale_variance_rescales_all_variances(hospital12):
    scaled = scale_variance(hospital12, 10.0)
    assert scaled.stoch.sigma0_sq == 40.0
    assert scaled.stoch.sigmaf_sq == 160.0
    assert scaled.requests[0].service.variance == 360.0
    assert scaled.travel_var[0][1] == pytest.approx(200.0)
    assert scaled.travel_mean[0][1] == hospital12.travel_mean[0][1]


@pytest.mark.parametrize("amrs", [
    [5], [None], [{"trips": [[1]]}],          # AMR not a list of trips
    [[5]], [["1"]],                           # trip not a list of stops
    *([[[stop]]] for stop in (True, 1.0, 1.7, math.inf, None, {}, "cx", "1a")),
])
def test_solution_from_ids_rejects_bad_shape(hospital12, amrs):
    with pytest.raises(StructuralError, match="is not a list of|bad stop"):
        solution_from_ids(hospital12, amrs)


def test_solution_from_ids_round_trip(hospital12):
    sol = solution_from_ids(hospital12, [[[1, 3, "c", 6]], [["d", 4, 2, "d"]]])
    labels = [[hospital12.node_label(n) for n in t] for amr in sol.amrs for t in amr]
    assert labels == [["d", "1", "3", "c", "6", "d"], ["d", "4", "2", "d"]]
