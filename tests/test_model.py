import io
import json
import math
import random
from dataclasses import replace
from functools import reduce
from operator import getitem

import pytest

from amrsched.model import (InstanceError, StructuralError, instance_to_dict,
                            load_instance, parse_time, format_time,
                            scale_distance, scale_variance, serialize_instance,
                            solution_from_ids)
from amrsched.evaluation import evaluate_solution, solution_cost
from amrsched.vns import solve
from helpers import SOLOMON_SAMPLE, random_instance


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


@pytest.mark.parametrize("name, shift", [
    ("hospital12", 29400 - (150 + 6 + 51.25)),
    ("hospital64", 37541.75),
])
def test_default_shift_start(name, shift, request):
    # defaulted departure: earliest opening minus the longest depot leg
    assert request.getfixturevalue(name).shift_start == shift


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


def test_matrix_offences_are_counted_per_kind(hospital12):
    data = instance_to_dict(hospital12)
    data["distance"][0][1] = data["distance"][2][3] = 999
    data["distance"][4][5] = data["distance"][5][4] = -1
    with pytest.raises(InstanceError) as info:
        load_instance(json.dumps(data))
    assert str(info.value) == (
        "invalid instance: distance[0][1] != distance[1][0] (and 1 more cell); "
        "distance[4][5] must be >= 0")


@pytest.mark.parametrize("keys, value, message", [
    ([("amr", "speed")], math.inf, r"amr\.speed must be finite"),
    ([("distance", 0, 1), ("distance", 1, 0)], math.nan,
     r"distance\[0\]\[1\] and \[1\]\[0\] must be finite"),
    ([("requests", 3, "service_var")], math.inf,
     r"requests\[3\]\.service_var must be finite"),
    ([("cost", "epsilon")], math.nan, r"cost\.epsilon must be finite"),
    ([("amr", "alpha")], math.inf, r"amr\.alpha must be finite"),
    ([("cost", "xi1")], math.nan, r"cost\.xi1 must be finite"),
])
def test_validate_rejects_non_finite(hospital12, keys, value, message):
    data = instance_to_dict(hospital12)
    for *parents, last in keys:
        reduce(getitem, parents, data)[last] = value
    with pytest.raises(InstanceError, match=message):
        load_instance(json.dumps(data))


@pytest.mark.parametrize("keys, value, message", [
    (("requests", 0, "window"), [-3600, 200000],
     r"requests\[0\]\.window\[0\] must be in \[0, 86400\] s; "
     r"requests\[0\]\.window\[1\] must be in \[0, 86400\] s"),
    (("shift_start",), -50000, r"shift_start must be in \[0, 86400\] s"),
    (("requests", 2, "service_mean"), 90000,
     r"requests\[2\]\.service_mean must be in \[0, 86400\] s"),
    (("requests", 2, "service_var"), 86400.0 ** 2 * 2,
     r"requests\[2\]\.service_var must be in \[0, 86400\^2\] s\^2"),
    (("stoch", "stop_overhead"), -500, r"stoch\.stop_overhead must be in \[0, 86400\] s"),
    (("stoch", "floor_time_mean"), -500,
     r"stoch\.floor_time_mean must be in \[0, 86400\] s"),
    (("stoch", "sigmaf_sq"), -1, r"stoch\.sigmaf_sq must be in \[0, 86400\^2\] s\^2"),
    (("cost", "xi3"), -1, r"cost\.xi3 must be >= 0"),
    (("amr", "beta"), 0.0, r"amr\.alpha must be < amr\.beta"),
    (("amr", "charge_rate"), 1e-320, r"amr\.charge_rate must be >= 1/86400 per s"),
    (("amr", "speed"), 1e-3, r"mean travel times \(distance / amr\.speed \+ stoch\) must be <= 86400 s"),
])
def test_validate_rejects_out_of_range(hospital12, keys, value, message):
    """Every time lies within one day, and a message names the file's key."""
    data = instance_to_dict(hospital12)
    *parents, last = keys
    reduce(getitem, parents, data)[last] = value
    with pytest.raises(InstanceError, match=message):
        load_instance(json.dumps(data))


@pytest.mark.parametrize("build, message", [
    (lambda i: scale_variance(i, math.nan), r"stoch\.sigma0_sq must be finite"),
    (lambda i: scale_distance(i, -1), r"distance\[0\]\[1\] must be >= 0"),
    (lambda i: scale_distance(i, math.nan),
     r"distance\[0\]\[1\] and \[1\]\[0\] must be finite"),
    (lambda i: replace(i, amr=replace(i.amr, speed=0)), r"amr\.speed must be > 0"),
    (lambda i: replace(i, cost=replace(i.cost, fixed_per_amr=-30)),
     r"cost\.xi1 must be >= 0"),
], ids=["scale_variance-nan", "scale_distance-negative", "scale_distance-nan",
        "replace-speed-0", "replace-xi1-negative"])
def test_every_construction_is_checked(hospital12, build, message):
    """Not only the loader: a transform or dataclasses.replace that breaks an
    invariant raises too (a NaN variance would pass every chance test)."""
    with pytest.raises(InstanceError, match=message):
        build(hospital12)


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


def test_ragged_coordinates_are_refused(hospital12_path):
    data = json.loads(hospital12_path.read_text())
    del data["distance"], data["floor_diff"]
    data["coordinates"] = [[0, 0]] * (len(data["requests"]) + 1 + len(data["charging"]))
    data["coordinates"][3] = [30, 40, 5]
    with pytest.raises(InstanceError, match=r"^coordinates\[3\] must have 2 entries$"):
        load_instance(json.dumps(data))


@pytest.mark.parametrize("text", ['{"requests": ' + "1" * 5000 + "}",
                                  '{"requests": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                         ids=["int-over-4300-digits", "nesting-too-deep"])
def test_unreadable_json_is_an_instance_error(text):
    with pytest.raises(InstanceError, match="^instance JSON does not parse"):
        load_instance(text)


def test_bytes_not_utf8_are_an_instance_error(tmp_path):
    """A UTF-16 byte order mark, read from a path, from bytes or from a
    binary file."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    for source in (path, str(path), b"\xff\xfe{}", io.BytesIO(b"\xff\xfe{}")):
        with pytest.raises(InstanceError, match="^instance is not UTF-8 text"):
            load_instance(source)


@pytest.mark.parametrize("keys, value, message", [
    (("requests", 0, "floor"), 10 ** 400, r"requests\[0\]\.floor must be an integer"),
    (("depot", "floor"), 10 ** 400, r"depot\.floor must be an integer"),
    (("charging", 0, "floor"), -10 ** 400, r"charging\[0\]\.floor must be an integer"),
    # each floor fits a float, their difference does not
    (("depot", "floor"), -10 ** 308, r"floor_diff\[0\] holds a number too large"),
], ids=["request", "depot", "charging", "difference"])
def test_floor_no_float_holds_is_refused(hospital12_path, keys, value, message):
    """The derived floor_diff would overflow converting such a floor."""
    data = json.loads(hospital12_path.read_text())
    del data["floor_diff"]
    data["requests"][0]["floor"] = 10 ** 308
    *parents, last = keys
    reduce(getitem, parents, data)[last] = value
    with pytest.raises(InstanceError, match=message):
        load_instance(json.dumps(data))


@pytest.mark.parametrize("bad, named", [
    ({"window": 5, "id": True}, r"window must be \[open, close\]"),
    ({"id": True, "demand": "x"}, r"id must be an integer"),
    ({"demand": "x", "window": ["x", 30000]}, r"demand must be a number"),
    ({"window": ["x", "y"]}, r"window\[0\] must be seconds"),
    ({"window": [29000, "y"], "service_mean": "x"}, r"window\[1\] must be seconds"),
    ({"service_mean": "x", "service_var": "x"}, r"service_mean must be a number"),
    ({"service_var": "x", "floor": 1.5}, r"service_var must be a number"),
], ids=["window-id", "id-demand", "demand-window0", "window0-window1",
        "window1-service_mean", "service_mean-service_var", "service_var-floor"])
def test_request_fields_are_read_in_file_order(hospital12_path, bad, named):
    """With two bad fields in one request, the message names the one read
    first: window shape, id, demand, window[0], window[1], service_mean,
    service_var, floor."""
    data = json.loads(hospital12_path.read_text())
    data["requests"][0].update(bad)
    with pytest.raises(InstanceError, match=r"^requests\[0\]\." + named):
        load_instance(json.dumps(data))


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
    assert scaled.requests[0].service_var == 360.0
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


@pytest.mark.parametrize("body", [[1, "d", 2], ["d", "d", 1], [1, "d", "d"]])
def test_solution_from_ids_rejects_interior_depot(hospital12, body):
    """'d' may stand only at a trip's ends: one inside is refused, not
    dropped, so the plan read is the plan in the file."""
    with pytest.raises(StructuralError, match="has an interior depot"):
        solution_from_ids(hospital12, [[body]])


@pytest.mark.parametrize("amrs, message", [
    ([[[1, 3, 6, 7], [], [9, 11, 10]], [[4, 2, 5, 8, 12]]], "has no stops"),
    ([[[1, 3, 6, 7], ["d"], [9, 11, 10]], [[4, 2, 5, 8, 12]]], "has no stops"),
    ([[[1, 3, 6, 7], [9, 11, 10]], [[4, 2, 5, 8, 12]], [["d", "d"]]],
     "has no stops"),
    ([[[1, 3, 6, 7], [9, 11, 10]], [[4, 2, 5, 8, 12]], []], "AMR 2 has no trips"),
])
def test_solution_from_ids_rejects_empty_trip_or_amr(hospital12, amrs, message):
    """An empty trip or AMR is refused with check_solution_structure's
    wording, not dropped: each plan here would otherwise read as the paper
    optimum with fewer AMRs or trips than given."""
    with pytest.raises(StructuralError, match=message):
        solution_from_ids(hospital12, amrs)


def test_solution_from_ids_round_trip(hospital12):
    sol = solution_from_ids(hospital12, [[[1, 3, "c", 6]], [["d", 4, 2, "d"]]])
    labels = [[hospital12.node_label(n) for n in t] for amr in sol.amrs for t in amr]
    assert labels == [["d", "1", "3", "c", "6", "d"], ["d", "4", "2", "d"]]
