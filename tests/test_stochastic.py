import dataclasses
import math
import random
from collections import Counter
from statistics import NormalDist

import pytest

from amrsched.evaluation import evaluate_solution, evaluate_trip
from amrsched.model import DEPOT, Gaussian
from amrsched.operators import charging_insert_repair
from amrsched.stochastic import (normal_quantile, truncated_start,
                                 violation_probability)
from helpers import (mc_truncated_moments, random_instance, random_solution,
                     sub_instance)


def test_normal_quantile_matches_cdf():
    for p in (0.001, 0.05, 0.3, 0.5, 0.77, 0.95, 0.999):
        assert NormalDist().cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)
    assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)


def test_normal_quantile_rejects_bad_p():
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_travel_params_floor_indicator(hospital12):
    """Leg laws: distance over speed plus the stop overhead, plus the
    elevator term whenever the floors differ."""
    tm, tv = hospital12.travel_mean, hospital12.travel_var
    assert tm[0][1] == pytest.approx(157.25)   # depot -> request 1: 100 m, 1 floor
    assert tv[0][1] == pytest.approx(20.0)
    assert tm[6][7] == pytest.approx(6.0)      # co-located wards, same floor
    assert tv[6][7] == pytest.approx(4.0)
    assert tm[2][11] == pytest.approx(6.0)     # zero distance, same floor


def test_truncated_start_far_below_is_identity():
    mu, var = 500.0, 49.0
    g = truncated_start(Gaussian(mu, var), mu - 10 * math.sqrt(var))
    assert g.mean == pytest.approx(mu, rel=1e-6)
    assert g.variance == pytest.approx(var, rel=1e-6)


def test_truncated_start_far_above_collapses():
    mu, var = 500.0, 49.0
    e = mu + 10 * math.sqrt(var)
    g = truncated_start(Gaussian(mu, var), e)
    assert g.mean == pytest.approx(e, abs=1e-6)
    assert g.variance == pytest.approx(0.0, abs=1e-6 * var)


def test_truncated_start_standard_case_against_monte_carlo():
    g = truncated_start(Gaussian(0.0, 1.0), 0.0)
    # frozen oracle values: 1e7-sample Monte Carlo of max(X, 0), X ~ N(0,1)
    assert g.mean == pytest.approx(0.398942, abs=1e-6)
    assert g.variance == pytest.approx(0.340845, abs=1e-6)
    mc_mean, mc_var = mc_truncated_moments(0.0, 1.0, 0.0, 10_000_000, seed=1,
                                           stratified=False)
    assert g.mean == pytest.approx(mc_mean, abs=1e-3)
    assert g.variance == pytest.approx(mc_var, abs=1e-3)


def test_truncated_start_moment_grid_against_monte_carlo():
    mu, sigma = 100.0, 7.0
    for z in (-3, -1, 0, 1, 3):
        e = mu + z * sigma
        g = truncated_start(Gaussian(mu, sigma * sigma), e)
        mc_mean, mc_var = mc_truncated_moments(mu, sigma, e, 10_000_000, seed=7)
        assert g.mean == pytest.approx(mc_mean, rel=5e-3)
        assert g.variance == pytest.approx(mc_var, rel=2e-2)


def test_truncated_start_degenerate_variance_is_exact_max():
    assert truncated_start(Gaussian(10.0, 0.0), 25.0) == Gaussian(25.0, 0.0)
    assert truncated_start(Gaussian(30.0, 0.0), 25.0) == Gaussian(30.0, 0.0)


def test_truncated_start_invariants_random_sweep():
    rng = random.Random(42)
    for _ in range(500):
        mu = rng.uniform(-1000, 40_000)
        var = rng.uniform(0.0, 400.0)
        e = mu + rng.uniform(-8, 8) * math.sqrt(var + 1e-9)
        g = truncated_start(Gaussian(mu, var), e)
        assert g.mean >= max(mu, e) - 1e-6
        assert 0.0 <= g.variance <= var + 1e-9


def test_propagate_adds_means_and_variances(hospital12):
    """Along a trip, each arrival is the previous departure plus the leg law,
    in mean and in variance, and each request starts at exactly the
    reference truncation ``truncated_start(arrival, open)``: on a grid of
    openings around one arrival, on random plain and charging-repaired
    tight-battery plans, with windows far before and far after the arrival,
    and with no variance at all."""
    inst = hospital12
    trip = (DEPOT, inst.node_of_id[5], inst.node_of_id[6], DEPOT)
    walked = [(inst, trip, evaluate_trip(inst, trip, 31000.0, 0.8))]
    base = sub_instance(hospital12, [1])
    first = Gaussian(base.shift_start + base.travel_mean[0][1],
                     base.travel_var[0][1])
    for k in range(-160, 161):    # openings up to 40 sd either side of it
        open_ = first.mean + k / 4 * math.sqrt(first.variance)
        req = dataclasses.replace(base.requests[0], window_open=open_,
                                  window_close=max(open_, first.mean) + 3600.0)
        inst = dataclasses.replace(base, requests=(req,))
        trip = (DEPOT, 1, DEPOT)
        walked.append((inst, trip, evaluate_trip(inst, trip, inst.shift_start,
                                                 0.8)))
    rng = random.Random(5)
    for case in range(36):
        inst = random_instance(rng, rng.randint(2, 9), tight_battery=case % 2 == 1)
        if case % 3 == 1:
            inst = _windows_far_from_arrivals(inst, rng)
        if case % 4 == 3:
            inst = _without_variance(inst)
        sols = [random_solution(rng, inst)]
        if case % 2 == 1:
            sols.append(charging_insert_repair(inst, sols[0]))
        for sol in sols:
            trips = [trip for amr in sol.amrs for trip in amr]
            walked += [(inst, trip, te) for trip, te
                       in zip(trips, evaluate_solution(inst, sol).per_trip)]
    seen = Counter()
    for inst, trip, te in walked:
        for k, node in enumerate(trip[:-1]):
            timing, nxt = te.timings[k], trip[k + 1]
            leaving_var = timing.start.variance
            if inst.is_request(node):
                open_ = inst.window_open[node]
                assert timing.start == truncated_start(timing.arrival, open_)
                assert timing.departure_mean == (timing.start.mean
                                                 + inst.service_mean[node])
                leaving_var += inst.service_var[node]
                sd = math.sqrt(timing.arrival.variance)
                seen["no variance"] += sd == 0.0
                seen["open far before"] += open_ < timing.arrival.mean - 8 * sd
                seen["open far after"] += open_ > timing.arrival.mean + 8 * sd
                seen["open near"] += abs(open_ - timing.arrival.mean) < sd
            assert te.timings[k + 1].arrival == Gaussian(
                timing.departure_mean + inst.travel_mean[node][nxt],
                leaving_var + inst.travel_var[node][nxt])
        seen["charging stop"] += any(inst.is_charging(n) for n in trip)
    assert len(seen) == 5 and all(seen.values()), seen


def _windows_far_from_arrivals(inst, rng):
    """inst with each window opening at the shift start (far before any
    arrival), kept, or moved to late evening (far after any arrival)."""
    requests = []
    for req in inst.requests:
        kind = rng.randrange(3)
        if kind == 0:
            req = dataclasses.replace(req, window_open=inst.shift_start)
        elif kind == 2:
            req = dataclasses.replace(req, window_open=75_000.0,
                                      window_close=80_000.0)
        requests.append(req)
    return dataclasses.replace(inst, requests=tuple(requests))


def _without_variance(inst):
    """inst with deterministic travel and service times."""
    return dataclasses.replace(
        inst,
        stoch=dataclasses.replace(inst.stoch, sigma0_sq=0.0, sigmaf_sq=0.0),
        requests=tuple(dataclasses.replace(r, service_var=0.0)
                       for r in inst.requests))


def test_chance_satisfied_quantile_boundary(hospital12):
    """The window test passes exactly when mean + z * sd <= close, with
    z = normal_quantile(1 - epsilon): the analytic P(late) is then at most
    epsilon.  A deterministic arrival passes on the close itself."""
    base = sub_instance(hospital12, [1])
    still = dataclasses.replace(base, stoch=dataclasses.replace(
        base.stoch, sigma0_sq=0.0, sigmaf_sq=0.0))

    def passes(inst, close):
        # the window opens an hour early, below every probe of the close
        req = dataclasses.replace(inst.requests[0], window_close=close,
                                  window_open=inst.requests[0].window_open - 3600)
        inst = dataclasses.replace(inst, requests=(req,))
        return evaluate_trip(inst, (DEPOT, 1, DEPOT), inst.shift_start,
                             0.8).tw_ok

    for inst in (base, still):
        arrival = Gaussian(inst.shift_start + inst.travel_mean[0][1],
                           inst.travel_var[0][1])
        sd = math.sqrt(arrival.variance)
        z = normal_quantile(1.0 - inst.cost.epsilon)
        quantile = arrival.mean + z * sd
        assert passes(inst, quantile)
        assert not passes(inst, math.nextafter(quantile, -math.inf))
        if sd:
            grid = [quantile + sd * k / 8 for k in range(-16, 17)]
            verdicts = [passes(inst, h) for h in grid]
            assert verdicts == sorted(verdicts)
            assert verdicts == [violation_probability(arrival, h)
                                <= inst.cost.epsilon + 1e-12 for h in grid]


def test_violation_probability_strictly_decreasing_in_h():
    arrival = Gaussian(1000.0, 225.0)
    grid = [900.0 + 3.0 * k for k in range(100)]
    probs = [violation_probability(arrival, h) for h in grid]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_charging_departure(hospital12):
    """A charging stop tops a battery below beta up to beta at charge_rate
    (partial charging) and delays the departure by that time; a battery at
    beta, or within 1e-12 under it, leaves as it came."""
    inst = hospital12
    c = inst.charging_nodes[0]
    beta, rate = inst.amr.battery_high, inst.amr.charge_rate
    assert inst.drain[DEPOT][c] == 0.0      # the charger sits at the depot
    for battery, charge_s in ((0.0, 0.8 * 16200), (0.4, 6480.0),
                              (beta, 0.0), (beta - 5e-13, 0.0)):
        te = evaluate_trip(inst, (DEPOT, c, DEPOT), 30000.0, battery)
        at_c = te.timings[1]
        assert at_c.departure_mean - at_c.arrival.mean == pytest.approx(charge_s)
        expected = at_c.arrival.mean + (beta - battery) / rate if charge_s \
            else at_c.arrival.mean
        assert at_c.departure_mean == expected
        assert te.battery_after[1] == (beta if charge_s else battery)
