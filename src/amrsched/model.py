"""Domain types, instance loading/validation and the shared in-memory representation.

Node indexing convention used across the package:

    0            depot (every trip starts and ends here)
    1 .. n       request nodes, in the order requests are listed
    n+1 .. n+c   charging stations

Times are seconds-of-day floats internally; instance files may use clock
strings like "8:10" or "10:40:30".  Battery is a fraction of a full charge
in [0, 1].
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

DEPOT = 0


class InstanceError(ValueError):
    """Raised when an instance file cannot be parsed or violates invariants."""


class StructuralError(ValueError):
    """Raised for malformed or unrepairable solutions (distinct from infeasibility)."""


@dataclass(frozen=True)
class Gaussian:
    """A (mean, variance) pair; used for travel, service and arrival times."""

    mean: float
    variance: float


@dataclass(frozen=True)
class Request:
    id: int
    demand: float
    window_open: float
    window_close: float
    service: Gaussian
    floor: int


@dataclass(frozen=True)
class AmrParams:
    capacity: float          # kg
    speed: float             # m/s
    consume_rate: float      # battery fraction per meter
    charge_rate: float       # battery fraction per second
    battery_low: float       # alpha: recharge below this
    battery_high: float      # beta: charging stops here
    battery_init: float


@dataclass(frozen=True)
class CostParams:
    fixed_per_amr: float     # xi1
    per_meter: float         # xi2
    tw_penalty: float        # xi3, search surrogate only
    epsilon: float           # allowed time-window violation probability
    shake_delta: float       # shake acceptance ratio, > 1


@dataclass(frozen=True)
class StochasticParams:
    floor_time_mean: float = 51.25   # mean elevator time between floors, s
    stop_overhead: float = 6.0       # fixed per-leg overhead, s
    sigma0_sq: float = 4.0           # same-floor travel variance, s^2
    sigmaf_sq: float = 16.0          # extra variance when floors differ, s^2


# A trip is an immutable node sequence: (DEPOT, ..., DEPOT).
Trip = tuple[int, ...]


@dataclass(frozen=True)
class Solution:
    """Per-AMR ordered trip lists; AMR identity is positional."""

    amrs: tuple[tuple[Trip, ...], ...]

    def trips(self) -> Iterable[Trip]:
        for amr in self.amrs:
            yield from amr

    def stops(self) -> list[int]:
        """Interior nodes of every trip (requests and charging visits)."""
        return [n for t in self.trips() for n in t[1:-1]]


@dataclass(eq=False)
class Instance:
    requests: tuple[Request, ...]
    depot_floor: int
    charging_floors: tuple[int, ...]
    distance: tuple[tuple[float, ...], ...]
    floor_diff: tuple[tuple[float, ...], ...]
    amr: AmrParams
    cost: CostParams
    stoch: StochasticParams
    shift_start: float

    def __post_init__(self):
        # Derived, node-indexed lookups; every construction (also through
        # dataclasses.replace) recomputes them from the fields above.
        n = len(self.requests)
        self.n_requests = n
        self.n_nodes = n + 1 + len(self.charging_floors)
        self.node_of_id = {r.id: 1 + i for i, r in enumerate(self.requests)}
        self.charging_nodes = tuple(range(n + 1, self.n_nodes))
        # Per-node request attributes; zeros for depot/charging keep the hot
        # evaluation loop branch-light.
        self.window_open = [0.0] * self.n_nodes
        self.window_close = [0.0] * self.n_nodes
        self.service_mean = [0.0] * self.n_nodes
        self.service_var = [0.0] * self.n_nodes
        self.demand = [0.0] * self.n_nodes
        for i, r in enumerate(self.requests):
            node = 1 + i
            self.window_open[node] = float(r.window_open)
            self.window_close[node] = float(r.window_close)
            self.service_mean[node] = float(r.service.mean)
            self.service_var[node] = float(r.service.variance)
            self.demand[node] = float(r.demand)
        st = self.stoch
        v = self.amr.speed
        self.travel_mean = [
            [
                d / v + st.stop_overhead + (st.floor_time_mean if f else 0.0)
                for d, f in zip(drow, frow)
            ]
            for drow, frow in zip(self.distance, self.floor_diff)
        ]
        self.travel_var = [
            [st.sigma0_sq + (st.sigmaf_sq if f else 0.0) for f in frow]
            for frow in self.floor_diff
        ]
        self.drain = [
            [d * self.amr.consume_rate for d in drow] for drow in self.distance
        ]
        if not 0.0 < self.cost.epsilon < 1.0:
            # checked on every construction: a NaN quantile passes every
            # chance test, so no Instance may carry a bad epsilon
            raise InstanceError("cost.epsilon must be in (0, 1)")
        self.z_quantile = _normal_quantile_cached(1.0 - self.cost.epsilon)
        # evaluation.solution_cost memos, keyed by trip, AMR and solution
        self._caches = {"trip": {}, "amr": {}, "sol": {}}

    def is_request(self, node: int) -> bool:
        return 1 <= node <= self.n_requests

    def is_charging(self, node: int) -> bool:
        return node > self.n_requests

    def request_at(self, node: int) -> Request:
        return self.requests[node - 1]

    def node_label(self, node: int) -> str:
        if node == DEPOT:
            return "d"
        if self.is_charging(node):
            k = node - self.n_requests - 1
            return "c" if len(self.charging_nodes) == 1 else f"c{k + 1}"
        return str(self.requests[node - 1].id)


def _normal_quantile_cached(p: float) -> float:
    # local import avoids a cycle: stochastic imports Gaussian from here
    from .stochastic import normal_quantile

    return normal_quantile(p)


# ---------------------------------------------------------------------------
# time helpers


def parse_time(value) -> float:
    """Accept seconds-of-day numbers or clock strings like '8:10' / '8:10:30'."""
    if isinstance(value, (int, float)):
        return float(value)
    parts = str(value).strip().split(":")
    if not 2 <= len(parts) <= 3 or not all(p.strip() for p in parts):
        raise InstanceError(f"bad time value {value!r}")
    try:
        nums = [float(p) for p in parts]
    except ValueError as exc:
        raise InstanceError(f"bad time value {value!r}") from exc
    h, m = nums[0], nums[1]
    s = nums[2] if len(nums) == 3 else 0.0
    return h * 3600.0 + m * 60.0 + s


def format_time(seconds: float) -> str:
    """Seconds-of-day to H:MM:SS (rounded to whole seconds)."""
    t = int(round(seconds))
    return f"{t // 3600}:{t % 3600 // 60:02d}:{t % 60:02d}"


# ---------------------------------------------------------------------------
# loading


def load_instance(source, format: str = "json", profile: str = "small") -> Instance:
    """Load and validate an instance from JSON or Solomon VRPTW text.

    ``source`` may be a path, a string/bytes payload, or an open file.  For
    ``format='solomon'`` the ``profile`` selects the first 15 customers
    ("small") or all of them ("large").
    """
    text = _read_source(source)
    if format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"instance JSON does not parse: {exc}") from exc
        inst = _instance_from_dict(data)
    elif format == "solomon":
        inst = _instance_from_solomon(text, profile)
    else:
        raise InstanceError(f"unknown instance format {format!r}")
    violations = validate_instance(inst)
    if violations:
        raise InstanceError("invalid instance: " + "; ".join(violations))
    return inst


def _read_source(source) -> str:
    if hasattr(source, "read"):
        data = source.read()
        return data.decode() if isinstance(data, bytes) else data
    if isinstance(source, bytes):
        return source.decode()
    if isinstance(source, Path):
        return source.read_text()
    if isinstance(source, str):
        # Heuristic: a path has no newline; payloads carry structure.
        if "\n" not in source and not source.lstrip().startswith("{"):
            path = Path(source)
            if not path.is_file():
                raise InstanceError(f"no such instance file: {source!r}")
            return path.read_text()
        return source
    raise InstanceError(f"unsupported instance source {type(source).__name__}")


_MISSING = object()


def _get(data: dict, key: str, path: str, default=_MISSING):
    if key in data:
        return data[key]
    if default is not _MISSING:
        return default
    raise InstanceError(f"missing field {path}.{key}" if path else f"missing field {key}")


def _instance_from_dict(data: dict) -> Instance:
    requests = []
    for i, rd in enumerate(_get(data, "requests", "")):
        path = f"requests[{i}]"
        window = _get(rd, "window", path)
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise InstanceError(f"{path}.window must be [open, close]")
        requests.append(
            Request(
                id=int(_get(rd, "id", path)),
                demand=float(_get(rd, "demand", path)),
                window_open=parse_time(window[0]),
                window_close=parse_time(window[1]),
                service=Gaussian(
                    float(_get(rd, "service_mean", path)),
                    float(_get(rd, "service_var", path)),
                ),
                floor=int(_get(rd, "floor", path)),
            )
        )
    depot_floor = int(_get(_get(data, "depot", ""), "floor", "depot"))
    charging_floors = tuple(int(_get(c, "floor", f"charging[{i}]"))
                            for i, c in enumerate(data.get("charging", [])))
    n_nodes = len(requests) + 1 + len(charging_floors)

    floors = [depot_floor] + [r.floor for r in requests] + list(charging_floors)
    if "distance" in data:
        distance = tuple(tuple(float(x) for x in row) for row in data["distance"])
    elif "coordinates" in data:
        coords = [tuple(map(float, xy)) for xy in data["coordinates"]]
        if len(coords) != n_nodes:
            raise InstanceError(
                f"coordinates has {len(coords)} entries, expected {n_nodes}")
        distance = tuple(
            tuple(math.dist(a, b) for b in coords) for a in coords
        )
    else:
        raise InstanceError("missing field distance (or coordinates)")
    if "floor_diff" in data:
        floor_diff = tuple(tuple(float(x) for x in row) for row in data["floor_diff"])
    else:
        floor_diff = tuple(
            tuple(float(abs(fi - fj)) for fj in floors) for fi in floors
        )

    ad = _get(data, "amr", "")
    amr = AmrParams(
        capacity=float(_get(ad, "capacity", "amr")),
        speed=float(_get(ad, "speed", "amr")),
        consume_rate=float(_get(ad, "consume_rate", "amr")),
        charge_rate=float(_get(ad, "charge_rate", "amr")),
        battery_low=float(_get(ad, "alpha", "amr")),
        battery_high=float(_get(ad, "beta", "amr")),
        battery_init=float(ad.get("battery_init", 1.0)),
    )
    cd = _get(data, "cost", "")
    cost = CostParams(
        fixed_per_amr=float(_get(cd, "xi1", "cost")),
        per_meter=float(_get(cd, "xi2", "cost")),
        tw_penalty=float(cd.get("xi3", 1000.0)),
        epsilon=float(_get(cd, "epsilon", "cost")),
        shake_delta=float(cd.get("delta", 1.1)),
    )
    sd = data.get("stoch", {})
    stoch = StochasticParams(
        floor_time_mean=float(sd.get("floor_time_mean", 51.25)),
        stop_overhead=float(sd.get("stop_overhead", 6.0)),
        sigma0_sq=float(sd.get("sigma0_sq", 4.0)),
        sigmaf_sq=float(sd.get("sigmaf_sq", 16.0)),
    )
    if "shift_start" in data and data["shift_start"] is not None:
        shift_start = parse_time(data["shift_start"])
    else:
        shift_start = default_shift_start(requests, distance, floor_diff, amr, stoch)
    return Instance(
        requests=tuple(requests),
        depot_floor=depot_floor,
        charging_floors=charging_floors,
        distance=distance,
        floor_diff=floor_diff,
        amr=amr,
        cost=cost,
        stoch=stoch,
        shift_start=shift_start,
    )


def default_shift_start(requests, distance, floor_diff, amr, stoch) -> float:
    """Earliest window opening minus the longest depot-to-request travel mean,
    clamped to midnight.  Lets first arrivals wait at their windows instead of
    pinning an arbitrary departure clock time."""
    if not requests:
        return 0.0
    worst = 0.0
    for i in range(len(requests)):
        node = 1 + i
        mu = distance[DEPOT][node] / amr.speed + stoch.stop_overhead
        if floor_diff[DEPOT][node]:
            mu += stoch.floor_time_mean
        worst = max(worst, mu)
    return max(0.0, min(r.window_open for r in requests) - worst)


# ---------------------------------------------------------------------------
# validation


def validate_instance(inst: Instance) -> list[str]:
    """Return a list of invariant violations, one message per offence (empty = valid)."""
    out: list[str] = []
    numbers = [(f"{group}.{name}", value) for group in ("amr", "cost", "stoch")
               for name, value in asdict(getattr(inst, group)).items()]
    numbers.append(("shift_start", inst.shift_start))
    seen_ids = set()
    for i, r in enumerate(inst.requests):
        path = f"requests[{i}]"
        numbers += [(f"{path}.{name}", value) for name, value in (
            ("demand", r.demand), ("window", r.window_open),
            ("window", r.window_close), ("service_mean", r.service.mean),
            ("service_var", r.service.variance))]
        if r.id in seen_ids:
            out.append(f"{path}.id duplicates id {r.id}")
        seen_ids.add(r.id)
        if not r.window_open < r.window_close:
            out.append(f"{path}.window is degenerate ({r.window_open} >= {r.window_close})")
        if not r.demand > 0:
            out.append(f"{path}.demand must be > 0")
        elif r.demand > inst.amr.capacity:
            out.append(f"{path}.demand {r.demand} exceeds AMR capacity {inst.amr.capacity}")
        if r.service.variance < 0:
            out.append(f"{path}.service_var must be >= 0")
        if r.service.mean < 0:
            out.append(f"{path}.service_mean must be >= 0")
    a = inst.amr
    if not 0 <= a.battery_low < a.battery_high <= 1:
        out.append("amr: requires 0 <= alpha < beta <= 1")
    if not (a.consume_rate > 0 and a.charge_rate > 0 and a.speed > 0):
        out.append("amr: speed and rates must be > 0")
    if not 0 <= a.battery_init <= 1:
        out.append("amr.battery_init must be in [0, 1]")
    if a.capacity <= 0:
        out.append("amr.capacity must be > 0")
    c = inst.cost
    if min(c.fixed_per_amr, c.per_meter, c.tw_penalty) < 0:
        out.append("cost: xi1, xi2, xi3 must be >= 0")
    if not c.shake_delta > 1:
        out.append("cost.delta must be > 1")
    s = inst.stoch
    if s.sigma0_sq < 0 or s.sigmaf_sq < 0:
        out.append("stoch: sigma0_sq and sigmaf_sq must be >= 0")
    out.extend(f"{path} must be finite" for path, value in numbers
               if not math.isfinite(value))
    out.extend(_check_matrix(inst.distance, inst.n_nodes, "distance"))
    out.extend(_check_matrix(inst.floor_diff, inst.n_nodes, "floor_diff"))
    return out


def _check_matrix(m, n, name) -> list[str]:
    out = []
    if len(m) != n or any(len(row) != n for row in m):
        out.append(f"{name} must be {n}x{n}")
        return out
    for i in range(n):
        if m[i][i] != 0:
            out.append(f"{name}[{i}][{i}] must be 0")
        for j in range(i + 1, n):
            if not (math.isfinite(m[i][j]) and math.isfinite(m[j][i])):
                out.append(f"{name}[{i}][{j}] and [{j}][{i}] must be finite")
                continue
            if m[i][j] < 0:
                out.append(f"{name}[{i}][{j}] must be >= 0")
            if m[i][j] != m[j][i]:
                out.append(f"{name}[{i}][{j}] != {name}[{j}][{i}]")
    return out


# ---------------------------------------------------------------------------
# serialization


def instance_to_dict(inst: Instance) -> dict:
    return {
        "requests": [
            {
                "id": r.id,
                "demand": r.demand,
                "window": [r.window_open, r.window_close],
                "service_mean": r.service.mean,
                "service_var": r.service.variance,
                "floor": r.floor,
            }
            for r in inst.requests
        ],
        "depot": {"floor": inst.depot_floor},
        "charging": [{"floor": f} for f in inst.charging_floors],
        "distance": [list(row) for row in inst.distance],
        "floor_diff": [list(row) for row in inst.floor_diff],
        "amr": {
            "capacity": inst.amr.capacity,
            "speed": inst.amr.speed,
            "consume_rate": inst.amr.consume_rate,
            "charge_rate": inst.amr.charge_rate,
            "alpha": inst.amr.battery_low,
            "beta": inst.amr.battery_high,
            "battery_init": inst.amr.battery_init,
        },
        "cost": {
            "xi1": inst.cost.fixed_per_amr,
            "xi2": inst.cost.per_meter,
            "xi3": inst.cost.tw_penalty,
            "epsilon": inst.cost.epsilon,
            "delta": inst.cost.shake_delta,
        },
        "stoch": {
            "floor_time_mean": inst.stoch.floor_time_mean,
            "stop_overhead": inst.stoch.stop_overhead,
            "sigma0_sq": inst.stoch.sigma0_sq,
            "sigmaf_sq": inst.stoch.sigmaf_sq,
        },
        "shift_start": inst.shift_start,
    }


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2)


# ---------------------------------------------------------------------------
# instance transforms (CLI experiment switches)


def scale_distance(inst: Instance, k: float) -> Instance:
    """Multiply every pairwise distance by k (travel means and battery drain
    follow).  The depot departure time is re-derived from the scaled travel
    means so the earliest windows stay reachable."""
    scaled = tuple(tuple(d * k for d in row) for row in inst.distance)
    shift = default_shift_start(inst.requests, scaled, inst.floor_diff,
                                inst.amr, inst.stoch)
    return replace(inst, distance=scaled, shift_start=shift)


def scale_variance(inst: Instance, n: float) -> Instance:
    """Multiply travel and service variances by n (time means untouched)."""
    reqs = tuple(
        replace(r, service=Gaussian(r.service.mean, r.service.variance * n))
        for r in inst.requests
    )
    stoch = replace(inst.stoch, sigma0_sq=inst.stoch.sigma0_sq * n,
                    sigmaf_sq=inst.stoch.sigmaf_sq * n)
    return replace(inst, requests=reqs, stoch=stoch)


# ---------------------------------------------------------------------------
# solutions


def normalize_solution(amrs: Iterable[Iterable[Trip]]) -> Solution:
    """Drop empty trips and AMRs with no trips; freeze everything to tuples."""
    cleaned = []
    for amr in amrs:
        trips = tuple(tuple(t) for t in amr if len(t) > 2)
        if trips:
            cleaned.append(trips)
    return Solution(amrs=tuple(cleaned))


def solution_from_ids(inst: Instance, amrs: Sequence[Sequence[Sequence]]) -> Solution:
    """Build a Solution from request-id trip lists, e.g. [[[1, 3, 6, 7], [9, 11, 10]]].

    Entries may be request ids, 'd' (ignored at trip ends), or 'c'/'c<k>' for
    charging stations.
    """
    out = []
    for amr in amrs:
        if not isinstance(amr, (list, tuple)):
            raise StructuralError(f"AMR {amr!r} is not a list of trips")
        trips = []
        for body in amr:
            if not isinstance(body, (list, tuple)):
                raise StructuralError(f"trip {body!r} is not a list of stops")
            nodes = [DEPOT]
            for item in body:
                nodes.append(_node_from_token(inst, item))
            nodes.append(DEPOT)
            # tolerate explicit depots at the ends of the given body
            inner = [n for n in nodes[1:-1] if n != DEPOT]
            trips.append(tuple([DEPOT] + inner + [DEPOT]))
        out.append(trips)
    return normalize_solution(out)


def _node_from_token(inst: Instance, item) -> int:
    """A stop is an integer request id (not a bool or float) or a string:
    an id in digits, 'd', 'c' or 'c<k>'."""
    if isinstance(item, str):
        tok = item.strip().lower()
        if tok == "d":
            return DEPOT
        if tok == "c" or tok[:1] == "c" and tok[1:].isdecimal():
            k = int(tok[1:] or 1) - 1
            if not 0 <= k < len(inst.charging_nodes):
                raise StructuralError(f"no charging station {item!r}")
            return inst.charging_nodes[k]
        if not tok.removeprefix("-").isdecimal():
            raise StructuralError(f"bad stop {item!r}")
        rid = int(tok)
    elif isinstance(item, numbers.Integral) and not isinstance(item, bool):
        rid = int(item)
    else:
        raise StructuralError(f"bad stop {item!r}")
    if rid not in inst.node_of_id:
        raise StructuralError(f"unknown request id {rid}")
    return inst.node_of_id[rid]


def check_solution_structure(inst: Instance, sol: Solution) -> None:
    """Raise StructuralError unless every request appears exactly once and all
    trips are depot-delimited with no interior depot."""
    seen = set()
    for amr in sol.amrs:
        for trip in amr:
            if len(trip) < 2 or trip[0] != DEPOT or trip[-1] != DEPOT:
                raise StructuralError(f"trip {trip} must start and end at the depot")
            for node in trip[1:-1]:
                if node == DEPOT:
                    raise StructuralError(f"trip {trip} has an interior depot")
                if inst.is_request(node):
                    if node in seen:
                        raise StructuralError(
                            f"request {inst.requests[node - 1].id} served twice")
                    seen.add(node)
                elif not inst.is_charging(node):
                    raise StructuralError(f"unknown node index {node}")
    if len(seen) != inst.n_requests:
        missing = [r.id for i, r in enumerate(inst.requests) if (1 + i) not in seen]
        raise StructuralError(f"requests not served: {missing}")


# ---------------------------------------------------------------------------
# Solomon VRPTW text format


def _instance_from_solomon(text: str, profile: str) -> Instance:
    if profile not in ("small", "large"):
        raise InstanceError(f"unknown solomon profile {profile!r}")
    tokens = text.split()
    if not tokens:
        raise InstanceError("empty Solomon file")
    lines = [ln.split() for ln in text.splitlines()]
    capacity = None
    rows = []
    for ln in lines:
        if len(ln) == 2 and all(_is_num(x) for x in ln) and capacity is None:
            # "NUMBER CAPACITY" data line of the VEHICLE section
            capacity = float(ln[1])
        elif len(ln) >= 7 and all(_is_num(x) for x in ln[:7]):
            rows.append([float(x) for x in ln[:7]])
    if capacity is None or not rows:
        raise InstanceError("Solomon file lacks a vehicle capacity or customer rows")
    depot = rows[0]
    customers = rows[1:]
    if profile == "small":
        customers = customers[:15]
    if not customers:
        raise InstanceError("Solomon file has no customers")

    requests = []
    for i, row in enumerate(customers):
        _, x, y, demand, ready, due, service = row
        requests.append(
            Request(
                id=i + 1,
                demand=demand,
                window_open=ready,
                window_close=due,
                service=Gaussian(service, 36.0),
                floor=math.ceil((i + 1) / 5),
            )
        )
    coords = [(depot[1], depot[2])] + [(row[1], row[2]) for row in customers]
    coords.append((depot[1], depot[2]))  # charging bay shares the depot location
    distance = tuple(tuple(math.dist(a, b) for b in coords) for a in coords)
    floors = [0] + [r.floor for r in requests] + [0]
    floor_diff = tuple(tuple(float(abs(fi - fj)) for fj in floors) for fi in floors)
    amr = AmrParams(
        capacity=capacity,
        speed=1.0,
        consume_rate=1.0 / 21600.0,
        charge_rate=1.0 / 16200.0,
        battery_low=0.0,
        battery_high=0.8,
        battery_init=0.8,
    )
    cost = CostParams(fixed_per_amr=30.0, per_meter=0.01, tw_penalty=1000.0,
                      epsilon=0.05, shake_delta=1.1)
    stoch = StochasticParams()
    return Instance(
        requests=tuple(requests),
        depot_floor=0,
        charging_floors=(0,),
        distance=distance,
        floor_diff=floor_diff,
        amr=amr,
        cost=cost,
        stoch=stoch,
        shift_start=default_shift_start(requests, distance, floor_diff, amr, stoch),
    )


def _is_num(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False
