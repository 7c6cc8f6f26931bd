"""Domain types, instance loading/validation and the shared in-memory representation.

Node indexing convention used across the package:

    0            depot (every trip starts and ends here)
    1 .. n       request nodes, in the order requests are listed
    n+1 .. n+c   charging stations

Times are seconds-of-day floats internally, all within one day [0, 86400] s;
instance files may use clock strings like "8:10" or "10:40:30".  Battery is a
fraction of a full charge in [0, 1].
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from statistics import NormalDist
from typing import Iterable, Sequence

DEPOT = 0
DAY = 86400.0  # seconds; every time and mean time lies within one day

# Range rules: a test and the text of the message when a value fails it.
POSITIVE = (lambda x: x > 0, "> 0")
NON_NEGATIVE = (lambda x: x >= 0, ">= 0")
FRACTION = (lambda x: 0 <= x <= 1, "in [0, 1]")
TIME = (lambda x: 0 <= x <= DAY, "in [0, 86400] s")
TIME_VAR = (lambda x: 0 <= x <= DAY * DAY, "in [0, 86400^2] s^2")
CHARGE = (lambda x: x * DAY >= 1, ">= 1/86400 per s")  # a full charge within a day
# the chance level 1 - epsilon must lie in (0, 1), not round to 1
EPSILON = (lambda x: 0 < 1 - x < 1, "in (0, 1) with 1 - epsilon < 1")


class InstanceError(ValueError):
    """Raised when an instance file cannot be parsed or violates invariants."""


class StructuralError(ValueError):
    """Raised for malformed or unrepairable solutions (distinct from infeasibility)."""


@dataclass(frozen=True)
class Gaussian:
    """A (mean, variance) pair; used for travel, service and arrival times."""

    mean: float
    variance: float


def _number(value, path: str) -> float:
    """A JSON number as a float (a bool is not one); InstanceError naming
    ``path`` otherwise."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InstanceError(f"{path} must be a number")


def _integer(value, path: str) -> int:
    """A whole JSON number that a float holds, as an int."""
    if type(value) in (int, float):
        try:
            if float(value).is_integer():
                return int(value)
        except OverflowError:
            pass
    raise InstanceError(f"{path} must be an integer")


def _time(value, path: str) -> float:
    try:
        return parse_time(value)
    except (InstanceError, OverflowError):
        raise InstanceError(
            f"{path} must be seconds or a clock time H:MM[:SS]") from None


def _param(key: str, rule, default=MISSING, read=_number):
    """A field of an instance record, declared once: the loader reads its JSON
    key with ``read``; the validator, serializer and CLI read its key, range
    rule (None: no range) and default here."""
    return field(default=default, metadata={"key": key, "rule": rule, "read": read})


@dataclass(frozen=True)
class Request:
    id: int = _param("id", None, read=_integer)
    demand: float = _param("demand", POSITIVE)
    window_open: float = _param("window[0]", TIME, read=_time)
    window_close: float = _param("window[1]", TIME, read=_time)
    service_mean: float = _param("service_mean", TIME)
    service_var: float = _param("service_var", TIME_VAR)
    floor: int = _param("floor", None, read=_integer)


@dataclass(frozen=True, kw_only=True)
class AmrParams:
    capacity: float = _param("capacity", POSITIVE)          # kg
    speed: float = _param("speed", POSITIVE)                # m/s
    consume_rate: float = _param("consume_rate", POSITIVE)  # battery per meter
    charge_rate: float = _param("charge_rate", CHARGE)      # battery per second
    battery_low: float = _param("alpha", FRACTION)          # recharge below this
    battery_high: float = _param("beta", FRACTION)          # charging stops here
    battery_init: float = _param("battery_init", FRACTION, 1.0)


@dataclass(frozen=True, kw_only=True)
class CostParams:
    fixed_per_amr: float = _param("xi1", NON_NEGATIVE)
    per_meter: float = _param("xi2", NON_NEGATIVE)
    tw_penalty: float = _param("xi3", NON_NEGATIVE, 1000.0)  # search surrogate only
    # allowed time-window violation probability
    epsilon: float = _param("epsilon", EPSILON)
    shake_delta: float = _param("delta", (lambda x: x > 1, "> 1"), 1.1)


@dataclass(frozen=True, kw_only=True)
class StochasticParams:
    floor_time_mean: float = _param("floor_time_mean", TIME, 51.25)  # per floor change
    stop_overhead: float = _param("stop_overhead", TIME, 6.0)  # fixed per leg
    sigma0_sq: float = _param("sigma0_sq", TIME_VAR, 4.0)  # same-floor travel variance
    sigmaf_sq: float = _param("sigmaf_sq", TIME_VAR, 16.0)  # extra when floors differ


# The parameter groups of an instance file, in file order.
PARAM_GROUPS = {"amr": AmrParams, "cost": CostParams, "stoch": StochasticParams}


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
    """Every construction, also through dataclasses.replace and scale_*,
    raises one InstanceError listing each violated invariant (a NaN variance
    would pass every chance test).  A None ``shift_start`` is derived."""

    requests: tuple[Request, ...]
    depot_floor: int
    charging_floors: tuple[int, ...]
    distance: tuple[tuple[float, ...], ...]
    floor_diff: tuple[tuple[float, ...], ...]
    amr: AmrParams
    cost: CostParams
    stoch: StochasticParams
    shift_start: float | None = None

    def __post_init__(self):
        n = len(self.requests)
        self.n_requests = n
        self.n_nodes = n + 1 + len(self.charging_floors)
        if violations := _field_violations(self):
            raise InstanceError("invalid instance: " + "; ".join(violations))
        # Derived, node-indexed lookups, recomputed from the fields above.
        self.node_of_id = {r.id: 1 + i for i, r in enumerate(self.requests)}
        self.charging_nodes = tuple(range(n + 1, self.n_nodes))
        # Per-node request attributes; zeros for depot/charging keep the hot
        # evaluation loop branch-light.
        pad = [0.0] * len(self.charging_floors)
        for name in ("window_open", "window_close", "service_mean", "service_var",
                     "demand"):
            column = (float(getattr(r, name)) for r in self.requests)
            setattr(self, name, [0.0, *column, *pad])
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
        if self.shift_start is None:
            # Earliest window opening minus the longest depot-to-request
            # travel mean, clamped to midnight: first arrivals wait at their
            # windows instead of pinning an arbitrary departure clock time.
            reach = max([0.0, *self.travel_mean[DEPOT][1:n + 1]])
            self.shift_start = max(0.0, min(self.window_open[1:n + 1],
                                            default=0.0) - reach)
        if any(t > DAY for row in self.travel_mean for t in row):
            raise InstanceError("invalid instance: mean travel times "
                                "(distance / amr.speed + stoch) must be <= 86400 s")
        self.z_quantile = NormalDist().inv_cdf(1.0 - self.cost.epsilon)
        # evaluation.solution_cost memos, keyed by AMR trip prefix and solution
        self._caches = {"amr": {}, "bound": {}, "sol": {}}

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


# ---------------------------------------------------------------------------
# time helpers


_CLOCK = re.compile(r"([0-9]{1,2}):([0-9]{2})(?::([0-9]{2}))?")


def parse_time(value) -> float:
    """Accept seconds-of-day numbers or clock strings H:MM / H:MM:SS such as
    '8:10' / '8:10:30' (hours 0-23, minutes and seconds 0-59, no sign)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    clock = _CLOCK.fullmatch(value.strip()) if isinstance(value, str) else None
    if clock is None:
        raise InstanceError(f"bad time value {value!r}")
    h, m, s = (int(part or 0) for part in clock.groups())
    if h > 23 or m > 59 or s > 59:
        raise InstanceError(f"time value {value!r} out of range")
    return h * 3600.0 + m * 60.0 + s


def format_time(seconds: float) -> str:
    """Seconds-of-day to H:MM:SS (rounded to whole seconds)."""
    t = int(round(seconds))
    return f"{t // 3600}:{t % 3600 // 60:02d}:{t % 60:02d}"


# ---------------------------------------------------------------------------
# loading


def load_instance(source, format: str = "json", profile: str = "small") -> Instance:
    """Load an instance from JSON or Solomon VRPTW text.

    ``source`` may be a path, a string/bytes payload, or an open file.  For
    ``format='solomon'`` the ``profile`` selects the first 15 customers
    ("small") or all of them ("large").
    """
    try:
        text = _read_source(source)
    except UnicodeDecodeError as exc:
        raise InstanceError(f"instance is not UTF-8 text: {exc}") from exc
    if format == "json":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an over-long int
            raise InstanceError(f"instance JSON does not parse: {exc}") from exc
        return _instance_from_dict(data)
    if format == "solomon":
        return _instance_from_solomon(text, profile)
    raise InstanceError(f"unknown instance format {format!r}")


def _read_source(source) -> str:
    if hasattr(source, "read"):
        data = source.read()
        return data.decode() if isinstance(data, bytes) else data
    if isinstance(source, bytes):
        return source.decode()
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    if isinstance(source, str):
        # Heuristic: a path has no newline; payloads carry structure.
        if "\n" not in source and not source.lstrip().startswith("{"):
            path = Path(source)
            if not path.is_file():
                raise InstanceError(f"no such instance file: {source!r}")
            return path.read_text(encoding="utf-8")
        return source
    raise InstanceError(f"unsupported instance source {type(source).__name__}")


def _get(data, key: str, path: str, default=MISSING):
    if not isinstance(data, dict):
        raise InstanceError(f"{path or 'instance'} must be an object")
    if key in data:
        return data[key]
    if default is not MISSING:
        return default
    raise InstanceError(f"missing field {path}.{key}" if path else f"missing field {key}")


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InstanceError(f"{path} must be a list")
    return value


def _matrix(rows, name: str) -> tuple[tuple[float, ...], ...]:
    out = []
    for i, row in enumerate(_list(rows, name)):
        row = _list(row, f"{name}[{i}]")
        if not all(type(x) in (int, float) for x in row):
            # name the first entry that is not a number
            for j, x in enumerate(row):
                _number(x, f"{name}[{i}][{j}]")
        try:
            out.append(tuple(map(float, row)))
        except OverflowError:
            raise InstanceError(f"{name}[{i}] holds a number too large") from None
    return tuple(out)


def _instance_from_dict(data) -> Instance:
    requests = []
    for i, rd in enumerate(_list(_get(data, "requests", ""), "requests")):
        path = f"requests[{i}]"
        window = _get(rd, "window", path)
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise InstanceError(f"{path}.window must be [open, close]")
        requests.append(_record(Request, {**rd, "window[0]": window[0],
                                          "window[1]": window[1]}, path))
    depot_floor = _integer(_get(_get(data, "depot", ""), "floor", "depot"),
                           "depot.floor")
    charging_floors = tuple(
        _integer(_get(c, "floor", f"charging[{i}]"), f"charging[{i}].floor")
        for i, c in enumerate(_list(_get(data, "charging", "", []), "charging")))
    n_nodes = len(requests) + 1 + len(charging_floors)

    floors = [depot_floor] + [r.floor for r in requests] + list(charging_floors)
    if "distance" in data:
        distance = _matrix(data["distance"], "distance")
    elif "coordinates" in data:
        coords = _matrix(data["coordinates"], "coordinates")
        if len(coords) != n_nodes:
            raise InstanceError(
                f"coordinates has {len(coords)} entries, expected {n_nodes}")
        for i, row in enumerate(coords):
            if len(row) != len(coords[0]):
                raise InstanceError(f"coordinates[{i}] must have {len(coords[0])} entries")
        distance = tuple(
            tuple(math.dist(a, b) for b in coords) for a in coords
        )
    else:
        raise InstanceError("missing field distance (or coordinates)")
    floor_diff = _matrix(data["floor_diff"] if "floor_diff" in data else
                         [[abs(fi - fj) for fj in floors] for fi in floors],
                         "floor_diff")
    # A group whose fields all have defaults may be left out.
    amr, cost, stoch = (
        _record(cls, _get(data, group, "", MISSING if any(
            f.default is MISSING for f in fields(cls)) else {}), group)
        for group, cls in PARAM_GROUPS.items())
    shift_start = data.get("shift_start")
    if shift_start is not None:
        shift_start = _time(shift_start, "shift_start")
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


@cache
def _schema(cls) -> tuple:
    """(name, key, default, read, rule) for each field of a record class."""
    return tuple((f.name, f.metadata["key"], f.default, f.metadata["read"],
                  f.metadata["rule"]) for f in fields(cls))


def _record(cls, data, path: str):
    """Read a request or a parameter group at ``path`` through its schema."""
    return cls(**{name: read(_get(data, key, path, default), f"{path}.{key}")
                  for name, key, default, read, _ in _schema(cls)})


# ---------------------------------------------------------------------------
# validation


def _field_violations(inst: Instance) -> list[str]:
    """One message per offence against the fields' invariants (empty = valid);
    the matrices are checked against ``inst.n_nodes``."""
    out = [msg for group in PARAM_GROUPS
           for msg in _param_violations(group, getattr(inst, group))]
    if inst.amr.battery_low >= inst.amr.battery_high:
        out.append("amr.alpha must be < amr.beta")
    if inst.shift_start is not None:
        out += _violation("shift_start", inst.shift_start, TIME)
    seen_ids = set()
    for i, r in enumerate(inst.requests):
        path = f"requests[{i}]"
        out += _param_violations(path, r)
        if r.id in seen_ids:
            out.append(f"{path}.id duplicates id {r.id}")
        seen_ids.add(r.id)
        if not r.window_open < r.window_close:
            out.append(f"{path}.window is degenerate ({r.window_open} >= {r.window_close})")
        if math.inf > r.demand > inst.amr.capacity:
            out.append(f"{path}.demand {r.demand} exceeds AMR capacity {inst.amr.capacity}")
    out.extend(_check_matrix(inst.distance, inst.n_nodes, "distance"))
    out.extend(_check_matrix(inst.floor_diff, inst.n_nodes, "floor_diff"))
    return out


def _param_violations(path: str, record) -> list[str]:
    """The range-rule messages for a request or a parameter group."""
    return [msg for name, key, _, _, rule in _schema(type(record)) if rule
            for msg in _violation(f"{path}.{key}", getattr(record, name), rule)]


def _violation(path: str, value: float, rule) -> list[str]:
    """The message for a value that is not finite or fails its range rule."""
    test, text = rule
    if not math.isfinite(value):
        return [f"{path} must be finite"]
    return [] if test(value) else [f"{path} must be {text}"]


def _check_matrix(m, n, name) -> list[str]:
    """One message per kind of offence, naming its first cell and counting
    the other cells that commit it."""
    short = [f"{name}[{i}] must have {n} entries"
             for i, row in enumerate(m) if len(row) != n]
    if len(m) != n or short:
        return [f"{name} must be {n}x{n}"] + short[:1]
    bad = []   # (message template, i, j) per offending cell
    for i in range(n):
        if m[i][i] != 0:
            bad.append(("{0}[{1}][{1}] must be 0", i, i))
        for j in range(i + 1, n):
            if not (math.isfinite(m[i][j]) and math.isfinite(m[j][i])):
                bad.append(("{0}[{1}][{2}] and [{2}][{1}] must be finite", i, j))
                continue
            if m[i][j] < 0:
                bad.append(("{0}[{1}][{2}] must be >= 0", i, j))
            if m[i][j] != m[j][i]:
                bad.append(("{0}[{1}][{2}] != {0}[{2}][{1}]", i, j))
    out = []
    for text in dict.fromkeys(t for t, _, _ in bad):
        cells = [(i, j) for t, i, j in bad if t == text]
        more = len(cells) - 1
        out.append(text.format(name, *cells[0])
                   + (f" (and {more} more cell{'s' * (more > 1)})" if more else ""))
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
                "service_mean": r.service_mean,
                "service_var": r.service_var,
                "floor": r.floor,
            }
            for r in inst.requests
        ],
        "depot": {"floor": inst.depot_floor},
        "charging": [{"floor": f} for f in inst.charging_floors],
        "distance": [list(row) for row in inst.distance],
        "floor_diff": [list(row) for row in inst.floor_diff],
        **{group: {f.metadata["key"]: getattr(getattr(inst, group), f.name)
                   for f in fields(cls)} for group, cls in PARAM_GROUPS.items()},
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
    return replace(inst, distance=scaled, shift_start=None)


def scale_variance(inst: Instance, n: float) -> Instance:
    """Multiply travel and service variances by n (time means untouched)."""
    reqs = tuple(replace(r, service_var=r.service_var * n) for r in inst.requests)
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

    Entries may be request ids, 'd' (allowed only at either end of a trip),
    or 'c'/'c<k>' for charging stations.  A trip with no stops and an AMR
    with no trips are refused, not dropped, so the plan read is the plan
    given.
    """
    out = []
    for a, amr in enumerate(amrs):
        if not isinstance(amr, (list, tuple)):
            raise StructuralError(f"AMR {amr!r} is not a list of trips")
        if not amr:
            raise StructuralError(f"AMR {a} has no trips")
        trips = []
        for body in amr:
            if not isinstance(body, (list, tuple)):
                raise StructuralError(f"trip {body!r} is not a list of stops")
            nodes = [_node_from_token(inst, item) for item in body]
            # tolerate explicit depots at the ends of the given body
            if nodes[:1] == [DEPOT]:
                del nodes[0]
            if nodes[-1:] == [DEPOT]:
                del nodes[-1]
            trip = (DEPOT, *nodes, DEPOT)
            if not nodes:
                raise StructuralError(f"trip {trip} has no stops")
            if DEPOT in nodes:
                raise StructuralError(f"trip {trip} has an interior depot")
            trips.append(trip)
        out.append(tuple(trips))
    return Solution(amrs=tuple(out))


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
    """Raise StructuralError unless every request appears exactly once, every
    AMR has a trip, all trips are depot-delimited with at least one stop and
    no interior depot, and every stop is an int node index of the instance."""
    seen = set()
    for i, amr in enumerate(sol.amrs):
        if not amr:
            raise StructuralError(f"AMR {i} has no trips")
        for trip in amr:
            if (len(trip) < 2 or trip[0] != DEPOT or trip[-1] != DEPOT
                    or type(trip[0]) is not int or type(trip[-1]) is not int):
                raise StructuralError(f"trip {trip} must start and end at the depot")
            if len(trip) < 3:
                raise StructuralError(f"trip {trip} has no stops")
            for node in trip[1:-1]:
                if type(node) is not int or not 0 <= node < inst.n_nodes:
                    raise StructuralError(f"unknown node index {node!r}")
                if node == DEPOT:
                    raise StructuralError(f"trip {trip} has an interior depot")
                if inst.is_request(node):
                    if node in seen:
                        raise StructuralError(
                            f"request {inst.requests[node - 1].id} served twice")
                    seen.add(node)
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

    requests = [
        {"id": i + 1, "demand": demand, "window": [ready, due],
         "service_mean": service, "service_var": 36.0,
         "floor": math.ceil((i + 1) / 5)}
        for i, (_, _, _, demand, ready, due, service) in enumerate(customers)
    ]
    coords = [depot[1:3]] + [row[1:3] for row in customers]
    coords.append(depot[1:3])  # charging bay shares the depot location
    return _instance_from_dict({
        "requests": requests,
        "depot": {"floor": 0},
        "charging": [{"floor": 0}],
        "coordinates": coords,
        "amr": {"capacity": capacity, "speed": 1.0, "consume_rate": 1.0 / 21600.0,
                "charge_rate": 1.0 / 16200.0, "alpha": 0.0, "beta": 0.8,
                "battery_init": 0.8},
        "cost": {"xi1": 30.0, "xi2": 0.01, "epsilon": 0.05},
    })


def _is_num(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False
