"""Differential checks of ingestion against the readers it replaced, kept in
``tests.oracles``: requests against ``reference_request_from_dict``, which
builds the frozen ``ReferenceSliceRequest`` and ``ReferencePortSpec``
dataclasses; topologies against ``reference_validate_topology``; and whole
scenarios against ``reference_scenario_from_dict``, the event loop that
built each event by keyword.

The ``rows`` stream draws one valid request dict per seeded case and then
breaks it. Every field in turn (the request itself, ``id``, ``src``,
``dst``, ``control``, ``disjoint_paths``, ``calendar_slots``,
``client_ports`` and its ``type``, ``gbps`` and ``count``, and ``weights``)
is left out or set to each value of a fixed pool: None, values of the
wrong type, bools and floats where an int belongs, the empty string,
``str`` and ``int`` subclasses, NaN, ±inf, ``10**400``, 0 and negative
numbers. ``weights`` takes its own pool: ``{}``, valid maps, an unknown
key, non-positive, bool and non-finite weights, and values that are not
objects. Further rows break two fields at once, one row for each pair of
``FAULTS`` (one fault for each check the parser makes), so the order in
which faults are found is pinned; a few more break three fields with
values drawn from the pools. Each seeded request gives 482 rows: itself,
its 308 single faults, 153 pairs and 20 triples.

The ``topology`` stream does the same to seeded valid topologies: a grid,
a ring with chords or a sparse graph from ``random_graph_dict`` in turn, of
4 to 16 nodes, with risk-group tags, slot settings and devices of one to
three port groups. Each field of one node, one link, one risk-group tag,
one device and one port group, and each list holding them, is left out or
set to each value of the pool; then each pair of ``TOPOLOGY_FAULTS`` (one
fault for each check the reader makes, across elements) breaks two at
once. Each seeded topology gives 956 rows: itself, 520 single faults and
435 pairs.

The ``scenarios`` stream breaks the three scenarios of ``tests/data`` at
one to three random places each with ``tests.oracles.mutate``, after one
row for each scenario as it is.

The library and the reference must raise the same error class with the
same ``reason``, ``str()`` and ``detail()``, or parse to values whose every
field (and trait) has the same value and the same type. Tier-1 runs the
first cases of each stream; the full runs hash every outcome:

    PYTHONPATH=src python -m tests.test_ingest_differential --cases 964000
    PYTHONPATH=src python -m tests.test_ingest_differential --stream topology --cases 191200
    PYTHONPATH=src python -m tests.test_ingest_differential --stream scenarios --cases 20000
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
from pathlib import Path
from types import MappingProxyType

from tnsc.errors import TnscError
from tnsc.model import DIMENSIONS, SliceRequest, request_from_dict, validate_topology
from tnsc.scenario import scenario_from_dict

from . import oracles
from .differential import checked, main
from .oracles import (random_graph_dict, reference_request_from_dict,
                      reference_scenario_from_dict, reference_validate_topology)

SEED = 2020
TOPOLOGY_SEED = 2027
SCENARIO_SEED = 2029
TIER1_CASES = 5000
TOPOLOGY_TIER1_CASES = 4000
SCENARIO_TIER1_CASES = 150
TRIPLE_FAULT_ROWS = 20
MISSING = object()
DATA = Path(__file__).resolve().parent / "data"
SCENARIO_FILES = ("five_node_failure", "grid_node_disjoint", "grid_link_disjoint")
FAMILIES = ("grid", "ring", "sparse")
#: Port kinds of distinct labels for generated devices.
PORT_KINDS = (("10GE", 10), ("100GE", 100.0), ("25GE", 25), ("10GE", 2.5))


class Name(str):
    pass


class Count(int):
    pass


POOL = (MISSING, None, [], {}, "", "A", "x", Name("B"), True, False, 0, -1, 1, 2, 3,
        Count(0), Count(3), 2.0, 2.5, -0.5, math.nan, math.inf, -math.inf,
        10**400, -10**400, MappingProxyType({"type": "10GE"}))
WEIGHT_POOL = (MISSING, None, {}, {"topology": 2}, {"device": 0.5, "data_plane": 3},
               {"topology": 1e-3, "device": 1, "data_plane": 7.25}, {"bogus": 1},
               {"topology": 2, "colour": 1}, {"topology": 0}, {"device": -1.5},
               {"data_plane": True}, {"topology": math.nan}, {"device": math.inf},
               {"topology": 10**400}, {"topology": Count(2)}, {Name("device"): 2.5},
               {"device": 2, "topology": 0, "bogus": 1}, MappingProxyType({"device": 2}),
               [], "x", 3, True)
#: Where each mutation lands: () is the request itself.
FIELDS = ((), ("id",), ("src",), ("dst",), ("control",), ("disjoint_paths",),
          ("calendar_slots",), ("client_ports",), ("client_ports", "type"),
          ("client_ports", "gbps"), ("client_ports", "count"), ("weights",))
#: One fault for each check the parser makes, as the mutations that make it.
FAULTS = (
    [((), [])],
    [(("id",), "")],
    [(("client_ports",), None)],
    [(("control",), "yes")],
    [(("src",), "")],
    [(("dst",), 7)],
    [(("src",), "A"), (("dst",), "A")],
    [(("disjoint_paths",), 2.0)],
    [(("disjoint_paths",), 1)],
    [(("client_ports", "type"), "")],
    [(("client_ports", "gbps"), math.nan)],
    [(("client_ports", "count"), True)],
    [(("client_ports", "count"), 0)],
    [(("calendar_slots",), None)],
    [(("calendar_slots",), 0)],
    [(("weights",), {"bogus": 1})],
    [(("weights",), {"topology": 0})],
    [(("weights",), [])],
)


def _pool(field: tuple[str, ...]) -> tuple:
    return WEIGHT_POOL if field == ("weights",) else POOL


def base_request(rng: random.Random, number: int) -> dict:
    """A request both parsers accept, with or without control and weights."""
    src, dst = rng.sample("ABCD", 2)
    raw = {"id": f"r{number:04d}", "src": src, "dst": dst,
           "disjoint_paths": rng.randint(2, 6), "calendar_slots": rng.randint(1, 20),
           "client_ports": {"type": rng.choice(("10GE", "100GE")),
                            "gbps": rng.choice((10, 100, 25.0, 0.5)),
                            "count": rng.randint(1, 24)}}
    if rng.random() < 0.7:
        raw["control"] = rng.random() < 0.5
    weights = rng.choice(WEIGHT_POOL[:6])
    if weights is not MISSING:
        raw["weights"] = weights
    return raw


def _indexes(holder, key) -> bool:
    return isinstance(holder, list) and isinstance(key, int) and 0 <= key < len(holder)


def mutate(raw: dict, faults) -> object:
    """``raw`` with each ``(field, value)`` applied in turn. A field is a
    path of object keys and list indices; MISSING removes what it names,
    and a field under anything but an object or a long enough list is left
    as it is. Each dict or list value goes in as a copy, so a later fault
    of the row that reaches inside it leaves the pools and other rows as
    they are; a ``MappingProxyType`` is read-only and goes in shared."""
    raw = copy.deepcopy(raw)
    for field, value in faults:
        if isinstance(value, (dict, list)):
            value = copy.deepcopy(value)
        if not field:
            if value is not MISSING:
                raw = value
            continue
        holder = raw
        for key in field[:-1]:
            holder = (holder.get(key) if isinstance(holder, dict)
                      else holder[key] if _indexes(holder, key) else None)
        key = field[-1]
        if not (isinstance(holder, dict) or _indexes(holder, key)):
            continue
        if value is not MISSING:
            holder[key] = value
        elif isinstance(holder, dict):
            holder.pop(key, None)
        else:
            del holder[key]
    return raw


def case_rows(rng: random.Random, number: int):
    """Yield the rows of one seeded request: the request, each single
    fault, each pair of ``FAULTS`` and ``TRIPLE_FAULT_ROWS`` drawn triples."""
    raw = base_request(rng, number)
    yield raw
    for field in FIELDS:
        for value in _pool(field):
            yield mutate(raw, [(field, value)])
    for first, second in itertools.combinations(FAULTS, 2):
        yield mutate(raw, first + second)
    for _ in range(TRIPLE_FAULT_ROWS):
        fields = rng.sample(FIELDS[1:], 3)
        yield mutate(raw, [(field, rng.choice(_pool(field))) for field in fields])


def _typed(value) -> tuple[str, str]:
    return type(value).__name__, repr(value)


def _failure(err: Exception) -> tuple:
    """The error's class, reason, message and detail; a non-tnsc error
    must match too."""
    reason = getattr(err, "reason", None)
    detail = err.detail() if isinstance(err, TnscError) else None
    return ("error", type(err).__name__, reason, str(err), repr(detail))


def _traits(request) -> tuple:
    """The numeric traits in DIMENSIONS order: a library request's
    ``traits``, or the frozen reference's ``trait()`` per dimension."""
    if isinstance(request, SliceRequest):
        return request.traits
    return tuple(request.trait(dim) for dim in DIMENSIONS)


def _request_values(request) -> tuple:
    ports = request.client_ports
    values = [request.id, request.src, request.dst, request.control,
              request.disjoint_paths, ports.port_type, ports.gbps, ports.count,
              ports.label, request.calendar_slots, request.weights,
              *_traits(request)]
    if request.weights is not None:
        values += [item for pair in request.weights.items() for item in pair]
    return tuple(map(_typed, values))


def outcome(parse, raw) -> tuple:
    """What ``parse`` makes of ``raw``: the error, or every field's and
    trait's type and value."""
    try:
        request = parse(raw)
    except Exception as err:
        return _failure(err)
    return ("parsed", *_request_values(request))


def _differential(rows, outcome_of, parse, reference):
    """Yield a case for each row: what ``parse`` and ``reference`` make of
    it, digesting the library's outcome."""
    for number, raw in enumerate(rows):
        library = outcome_of(parse, raw)
        yield number, library, outcome_of(reference, raw), repr(library).encode()


def differential_rows(seed: int, cases: int):
    """The cases of the first ``cases`` rows of the seeded request stream."""
    rng = random.Random(seed)
    rows = (raw for number in itertools.count() for raw in case_rows(rng, number))
    return _differential(itertools.islice(rows, cases), outcome, request_from_dict,
                         reference_request_from_dict)


def base_topology(rng: random.Random, number: int) -> dict:
    """A topology both readers accept, with risk-group tags and slot
    settings on some links and a device with one to three port groups at
    two or more nodes."""
    raw = random_graph_dict(rng, 4, 16, FAMILIES[number % len(FAMILIES)])
    for link in raw["links"]:
        if rng.random() < 0.5:
            link["srlgs"] = rng.sample(range(6), rng.randint(1, 2))
        if rng.random() < 0.3:
            link["slot_capacity"] = rng.randint(1, 40)
        if rng.random() < 0.3:
            link["slot_gbps"] = rng.choice((1, 2.5, 10.0))
    raw["devices"] = [
        {"node": node, "ports": [{"type": kind, "gbps": gbps, "count": rng.randint(1, 48)}
                                 for kind, gbps in rng.sample(PORT_KINDS, rng.randint(1, 3))]}
        for node in rng.sample(raw["nodes"], rng.randint(2, len(raw["nodes"])))]
    return raw


def topology_faults(raw: dict, node: int, link: int, device: int) -> tuple:
    """One fault for each check the topology reader makes, in its order, on
    node ``node``, link ``link`` (whose first risk-group tag is broken),
    device ``device`` and its first port group. No fault but the last puts
    in a container that a later fault's field can reach into, so each fault
    of a pair breaks what it breaks alone."""
    at_link, at_device = ("links", link), ("devices", device)
    group = at_device + ("ports", 0)
    first_link, port = raw["links"][0], raw["devices"][device]["ports"][0]
    return (
        [((), [])],
        [(("nodes",), "x")],
        [(("nodes",), [])],
        [(("nodes", node), 7)],
        [(("nodes", node), raw["nodes"][0])],
        [(("links",), 5)],
        [(at_link, "x")],
        [(at_link + ("id",), "")],
        [(at_link + ("id",), first_link["id"])],
        [(at_link + ("a",), "zz")],
        [(at_link + ("b",), None)],
        [(at_link + ("b",), raw["links"][link]["a"])],
        [(at_link + ("a",), first_link["a"]), (at_link + ("b",), first_link["b"])],
        [(at_link + ("slot_capacity",), 2.0)],
        [(at_link + ("slot_capacity",), 0)],
        [(at_link + ("slot_gbps",), math.inf)],
        [(at_link + ("srlgs",), 3)],
        [(at_link + ("srlgs", 0), "1")],
        [(at_link + ("srlgs", 0), -1)],
        [(("devices",), "x")],
        [(at_device, 4)],
        [(at_device + ("node",), "zz")],
        [(at_device + ("node",), raw["devices"][0]["node"])],
        [(at_device + ("ports",), "x")],
        [(group, 3)],
        [(group + ("type",), "")],
        [(group + ("gbps",), 0)],
        [(group + ("count",), True)],
        [(group + ("count",), -2)],
        [(at_device + ("ports",), [dict(port), dict(port)])],
    )


def topology_rows(rng: random.Random, number: int):
    """Yield the rows of one seeded topology: the topology, each single
    fault of one node's, link's, device's and port group's fields, and
    each pair of its ``topology_faults``."""
    raw = base_topology(rng, number)
    node = rng.randrange(1, len(raw["nodes"]))
    link = rng.randrange(1, len(raw["links"]))
    device = rng.randrange(1, len(raw["devices"]))
    raw["links"][link].setdefault("srlgs", [rng.randrange(6)])
    yield raw
    at_link, at_device = ("links", link), ("devices", device)
    group = at_device + ("ports", 0)
    fields = ((), ("nodes",), ("nodes", node), ("links",), at_link,
              *(at_link + (key,) for key in ("id", "a", "b", "slot_capacity",
                                             "slot_gbps", "srlgs")),
              at_link + ("srlgs", 0), ("devices",), at_device, at_device + ("node",),
              at_device + ("ports",), group,
              *(group + (key,) for key in ("type", "gbps", "count")))
    for field in fields:
        for value in POOL:
            yield mutate(raw, [(field, value)])
    for first, second in itertools.combinations(topology_faults(raw, node, link, device), 2):
        yield mutate(raw, first + second)


def _topology_values(topology) -> tuple:
    links = [(type(link).__name__,
              *map(_typed, (link.id, link.a, link.b, link.slot_capacity, link.slot_gbps)),
              sorted(map(_typed, link.srlgs)))
             for link in topology.links]
    devices = [(type(device).__name__, _typed(device.node),
                [(type(group).__name__, *map(_typed, group), group.label)
                 for group in device.port_groups])
               for device in topology.devices]
    return (type(topology).__name__, type(topology.nodes).__name__,
            sorted(map(_typed, topology.nodes)), links, devices)


def topology_outcome(parse, raw) -> tuple:
    """The error ``parse`` raises on ``raw``, or every node, link, device
    and port group field's type and value."""
    try:
        return ("parsed", *_topology_values(parse(raw)))
    except Exception as err:
        return _failure(err)


def topology_differential(seed: int, cases: int):
    """The cases of the first ``cases`` rows of the seeded topology stream."""
    rng = random.Random(seed)
    rows = (raw for number in itertools.count() for raw in topology_rows(rng, number))
    return _differential(itertools.islice(rows, cases), topology_outcome,
                         validate_topology, reference_validate_topology)


def scenario_outcome(parse, raw) -> tuple:
    """The error ``parse`` raises on ``raw``, or the topology's values, the
    bounds, the mode, the policy and every event's fields."""
    try:
        scenario = parse(raw)
    except Exception as err:
        return _failure(err)
    bounds, policy = scenario.bounds, scenario.policy
    events = [(type(event).__name__, *map(_typed, (event.seq, event.kind, event.slice_id,
                                                   event.link_id)),
               event.request and _request_values(event.request))
              for event in scenario.events]
    return ("parsed", _topology_values(scenario.topology), _typed(bounds.mode),
            [(_typed(bound.l), _typed(bound.h))
             for bound in (bounds.topology, bounds.device, bounds.data_plane)],
            *map(_typed, (scenario.mode, policy.order, policy.on_failure)), events)


def scenario_differential(seed: int, cases: int):
    """The cases of the first ``cases`` scenarios: the three of
    ``tests/data`` as they are, then each broken in turn at one to three
    seeded places."""
    rng = random.Random(seed)
    bases = [json.loads((DATA / f"{name}.json").read_text()) for name in SCENARIO_FILES]
    rows = itertools.chain(bases, (oracles.mutate(rng, bases[number % len(bases)])
                                   for number in itertools.count()))
    return _differential(itertools.islice(rows, cases), scenario_outcome,
                         scenario_from_dict, reference_scenario_from_dict)


STREAMS = {"rows": (differential_rows, SEED, 964000),
           "topology": (topology_differential, TOPOLOGY_SEED, 191200),
           "scenarios": (scenario_differential, SCENARIO_SEED, 20000)}


def test_ingestion_matches_reference():
    pools = repr((POOL, WEIGHT_POOL))
    outcomes = [library for _number, library in checked(differential_rows(SEED, TIER1_CASES))]
    assert repr((POOL, WEIGHT_POOL)) == pools, "a row wrote into a shared pool value"
    reasons = {library[2] for library in outcomes if library[0] == "error"}
    parsed_types = {name for library in outcomes if library[0] == "parsed"
                    for name, _value in library[1:]}
    assert reasons == {"ValidationError", "UnknownDimension", "NonPositiveWeight"}
    assert {"Name", "Count", "dict", "NoneType", "float"} <= parsed_types


def test_topology_ingestion_matches_reference():
    outcomes = [library for _number, library
                in checked(topology_differential(TOPOLOGY_SEED, TOPOLOGY_TIER1_CASES))]
    reasons = {library[2] for library in outcomes if library[0] == "error"}
    assert reasons == {"ValidationError", "DuplicateId", "DanglingEndpoint",
                       "InvalidCapacity"}
    assert sum(library[0] == "parsed" for library in outcomes) > 100


def test_scenario_ingestion_matches_reference():
    outcomes = [library for _number, library
                in checked(scenario_differential(SCENARIO_SEED, SCENARIO_TIER1_CASES))]
    reasons = {library[2] for library in outcomes if library[0] == "error"}
    assert {"ValidationError", "DanglingEndpoint", "InvalidCapacity"} <= reasons
    assert sum(library[0] == "parsed" for library in outcomes) > len(SCENARIO_FILES)


if __name__ == "__main__":
    raise SystemExit(main(STREAMS, "--cases"))
