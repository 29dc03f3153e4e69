"""Differential check of request ingestion against the parser it replaced
(``tests.oracles.reference_request_from_dict``, which builds the frozen
``ReferenceSliceRequest`` and ``ReferencePortSpec`` dataclasses).

Each seeded case draws one valid request dict and then breaks it. Every
field in turn (the request itself, ``id``, ``src``, ``dst``, ``control``,
``disjoint_paths``, ``calendar_slots``, ``client_ports`` and its ``type``,
``gbps`` and ``count``, and ``weights``) is left out or set to each value of
a fixed pool: None, values of the wrong type, bools and floats where an int
belongs, the empty string, ``str`` and ``int`` subclasses, NaN, ±inf,
``10**400``, 0 and negative numbers. ``weights`` takes its own pool: ``{}``,
valid maps, an unknown key, non-positive, bool and non-finite weights, and
values that are not objects. Further rows break two fields at once, one
row for each pair of ``FAULTS`` (one fault for each check the parser
makes), so the order in which faults are found is pinned; a few more break
three fields with values drawn from the pools. Both parsers must
raise the same error class with the same ``reason``, ``str()`` and
``detail()``, or parse to requests whose every field (and trait) has the
same value and the same type.

A case is one row. Each seeded request gives 482 rows: itself, its 308
single faults, 153 pairs and 20 triples. Tier-1 runs the first cases; the
full run (2,000 requests) hashes every outcome:

    PYTHONPATH=src python -m tests.test_ingest_differential --cases 964000
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from types import MappingProxyType

from tnsc.errors import TnscError
from tnsc.model import DIMENSIONS, request_from_dict

from .differential import checked, main
from .oracles import reference_request_from_dict

SEED = 2020
TIER1_CASES = 5000
TRIPLE_FAULT_ROWS = 20
MISSING = object()


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


def mutate(raw: dict, faults) -> object:
    """``raw`` with each ``(field, value)`` applied in turn; MISSING removes
    the field, and a field under a non-object is left as it is."""
    raw = copy.deepcopy(raw)
    for field, value in faults:
        if not field:
            if value is not MISSING:
                raw = value
            continue
        holder = raw
        for key in field[:-1]:
            holder = holder.get(key) if isinstance(holder, dict) else None
        if not isinstance(holder, dict):
            continue
        if value is MISSING:
            holder.pop(field[-1], None)
        else:
            holder[field[-1]] = value
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


def outcome(parse, raw) -> tuple:
    """What ``parse`` makes of ``raw``: the error's class, reason, message
    and detail, or every field's and trait's type and value."""
    try:
        request = parse(raw)
    except Exception as err:  # a non-tnsc error must match too
        reason = getattr(err, "reason", None)
        detail = err.detail() if isinstance(err, TnscError) else None
        return ("error", type(err).__name__, reason, str(err), repr(detail))
    ports = request.client_ports
    values = [request.id, request.src, request.dst, request.control,
              request.disjoint_paths, ports.port_type, ports.gbps, ports.count,
              ports.label, request.calendar_slots, request.weights,
              *(request.trait(dim) for dim in DIMENSIONS)]
    if request.weights is not None:
        values += [item for pair in request.weights.items() for item in pair]
    return ("parsed", *map(_typed, values))


def differential_rows(seed: int, cases: int):
    """Yield a case for each of the first ``cases`` rows of the seeded
    stream, digesting the library outcome."""
    rng = random.Random(seed)
    rows = (raw for number in itertools.count() for raw in case_rows(rng, number))
    for number, raw in enumerate(itertools.islice(rows, cases)):
        library = outcome(request_from_dict, raw)
        yield (number, library, outcome(reference_request_from_dict, raw),
               repr(library).encode())


STREAMS = {"rows": (differential_rows, SEED, 964000)}


def test_ingestion_matches_reference():
    outcomes = [library for _number, library in checked(differential_rows(SEED, TIER1_CASES))]
    reasons = {library[2] for library in outcomes if library[0] == "error"}
    parsed_types = {name for library in outcomes if library[0] == "parsed"
                    for name, _value in library[1:]}
    assert reasons == {"ValidationError", "UnknownDimension", "NonPositiveWeight"}
    assert {"Name", "Count", "dict", "NoneType", "float"} <= parsed_types


if __name__ == "__main__":
    raise SystemExit(main(STREAMS, "--cases"))
