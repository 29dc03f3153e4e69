"""Differential check of the type-dispatched canonical writer against the
``isinstance``-chain writer it replaced
(``tests.oracles.reference_canonical_json``).

Seeded nested values mix dicts, lists, tuples, ``MappingProxyType`` and
``OrderedDict`` (empty ones too) with ``None``, bools, ints (large ones
too), floats (-0.0, subnormals, the largest double), ``IntEnum`` and
``str`` ``Enum`` members, and strings and keys with non-ASCII, control and
quote characters. Some values hold an error: an int key, mixed keys, NaN,
an infinity, a ``set`` or ``bytes``. Both writers must give the same text,
or raise the same exception type. The goldens' reports and tables go
through both writers as well.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from enum import Enum, IntEnum
from pathlib import Path
from types import MappingProxyType

import pytest

from tnsc.model import (
    bounds_from_dict,
    request_from_dict,
    validate_topology,
    weights_from_dict,
)
from tnsc.scenario import (
    canonical_json,
    evaluate,
    load_scenario,
    rank_rows,
    report_to_dict,
    run_scenario,
)

from .oracles import reference_canonical_json

DATA = Path(__file__).parent / "data"
SEED = 8008
CASES = 3000


class Level(IntEnum):
    LOW = 1
    HIGH = 200


class Colour(str, Enum):
    RED = "red"
    QUOTED = 'say "hi"\n'


#: Characters strings and keys are drawn from: ASCII, the JSON escapes,
#: other control characters, non-ASCII in and beyond the BMP, and a lone
#: surrogate.
ALPHABET = ('a', 'b', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\b',
            '\f', '\x00', '\x1f', '\x7f', 'é', 'ß', '—', '中', ' ',
            '\U0001f600', '\ud800')


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _leaf(rng: random.Random, bad: float):
    if rng.random() < bad:
        return rng.choice((float("nan"), float("inf"), -float("inf"),
                           {1, 2}, b"bytes", frozenset()))
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice((0, -1, 7, 2 ** 64, -(10 ** 40), 10 ** 300))
    if kind == 2:
        return rng.choice((-0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, 0.1, 1e16, -2.5))
    if kind == 3:
        return rng.uniform(-1e6, 1e6)
    if kind == 4:
        return rng.random()
    if kind == 5:
        return rng.choice(tuple(Level) + tuple(Colour))
    return _text(rng)


def _key(rng: random.Random, bad: float):
    if rng.random() < bad:
        return rng.choice((1, 2, -3, Level.LOW))
    if rng.random() < 0.05:
        return Colour.RED
    return _text(rng)


def random_value(rng: random.Random, depth: int = 0, bad: float = 0.01):
    """A nested value; ``bad`` is the chance of an error at each leaf and key."""
    if depth >= 4 or rng.random() < 0.35:
        return _leaf(rng, bad)
    kind = rng.randrange(5)
    size = rng.choice((0, 1, 2, 3, 5, 8))
    if kind <= 1:
        items = [random_value(rng, depth + 1, bad) for _ in range(size)]
        return items if kind == 0 else tuple(items)
    mapping = {_key(rng, bad): random_value(rng, depth + 1, bad) for _ in range(size)}
    if kind == 2:
        return mapping
    if kind == 3:
        return MappingProxyType(mapping)
    return OrderedDict(reversed(mapping.items()))


def _outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as err:
        return type(err).__name__


def test_writer_matches_reference_on_fuzzed_values():
    rng = random.Random(SEED)
    outcomes = {"text": 0, "TypeError": 0, "ValueError": 0}
    for case in range(CASES):
        value = random_value(rng, bad=0.0 if case % 2 else 0.03)
        outcome = _outcome(canonical_json, value)
        assert outcome == _outcome(reference_canonical_json, value), case
        outcomes["text" if outcome.endswith("\n") else outcome] += 1
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("value, outcome", [
    ({}, "{}\n"),
    ([], "[]\n"),
    ((), "[]\n"),
    (OrderedDict(), "{}\n"),
    (MappingProxyType({"b": True, "a": [False, None]}),
     '{"a":[false,null],"b":true}\n'),
    ({"k": (Level.HIGH, Colour.RED, -0.0)}, '{"k":[200,"red",-0]}\n'),
    ({Colour.RED: 1}, '{"red":1}\n'),
    ({1: "a"}, "TypeError"),
    ({"a": 1, 2: "b"}, "TypeError"),
    ([float("nan")], "ValueError"),
    ({"x": float("-inf")}, "ValueError"),
    ([{1, 2}], "TypeError"),
    (b"x", "TypeError"),
])
def test_writer_edge_cases(value, outcome):
    assert _outcome(canonical_json, value) == outcome
    assert _outcome(reference_canonical_json, value) == outcome


@pytest.mark.parametrize("name", ["five_node_failure", "grid_link_disjoint",
                                  "grid_node_disjoint"])
def test_golden_reports_through_both_writers(name):
    report = report_to_dict(run_scenario(load_scenario(str(DATA / f"{name}.json"))))
    golden = (DATA / f"{name}.report.json").read_text()
    assert canonical_json(report) == reference_canonical_json(report) == golden


def test_golden_tables_through_both_writers():
    """The golden JSON tables, rebuilt as the CLI builds them: static bounds
    with the weights file, derived bounds against the topology."""
    table = json.loads((DATA / "table_inputs.json").read_text())
    goldens = json.loads((DATA / "table_golden.json").read_text())
    requests = [request_from_dict(raw) for raw in table["requests"]]
    built = {
        "static": evaluate(requests, bounds_from_dict(table["bounds"]),
                           weights=weights_from_dict(table["weights"], "weights")),
        "derived": evaluate(requests, bounds_from_dict({"mode": "derived"}),
                            topology=validate_topology(table["topology"])),
    }
    for bounds, rows in built.items():
        for command, ordered in (("evaluate", rows), ("rank", rank_rows(rows))):
            golden = goldens[f"{command}-{bounds}-json"]
            assert canonical_json(ordered) == reference_canonical_json(ordered) == golden
