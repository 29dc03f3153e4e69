"""Differential check of the type-dispatched canonical writer against the
``isinstance``-chain writer it replaced
(``tests.oracles.reference_canonical_json``).

Seeded nested values mix dicts, lists, tuples, ``MappingProxyType`` and
``OrderedDict`` (empty ones too) with ``None``, bools, ints (large ones
too), floats (-0.0, subnormals, the largest double), ``IntEnum`` and
``str`` ``Enum`` members, and strings and keys with non-ASCII, control and
quote characters. Some values hold an error: an int key, mixed keys, NaN,
an infinity, a ``set`` or ``bytes``. Both writers must give the same text,
or raise the same exception type. The edge cases add one key set in two
insertion orders and at several depths, and an int key written after an
equal str key set, since the writer lays out each key set once per call.
The goldens' reports and tables go through both writers as well, writing
a report must leave no garbage cycle, and a call may peak at no more than
three times its text in memory.

Tier-1 runs the first values; the full run hashes every outcome:

    PYTHONPATH=src python -m tests.test_writer_differential --cases 300000
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import tracemalloc
from collections import OrderedDict
from enum import Enum, IntEnum
from pathlib import Path
from types import MappingProxyType

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

from .differential import case, checked, main
from .oracles import reference_canonical_json

DATA = Path(__file__).parent / "data"
SEED = 8008
TIER1_CASES = 3000
#: The most memory one call may hold at its peak, per character of its text.
PEAK_PER_CHAR = 3


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


def differential_cases(seed: int, count: int):
    """Yield a case for each of ``count`` seeded values, every other one
    free of errors; an outcome is the text or the exception's type name."""
    rng = random.Random(seed)
    for number in range(count):
        value = random_value(rng, bad=0.0 if number % 2 else 0.03)
        yield case(number, _outcome(canonical_json, value),
                   _outcome(reference_canonical_json, value))


STREAMS = {"values": (differential_cases, SEED, 300_000)}


def test_writer_matches_reference_on_fuzzed_values():
    outcomes = {"text": 0, "TypeError": 0, "ValueError": 0}
    for _number, outcome in checked(differential_cases(SEED, TIER1_CASES)):
        outcomes["text" if outcome.endswith("\n") else outcome] += 1
    assert min(outcomes.values()) >= 100, outcomes


EDGE_CASES = [
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
    # One key set in two insertion orders, and at several depths.
    ({"x": {"b": 1, "a": 2}, "y": {"a": 3, "b": 4}},
     '{"x":{"a":2,"b":1},"y":{"a":3,"b":4}}\n'),
    ({"b": {"b": {"b": 1, "a": 2}, "a": 3}, "a": [{"b": 4, "a": 5}]},
     '{"a":[{"a":5,"b":4}],"b":{"a":3,"b":{"a":2,"b":1}}}\n'),
    # Int and str-enum keys after a str key set equal to theirs was written.
    ([{"1": 0}, {"a": 1}, {1: "a"}], "TypeError"),
    ([{"red": 0}, {Colour.RED: 1}], '[{"red":0},{"red":1}]\n'),
]
GOLDEN_REPORTS = ["five_node_failure", "grid_link_disjoint", "grid_node_disjoint"]


def pytest_generate_tests(metafunc):
    """Parametrize the tests below without importing pytest, so the full
    run needs only the standard library."""
    if metafunc.function is test_writer_edge_cases:
        metafunc.parametrize("value, outcome", EDGE_CASES)
    elif metafunc.function is test_golden_reports_through_both_writers:
        metafunc.parametrize("name", GOLDEN_REPORTS)


def test_writer_edge_cases(value, outcome):
    assert _outcome(canonical_json, value) == outcome
    assert _outcome(reference_canonical_json, value) == outcome


def test_writer_leaves_no_garbage_cycle():
    """The key layouts live in one call's locals: writing a report leaves
    nothing for the cyclic collector."""
    report = _golden_report("grid_node_disjoint")
    gc.collect()
    gc.disable()
    try:
        canonical_json(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _golden_report(name: str) -> dict:
    return report_to_dict(run_scenario(load_scenario(str(DATA / f"{name}.json"))))


def test_golden_reports_through_both_writers(name):
    report = _golden_report(name)
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


def _peak_per_char(value) -> float:
    """The most memory one ``canonical_json`` call holds, traced, per
    character of the text it returns; a trace already running goes on."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = canonical_json(value)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / len(text)


def test_writer_peak_memory_stays_proportional_to_its_text():
    """Two golden reports and a 200-row table: a writer that kept every
    fragment until one final join peaked at 5.4 to 5.6 times its text."""
    table = json.loads((DATA / "table_inputs.json").read_text())
    raws = itertools.islice(itertools.cycle(table["requests"]), 200)
    rows = evaluate([request_from_dict({**raw, "id": f"r{number:03d}"})
                     for number, raw in enumerate(raws)],
                    bounds_from_dict(table["bounds"]),
                    weights=weights_from_dict(table["weights"], "weights"))
    values = {"grid_link_disjoint": _golden_report("grid_link_disjoint"),
              "grid_node_disjoint": _golden_report("grid_node_disjoint"),
              "table": rows}
    peaks = {name: _peak_per_char(value) for name, value in values.items()}
    assert max(peaks.values()) <= PEAK_PER_CHAR, peaks


if __name__ == "__main__":
    raise SystemExit(main(STREAMS, "--cases"))
