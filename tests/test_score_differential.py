"""Differential check of the table scoring path against the one it replaced
(``tests.oracles.reference_evaluate``, which scores through
``reference_assess``, ``reference_normalize_trait`` and
``reference_merge_index``).

Each seeded case draws a topology from ``random_graph_dict`` with a device
at most nodes, and one request table on it. Requests ask for zero to three
dimensions outside the table's static bounds (above h, or below l where l
is above the floor), carry no weights, ``{}`` or a few weights, and some
name an endpoint with no device, with no matching port group or outside
the topology. The table is scored four ways: static bounds with call-level
weights (none, ``{}`` or a few), derived bounds in link and in node mode,
and derived bounds with no topology. Both paths must give the same bytes
through ``rows_to_json`` and ``rows_to_csv``, in evaluation and in ranked
order. The golden tables are scored the same way, and the golden scenarios
play with ``controller.assess`` swapped for the reference: both reports
must equal the library's, byte for byte.

Tier-1 runs the first cases; the full run hashes every output:

    PYTHONPATH=src python -m tests.test_score_differential --graphs 2000
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from unittest import mock

from tnsc import controller, report_to_json, run_scenario
from tnsc.model import (
    DERIVED_BOUNDS,
    DIMENSIONS,
    bounds_from_dict,
    request_from_dict,
    validate_topology,
    weights_from_dict,
)
from tnsc.pathfind import DisjointnessMode
from tnsc.scenario import evaluate, load_scenario, rank_rows, rows_to_csv, rows_to_json

from .differential import checked, main
from .oracles import random_graph_dict, reference_assess, reference_evaluate

SEED = 1212
TIER1_GRAPHS = 16
ROWS = 24
DATA = Path(__file__).parent / "data"
GOLDEN_SCENARIOS = ("five_node_failure", "grid_link_disjoint", "grid_node_disjoint")
FLOORS = {"topology": 2, "device": 1, "data_plane": 1}
PORTS = (("10GE", 10), ("100GE", 100), ("25GE", 25))  # no device offers 25GE
WEIGHTS = (0.5, 1, 1.5, 2, 3, 1e-3, 7.25)


def _weights(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return None
    if roll < 0.6:
        return {}
    return {dim: rng.choice(WEIGHTS) for dim in DIMENSIONS if rng.random() < 0.6}


def _static_bounds(rng: random.Random) -> dict:
    bounds: dict = {"mode": "static"}
    for dim, top in (("topology", 6), ("device", 24), ("data_plane", 20)):
        low = rng.randint(FLOORS[dim], FLOORS[dim] + 2)
        bounds[dim] = {"l": low, "h": rng.choice((low, rng.randint(low, top)))}
    return bounds


def _request(rng: random.Random, rid: str, nodes: list[str], bounds: dict) -> dict:
    src, dst = rng.sample(nodes, 2)
    if rng.random() < 0.03:
        dst = "absent"
    port_type, gbps = rng.choice(PORTS) if rng.random() < 0.2 else PORTS[0]
    failing = rng.sample(DIMENSIONS, rng.choice((0, 0, 1, 1, 2, 3)))
    traits = {}
    for dim in DIMENSIONS:
        low, high = bounds[dim]["l"], bounds[dim]["h"]
        if dim not in failing:
            traits[dim] = rng.randint(low, high)
        elif low > FLOORS[dim] and rng.random() < 0.3:
            traits[dim] = rng.randint(FLOORS[dim], low - 1)
        else:
            traits[dim] = rng.randint(high + 1, high + 9)
    raw = {"id": rid, "src": src, "dst": dst, "control": rng.random() < 0.5,
           "disjoint_paths": traits["topology"], "calendar_slots": traits["data_plane"],
           "client_ports": {"type": port_type, "gbps": gbps, "count": traits["device"]}}
    weights = _weights(rng)
    if weights is not None:
        raw["weights"] = weights
    return raw


def random_case(rng: random.Random) -> dict:
    """A topology with devices, static bounds, call-level weights and a
    request table, as raw JSON-shaped dicts."""
    topology = random_graph_dict(rng, min_nodes=6, max_nodes=120)
    for link in topology["links"]:
        link["slot_capacity"] = rng.randint(6, 20)
    topology["devices"] = [
        {"node": node, "ports": [{"type": "10GE", "gbps": 10, "count": rng.randint(1, 24)},
                                 {"type": "100GE", "gbps": 100, "count": rng.randint(1, 4)}]
         [:rng.randint(1, 2)]}
        for node in topology["nodes"] if rng.random() < 0.9]
    bounds = _static_bounds(rng)
    requests = [_request(rng, f"r{i:03d}", topology["nodes"], bounds) for i in range(ROWS)]
    return {"topology": topology, "bounds": bounds, "weights": _weights(rng),
            "requests": requests}


def scored_tables(case: dict):
    """Yield (label, library rows, reference rows) for each way a case's
    table is scored."""
    requests = [request_from_dict(raw) for raw in case["requests"]]
    weights = case["weights"]
    if weights is not None:
        weights = weights_from_dict(weights, "weights")
    topology = validate_topology(case["topology"])
    static = bounds_from_dict(case["bounds"])
    runs = [("static", dict(bounds=static, weights=weights)),
            ("link", dict(bounds=DERIVED_BOUNDS, topology=topology)),
            ("node", dict(bounds=DERIVED_BOUNDS, topology=topology,
                          mode=DisjointnessMode.NODE_DISJOINT)),
            ("no-topology", dict(bounds=DERIVED_BOUNDS))]
    for label, kwargs in runs:
        yield label, evaluate(requests, **kwargs), reference_evaluate(requests, **kwargs)


def _outputs(rows: list[dict]) -> tuple[str, ...]:
    ranked = rank_rows(rows)
    return rows_to_json(rows), rows_to_csv(rows), rows_to_json(ranked), rows_to_csv(ranked)


def differential_tables(seed: int, graphs: int):
    """Yield a case for each scored table of the golden table inputs and of
    ``graphs`` seeded cases, digesting its label and outputs."""
    cases = [("golden", json.loads((DATA / "table_inputs.json").read_text()))]
    rng = random.Random(seed)
    cases += ((number, random_case(rng)) for number in range(graphs))
    for number, case in cases:
        for label, rows, expected in scored_tables(case):
            outputs = _outputs(rows)
            yield ((number, label), outputs, _outputs(expected),
                   "".join((repr((number, label)), *outputs)).encode())


def golden_reports():
    """Yield (name, library report, report with controller.assess swapped
    for the reference, digested library report) for each golden scenario."""
    for name in GOLDEN_SCENARIOS:
        played = load_scenario(str(DATA / f"{name}.json"))
        library = report_to_json(run_scenario(played))
        with mock.patch.object(controller, "assess", reference_assess):
            reference = report_to_json(run_scenario(played))
        yield name, library, reference, library.encode()


def score_cases(seed: int, graphs: int):
    """The scored tables, then the golden scenarios' reports."""
    yield from differential_tables(seed, graphs)
    yield from golden_reports()


STREAMS = {"tables": (score_cases, SEED, 2000)}


def test_scoring_matches_reference():
    rows = [(label[1], row) for label, outputs in checked(differential_tables(SEED, TIER1_GRAPHS))
            for row in json.loads(outputs[0])]
    statuses = {row["status"] for _way, row in rows}
    failing = {sum(row[dim]["value"] is None for dim in DIMENSIONS)
               for way, row in rows if way == "static"}
    assert statuses == {"ok", "OUT_OF_RANGE", "NoDevice", "NoMatchingPorts",
                        "ValidationError"}
    assert failing == {0, 1, 2, 3}


def test_golden_scenarios_with_reference_assess():
    for name, library, reference, _digested in golden_reports():
        golden = (DATA / f"{name}.report.json").read_text()
        assert library == reference == golden, name


if __name__ == "__main__":
    raise SystemExit(main(STREAMS))
