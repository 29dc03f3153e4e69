"""Differential check of risk-group (SRLG) mode against the search it
replaced (``tests.oracles.reference_srlg_disjoint``).

Each seeded graph comes from ``random_graph_dict``, with 6 to 9 nodes or
with 50 to 400, and has each link tagged with up to two risk groups. Half
the large graphs' endpoint pairs lie a few hops apart. One
``DisjointSearch``, over all links or a random usable subset, with a budget
of 1 to 1000 heap pops, plays a random sequence of ``paths(k)`` and
``count()`` calls. The reference starts afresh for every call, and its
count is the deepest set it finds when asked for the link-mode maximum.
Each call must give the same paths in the same order, the same
``InsufficientDiversity`` detail or the same count, and a ``paths()`` after
``count()`` must raise RuntimeError on both. A second stream plays the
controller differential's scenarios in SRLG mode, their links tagged,
through ``run_scenario``: each report must equal, byte for byte, the
report of the same scenario played on reference searches.

Tier-1 runs the first cases of each stream; the full runs hash every outcome
and report:

    PYTHONPATH=src python -m tests.test_srlg_differential --graphs 2400
    PYTHONPATH=src python -m tests.test_srlg_differential --stream scenarios --graphs 24
"""

from __future__ import annotations

import math
import random
from unittest import mock

from tnsc import (DisjointnessMode, DisjointSearch, controller, report_to_json,
                  run_scenario, validate_topology)
from tnsc.errors import InsufficientDiversity
from tnsc.pathfind import DEFAULT_SRLG_BUDGET
from tnsc.scenario import scenario_from_dict

from .differential import case, checked, main
from .oracles import (adjacency, blocked_by, random_graph_dict, reference_srlg_disjoint,
                      search_outcome)
from .test_controller_differential import random_scenario

SEED = 7007
SCENARIO_SEED = 7008
TIER1_GRAPHS = 60
TIER1_SCENARIOS = 3
SRLG = DisjointnessMode.SRLG_DISJOINT


class ReferenceSrlgSearch:
    """``tnsc.DisjointSearch`` in SRLG mode, each call a fresh reference
    search. The count asks for the link-mode maximum that a link-mode
    ``DisjointSearch`` counts, which the engine differential checks."""

    def __init__(self, topology, src, dst, mode=SRLG, *, blocked_links=(),
                 srlg_budget=DEFAULT_SRLG_BUDGET):
        assert mode is SRLG
        self.topology, self.src, self.dst = topology, src, dst
        self.blocked = frozenset(blocked_links)
        self.usable = frozenset(topology.link_by_id.keys() - self.blocked)
        self.budget = srlg_budget
        self.counted = False

    def paths(self, k: int):
        if self.counted:
            raise RuntimeError("paths() after count()")
        paths = reference_srlg_disjoint(self.topology, self.src, self.dst, k,
                                        self.usable, self.budget)
        return sorted(paths, key=lambda p: (len(p.links), p.nodes))

    def count(self) -> int:
        self.counted = True
        ceiling = DisjointSearch(self.topology, self.src, self.dst,
                                 blocked_links=self.blocked).count()
        try:
            reference_srlg_disjoint(self.topology, self.src, self.dst, ceiling,
                                    self.usable, self.budget)
        except InsufficientDiversity as err:
            return err.found
        return ceiling


def tag_links(rng: random.Random, links: list[dict]) -> None:
    """Give each link up to two risk groups from a pool that grows with the graph."""
    pool = rng.randint(4, max(4, len(links) // 2))
    for link in links:
        link["srlgs"] = sorted({rng.randrange(pool) for _ in range(rng.randint(0, 2))})


def _endpoints(rng: random.Random, topology) -> tuple[str, str]:
    """A random pair, or half the time a pair two to four hops apart."""
    src = rng.choice(sorted(topology.nodes))
    adjacent = adjacency(topology)
    hops = {src: 0}
    queue = [src]
    for node in queue:
        for neighbor, _link in adjacent[node]:
            if neighbor not in hops:
                hops[neighbor] = hops[node] + 1
                queue.append(neighbor)
    near = sorted(node for node, h in hops.items() if 2 <= h <= 4)
    if near and rng.random() < 0.5:
        return src, rng.choice(near)
    return src, rng.choice(sorted(topology.nodes - {src}))


def _outcome(search, call):
    """``search_outcome``, or "RuntimeError" when the call raises one, as a
    ``paths()`` after ``count()`` must."""
    try:
        return search_outcome(search, call)
    except RuntimeError:
        return "RuntimeError"


def sequence_cases(seed: int, graphs: int):
    """Yield a case for every call of every seeded sequence."""
    rng = random.Random(seed)
    for number in range(graphs):
        raw = (random_graph_dict(rng, min_nodes=6, max_nodes=9) if number % 2 == 0
               else random_graph_dict(rng, min_nodes=50, max_nodes=400))
        tag_links(rng, raw["links"])
        topology = validate_topology(raw)
        src, dst = _endpoints(rng, topology)
        usable = rng.choice((None, {link.id for link in topology.links
                                    if rng.random() < 0.85}))
        budget = round(math.exp(rng.uniform(0, math.log(1000))))
        options = {"blocked_links": blocked_by(topology, usable), "srlg_budget": budget}
        search = DisjointSearch(topology, src, dst, SRLG, **options)
        reference = ReferenceSrlgSearch(topology, src, dst, SRLG, **options)
        label = (number, len(topology.nodes), usable is None, budget, src, dst)
        for step in range(rng.randint(1, 5)):
            call = "count" if rng.random() < 0.25 else rng.randint(1, 4)
            yield case(label + (step, call), _outcome(search, call),
                       _outcome(reference, call))


def scenario_cases(seed: int, graphs: int):
    """Yield a case for each seeded SRLG scenario, the reports as bytes,
    digesting the report."""
    rng = random.Random(seed)
    for number in range(graphs):
        raw = random_scenario(rng)
        raw["mode"] = SRLG.value
        tag_links(rng, raw["topology"]["links"])
        played = scenario_from_dict(raw)
        report = report_to_json(run_scenario(played)).encode()
        with mock.patch.object(controller, "DisjointSearch", ReferenceSrlgSearch):
            expected = report_to_json(run_scenario(scenario_from_dict(raw))).encode()
        label = (number, len(played.topology.nodes), played.bounds.mode.value)
        yield label, report, expected, report


STREAMS = {"sequences": (sequence_cases, SEED, 2400),
           "scenarios": (scenario_cases, SCENARIO_SEED, 24)}


def test_srlg_sequences_match_reference():
    outcomes = [outcome for _label, outcome in checked(sequence_cases(SEED, TIER1_GRAPHS))]
    exhausted = sum(isinstance(outcome, dict) and outcome["budget_exhausted"]
                    for outcome in outcomes)
    assert len(outcomes) > 2 * TIER1_GRAPHS
    assert exhausted > 0


def test_srlg_scenarios_match_reference():
    reports = [report for _label, report
               in checked(scenario_cases(SCENARIO_SEED, TIER1_SCENARIOS))]
    for seen in (b'"outcome":"active"', b'"budget_exhausted":true',
                 b'"reason":"SlotExhausted"', b'"action":"reconfigure"'):
        assert any(seen in report for report in reports), seen


if __name__ == "__main__":
    raise SystemExit(main(STREAMS))
