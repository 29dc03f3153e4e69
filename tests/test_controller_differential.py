"""Differential and property check of the controller on graphs of 50 to
400 nodes.

Each seeded scenario plays through ``run_scenario``: a topology from
``random_graph_dict`` or a ring with chords, with a few slots per link, in
link or node mode, under static or derived bounds, through arrivals,
releases and link flaps. After every event, and after the reconfiguration
a link failure starts, the controller's blocked links for every slot count
a request may ask for, and for 0, must be the links that the per-link
``reference_usable_links`` leaves out; a link failure must return, and mark
stale, exactly the slices ``reference_stale_scan`` finds, in order. At the same
points ``ledger_errors`` finds no problem, and a failed event or a rejected
arrival has left the ledger item for item as it was; both ride in the case
for 0 slots, so a broken ledger counts as a mismatch like any other.

Each scenario must admit some slice. Tier-1 runs the first scenarios and
replays the first through a plain ``run_scenario`` for the same report
bytes; the full run hashes every report:

    PYTHONPATH=src python -m tests.test_controller_differential --graphs 400
"""

from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

from tnsc import AllocationState, Controller, EventKind, report_to_json, run_scenario, scenario
from tnsc.scenario import scenario_from_dict

from .differential import checked, main
from .oracles import (ledger_errors, random_graph_dict, reference_stale_scan,
                      reference_usable_links)

SEED = 9009
TIER1_GRAPHS = 12
EVENTS = 60
MOST_SLOTS = 3  # requests ask for 1 to MOST_SLOTS calendar slots
STATIC_BOUNDS = {"mode": "static", "topology": {"l": 2, "h": 4},
                 "device": {"l": 1, "h": 24}, "data_plane": {"l": 1, "h": 6}}


def random_scenario(rng: random.Random) -> dict:
    """A scenario whose slices are long-lived enough for each failure to
    move some, on links short enough of slots to turn some requests away."""
    family = rng.choice((None, "ring"))
    topology = random_graph_dict(rng, min_nodes=50, max_nodes=400, family=family)
    for link in topology["links"]:
        link["slot_capacity"] = rng.randint(2, 8)
    topology["devices"] = [
        {"node": node, "ports": [{"type": "10GE", "gbps": 10, "count": rng.randint(4, 24)}]}
        for node in topology["nodes"] if rng.random() < 0.98]
    link_ids = [link["id"] for link in topology["links"]]
    at_node: dict[str, list[str]] = {}
    for link in topology["links"]:
        for end in (link["a"], link["b"]):
            at_node.setdefault(end, []).append(link["id"])
    arrived: list[str] = []
    endpoints: list[tuple[str, str]] = []
    down: set[str] = set()
    events = []
    for seq in range(1, EVENTS + 1):
        roll = rng.random()
        if roll < 0.55 or not arrived:
            rid = f"TS_{seq}"
            arrived.append(rid)
            src, dst = rng.sample(topology["nodes"], 2)
            endpoints.append((src, dst))
            events.append({"seq": seq, "type": "request_arrival", "request": {
                "id": rid, "src": src, "dst": dst, "control": rng.random() < 0.5,
                "disjoint_paths": rng.randint(2, 3),
                "client_ports": {"type": "10GE", "gbps": 10, "count": rng.randint(1, 6)},
                "calendar_slots": rng.randint(1, MOST_SLOTS)}})
        elif roll < 0.65:
            events.append({"seq": seq, "type": "request_release",
                           "slice": rng.choice(arrived)})
        elif roll < 0.8 or not down:
            # Half the failures hit a link at an arrival's endpoint, where
            # that slice, if admitted, uses k of the links.
            if rng.random() < 0.5:
                link = rng.choice(at_node[rng.choice(rng.choice(endpoints))])
            else:
                link = rng.choice(link_ids)
            down.add(link)
            events.append({"seq": seq, "type": "link_down", "link": link})
        else:
            link = rng.choice(sorted(down))
            down.discard(link)
            events.append({"seq": seq, "type": "link_up", "link": link})
    return {"topology": topology,
            "mode": rng.choice(("link_disjoint", "node_disjoint")),
            "bounds": rng.choice((STATIC_BOUNDS, {"mode": "derived"})),
            "policy": {"order": rng.choice(("descending_index", "ascending_index")),
                       "on_failure": rng.choice(("mark_degraded", "drop"))},
            "events": events}


class _Checked(Controller):
    """A controller that records (label, outcome, reference outcome) in
    ``checks`` after each event and reconfiguration, ledger problems at 0 slots."""

    def __init__(self, checks: list, label: tuple, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks, self.label, self.seq = checks, label, None

    def _ledger_items(self) -> list:
        return [sorted(table) if isinstance(table, set) else list(table.items())
                for table in vars(self.ledger).values()]

    def _check(self, phase: str, problems: list) -> None:
        for slots in range(MOST_SLOTS + 1):
            blocked = self._blocked_links(slots)
            reference = set(self.topology.link_by_id) - reference_usable_links(self.ledger, slots)
            if slots == 0:
                blocked, reference = (blocked, ledger_errors(self) + problems), (reference, [])
            self.checks.append((self.label + (self.seq, phase, slots), blocked, reference))

    def apply_event(self, event):
        self.seq = event.seq
        before = self._ledger_items()
        expected = None
        if event.kind is EventKind.LINK_DOWN:
            expected = reference_stale_scan(self.records, event.link_id)
        failed = True
        try:
            affected = super().apply_event(event)
            failed = (event.kind is EventKind.REQUEST_ARRIVAL and
                      self.records[event.request.id].state is AllocationState.REJECTED)
        finally:
            changed = failed and self._ledger_items() != before
            self._check("event", ["a failed event changed the ledger"] if changed else [])
        if expected is not None:
            stale = [slice_id for slice_id in sorted(self.records)
                     if self.records[slice_id].stale]
            self.checks.append((self.label + (self.seq, "stale"),
                                (affected, stale), (expected, expected)))
        return affected

    def reconfigure(self, affected):
        entries = super().reconfigure(affected)
        self._check("reconfigure", [])
        return entries


def controller_cases(seed: int, graphs: int):
    """Yield a case for each check of each seeded scenario played through
    ``run_scenario`` on a checking controller; the first digests the report."""
    rng = random.Random(seed)
    for number in range(graphs):
        played = scenario_from_dict(random_scenario(rng))
        label = (number, len(played.topology.nodes), played.mode.value,
                 played.bounds.mode.value)
        checks: list = []
        with mock.patch.object(scenario, "Controller",
                               lambda *args: _Checked(checks, label, *args)):
            report = run_scenario(played)
        assert any(entry["action"] == "admit" and entry["outcome"] == "active"
                   for entry in report.entries), label
        digested = report_to_json(report).encode()
        for check in checks:
            yield *check, digested
            digested = b""


STREAMS = {"scenarios": (controller_cases, SEED, 400)}


def test_controller_matches_reference():
    cases = list(controller_cases(SEED, TIER1_GRAPHS))
    checks = list(checked(cases))
    stale = sum(label[-1] == "stale" and bool(outcome[0]) for label, outcome in checks)
    assert len(checks) > 4 * EVENTS * TIER1_GRAPHS
    assert stale > TIER1_GRAPHS
    assert {label[2] for label, _outcome in checks} == {"link_disjoint", "node_disjoint"}
    first = scenario_from_dict(random_scenario(random.Random(SEED)))
    assert report_to_json(run_scenario(first)).encode() == cases[0][-1]


def test_stream_reports_a_broken_controller(capsys):
    """A controller that never credits ports back breaks conservation at the
    first release; the stream counts that as mismatches and still prints
    its result line."""
    book = Controller._book

    def no_port_credit(self, record, sign):
        book(self, replace(record, ports_per_device={}) if sign > 0 else record, sign)

    with mock.patch.object(Controller, "_book", no_port_credit):
        assert main(STREAMS, argv=["--graphs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("mismatch ") and "residual ports" in lines[0]
    assert lines[-1].startswith("stream=scenarios seed=9009 size=1 ")
    assert "mismatches=0" not in lines[-1].split()


if __name__ == "__main__":
    raise SystemExit(main(STREAMS))
