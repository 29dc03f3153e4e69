"""Seeded property run of the controller on graphs of 50 to 400 nodes.

Each stream of arrivals, releases and link flaps plays through a fresh
controller one ``play_event`` at a time, as ``run_scenario`` plays it, in
link and node modes. After every event the ledger conserves slots and
ports, a rejected admission or a failed release has left the ledger
bit-identical, and no active slice that is not stale crosses a down link.
Two runs of one scenario give the same report bytes.
"""

from __future__ import annotations

import random

import pytest

from tnsc import AllocationState, Controller, play_event, report_to_json, run_scenario
from tnsc.controller import LINK_DOWN
from tnsc.scenario import scenario_from_dict

from .conftest import assert_conserved
from .oracles import random_graph_dict


def random_scenario(rng: random.Random, mode: str, events: int) -> dict:
    topology = random_graph_dict(rng, min_nodes=50, max_nodes=400)
    for link in topology["links"]:
        link["slot_capacity"] = rng.randint(2, 8)
    topology["devices"] = [
        {"node": node, "ports": [{"type": "10GE", "gbps": 10, "count": rng.randint(4, 40)}]}
        for node in topology["nodes"]]
    link_ids = [link["id"] for link in topology["links"]]
    arrived: list[str] = []
    down: set[str] = set()
    entries = []
    for seq in range(1, events + 1):
        roll = rng.random()
        if roll < 0.5 or not arrived:
            rid = f"TS_{seq}"
            arrived.append(rid)
            src, dst = rng.sample(topology["nodes"], 2)
            entries.append({"seq": seq, "type": "request_arrival", "request": {
                "id": rid, "src": src, "dst": dst, "control": rng.random() < 0.5,
                "disjoint_paths": rng.randint(2, 3),
                "client_ports": {"type": "10GE", "gbps": 10, "count": rng.randint(1, 6)},
                "calendar_slots": rng.randint(1, 3)}})
        elif roll < 0.7:
            entries.append({"seq": seq, "type": "request_release",
                            "slice": rng.choice(arrived)})
        elif roll < 0.9 or not down:
            link = rng.choice(link_ids)
            down.add(link)
            entries.append({"seq": seq, "type": "link_down", "link": link})
        else:
            link = rng.choice(sorted(down))
            down.discard(link)
            entries.append({"seq": seq, "type": "link_up", "link": link})
    return {"topology": topology, "mode": mode, "events": entries}


def ledger_state(controller: Controller) -> tuple:
    ledger = controller.ledger
    return tuple(list(table.items()) for table in (
        ledger.residual_slots, ledger.residual_ports, ledger.link_state,
        ledger.control_contexts))


def assert_no_active_slice_on_a_down_link(controller: Controller) -> None:
    down = {link for link, state in controller.ledger.link_state.items()
            if state == LINK_DOWN}
    for record in controller.records.values():
        if record.state is AllocationState.ACTIVE and not record.stale:
            assert not down & {link for path in record.paths for link in path.links}, \
                record.slice_id


@pytest.mark.parametrize("mode", ["link_disjoint", "node_disjoint"])
def test_controller_invariants_hold_after_every_event(mode):
    rng = random.Random(8080 if mode == "link_disjoint" else 8081)
    for _ in range(3):
        scenario = scenario_from_dict(random_scenario(rng, mode, events=40))
        controller = Controller(scenario.topology, scenario.bounds, scenario.mode,
                                scenario.policy)
        admitted = 0
        for event in scenario.events:
            before = ledger_state(controller)
            own = play_event(controller, event)[0]
            if own["outcome"] in ("rejected", "error"):
                assert ledger_state(controller) == before, event.seq
            elif own["action"] == "admit":
                admitted += 1
            assert_conserved(controller)
            assert_no_active_slice_on_a_down_link(controller)
        assert admitted > 0
        assert report_to_json(run_scenario(scenario)) == report_to_json(run_scenario(scenario))
