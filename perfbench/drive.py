"""Closed-loop event driver and the output checks made on every run.

``Round`` feeds a scenario's events to a fresh ``Controller`` one at a time,
the way ``tnsc.scenario.run_scenario`` does, so each event can be timed on
its own. It builds the same report entries with the scenario module's entry
builders, and ``check_golden`` proves on every run that it reproduces the
checked-in golden report byte for byte before anything is timed.

The one difference from ``run_scenario`` is the client's: a release is sent
only for a slice the controller holds (active or degraded). A real caller
knows whether its slice was admitted, and the generator cannot know that in
advance, so a release of a rejected slice is skipped, not sent.
"""

from __future__ import annotations

from pathlib import Path

from tnsc import scenario as tsc
from tnsc.controller import Controller, EventKind
from tnsc.errors import TnscError
from tnsc.model import AllocationState
from tnsc.pathfind import verify_disjoint

GOLDEN_SCENARIO = Path("tests/data/five_node_failure.json")
GOLDEN_REPORT = Path("tests/data/five_node_failure.report.json")

LIVE = (AllocationState.ACTIVE, AllocationState.DEGRADED)


class Round:
    """One pass of a scenario through a fresh controller."""

    def __init__(self, scenario):
        self.controller = Controller(scenario.topology, scenario.bounds,
                                     scenario.mode, scenario.policy)
        self.events = scenario.events
        self.entries: list[dict] = []
        self.text: str | None = None

    def should_send(self, event) -> bool:
        if event.kind is not EventKind.REQUEST_RELEASE:
            return True
        record = self.controller.records.get(event.slice_id)
        return record is not None and record.state in LIVE

    def step(self, event) -> int:
        """Apply one event, append its report entries, and return the number
        of slices a link_down hit (0 for other events)."""
        controller = self.controller
        entries = self.entries
        if event.kind is EventKind.REQUEST_ARRIVAL:
            controller.apply_event(event)
            record = controller.records[event.request.id]
            entries.append(tsc._arrival_entry(event, record))
            return 0
        if event.kind is EventKind.REQUEST_RELEASE:
            try:
                controller.apply_event(event)
                entries.append(tsc._entry(
                    seq=event.seq, event=event.kind.value, action="release",
                    slice=event.slice_id, outcome="released"))
            except TnscError as err:
                entries.append(tsc._entry(
                    seq=event.seq, event=event.kind.value, action="release",
                    slice=event.slice_id, outcome="error",
                    reason=err.reason, detail=err.detail()))
            return 0
        if event.kind is EventKind.LINK_DOWN:
            affected = controller.apply_event(event)
            entries.append(tsc._entry(
                seq=event.seq, event=event.kind.value, action="link_down",
                slice=None, outcome="applied", affected=list(affected)))
            for outcome in controller.reconfigure(affected):
                entries.append(tsc._reconfig_entry(
                    event.seq, event.kind.value,
                    controller.requests[outcome.slice_id], outcome))
            return len(affected)
        controller.apply_event(event)
        entries.append(tsc._entry(
            seq=event.seq, event=event.kind.value, action="link_up",
            slice=None, outcome="applied", affected=[]))
        return 0

    def report_json(self) -> str:
        """Final snapshot plus canonical report text, as run_scenario ends."""
        report = tsc.ScenarioReport(entries=tuple(self.entries),
                                    snapshot=self.controller.snapshot())
        self.text = tsc.report_to_json(report)
        return self.text


def check_golden(root: Path) -> bool:
    """The driver loop must reproduce the golden report byte for byte."""
    text = (root / GOLDEN_SCENARIO).read_text(encoding="utf-8")
    golden = (root / GOLDEN_REPORT).read_text(encoding="utf-8")
    current = Round(tsc.parse_scenario(text))
    for event in current.events:
        if current.should_send(event):
            current.step(event)
    return current.report_json() == golden


def conservation_errors(controller: Controller) -> list[str]:
    """Ledger conservation and path invariants of every active slice, checked
    from outside the controller (the same checks as the test suite's
    ``assert_conserved``). Returns one message per violation."""
    errors = []
    active = [record for record in controller.records.values()
              if record.state is AllocationState.ACTIVE]
    for record in active:
        request = controller.requests[record.slice_id]
        covered = {link for path in record.paths for link in path.links}
        if (len(record.paths) != request.disjoint_paths
                or not verify_disjoint(controller.topology, record.paths,
                                       controller.mode)
                or set(record.slots_per_link) != covered
                or any(slots != request.calendar_slots
                       for slots in record.slots_per_link.values())):
            errors.append(f"slice {record.slice_id}: invalid allocation")
    held_slots: dict[str, int] = {}
    held_ports: dict[tuple, int] = {}
    for record in active:
        for link_id, slots in record.slots_per_link.items():
            held_slots[link_id] = held_slots.get(link_id, 0) + slots
        for node, spec in record.ports_per_device.items():
            key = (node, spec.port_type, spec.gbps)
            held_ports[key] = held_ports.get(key, 0) + spec.count
    ledger = controller.ledger
    for link in controller.topology.links:
        residual = ledger.residual_slots[link.id]
        if residual < 0 or held_slots.get(link.id, 0) + residual != link.slot_capacity:
            errors.append(f"link {link.id}: slots not conserved")
    for device in controller.topology.devices:
        for group in device.port_groups:
            key = (device.node, group.port_type, group.gbps)
            residual = ledger.residual_ports[key]
            if residual < 0 or held_ports.get(key, 0) + residual != group.count:
                errors.append(f"device {key}: ports not conserved")
    holders = {record.slice_id for record in active
               if record.control_context is not None}
    if set(ledger.control_contexts) != holders:
        errors.append("control contexts do not match active holders")
    return errors
