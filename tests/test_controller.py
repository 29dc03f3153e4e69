from __future__ import annotations

import random

import pytest

from tnsc import (
    AllocationState,
    Controller,
    DisjointnessMode,
    Event,
    EventKind,
    FailurePolicy,
    ReconfigPolicy,
    ReconfigOrder,
)
from tnsc.errors import (
    AlreadyReleased,
    StaleSequence,
    UnknownLink,
    UnknownSlice,
)

from tnsc import bounds_from_dict, pathfind, rank, rank_rows
from tnsc import controller as controller_module
from tnsc import feasibility
from tnsc.feasibility import Assessment, FeasibilityIndex

from .conftest import assert_conserved, make_request, make_topology

NODE = DisjointnessMode.NODE_DISJOINT


def node_controller(topology, **kwargs):
    return Controller(topology, mode=NODE, **kwargs)


class TestAdmit:
    def test_reference_admission(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        record = controller.admit(ts1)
        assert record.state is AllocationState.ACTIVE
        assert [p.nodes for p in record.paths] == [("A", "B", "C"), ("A", "D", "C")]
        assert record.slots_per_link == {
            "L_AB": 2, "L_BC": 2, "L_CD": 2, "L_DA": 2}
        assert all(controller.ledger.residual_slots[lid] == 18
                   for lid in ("L_AB", "L_BC", "L_CD", "L_DA"))
        assert controller.ledger.residual_ports[("A", "10GE", 10.0)] == 9
        assert controller.ledger.residual_ports[("C", "10GE", 10.0)] == 9
        assert record.control_context == "ctx-TS_1"
        assert record.index.value == pytest.approx(0.650602409638554, abs=1e-12)
        assert_conserved(controller)

    def test_port_exhaustion_on_second_copy(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        controller.admit(ts1)
        second = controller.admit(make_request("TS_1b"))
        assert second.state is AllocationState.REJECTED
        assert second.rejection.reason == "PortExhausted"
        assert second.rejection.detail == {"node": "A", "needed": 15, "available": 9}
        assert_conserved(controller)

    def test_insufficient_diversity(self, four_cycle):
        controller = node_controller(four_cycle)
        record = controller.admit(make_request("TS_wide", p=3, d=1))
        assert record.state is AllocationState.REJECTED
        assert record.rejection.reason == "InsufficientDiversity"
        assert record.rejection.detail["found"] == 2

    def test_no_device(self, ts1):
        topology = make_topology(
            "ABCD",
            [("L_AB", "A", "B"), ("L_BC", "B", "C"), ("L_CD", "C", "D"),
             ("L_DA", "D", "A")],
            [("A", 24)],
        )
        record = node_controller(topology).admit(ts1)
        assert record.rejection.reason == "NoDevice"
        assert record.rejection.detail == {"node": "C"}

    def test_missing_port_group_counts_as_exhausted(self, ts1):
        topology = make_topology(
            "ABCD",
            [("L_AB", "A", "B"), ("L_BC", "B", "C"), ("L_CD", "C", "D"),
             ("L_DA", "D", "A")],
            [("A", 24),
             {"node": "C", "ports": [{"type": "100GE", "gbps": 100, "count": 2}]}],
        )
        record = node_controller(topology).admit(ts1)
        assert record.rejection.reason == "PortExhausted"
        assert record.rejection.detail["available"] == 0

    def test_slot_exhaustion_distinguished(self):
        topology = make_topology(
            "ABCD",
            [("L_AB", "A", "B", {"slot_capacity": 3}),
             ("L_BC", "B", "C", {"slot_capacity": 3}),
             ("L_CD", "C", "D", {"slot_capacity": 3}),
             ("L_DA", "D", "A", {"slot_capacity": 3})],
            [("A", 24), ("C", 24)],
        )
        controller = node_controller(topology)
        assert controller.admit(make_request("TS_a", d=1, s=2)).state \
            is AllocationState.ACTIVE
        blocked = controller.admit(make_request("TS_b", d=1, s=2))
        assert blocked.rejection.reason == "SlotExhausted"
        assert_conserved(controller)

    def test_static_bounds_out_of_range(self, four_cycle):
        # s=11 is physically allocatable (20-slot pools) but beyond the
        # configured policy range, so the vector stage rejects it.
        bounds = bounds_from_dict({
            "mode": "static",
            "topology": {"l": 2, "h": 4},
            "device": {"l": 1, "h": 24},
            "data_plane": {"l": 1, "h": 10},
        })
        controller = Controller(four_cycle, bounds=bounds, mode=NODE)
        record = controller.admit(make_request("TS_hot", s=11))
        assert record.state is AllocationState.REJECTED
        assert record.rejection.reason == "OutOfRange"
        assert record.rejection.detail["dimension"] == "data_plane"
        assert_conserved(controller)

    def test_control_context_cap(self, four_cycle):
        controller = node_controller(four_cycle, control_context_limit=1)
        controller.admit(make_request("TS_a", d=2, s=1))
        capped = controller.admit(make_request("TS_b", d=2, s=1))
        assert capped.rejection.reason == "ControlExhausted"
        uncontrolled = controller.admit(make_request("TS_c", d=2, s=1,
                                                     control=False))
        assert uncontrolled.state is AllocationState.ACTIVE
        assert uncontrolled.control_context is None

    def test_duplicate_active_id_is_a_usage_error(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        controller.admit(ts1)
        with pytest.raises(ValueError):
            controller.admit(ts1)

    def test_rejection_is_atomic(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        controller.admit(ts1)
        before = controller.ledger.clone()
        controller.admit(make_request("TS_1b"))
        assert controller.ledger == before


class TestRelease:
    def test_release_restores_ledger(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        before = controller.ledger.clone()
        controller.admit(ts1)
        record = controller.release("TS_1")
        assert record.state is AllocationState.RELEASED
        assert controller.ledger == before
        assert_conserved(controller)

    def test_unknown_slice(self, four_cycle):
        with pytest.raises(UnknownSlice):
            node_controller(four_cycle).release("nope")

    def test_double_release(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        controller.admit(ts1)
        controller.release("TS_1")
        with pytest.raises(AlreadyReleased):
            controller.release("TS_1")

    def test_release_of_rejected_slice(self, four_cycle):
        controller = node_controller(four_cycle)
        controller.admit(make_request("TS_wide", p=3))
        with pytest.raises(AlreadyReleased):
            controller.release("TS_wide")


class TestApplyEvent:
    def test_link_down_reports_traversing_slices(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        controller.admit(ts1)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_AB"))
        assert affected == ["TS_1"]
        assert controller.records["TS_1"].stale

    def test_link_down_without_traffic(self, four_cycle):
        controller = node_controller(four_cycle)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_AB"))
        assert affected == []

    def test_stale_sequence(self, four_cycle):
        controller = node_controller(four_cycle)
        controller.apply_event(Event(seq=5, kind=EventKind.LINK_DOWN,
                                     link_id="L_AB"))
        with pytest.raises(StaleSequence):
            controller.apply_event(Event(seq=5, kind=EventKind.LINK_UP,
                                         link_id="L_AB"))

    def test_unknown_link(self, four_cycle):
        controller = node_controller(four_cycle)
        with pytest.raises(UnknownLink):
            controller.apply_event(Event(seq=1, kind=EventKind.LINK_DOWN,
                                         link_id="L_XX"))

    def test_link_up_restores_search_space(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        controller.apply_event(Event(seq=1, kind=EventKind.LINK_DOWN,
                                     link_id="L_AB"))
        rejected = controller.admit(make_request("TS_pre"))
        assert rejected.state is AllocationState.REJECTED
        controller.apply_event(Event(seq=2, kind=EventKind.LINK_UP,
                                     link_id="L_AB"))
        assert controller.admit(ts1).state is AllocationState.ACTIVE

    def test_arrival_event_delegates(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.REQUEST_ARRIVAL, request=ts1))
        assert affected == ["TS_1"]
        assert controller.records["TS_1"].state is AllocationState.ACTIVE


class TestReconfigure:
    def test_failover_to_bypass_path(self, theta, ts1):
        controller = node_controller(theta)
        controller.admit(ts1)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        entries = controller.reconfigure(affected)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.outcome == "readmitted"
        assert [p.nodes for p in entry.old_paths] == [("A", "B", "C"),
                                                      ("A", "D", "C")]
        assert [p.nodes for p in entry.new_paths] == [("A", "D", "C"),
                                                      ("A", "E", "C")]
        assert controller.records["TS_1"].state is AllocationState.ACTIVE
        assert_conserved(controller)

    def test_descending_index_order(self, theta, ts1, ts2, table2_bounds):
        controller = Controller(theta, bounds=table2_bounds, mode=NODE)
        controller.admit(ts1)
        controller.admit(ts2)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        assert affected == ["TS_1", "TS_2"]
        entries = controller.reconfigure(affected)
        # TS_1 scores higher, so it reallocates first and wins the resources.
        assert [e.slice_id for e in entries] == ["TS_1", "TS_2"]
        assert entries[0].index.value == pytest.approx(0.650602, abs=5e-7)
        assert entries[1].index.value == pytest.approx(0.595910, abs=5e-7)
        assert entries[0].outcome == "readmitted"
        assert entries[1].outcome == "degraded"
        assert controller.records["TS_2"].state is AllocationState.DEGRADED
        assert_conserved(controller)

    def test_ascending_order_flips_priority(self, theta, ts1, ts2, table2_bounds):
        policy = ReconfigPolicy(order=ReconfigOrder.ASCENDING_INDEX,
                                on_failure=FailurePolicy.MARK_DEGRADED)
        controller = Controller(theta, bounds=table2_bounds, mode=NODE,
                                policy=policy)
        controller.admit(ts1)
        controller.admit(ts2)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        entries = controller.reconfigure(affected)
        assert [e.slice_id for e in entries] == ["TS_2", "TS_1"]

    def test_derived_bounds_rank_unnormalizable_last(self, theta, ts1, ts2):
        # Under derived bounds the failed link drops max diversity to 2, so
        # the p=3 slice no longer normalizes and yields to the p=2 slice.
        controller = node_controller(theta)
        controller.admit(ts1)
        controller.admit(ts2)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        entries = controller.reconfigure(affected)
        assert [e.slice_id for e in entries] == ["TS_1", "TS_2"]
        assert entries[0].index is not None
        assert entries[1].index is None
        assert entries[1].outcome == "degraded"
        assert entries[1].rejection.reason == "InsufficientDiversity"

    def test_drop_policy_releases(self, theta, ts1, ts2):
        policy = ReconfigPolicy(on_failure=FailurePolicy.DROP)
        controller = node_controller(theta, policy=policy)
        controller.admit(ts1)
        controller.admit(ts2)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        entries = controller.reconfigure(affected)
        dropped = {e.slice_id: e for e in entries}["TS_2"]
        assert dropped.outcome == "dropped"
        assert controller.records["TS_2"].state is AllocationState.RELEASED
        assert_conserved(controller)

    @pytest.mark.parametrize("static, per_slice", [(True, 1), (False, 2)])
    def test_assessments_per_moved_slice(self, theta, table2_bounds, monkeypatch,
                                         static, per_slice):
        """Static bounds ignore the ledger, so a moved slice's appraisal is
        its readmission's assessment too; derived bounds follow the ledger
        each readmission debits, so a readmission assesses again."""
        controller = Controller(theta, bounds=table2_bounds, mode=NODE) if static \
            else node_controller(theta)
        for rid in ("TS_1", "TS_2"):
            controller.admit(make_request(rid, p=2, d=5, s=2))
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        assessed = []
        original = controller_module.assess

        def counting(request, bounds, *rest):
            assessed.append(request.id)
            return original(request, bounds, *rest)

        monkeypatch.setattr(controller_module, "assess", counting)
        entries = controller.reconfigure(affected)
        assert [entry.outcome for entry in entries] == ["readmitted", "readmitted"]
        assert all(entry.index is not None for entry in entries)
        assert sorted(assessed) == sorted(affected * per_slice)
        assert_conserved(controller)

    def test_empty_affected_list(self, theta):
        assert node_controller(theta).reconfigure([]) == []

    def test_degraded_slice_can_release(self, theta, ts1, ts2):
        controller = node_controller(theta)
        controller.admit(ts1)
        controller.admit(ts2)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        controller.reconfigure(affected)
        released = controller.release("TS_2")
        assert released.state is AllocationState.RELEASED
        assert_conserved(controller)


class TestOneRankingRule:
    """``rank``, ``rank_rows`` and ``reconfigure`` order the same index
    values the same way: ties on slice id, 0.0 before an unscored slice,
    and ``reconfigure`` reversed under the ascending policy."""

    VALUES = {"s4": 0.5, "s1": 0.5, "s7": 0.9, "s2": 0.0, "s5": None,
              "s3": 0.5, "s0": None, "s6": 0.25}
    DESCENDING = ["s7", "s1", "s3", "s4", "s6", "s2", "s0", "s5"]
    ASCENDING = ["s2", "s6", "s1", "s3", "s4", "s7", "s0", "s5"]

    @staticmethod
    def assessment(slice_id, value):
        return Assessment(slice_id, {}, (), None,
                          None if value is None else FeasibilityIndex(value, {}))

    def test_rank_and_rank_rows(self, monkeypatch, table2_bounds):
        rows = [{"slice": slice_id, "index": value}
                for slice_id, value in self.VALUES.items()]
        assert [row["slice"] for row in rank_rows(rows)] == self.DESCENDING
        monkeypatch.setattr(feasibility, "assess", lambda request, *rest:
                            self.assessment(request.id, self.VALUES[request.id]))
        scored = [make_request(slice_id) for slice_id, value in self.VALUES.items()
                  if value is not None]
        assert [r.slice_id for r in rank(scored, table2_bounds)] == [
            slice_id for slice_id in self.DESCENDING if self.VALUES[slice_id] is not None]

    @pytest.mark.parametrize("order", list(ReconfigOrder))
    def test_reconfigure(self, four_cycle, table2_bounds, order):
        controller = Controller(four_cycle, bounds=table2_bounds,
                                policy=ReconfigPolicy(order=order))
        for slice_id in self.VALUES:
            controller.admit(make_request(slice_id, d=1, s=1))
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_AB"))
        assert sorted(affected) == sorted(self.VALUES)
        controller._appraisal = lambda request: self.assessment(
            request.id, self.VALUES[request.id])
        entries = controller.reconfigure(affected)
        expected = self.DESCENDING if order is ReconfigOrder.DESCENDING_INDEX \
            else self.ASCENDING
        assert [entry.slice_id for entry in entries] == expected


class TestSnapshot:
    def test_fresh_controller(self, four_cycle):
        snapshot = node_controller(four_cycle).snapshot()
        assert all(entry["residual"] == entry["capacity"]
                   for entry in snapshot["links"].values())
        assert snapshot["slices"] == {}

    def test_after_admission(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        controller.admit(ts1)
        snapshot = controller.snapshot()
        assert snapshot["links"]["L_AB"] == {
            "capacity": 20, "residual": 18, "used": 2, "state": "up"}
        assert snapshot["devices"]["A"]["10GE@10"]["used"] == 15
        assert snapshot["slices"] == {"TS_1": "active"}
        assert snapshot["control_contexts"] == {"TS_1": "ctx-TS_1"}

    def test_release_restores_fresh_shape(self, four_cycle, ts1):
        controller = node_controller(four_cycle)
        fresh = controller.snapshot()
        controller.admit(ts1)
        controller.release("TS_1")
        after = controller.snapshot()
        assert after["links"] == fresh["links"]
        assert after["devices"] == fresh["devices"]
        assert after["slices"] == {"TS_1": "released"}


class TestRandomizedInvariants:
    """Conservation and atomicity over random operation sequences; the
    acceptance suite runs the full-size version."""

    def test_random_sequences(self, theta):
        rng = random.Random(408)
        for round_no in range(60):
            controller = Controller(
                theta,
                mode=rng.choice([DisjointnessMode.LINK_DISJOINT, NODE]),
            )
            seq = 0
            live: list[str] = []
            for step in range(rng.randint(4, 12)):
                seq += 1
                roll = rng.random()
                if roll < 0.5:
                    request = make_request(
                        f"TS_{round_no}_{step}",
                        p=rng.randint(2, 3),
                        d=rng.randint(1, 12),
                        s=rng.randint(1, 8),
                        control=rng.random() < 0.5,
                    )
                    before = controller.ledger.clone()
                    record = controller.admit(request)
                    if record.state is AllocationState.REJECTED:
                        assert controller.ledger == before
                    else:
                        live.append(request.id)
                elif roll < 0.7 and live:
                    controller.release(live.pop(rng.randrange(len(live))))
                elif roll < 0.85:
                    link = rng.choice(sorted(controller.topology.link_by_id))
                    affected = controller.apply_event(
                        Event(seq=seq, kind=EventKind.LINK_DOWN, link_id=link))
                    assert_conserved(controller)
                    entries = controller.reconfigure(affected)
                    for entry in entries:
                        if entry.outcome != "readmitted":
                            if entry.slice_id in live:
                                live.remove(entry.slice_id)
                else:
                    link = rng.choice(sorted(controller.topology.link_by_id))
                    controller.apply_event(
                        Event(seq=seq, kind=EventKind.LINK_UP, link_id=link))
                assert_conserved(controller)


class TestSolveCount:
    """Each ``_residual_shortest`` call on the residual network finds one
    shortest augmenting path. A derived-mode admission finds its k paths
    with k calls and counts the rest of the diversity by breadth-first
    augmentation on the same flow, with no further call; static bounds never
    extend a search past the k paths."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = pathfind._residual_shortest

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pathfind, "_residual_shortest", counting)
        return calls

    def test_derived_admission_solves_one_flow(self, theta, ts1, solves):
        controller = node_controller(theta)
        record = controller.admit(ts1)
        assert record.vector.numeric_traits["topology"].h == 3
        assert len(solves) == ts1.disjoint_paths

    def test_slot_rejection_counts_up_network_without_solving(self, solves):
        topology = make_topology(
            "ABCD",
            [("L_AB", "A", "B", {"slot_capacity": 3}),
             ("L_BC", "B", "C", {"slot_capacity": 3}),
             ("L_CD", "C", "D", {"slot_capacity": 3}),
             ("L_DA", "D", "A", {"slot_capacity": 3})],
            [("A", 24), ("C", 24)],
        )
        controller = node_controller(topology)
        controller.admit(make_request("TS_a", d=1, s=2))
        solves.clear()
        blocked = controller.admit(make_request("TS_b", d=1, s=2))
        assert blocked.rejection.reason == "SlotExhausted"
        # The pruned search fails on its first call; the up network's
        # diversity is counted breadth-first.
        assert len(solves) == 1

    def test_static_admission_stops_at_k(self, theta, ts1, table2_bounds, solves):
        controller = Controller(theta, bounds=table2_bounds, mode=NODE)
        assert controller.admit(ts1).state is AllocationState.ACTIVE
        assert len(solves) == ts1.disjoint_paths

    def test_static_reconfigure_appraisal_solves_nothing(self, theta, ts1,
                                                         table2_bounds, solves):
        controller = Controller(theta, bounds=table2_bounds, mode=NODE)
        controller.admit(ts1)
        affected = controller.apply_event(
            Event(seq=1, kind=EventKind.LINK_DOWN, link_id="L_BC"))
        solves.clear()
        (entry,) = controller.reconfigure(affected)
        assert entry.outcome == "readmitted" and entry.index is not None
        assert len(solves) == ts1.disjoint_paths
