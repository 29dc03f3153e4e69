from __future__ import annotations

import heapq
import random
from pathlib import Path
from types import SimpleNamespace

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
    InsufficientDiversity,
    StaleSequence,
    UnknownLink,
    UnknownSlice,
)

from tnsc import (DisjointSearch, bounds_from_dict, k_disjoint_paths, load_scenario,
                  max_disjoint_count, pathfind, rank, rank_rows)
from tnsc import controller as controller_module
from tnsc import feasibility
from tnsc.feasibility import Assessment, FeasibilityIndex

from .conftest import assert_conserved, make_request, make_topology
from .oracles import random_connected_topology

DATA = Path(__file__).parent / "data"
NODE = DisjointnessMode.NODE_DISJOINT
LINK = DisjointnessMode.LINK_DISJOINT
SRLG = DisjointnessMode.SRLG_DISJOINT


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
        # The blocked links come from the slot index's keys, not range(s).
        huge = controller.admit(make_request("TS_c", d=1, s=10**18))
        assert huge.rejection.reason == "SlotExhausted"
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

    @pytest.mark.parametrize("static, per_slice", [(True, 0), (False, 2)])
    def test_assessments_per_moved_slice(self, theta, table2_bounds, monkeypatch,
                                         static, per_slice):
        """Static bounds ignore the ledger, so a moved slice keeps its
        record's vector and index and is not assessed again; derived bounds
        follow the ledger each readmission debits, so a moved slice is
        appraised and its readmission assesses again."""
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

    @pytest.mark.parametrize("repeat", [lambda ids: ids * 2,
                                        lambda ids: ids[::-1] + ids],
                             ids=["twice", "reversed-then-forward"])
    def test_repeated_ids_count_once(self, repeat):
        """The golden scenario up to its link_down, then a list repeating
        each affected id: it must reconfigure as the unique list does, not
        raise AlreadyReleased after every slice was released."""
        scenario = load_scenario(str(DATA / "five_node_failure.json"))

        def after_failure():
            controller = Controller(scenario.topology, scenario.bounds,
                                    scenario.mode, scenario.policy)
            for event in scenario.events:
                affected = controller.apply_event(event)
                if event.kind is EventKind.LINK_DOWN:
                    return controller, affected

        unique, affected = after_failure()
        repeated, _ = after_failure()
        assert affected == ["TS_1", "TS_2"]
        assert repeated.reconfigure(repeat(affected)) == unique.reconfigure(affected)
        assert repeated.records == unique.records
        assert repeated.ledger == unique.ledger
        assert_conserved(repeated)

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
        controller._appraisal = lambda record: self.assessment(
            record.slice_id, self.VALUES[record.slice_id])
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


def tagged_theta(ab, ad, ae, short=""):
    """Three 2-hop routes between A and C via B, D and E; each route's
    first and second links carry the given risk-group tags. The links of
    the routes via the nodes in ``short`` hold a single calendar slot."""
    routes = {"B": ab, "D": ad, "E": ae}
    links = [(f"L_{a}{b}", a, b, {"srlgs": tags, "slot_capacity": 1 if via in short else 20})
             for via, pair in routes.items()
             for (a, b), tags in zip((("A", via), (via, "C")), pair)]
    return make_topology("ABCDE", links, [("A", 30), ("C", 30)])


def corner_grid(size=6):
    """A size x size grid between corners g0_0 and gN_N, with one of g0_0's
    two links a single slot short of a 2-slot request. Its simple paths
    outnumber the SRLG budget well before the first one reaches gN_N."""
    name = "g{}_{}".format
    links = []
    for r in range(size):
        for c in range(size):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < size and c + dc < size:
                    links.append((f"L{len(links):02d}", name(r, c), name(r + dr, c + dc),
                                  {"slot_capacity": 1 if not links else 20}))
    nodes = [name(r, c) for r in range(size) for c in range(size)]
    corner = name(size - 1, size - 1)
    return make_topology(nodes, links, [("g0_0", 24), (corner, 24)]), corner


class TestSrlgAdmission:
    """A slot-blocked SRLG admission blames slots exactly when the up
    network holds k risk-disjoint paths, and derived bounds record the
    SRLG diversity."""

    # In each case the routes via B and D are a slot short of the request,
    # so the slot-usable links hold one route.
    def test_slot_blocked_with_risk_disjoint_up_network(self):
        topology = tagged_theta(([1], [2]), ([3], [4]), ([5], [6]), short="BD")
        controller = Controller(topology, mode=SRLG)
        blocked = controller.admit(make_request("TS_b", d=1, s=2))
        assert blocked.rejection.reason == "SlotExhausted"
        assert max_disjoint_count(topology, "A", "C", SRLG) == 3
        assert_conserved(controller)

    @pytest.mark.parametrize("mode, reason", [(LINK, "SlotExhausted"),
                                              (SRLG, "InsufficientDiversity")])
    def test_only_link_disjoint_up_network(self, mode, reason):
        # Every route's first link shares risk group 7: the up network holds
        # three link-disjoint paths but no two risk-disjoint ones.
        topology = tagged_theta(([7], []), ([7], []), ([7], []), short="BD")
        controller = Controller(topology, mode=mode)
        blocked = controller.admit(make_request("TS_b", d=1, s=2))
        assert blocked.rejection.reason == reason
        if mode is SRLG:
            assert blocked.rejection.detail == {"requested": 2, "found": 1,
                                                "budget_exhausted": False}
        assert_conserved(controller)

    @pytest.mark.parametrize("mode, reason", [(LINK, "SlotExhausted"),
                                              (SRLG, "InsufficientDiversity")])
    def test_up_network_walk_out_of_budget(self, mode, reason):
        topology, corner = corner_grid()
        controller = Controller(topology, mode=mode)
        blocked = controller.admit(make_request("TS_far", src="g0_0", dst=corner, d=1, s=2))
        assert blocked.rejection.reason == reason
        assert max_disjoint_count(topology, "g0_0", corner, LINK) == 2
        with pytest.raises(InsufficientDiversity) as caught:
            k_disjoint_paths(topology, "g0_0", corner, 2, SRLG)
        assert caught.value.budget_exhausted and caught.value.found == 0
        if mode is SRLG:
            assert blocked.rejection.detail["budget_exhausted"] is True

    def test_derived_bounds_record_srlg_diversity(self, ts1):
        topology = tagged_theta(([1], [2]), ([1], [3]), ([4], [5]))
        controller = Controller(topology, mode=SRLG)
        blocked = controller._blocked_links(ts1.calendar_slots)
        record = controller.admit(ts1)
        assert record.state is AllocationState.ACTIVE
        srlg_count = DisjointSearch(topology, "A", "C", SRLG, blocked_links=blocked).count()
        assert record.vector.numeric_traits["topology"].h == srlg_count == 2
        assert DisjointSearch(topology, "A", "C", LINK, blocked_links=blocked).count() == 3


class TestOneSrlgWalk:
    """An SRLG search walks its depth-first tree once: ``count()`` after
    ``paths(k)`` resumes the walk, so the two together pop the heap as
    often as ``count()`` alone, and a derived-bounds admission pops as
    often as one ``count()`` of a search blocking the same links."""

    @pytest.fixture
    def pops(self, monkeypatch):
        popped = []

        def counting(heap):
            popped.append(heap[0])
            return heapq.heappop(heap)

        monkeypatch.setattr(pathfind, "heapq", SimpleNamespace(
            heappop=counting, heappush=heapq.heappush))
        return popped

    def test_paths_then_count_pops_as_count_alone(self, pops):
        rng = random.Random(1414)
        walked = 0
        for _ in range(60):
            topology = random_connected_topology(rng, max_nodes=9, srlg_pool=4)
            src, dst = rng.sample(sorted(topology.nodes), 2)
            usable = {link.id for link in topology.links if rng.random() < 0.9}
            blocked = set(topology.link_by_id) - usable
            options = {"blocked_links": blocked, "srlg_budget": rng.choice((3, 20, 1000))}
            ceiling = DisjointSearch(topology, src, dst, LINK, blocked_links=blocked).count()
            if not ceiling:
                continue
            # Beyond the ceiling paths(k) walks on past where count() stops.
            k = rng.randint(1, ceiling)
            pops.clear()
            fresh = DisjointSearch(topology, src, dst, SRLG, **options).count()
            alone = len(pops)
            pops.clear()
            search = DisjointSearch(topology, src, dst, SRLG, **options)
            try:
                search.paths(k)
                walked += 1
            except InsufficientDiversity:
                pass
            assert search.count() == fresh
            assert len(pops) == alone
        assert walked > 10

    def test_derived_admission_pops_as_one_count(self, ts1, pops):
        topology = tagged_theta(([1], [2]), ([1], [3]), ([4], [5]))
        controller = Controller(topology, mode=SRLG)
        blocked = controller._blocked_links(ts1.calendar_slots)
        assert controller.admit(ts1).state is AllocationState.ACTIVE
        admitted = len(pops)
        pops.clear()
        DisjointSearch(topology, "A", "C", SRLG, blocked_links=blocked).count()
        assert admitted == len(pops) > 0
