from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from tnsc import (
    DERIVED_BOUNDS,
    Bound,
    Controller,
    DisjointSearch,
    DisjointnessMode,
    Event,
    EventKind,
    PortSpec,
    ReconfigPolicy,
    ScenarioReport,
    SliceRequest,
    TraitBounds,
    canonical_json,
    evaluate,
    load_scenario,
    normalize_falling,
    parse_scenario,
    play_event,
    rank_rows,
    report_to_json,
    rows_to_csv,
    run_scenario,
    scenario_from_dict,
    validate_topology,
    verify_disjoint,
)
from tnsc.errors import ParseError, StaleSequence, TnscError, ValidationError
from tnsc.model import DIMENSIONS, _as_choice

from .conftest import make_request

DATA = Path(__file__).parent / "data"

BASE_SCENARIO = {
    "topology": {
        "nodes": ["A", "B", "C", "D"],
        "links": [
            {"id": "L_AB", "a": "A", "b": "B"},
            {"id": "L_BC", "a": "B", "b": "C"},
            {"id": "L_CD", "a": "C", "b": "D"},
            {"id": "L_DA", "a": "D", "b": "A"},
        ],
        "devices": [
            {"node": "A", "ports": [{"type": "10GE", "gbps": 10, "count": 30}]},
            {"node": "C", "ports": [{"type": "10GE", "gbps": 10, "count": 30}]},
        ],
    },
    "bounds": {
        "mode": "static",
        "topology": {"l": 2, "h": 4},
        "device": {"l": 1, "h": 24},
        "data_plane": {"l": 1, "h": 20},
    },
    "mode": "node_disjoint",
    "policy": {"order": "descending_index", "on_failure": "mark_degraded"},
    "events": [],
}


def scenario_with_events(events):
    raw = json.loads(json.dumps(BASE_SCENARIO))
    raw["events"] = events
    return raw


def arrival(seq, rid, p=2, d=15, s=2):
    return {
        "seq": seq,
        "type": "request_arrival",
        "request": {
            "id": rid, "src": "A", "dst": "C", "control": True,
            "disjoint_paths": p,
            "client_ports": {"type": "10GE", "gbps": 10, "count": d},
            "calendar_slots": s,
        },
    }


class TestLoadScenario:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_with_events([arrival(1, "TS_1")])))
        scenario = load_scenario(str(path))
        assert len(scenario.events) == 1
        assert scenario.events[0].request.id == "TS_1"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ParseError) as err:
            load_scenario(str(path))
        assert "line 1" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/does/not/exist.json")

    def test_unknown_event_link(self):
        raw = scenario_with_events([{"seq": 1, "type": "link_down", "link": "L_XX"}])
        with pytest.raises(ValidationError):
            scenario_from_dict(raw)

    def test_release_must_follow_arrival(self):
        raw = scenario_with_events(
            [{"seq": 1, "type": "request_release", "slice": "ghost"}])
        with pytest.raises(ValidationError):
            scenario_from_dict(raw)

    def test_seq_must_increase(self):
        raw = scenario_with_events([arrival(2, "TS_1"), arrival(2, "TS_2")])
        with pytest.raises(ValidationError):
            scenario_from_dict(raw)

    def test_duplicate_request_id(self):
        raw = scenario_with_events([arrival(1, "TS_1"), arrival(2, "TS_1")])
        with pytest.raises(ValidationError):
            scenario_from_dict(raw)

    def test_unknown_endpoint(self):
        event = arrival(1, "TS_1")
        event["request"]["dst"] = "Z"
        with pytest.raises(ValidationError):
            scenario_from_dict(scenario_with_events([event]))


class TestRunScenario:
    def test_empty_scenario(self):
        report = run_scenario(scenario_from_dict(scenario_with_events([])))
        assert report.entries == ()
        assert all(entry["used"] == 0
                   for entry in report.snapshot["links"].values())

    def test_reference_pair_indices(self):
        raw = scenario_with_events([
            arrival(1, "TS_1", p=2, d=15, s=2),
            arrival(2, "TS_2", p=2, d=12, s=3),
        ])
        report = run_scenario(scenario_from_dict(raw))
        ts1, ts2 = report.entries
        assert ts1["index"] == pytest.approx(0.650602, abs=5e-7)
        # The reference TS_2 asks p=3, beyond this 4-cycle; with p=2 its
        # device and data-plane traits still produce the expected values.
        assert ts2["vector"]["device"]["value"] == pytest.approx(12 / 23, abs=1e-12)
        assert ts2["vector"]["data_plane"]["value"] == pytest.approx(17 / 19,
                                                                     abs=1e-12)

    def test_rejected_arrival_recorded_not_raised(self):
        raw = scenario_with_events([arrival(1, "TS_big", p=3)])
        report = run_scenario(scenario_from_dict(raw))
        (entry,) = report.entries
        assert entry["outcome"] == "rejected"
        assert entry["reason"] == "InsufficientDiversity"
        assert entry["vector"] is None
        assert entry["request"]["topology"] == 3

    def test_release_error_becomes_outcome(self):
        raw = scenario_with_events([
            arrival(1, "TS_1"),
            {"seq": 2, "type": "request_release", "slice": "TS_1"},
            {"seq": 3, "type": "request_release", "slice": "TS_1"},
        ])
        report = run_scenario(scenario_from_dict(raw))
        assert report.entries[1]["outcome"] == "released"
        assert report.entries[2]["outcome"] == "error"
        assert report.entries[2]["reason"] == "AlreadyReleased"

    def test_entry_count_at_least_event_count(self):
        raw = scenario_with_events([
            arrival(1, "TS_1"),
            {"seq": 2, "type": "link_down", "link": "L_AB"},
        ])
        scenario = scenario_from_dict(raw)
        report = run_scenario(scenario)
        assert len(report.entries) >= len(scenario.events)

    def test_normalized_values_reverify(self):
        report = run_scenario(load_scenario(str(DATA / "five_node_failure.json")))
        checked = 0
        for entry in report.entries:
            vector = entry["vector"]
            if vector is None:
                continue
            for dim in ("topology", "device", "data_plane"):
                cell = vector[dim]
                assert cell["value"] == normalize_falling(
                    cell["r"], cell["l"], cell["h"])
                checked += 1
        assert checked > 0

    def test_byte_determinism(self):
        scenario = load_scenario(str(DATA / "five_node_failure.json"))
        first = report_to_json(run_scenario(scenario))
        second = report_to_json(run_scenario(scenario))
        assert first == second


class TestGoldenReport:
    def test_matches_checked_in_fixture(self):
        scenario = load_scenario(str(DATA / "five_node_failure.json"))
        produced = report_to_json(run_scenario(scenario))
        golden = (DATA / "five_node_failure.report.json").read_text()
        assert produced == golden

    def test_reconfiguration_follows_descending_index(self):
        scenario = load_scenario(str(DATA / "five_node_failure.json"))
        report = run_scenario(scenario)
        reconfigs = [entry for entry in report.entries
                     if entry["action"] == "reconfigure"]
        assert [entry["slice"] for entry in reconfigs] == ["TS_1", "TS_2"]
        indices = [entry["index"] for entry in reconfigs]
        assert indices == sorted(indices, reverse=True)
        assert reconfigs[0]["outcome"] == "readmitted"
        assert reconfigs[1]["outcome"] == "degraded"

    @pytest.mark.parametrize("name", ["grid_node_disjoint", "grid_link_disjoint"])
    def test_derived_grid_golden(self, name):
        """6x6 grids with derived bounds, four-slot links and link flaps:
        the reports cover SlotExhausted and InsufficientDiversity rejections
        and reconfigurations appraised against derived bounds."""
        report = run_scenario(load_scenario(str(DATA / f"{name}.json")))
        reasons = {entry.get("reason") for entry in report.entries}
        assert {"SlotExhausted", "InsufficientDiversity"} <= reasons
        assert any(entry["action"] == "reconfigure" and entry["vector"] is not None
                   for entry in report.entries)
        golden = (DATA / f"{name}.report.json").read_text(encoding="utf-8")
        assert report_to_json(report) == golden


def five_node_controller(played: int) -> Controller:
    """A controller on the worked example after its first ``played`` events."""
    scenario = load_scenario(str(DATA / "five_node_failure.json"))
    controller = Controller(scenario.topology, scenario.bounds, scenario.mode,
                            scenario.policy)
    for event in scenario.events[:played]:
        play_event(controller, event)
    return controller


class TestPlayEvent:
    ACTIONS = {EventKind.REQUEST_ARRIVAL: "admit", EventKind.REQUEST_RELEASE: "release",
               EventKind.LINK_DOWN: "link_down", EventKind.LINK_UP: "link_up"}

    @pytest.mark.parametrize("name", ["five_node_failure", "grid_node_disjoint",
                                      "grid_link_disjoint"])
    def test_golden_event_by_event(self, name):
        """Each event's entries carry its seq and open with its own entry; a
        link_down's go on with one reconfigure entry per slice it hit. With
        the snapshot they make the golden report."""
        scenario = load_scenario(str(DATA / f"{name}.json"))
        controller = Controller(scenario.topology, scenario.bounds, scenario.mode,
                                scenario.policy)
        entries = []
        for event in scenario.events:
            played = play_event(controller, event)
            own, *moved = played
            assert {entry["seq"] for entry in played} == {event.seq}
            assert own["action"] == self.ACTIONS[event.kind]
            expected = len(own["affected"]) if event.kind is EventKind.LINK_DOWN else 0
            assert [entry["action"] for entry in moved] == ["reconfigure"] * expected
            entries += played
        report = ScenarioReport(entries=tuple(entries), snapshot=controller.snapshot())
        golden = (DATA / f"{name}.report.json").read_text(encoding="utf-8")
        assert report_to_json(report) == golden

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_stale_seq_raises_and_changes_nothing(self, kind):
        controller = five_node_controller(2)
        payload = {EventKind.REQUEST_ARRIVAL: {"request": make_request("TS_9")},
                   EventKind.REQUEST_RELEASE: {"slice_id": "TS_1"},
                   EventKind.LINK_DOWN: {"link_id": "L_BC"},
                   EventKind.LINK_UP: {"link_id": "L_BC"}}[kind]
        records, ledger = dict(controller.records), controller.ledger.clone()
        with pytest.raises(StaleSequence):
            play_event(controller, Event(seq=2, kind=kind, **payload))
        assert controller.records == records
        assert controller.ledger == ledger

    def test_failed_release_is_one_error_entry(self):
        controller = five_node_controller(2)
        releases = [("TS_1", "released", None), ("TS_1", "error", "AlreadyReleased"),
                    ("ghost", "error", "UnknownSlice")]
        for seq, (slice_id, outcome, reason) in enumerate(releases, start=3):
            event = Event(seq=seq, kind=EventKind.REQUEST_RELEASE, slice_id=slice_id)
            (entry,) = play_event(controller, event)
            assert (entry["slice"], entry["outcome"], entry["reason"]) == \
                (slice_id, outcome, reason)


class TestEnumValuesAsStrings:
    """Each enum parameter may be given as its string value."""

    @pytest.mark.parametrize("name", ["five_node_failure", "grid_node_disjoint",
                                      "grid_link_disjoint"])
    def test_golden_reports(self, name):
        scenario = load_scenario(str(DATA / f"{name}.json"))
        policy = scenario.policy
        plain = replace(
            scenario, mode=scenario.mode.value,
            bounds=replace(scenario.bounds, mode=scenario.bounds.mode.value),
            policy=ReconfigPolicy(policy.order.value, policy.on_failure.value))
        assert type(plain.mode) is str
        golden = (DATA / f"{name}.report.json").read_text(encoding="utf-8")
        assert report_to_json(run_scenario(plain)) == golden

    def test_evaluate_mode(self):
        # Every A-C route crosses M: two link-disjoint paths, one node-disjoint.
        topology = validate_topology({
            "nodes": list("AXYMPQC"),
            "links": [{"id": f"L_{a}{b}", "a": a, "b": b}
                      for a, b in ("AX", "AY", "XM", "YM", "MP", "MQ", "PC", "QC")],
            "devices": [{"node": node, "ports": [{"type": "10GE", "gbps": 10,
                                                  "count": 30}]} for node in "AC"],
        })
        rows = evaluate([make_request()], DERIVED_BOUNDS, topology=topology,
                        mode="node_disjoint")
        assert rows[0]["topology"]["h"] == 1
        assert rows == evaluate([make_request()], DERIVED_BOUNDS, topology=topology,
                                mode=DisjointnessMode.NODE_DISJOINT)

    @pytest.mark.parametrize("build, kind", [
        (lambda t: Controller(t, mode="bogus"), "DisjointnessMode"),
        (lambda t: DisjointSearch(t, "A", "C", "bogus"), "DisjointnessMode"),
        (lambda t: verify_disjoint(t, [], "bogus"), "DisjointnessMode"),
        (lambda t: ReconfigPolicy(order="bogus"), "ReconfigOrder"),
        (lambda t: ReconfigPolicy(on_failure="bogus"), "FailurePolicy"),
        (lambda t: TraitBounds("bogus", Bound(2, 4), Bound(1, 24), Bound(1, 20)),
         "BoundsMode"),
        (lambda t: Event(seq=1, kind="bogus", link_id="L_BC"), "EventKind"),
    ], ids=["controller", "search", "verify", "order", "on_failure", "bounds", "event"])
    def test_unknown_value_raises(self, build, kind):
        topology = load_scenario(str(DATA / "five_node_failure.json")).topology
        with pytest.raises(ValueError, match=f"'bogus' is not a valid {kind}"):
            build(topology)

    @pytest.mark.parametrize("name", ["five_node_failure", "grid_node_disjoint",
                                      "grid_link_disjoint"])
    def test_event_kinds(self, name):
        """Events whose kind is the string value move the controller
        exactly as the members do."""
        scenario = load_scenario(str(DATA / f"{name}.json"))
        runs = []
        for events in (scenario.events,
                       [event._replace(kind=event.kind.value) for event in scenario.events]):
            controller = Controller(scenario.topology, scenario.bounds, scenario.mode,
                                    scenario.policy)
            affected = []
            for event in events:
                try:
                    affected.append(controller.apply_event(event))
                except TnscError as err:
                    affected.append(err.reason)
            runs.append((affected, controller.records, controller.ledger))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind", [kind.value for kind in EventKind])
    def test_event_without_payload_raises(self, kind):
        with pytest.raises(ValueError, match=f"event 1 lacks the {kind} payload"):
            Event(seq=1, kind=kind)


class _Name(str):
    """A str subclass, as a JSON decoder with its own string type may give."""


class TestEventKindTable:
    """The event loop finds a kind in a table and builds no element name
    while the event is valid; a value that misses gets ``_as_choice``'s error."""

    @pytest.mark.parametrize("name", ["five_node_failure", "grid_node_disjoint"])
    def test_no_enum_call_per_event(self, name):
        meta = type(EventKind)
        called = []
        original = meta.__call__

        def spy(cls, *args, **kwargs):
            called.append(cls)
            return original(cls, *args, **kwargs)

        with mock.patch.object(meta, "__call__", spy):
            scenario = load_scenario(str(DATA / f"{name}.json"))
        assert scenario.events and DisjointnessMode in called
        assert EventKind not in called

    @pytest.mark.parametrize("value", [
        None, [], {}, "", "LINK_DOWN", 7, True, math.nan, EventKind.LINK_UP,
        _Name("link_down"),
    ], ids=repr)
    def test_same_kind_or_error_as_the_enum(self, value):
        raw = json.loads((DATA / "five_node_failure.json").read_text(encoding="utf-8"))
        raw["events"] = [{"seq": 1, "type": value, "link": "L_AB"}]
        try:
            expected = _as_choice(EventKind, value, "event 1", "type")
        except ValidationError as err:
            with pytest.raises(ValidationError) as caught:
                scenario_from_dict(raw)
            assert (caught.value.element, str(caught.value), caught.value.detail()) == \
                (err.element, str(err), err.detail())
        else:
            (event,) = scenario_from_dict(raw).events
            assert event.kind is expected

    @pytest.mark.parametrize("field, kind", [("slice", "request_release"),
                                             ("link", "link_down")])
    def test_str_subclass_names_pass(self, field, kind):
        raw = json.loads((DATA / "five_node_failure.json").read_text(encoding="utf-8"))
        name = _Name(raw["events"][0]["request"]["id"] if field == "slice" else "L_AB")
        raw["events"] = raw["events"][:1] + [{"seq": 9, "type": kind, field: name}]
        event = scenario_from_dict(raw).events[-1]
        assert (event.slice_id or event.link_id) is name


class TestEvaluate:
    def test_reference_table(self, table2_bounds, ts1, ts2):
        rows = evaluate([ts1, ts2], table2_bounds)
        r1, r2 = rows
        assert r1["topology"]["value"] == 1.0
        assert r1["device"]["value"] == pytest.approx(9 / 23, abs=1e-12)
        assert r1["data_plane"]["value"] == pytest.approx(18 / 19, abs=1e-12)
        assert r1["index"] == pytest.approx(0.650602, abs=5e-7)
        assert r2["topology"]["value"] == 0.5
        assert r2["index"] == pytest.approx(0.595910, abs=5e-7)
        assert all(row["status"] == "ok" for row in rows)

    def test_empty_request_list(self, table2_bounds):
        assert evaluate([], table2_bounds) == []
        assert rows_to_csv([]).count("\n") == 1

    def test_out_of_range_row_is_diagnostic(self, table2_bounds):
        rows = evaluate([make_request("TS_hot", p=5)], table2_bounds)
        (row,) = rows
        assert row["status"] == "OUT_OF_RANGE"
        assert row["error"]["dimension"] == "topology"
        assert row["index"] is None
        # The other dimensions still normalize for the diagnostic row.
        assert row["device"]["value"] is not None

    def test_derived_mode_requires_topology(self, ts1):
        from tnsc import DERIVED_BOUNDS

        rows = evaluate([ts1], DERIVED_BOUNDS, topology=None)
        assert rows[0]["status"] == "ValidationError"

    def test_derived_mode_against_topology(self, four_cycle, ts1):
        from tnsc import DERIVED_BOUNDS

        rows = evaluate([ts1], DERIVED_BOUNDS, topology=four_cycle)
        assert rows[0]["status"] == "ok"
        assert rows[0]["topology"]["h"] == 2

    def test_derived_mode_unknown_endpoint_keeps_device_reasons(self, four_cycle):
        from tnsc import DERIVED_BOUNDS

        (row,) = evaluate([make_request(src="Z")], DERIVED_BOUNDS, topology=four_cycle)
        assert row["status"] == "NoDevice"
        assert row["error"] == {"node": "Z"}
        # The src device and its ports are checked before the dst device.
        request = SliceRequest(id="TS_1", src="A", dst="Z", control=False,
                               disjoint_paths=2, client_ports=PortSpec("100GE", 100.0, 1),
                               calendar_slots=1)
        (row,) = evaluate([request], DERIVED_BOUNDS, topology=four_cycle)
        assert row["status"] == "NoMatchingPorts"
        assert row["error"]["node"] == "A"

    def test_each_row_reads_each_trait_once(self, monkeypatch, table2_bounds,
                                            four_cycle, ts1):
        """An ok row, an out-of-range row, a derived row and a row whose
        bounds derivation failed each read the request's traits once."""
        from tnsc import DERIVED_BOUNDS

        cases = [([ts1], table2_bounds, None),
                 ([make_request("TS_hot", p=5)], table2_bounds, None),
                 ([ts1], DERIVED_BOUNDS, four_cycle),
                 ([make_request(src="Z")], DERIVED_BOUNDS, four_cycle)]
        expected = [list(request.traits) for (request,), _, _ in cases]
        calls = []
        original = SliceRequest.traits

        def counting(self):
            calls.append(self.id)
            return original.fget(self)

        monkeypatch.setattr(SliceRequest, "traits", property(counting))
        for (requests, bounds, topology), raw in zip(cases, expected):
            calls.clear()
            (row,) = evaluate(requests, bounds, topology=topology)
            assert calls == [requests[0].id]
            assert [row[dim]["r"] for dim in DIMENSIONS] == raw

    def test_rank_rows_order_and_tie_break(self, table2_bounds):
        rows = evaluate(
            [make_request("b"), make_request("a"),
             make_request("TS_2", p=3, d=12, s=3)],
            table2_bounds,
        )
        ordered = rank_rows(rows)
        assert [row["slice"] for row in ordered] == ["a", "b", "TS_2"]

    def test_csv_shape(self, table2_bounds, ts1):
        text = rows_to_csv(evaluate([ts1], table2_bounds))
        header, row, trailer = text.split("\n")
        assert header.startswith("slice,control,topology_r")
        assert row == "TS_1,true,2,1.000,15,0.391,2,0.947,0.651,ok"
        assert trailer == ""


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        assert canonical_json({"b": 1, "a": 0.5}) == '{"a":0.5,"b":1}\n'

    def test_seventeen_digit_round_trip(self):
        value = 0.6506024096385542
        text = canonical_json(value)
        assert json.loads(text) == value

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))

    def test_parse_scenario_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_scenario('{"topology": }')
        assert "column" in str(err.value)
