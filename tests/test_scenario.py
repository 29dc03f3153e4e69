from __future__ import annotations

import json
from pathlib import Path

import pytest

from tnsc import (
    PortSpec,
    SliceRequest,
    canonical_json,
    evaluate,
    load_scenario,
    normalize_falling,
    parse_scenario,
    rank_rows,
    report_to_json,
    rows_to_csv,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from tnsc.errors import ParseError, ValidationError

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

    def test_round_trip(self):
        raw = scenario_with_events([
            arrival(1, "TS_1"),
            {"seq": 2, "type": "link_down", "link": "L_BC"},
            {"seq": 3, "type": "link_up", "link": "L_BC"},
            {"seq": 4, "type": "request_release", "slice": "TS_1"},
        ])
        scenario = scenario_from_dict(raw)
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario


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
