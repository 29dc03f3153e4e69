from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from tnsc import cli
from tnsc.cli import main
from tnsc.errors import TnscError
from tnsc.scenario import parse_scenario

DATA = Path(__file__).parent / "data"

TOPOLOGY = {
    "nodes": ["A", "B", "C", "D"],
    "links": [
        {"id": "L_AB", "a": "A", "b": "B"},
        {"id": "L_BC", "a": "B", "b": "C"},
        {"id": "L_CD", "a": "C", "b": "D"},
        {"id": "L_DA", "a": "D", "b": "A"},
    ],
    "devices": [
        {"node": "A", "ports": [{"type": "10GE", "gbps": 10, "count": 24}]},
        {"node": "C", "ports": [{"type": "10GE", "gbps": 10, "count": 24}]},
    ],
}

BOUNDS = {
    "mode": "static",
    "topology": {"l": 2, "h": 4},
    "device": {"l": 1, "h": 24},
    "data_plane": {"l": 1, "h": 20},
}

REQUESTS = [
    {"id": "TS_1", "src": "A", "dst": "C", "control": True, "disjoint_paths": 2,
     "client_ports": {"type": "10GE", "gbps": 10, "count": 15},
     "calendar_slots": 2},
    {"id": "TS_2", "src": "A", "dst": "C", "control": True, "disjoint_paths": 3,
     "client_ports": {"type": "10GE", "gbps": 10, "count": 12},
     "calendar_slots": 3},
]


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, payload in [("topology", TOPOLOGY), ("bounds", BOUNDS),
                          ("requests", REQUESTS)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def test_evaluate_csv(inputs, capsys):
    code = main(["evaluate", "--topology", inputs["topology"],
                 "--requests", inputs["requests"], "--bounds", inputs["bounds"],
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[1] == "TS_1,true,2,1.000,15,0.391,2,0.947,0.651,ok"
    assert lines[2] == "TS_2,true,3,0.500,12,0.522,3,0.895,0.596,ok"


def test_csv_quotes_ids_that_need_it(inputs, tmp_path, capsys):
    """Ids holding a comma, quote, CR or LF are quoted per RFC 4180 and
    read back whole; the others are written as they are."""
    ids = ['a,b"c', "line\nbreak", "cr\rid", '"quoted"', "plain", "sp ace;x"]
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps([dict(REQUESTS[0], id=rid) for rid in ids]))
    code = main(["evaluate", "--requests", str(odd), "--bounds", inputs["bounds"],
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert all(len(row) == 10 for row in rows)
    assert [row[0] for row in rows[1:]] == ids
    assert out.split("\n")[-2].startswith("sp ace;x,true,")


def test_parser_built_once_keeps_exit_codes(inputs, monkeypatch, capsys):
    """main builds its parser on first use and reuses it; argparse still
    exits 0 for --help and 2 for a usage error, and tnsc returns 0 and 1."""
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    for argv, code in ((["--help"], 0), (["evaluate", "--bogus"], 2),
                       (["rank", "--help"], 0), (["frobnicate"], 2)):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code, argv
    assert main(["evaluate", "--requests", inputs["requests"],
                 "--bounds", inputs["bounds"], "--format", "csv"]) == 0
    assert main(["evaluate", "--requests", "/no/such.json",
                 "--bounds", inputs["bounds"]]) == 1
    assert builds == [1]
    out = capsys.readouterr()
    assert "usage: tnsc" in out.out and "usage: tnsc" in out.err
    assert "TS_2,true,3,0.500,12,0.522,3,0.895,0.596,ok" in out.out


def test_evaluate_json_full_precision(inputs, capsys):
    code = main(["evaluate", "--requests", inputs["requests"],
                 "--bounds", inputs["bounds"]])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["index"] == pytest.approx(0.6506024096385542, abs=1e-15)
    assert rows[1]["index"] == pytest.approx(0.5959104186952289, abs=1e-15)


def test_rank_sorts_by_index(inputs, tmp_path, capsys):
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(list(reversed(REQUESTS))))
    code = main(["rank", "--requests", str(reordered),
                 "--bounds", inputs["bounds"], "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["TS_1", "TS_2"]


def test_out_of_range_row_keeps_exit_zero(inputs, tmp_path, capsys):
    hot = tmp_path / "hot.json"
    hot.write_text(json.dumps([dict(REQUESTS[0], id="TS_hot",
                                    disjoint_paths=9)]))
    code = main(["evaluate", "--requests", str(hot), "--bounds",
                 inputs["bounds"], "--format", "csv"])
    assert code == 0
    assert "OUT_OF_RANGE" in capsys.readouterr().out


def test_paths_output(inputs, capsys):
    code = main(["paths", "--topology", inputs["topology"], "--src", "A",
                 "--dst", "C", "--k", "2", "--mode", "node-disjoint"])
    assert code == 0
    assert capsys.readouterr().out == "A,B,C\nA,D,C\n"


def test_paths_insufficient_diversity_fails(inputs, capsys):
    code = main(["paths", "--topology", inputs["topology"], "--src", "A",
                 "--dst", "C", "--k", "3"])
    assert code == 1
    assert "InsufficientDiversity" in capsys.readouterr().err


def test_internal_error_exits_two(inputs, monkeypatch, capsys):
    """Any exception that is not a TnscError is a defect: one line on
    stderr, exit 2. The cached parser bound ``_cmd_paths`` when it was
    built, so patch its callee."""
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "k_disjoint_paths", boom)
    code = main(["paths", "--topology", inputs["topology"], "--src", "A",
                 "--dst", "C"])
    assert code == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "tnsc: internal error: boom\n")


@pytest.mark.parametrize("args, message", [
    (["--src", "A", "--dst", "Z"], "dst: unknown node 'Z'"),
    (["--src", "A", "--dst", "A"], "dst: src and dst must differ"),
    (["--src", "A", "--dst", "C", "--k", "0"], "k: must be at least 1"),
    *((["--src", "A", "--dst", "C", "--k", "-1", "--mode", mode],
       "k: must be at least 1")
      for mode in ("link-disjoint", "node-disjoint", "srlg-disjoint")),
], ids=["unknown-node", "same-endpoints", "k-zero",
        "k-negative-link", "k-negative-node", "k-negative-srlg"])
def test_paths_bad_arguments_exit_one(inputs, capsys, args, message):
    code = main(["paths", "--topology", inputs["topology"], *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"tnsc: ValidationError: {message}\n"


def test_simulate_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["simulate", "--scenario",
                 str(DATA / "five_node_failure.json"), "--out", str(out)])
    assert code == 0
    assert out.read_text() == (DATA / "five_node_failure.report.json").read_text()


def test_simulate_linkless_topology_rejects(tmp_path):
    """A valid scenario whose topology has no link: the arrival is rejected
    for want of paths, and the run exits 0 rather than as an internal error."""
    device = {"ports": [{"type": "GE", "gbps": 10, "count": 4}]}
    request = {"id": "TS_1", "src": "A", "dst": "B", "control": True,
               "disjoint_paths": 2, "client_ports": {"type": "GE", "gbps": 10, "count": 1},
               "calendar_slots": 1}
    scenario = {**SCENARIO, "mode": "link_disjoint",
                "topology": {"nodes": ["A", "B"], "links": [],
                             "devices": [{"node": "A", **device}, {"node": "B", **device}]},
                "events": [{"seq": 1, "type": "request_arrival", "request": request}]}
    path, out = tmp_path / "linkless.json", tmp_path / "report.json"
    path.write_text(json_text(scenario))
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["entries"]
    assert (entry["outcome"], entry["reason"]) == ("rejected", "InsufficientDiversity")


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_unwritable_out_exits_one(command, inputs, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.json"
    args = (["--scenario", str(DATA / "five_node_failure.json")] if command == "simulate"
            else ["--requests", inputs["requests"], "--bounds", inputs["bounds"]])
    code = main([command, *args, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("tnsc: ValidationError: out: ")
    assert not out.exists()


def test_parse_failure_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["simulate", "--scenario", str(bad)])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe[]", b"[" + b"1" * 5000 + b"]",
                                     b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "int-over-4300-digits", "deep-nesting"])
def test_undecodable_file_exit_one(content, inputs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["evaluate", "--requests", str(bad), "--bounds", inputs["bounds"]])
    assert code == 1
    assert capsys.readouterr().err.startswith("tnsc: ParseError: ")


def test_missing_requests_file(inputs, capsys):
    code = main(["evaluate", "--requests", "/no/such.json",
                 "--bounds", inputs["bounds"]])
    assert code == 1


def test_derived_bounds_via_cli(inputs, tmp_path, capsys):
    derived = tmp_path / "derived.json"
    derived.write_text(json.dumps({"mode": "derived"}))
    single = tmp_path / "one.json"
    single.write_text(json.dumps([REQUESTS[0]]))
    code = main(["evaluate", "--topology", inputs["topology"],
                 "--requests", str(single), "--bounds", str(derived),
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    # Derived h=2 makes the topology trait the degenerate single value.
    assert lines[1].split(",")[3] == "1.000"


def test_weights_file_applies(inputs, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"device": 5}))
    single = tmp_path / "one.json"
    single.write_text(json.dumps([REQUESTS[0]]))
    code = main(["evaluate", "--requests", str(single),
                 "--bounds", inputs["bounds"], "--weights", str(weights)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["index"] < 0.6506024096385542


def test_empty_row_weights_replace_weights_file(inputs, tmp_path, capsys):
    """A row's own weights replace the --weights file as a whole map, so an
    empty one merges with every weight 1, as if no file were given."""
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"device": 5, "topology": 1.5}))
    single = tmp_path / "one.json"
    single.write_text(json.dumps([{**REQUESTS[0], "weights": {}}]))
    code = main(["evaluate", "--requests", str(single),
                 "--bounds", inputs["bounds"], "--weights", str(weights)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["index"] == 0.6506024096385542


TABLE = json.loads((DATA / "table_inputs.json").read_text())
TABLE_GOLDEN = json.loads((DATA / "table_golden.json").read_text())


def table_argv(case: str, tmp_path: Path) -> list[str]:
    """argv for a golden case named ``<command>-<static|derived>-<format>``:
    static bounds run with the call-level weights file, derived bounds with
    the topology and no weights file."""
    command, bounds, fmt = case.split("-")
    files = {}
    for name in ("topology", "requests", "weights", "bounds"):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(TABLE[name]))
    argv = [command, "--requests", str(files["requests"]), "--format", fmt]
    if bounds == "static":
        return argv + ["--bounds", str(files["bounds"]),
                       "--weights", str(files["weights"])]
    derived = tmp_path / "derived.json"
    derived.write_text(json.dumps({"mode": "derived"}))
    return argv + ["--bounds", str(derived), "--topology", str(files["topology"])]


@pytest.mark.parametrize("case", sorted(TABLE_GOLDEN))
def test_table_golden(case, tmp_path, capsys):
    """Byte-exact tables: ok rows, a row out of range on two dimensions (the
    last failing dimension's error stands), rows whose own weights replace
    the --weights file as a whole map, and derived-bounds NoDevice and
    NoMatchingPorts rows."""
    assert main(table_argv(case, tmp_path)) == 0
    assert capsys.readouterr().out == TABLE_GOLDEN[case]


SCENARIO = json.loads((DATA / "five_node_failure.json").read_text())
NAN, INF = float("nan"), float("inf")
#: Written to the file as the JSON number 1e400, which decodes beyond the
#: float range.
BEYOND_FLOAT = "<1e400>"
DROP = "<drop>"
SECOND_ARRIVAL = ("events", 1, "request")


def json_text(payload) -> str:
    return json.dumps(payload).replace(f'"{BEYOND_FLOAT}"', "1e400")


def mutated(payload, path: tuple, value):
    """Copy of ``payload`` with the field at ``path`` set to ``value``, or
    removed when ``value`` is DROP; an empty path replaces the whole file."""
    if not path:
        return value
    payload = json.loads(json.dumps(payload))
    *parents, last = path
    holder = payload
    for key in parents:
        holder = holder[key]
    if value == DROP:
        del holder[last]
    else:
        holder[last] = value
    return payload


#: (file, field path, bad value, reason): each once exited 2, or exited 0
#: with the bad value accepted, or failed only when its event ran.
MALFORMED = [
    ("requests", (0, "weights"), {"device": NAN}, "NonPositiveWeight"),
    ("requests", (0, "weights"), {"device": "x"}, "NonPositiveWeight"),
    ("requests", (0, "weights"), {"device": INF}, "NonPositiveWeight"),
    ("requests", (0, "weights"), {"device": BEYOND_FLOAT}, "NonPositiveWeight"),
    ("weights", (), [1, 2], "ValidationError"),
    ("weights", (), {"topology": INF}, "NonPositiveWeight"),
    ("scenario", (*SECOND_ARRIVAL, "weights"), {"device": NAN}, "NonPositiveWeight"),
    ("scenario", (*SECOND_ARRIVAL, "weights"), {"device": "x"}, "NonPositiveWeight"),
    ("scenario", (*SECOND_ARRIVAL, "weights"), {"device": 0}, "NonPositiveWeight"),
    ("scenario", (*SECOND_ARRIVAL, "weights"), {"device": -1}, "NonPositiveWeight"),
    ("scenario", ("topology", "links"), 7, "ValidationError"),
    ("scenario", ("topology", "devices"), 7, "ValidationError"),
    ("scenario", ("topology", "devices", 0, "ports"), 7, "ValidationError"),
    ("scenario", ("events",), 7, "ValidationError"),
    ("scenario", ("events", 4, "slice"), ["TS_2"], "ValidationError"),
    ("scenario", ("events", 2, "link"), ["L_BC"], "ValidationError"),
    ("requests", (0, "client_ports", "type"), DROP, "ValidationError"),
    ("requests", (0, "client_ports", "gbps"), NAN, "ValidationError"),
    ("requests", (0, "client_ports", "gbps"), INF, "ValidationError"),
    ("requests", (0, "client_ports", "gbps"), BEYOND_FLOAT, "ValidationError"),
]


@pytest.mark.parametrize("target,path,value,reason", MALFORMED, ids=[
    f"{target}:{'.'.join(map(str, path)) or 'file'}={value!r}"
    for target, path, value, _reason in MALFORMED])
def test_malformed_input_exits_one(target, path, value, reason, inputs, tmp_path,
                                   capsys):
    base = {"requests": REQUESTS, "weights": {"device": 5}, "scenario": SCENARIO}
    text = json_text(mutated(base[target], path, value))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if target == "scenario":
        # Rejected while parsing, before any event runs.
        with pytest.raises(TnscError) as err:
            parse_scenario(text)
        assert err.value.reason == reason
        argv = ["simulate", "--scenario", str(bad)]
    else:
        files = {"requests": inputs["requests"], "bounds": inputs["bounds"],
                 target: str(bad)}
        argv = ["evaluate"] + [arg for name, file in files.items()
                               for arg in (f"--{name}", file)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tnsc: {reason}: ")
    assert "internal error" not in err


def test_simulate_port_groups_named_alike_exit_one(tmp_path, capsys):
    ports = [{"type": "GE", "gbps": 100.0, "count": 1},
             {"type": "GE", "gbps": 100.0000001, "count": 5}]
    bad = tmp_path / "bad.json"
    bad.write_text(json_text(mutated(SCENARIO, ("topology", "devices", 0, "ports"), ports)))
    node = SCENARIO["topology"]["devices"][0]["node"]
    assert main(["simulate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == f"tnsc: DuplicateId: duplicate identifier: '{node}:GE@100'\n"
