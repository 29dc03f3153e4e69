"""Scenario ingestion, event-driven execution, and report emission.

Reports are byte-deterministic: object keys are sorted, floats are printed
with 17 significant digits (enough to round-trip a double), and rounded
presentation values use half-to-even with a period separator regardless of
locale.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape

from .controller import (
    Controller,
    Event,
    EventKind,
    FailurePolicy,
    ReconfigEntry,
    ReconfigPolicy,
    ReconfigOrder,
    ResourceLedger,
)
from .errors import ParseError, TnscError, ValidationError
from .feasibility import FeasibilityIndex, FeasibilityVector, assess, rank_key
from .model import (
    DIMENSIONS,
    AllocationRecord,
    BoundsMode,
    NetworkTopology,
    Path,
    SliceRequest,
    TraitBounds,
    _as_choice,
    _as_int,
    _as_list,
    _as_name,
    _as_object,
    _check_endpoint_ports,
    bounds_from_dict,
    bounds_to_dict,
    derive_bounds,
    request_from_dict,
    topology_to_dict,
    validate_topology,
)
from .pathfind import DisjointnessMode, DisjointSearch


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".17g")


_PLAIN = ((int, int), (float, float), (str, str.__str__), (Mapping, dict),
          ((list, tuple), list))


def _write_canonical(value, out: list[str]) -> None:
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is float:
        out.append(_format_float(value))
    elif kind is dict:
        _write_object(value, out)
    elif kind is list or kind is tuple:
        _write_array(value, out)
    elif kind is int:
        out.append(str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        # Subclasses (str and int enums) and other mappings write as the
        # plain value; str.__str__, unlike str(), gives a str enum's value.
        for base, plain in _PLAIN:
            if isinstance(value, base):
                return _write_canonical(plain(value), out)
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _write_object(value: Mapping, out: list[str]) -> None:
    out.append("{")
    for i, key in enumerate(sorted(value)):
        if not isinstance(key, str):
            raise TypeError(f"object keys must be strings, got {key!r}")
        if i:
            out.append(",")
        out.append(_escape(key))
        out.append(":")
        _write_canonical(value[key], out)
    out.append("}")


def _write_array(value: Sequence, out: list[str]) -> None:
    out.append("[")
    for i, item in enumerate(value):
        if i:
            out.append(",")
        _write_canonical(item, out)
    out.append("]")


def canonical_json(value) -> str:
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    out: list[str] = []
    _write_canonical(value, out)
    out.append("\n")
    return "".join(out)


def _round3(value: float) -> str:
    return format(value, ".3f")


# ---------------------------------------------------------------------------
# Scenario model and ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    topology: NetworkTopology
    bounds: TraitBounds
    mode: DisjointnessMode
    policy: ReconfigPolicy
    events: tuple[Event, ...]


@dataclass(frozen=True)
class ScenarioReport:
    """Ordered decision log plus the final utilization snapshot. Entries are
    plain JSON-compatible mappings with a fixed key set."""

    entries: tuple[dict, ...]
    snapshot: dict


def load_json(path: str):
    """Read and decode one JSON input file; failures raise ParseError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(str(path), str(err)) from None
    return _decode_json(text, str(path))


def _decode_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(source, f"line {err.lineno} column {err.colno}: {err.msg}") \
            from None
    except (ValueError, RecursionError) as err:  # overlong int, deep nesting
        raise ParseError(source, str(err)) from None


def load_scenario(path: str) -> Scenario:
    """Read and fully validate a scenario file."""
    return scenario_from_dict(load_json(path))


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    return scenario_from_dict(_decode_json(text, source))


def scenario_from_dict(raw: Mapping) -> Scenario:
    raw = _as_object(raw, "scenario", "scenario")
    if "topology" not in raw:
        raise ValidationError("scenario", "missing topology")
    topology = validate_topology(raw["topology"])
    bounds = bounds_from_dict(raw.get("bounds", {"mode": "derived"}))

    mode = _as_choice(DisjointnessMode, raw.get("mode", "link_disjoint"), "mode",
                      "disjointness mode")

    policy_raw = _as_object(raw.get("policy", {}), "policy", "policy")
    order = policy_raw.get("order", "descending_index")
    on_failure = policy_raw.get("on_failure", "mark_degraded")
    policy = ReconfigPolicy(_as_choice(ReconfigOrder, order, "policy", "order"),
                            _as_choice(FailurePolicy, on_failure, "policy", "on_failure"))

    events: list[Event] = []
    last_seq: int | None = None
    arrivals: set[str] = set()
    for entry in _as_list(raw.get("events", []), "scenario", "events"):
        entry = _as_object(entry, "events", "event")
        seq = _as_int(entry.get("seq"), "events", "seq")
        if last_seq is not None and seq <= last_seq:
            raise ValidationError(f"event {seq}", "seq values must strictly increase")
        last_seq = seq
        kind = _as_choice(EventKind, entry.get("type"), f"event {seq}", "type")
        if kind is EventKind.REQUEST_ARRIVAL:
            request = request_from_dict(entry.get("request"))
            for endpoint in (request.src, request.dst):
                if endpoint not in topology.nodes:
                    raise ValidationError(request.id,
                                          f"unknown endpoint {endpoint!r}")
            if request.id in arrivals:
                raise ValidationError(request.id, "duplicate request id")
            arrivals.add(request.id)
            events.append(Event(seq=seq, kind=kind, request=request))
        elif kind is EventKind.REQUEST_RELEASE:
            slice_id = _as_name(entry.get("slice"), f"event {seq}", "slice")
            if slice_id not in arrivals:
                raise ValidationError(f"event {seq}",
                                      f"release of unknown slice {slice_id!r}")
            events.append(Event(seq=seq, kind=kind, slice_id=slice_id))
        else:
            link_id = _as_name(entry.get("link"), f"event {seq}", "link")
            if link_id not in topology.link_by_id:
                raise ValidationError(f"event {seq}", f"unknown link {link_id!r}")
            events.append(Event(seq=seq, kind=kind, link_id=link_id))

    return Scenario(topology=topology, bounds=bounds, mode=mode, policy=policy,
                    events=tuple(events))


def request_to_dict(request: SliceRequest) -> dict:
    out = {
        "id": request.id,
        "src": request.src,
        "dst": request.dst,
        "control": request.control,
        "disjoint_paths": request.disjoint_paths,
        "client_ports": {
            "type": request.client_ports.port_type,
            "gbps": request.client_ports.gbps,
            "count": request.client_ports.count,
        },
        "calendar_slots": request.calendar_slots,
    }
    if request.weights is not None:
        out["weights"] = dict(request.weights)
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    events = []
    for event in scenario.events:
        entry: dict = {"seq": event.seq, "type": event.kind.value}
        if event.kind is EventKind.REQUEST_ARRIVAL:
            entry["request"] = request_to_dict(event.request)
        elif event.kind is EventKind.REQUEST_RELEASE:
            entry["slice"] = event.slice_id
        else:
            entry["link"] = event.link_id
        events.append(entry)
    return {
        "topology": topology_to_dict(scenario.topology),
        "bounds": bounds_to_dict(scenario.bounds),
        "mode": scenario.mode.value,
        "policy": {
            "order": scenario.policy.order.value,
            "on_failure": scenario.policy.on_failure.value,
        },
        "events": events,
    }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

_ENTRY_KEYS = (
    "seq", "event", "action", "slice", "outcome", "reason", "detail",
    "request", "vector", "index", "index_display",
    "paths", "old_paths", "new_paths", "affected",
)


def _entry(**fields) -> dict:
    entry = {key: None for key in _ENTRY_KEYS}
    entry.update(fields)
    return entry


def _paths_payload(paths: Sequence[Path] | None):
    if not paths:
        return None
    return [list(path.nodes) for path in paths]


def _vector_payload(vector: FeasibilityVector | None):
    if vector is None:
        return None
    payload: dict = {"control": vector.boolean_traits["control"]}
    for dim, trait in vector.numeric_traits.items():
        payload[dim] = {"r": trait.raw, "l": trait.l, "h": trait.h,
                        "value": trait.value}
    return payload


def _request_payload(request: SliceRequest) -> dict:
    return {
        "src": request.src,
        "dst": request.dst,
        "control": request.control,
        "topology": request.disjoint_paths,
        "device": request.client_ports.count,
        "data_plane": request.calendar_slots,
    }


def _index_fields(index: FeasibilityIndex | None) -> dict:
    if index is None:
        return {"index": None, "index_display": None}
    return {"index": index.value, "index_display": _round3(index.value)}


def _arrival_entry(event: Event, record: AllocationRecord) -> dict:
    rejection = record.rejection
    return _entry(
        seq=event.seq,
        event=event.kind.value,
        action="admit",
        slice=record.slice_id,
        outcome=record.state.value,
        reason=rejection.reason if rejection else None,
        detail=dict(rejection.detail) if rejection else None,
        request=_request_payload(event.request),
        vector=_vector_payload(record.vector),
        paths=_paths_payload(record.paths),
        **_index_fields(record.index),
    )


def _reconfig_entry(seq: int, event_kind: str, request: SliceRequest,
                    outcome: ReconfigEntry) -> dict:
    return _entry(
        seq=seq,
        event=event_kind,
        action="reconfigure",
        slice=outcome.slice_id,
        outcome=outcome.outcome,
        reason=outcome.rejection.reason if outcome.rejection else None,
        detail=dict(outcome.rejection.detail) if outcome.rejection else None,
        request=_request_payload(request),
        vector=_vector_payload(outcome.vector),
        old_paths=_paths_payload(outcome.old_paths),
        new_paths=_paths_payload(outcome.new_paths),
        **_index_fields(outcome.index),
    )


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Drive the controller through every event in sequence order.

    Link failures trigger reconfiguration of the slices they touch; every
    decision lands in the report together with the vector and index it was
    based on. Identical scenarios produce identical reports.
    """
    controller = Controller(scenario.topology, scenario.bounds, scenario.mode,
                            scenario.policy)
    entries: list[dict] = []
    for event in scenario.events:
        if event.kind is EventKind.REQUEST_ARRIVAL:
            controller.apply_event(event)
            record = controller.records[event.request.id]
            entries.append(_arrival_entry(event, record))
        elif event.kind is EventKind.REQUEST_RELEASE:
            try:
                controller.apply_event(event)
                entries.append(_entry(
                    seq=event.seq, event=event.kind.value, action="release",
                    slice=event.slice_id, outcome="released"))
            except TnscError as err:
                entries.append(_entry(
                    seq=event.seq, event=event.kind.value, action="release",
                    slice=event.slice_id, outcome="error",
                    reason=err.reason, detail=err.detail()))
        elif event.kind is EventKind.LINK_DOWN:
            affected = controller.apply_event(event)
            entries.append(_entry(
                seq=event.seq, event=event.kind.value, action="link_down",
                slice=None, outcome="applied", affected=list(affected)))
            for outcome in controller.reconfigure(affected):
                entries.append(_reconfig_entry(
                    event.seq, event.kind.value,
                    controller.requests[outcome.slice_id], outcome))
        else:
            controller.apply_event(event)
            entries.append(_entry(
                seq=event.seq, event=event.kind.value, action="link_up",
                slice=None, outcome="applied", affected=[]))
    return ScenarioReport(entries=tuple(entries), snapshot=controller.snapshot())


def report_to_dict(report: ScenarioReport) -> dict:
    return {"entries": list(report.entries), "snapshot": report.snapshot}


def report_to_json(report: ScenarioReport) -> str:
    return canonical_json(report_to_dict(report))


# ---------------------------------------------------------------------------
# Static evaluation tables
# ---------------------------------------------------------------------------


def evaluate(requests: Sequence[SliceRequest], bounds: TraitBounds,
             weights: Mapping[str, float] | None = None,
             topology: NetworkTopology | None = None,
             mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT) -> list[dict]:
    """Build one feasibility row per request.

    Static bounds need no topology; derived bounds resolve per request
    against the topology as built, through a fresh ledger's residuals.
    Normalization failures mark the row OUT_OF_RANGE instead of aborting,
    so a table renders even when some requests are infeasible.
    """
    ledger = (ResourceLedger.from_topology(topology)
              if bounds.mode is BoundsMode.DERIVED and topology is not None else None)
    rows = []
    for request in requests:
        row: dict = {"slice": request.id, "control": request.control,
                     "status": "ok", "error": None,
                     "index": None, "index_display": None}
        for dim in DIMENSIONS:
            row[dim] = {"r": None, "l": None, "h": None, "value": None}
        try:
            if bounds.mode is BoundsMode.DERIVED:
                if topology is None:
                    raise ValidationError("bounds",
                                          "derived bounds require a topology")
                # The search rejects endpoints that are not nodes, so the
                # device checks run first and keep their reasons.
                _check_endpoint_ports(topology, request)
                resolved = derive_bounds(
                    request, DisjointSearch(topology, request.src, request.dst, mode),
                    ledger.residual_slots, ledger.residual_ports)
            else:
                resolved = bounds
        except TnscError as err:
            for dim in DIMENSIONS:
                row[dim]["r"] = request.trait(dim)
            row["status"] = err.reason
            row["error"] = err.detail()
            rows.append(row)
            continue

        # The row shows each value that normalizes; the last failing
        # dimension's error stands, without the slice id the row names.
        assessment = assess(request, resolved, weights)
        for dim, trait in assessment.traits.items():
            cell = row[dim]
            cell["r"], cell["l"], cell["h"], cell["value"] = (
                trait.raw, trait.l, trait.h, trait.value)
        for err in assessment.errors:
            cell = row[err.dimension]
            cell["r"], cell["l"], cell["h"] = err.r, err.l, err.h
            row["status"] = "OUT_OF_RANGE"
            row["error"] = dict(r=err.r, l=err.l, h=err.h, dimension=err.dimension)
        row.update(_index_fields(assessment.index))
        rows.append(row)
    return rows


def rank_rows(rows: list[dict]) -> list[dict]:
    """Sort evaluation rows by :func:`~tnsc.feasibility.rank_key`: descending
    index, ties on ascending slice id, diagnostic rows at the bottom."""
    return sorted(rows, key=lambda row: rank_key(row["index"], row["slice"]))


_CSV_HEADER = ("slice,control,topology_r,topology_value,device_r,device_value,"
               "data_plane_r,data_plane_value,index,status")


def _csv_field(text: str) -> str:
    """Quote per RFC 4180 only a field holding a comma, quote, CR or LF, as
    ``csv.QUOTE_MINIMAL`` does."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(rows: Sequence[Mapping]) -> str:
    """3-decimal CSV table (half-to-even rounding, period separator)."""
    lines = [_CSV_HEADER]
    for row in rows:
        cells = [_csv_field(row["slice"]), "true" if row["control"] else "false"]
        for dim in DIMENSIONS:
            cell = row[dim]
            cells.append(str(cell["r"]))
            cells.append(_round3(cell["value"]) if cell["value"] is not None else "")
        cells.append(_round3(row["index"]) if row["index"] is not None else "")
        cells.append(_csv_field(row["status"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[Mapping]) -> str:
    return canonical_json(list(rows))
