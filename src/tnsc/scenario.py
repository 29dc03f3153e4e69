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
from .errors import AlreadyReleased, ParseError, TnscError, UnknownSlice, ValidationError
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
    derive_bounds,
    request_from_dict,
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


def _write_canonical(value, out: list[str], layouts: dict) -> list[str]:
    """Append ``value``'s text to ``out`` and return ``out``. A member goes
    in as one string with its prefix: a str, float, int or None at once, a
    dict joined from a list of its own. Other members recurse into ``out``."""
    kind = type(value)
    if kind is dict:
        keys = tuple(value)
        layout = layouts.get(keys)
        if layout is None:
            # Sorted, checked and escaped once per key set: (key, '{"key":'),
            # then (key, ',"key":').
            layout = sorted(keys)
            for key in layout:
                if not isinstance(key, str):
                    raise TypeError(f"object keys must be strings, got {key!r}")
            layout = layouts[keys] = tuple((key, f"{',' if i else '{'}{_escape(key)}:")
                                           for i, key in enumerate(layout))
        for key, prefix in layout:
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(prefix + _escape(item))
            elif kind is float:
                out.append(prefix + _format_float(item))
            elif kind is int or item is None:
                out.append(prefix + ("null" if item is None else str(item)))
            elif kind is dict:
                out.append("".join(_write_canonical(item, [prefix], layouts)))
            else:
                out.append(prefix)
                _write_canonical(item, out, layouts)
        out.append("}" if layout else "{}")
    elif kind is list or kind is tuple:
        prefix = "["
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(prefix + _escape(item))
            elif kind is float:
                out.append(prefix + _format_float(item))
            elif kind is int or item is None:
                out.append(prefix + ("null" if item is None else str(item)))
            elif kind is dict:
                out.append("".join(_write_canonical(item, [prefix], layouts)))
            else:
                out.append(prefix)
                _write_canonical(item, out, layouts)
            prefix = ","
        out.append("]" if value else "[]")
    elif kind is str:
        out.append(_escape(value))
    elif kind is float:
        out.append(_format_float(value))
    elif kind is int:
        out.append(str(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    else:
        # Subclasses (str and int enums) and other mappings write as the
        # plain value; str.__str__, unlike str(), gives a str enum's value.
        for base, plain in _PLAIN:
            if isinstance(value, base):
                return _write_canonical(plain(value), out, layouts)
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return out


def canonical_json(value) -> str:
    """Deterministic JSON text (sorted keys, 17-significant-digit floats).
    Each key set (keys in insertion order) is sorted once per call. Only
    finished objects and the fragments of one nesting chain are alive at a
    time, so a call peaks below three times its text in memory."""
    out = _write_canonical(value, [], {})
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
            events.append(Event(seq, kind, request))
        elif kind is EventKind.REQUEST_RELEASE:
            slice_id = _as_name(entry.get("slice"), f"event {seq}", "slice")
            if slice_id not in arrivals:
                raise ValidationError(f"event {seq}",
                                      f"release of unknown slice {slice_id!r}")
            events.append(Event(seq, kind, None, slice_id))
        else:
            link_id = _as_name(entry.get("link"), f"event {seq}", "link")
            if link_id not in topology.link_by_id:
                raise ValidationError(f"event {seq}", f"unknown link {link_id!r}")
            events.append(Event(seq, kind, None, None, link_id))

    return Scenario(topology=topology, bounds=bounds, mode=mode, policy=policy,
                    events=tuple(events))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

_ENTRY_KEYS = (
    "seq", "event", "action", "slice", "outcome", "reason", "detail",
    "request", "vector", "index", "index_display",
    "paths", "old_paths", "new_paths", "affected",
)


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


def _decision_fields(decision: AllocationRecord | ReconfigEntry,
                     request: SliceRequest) -> dict:
    """The fields an admit and a reconfigure entry share: the request, and
    the decision's rejection, vector and index."""
    rejection = decision.rejection
    return {
        "reason": rejection.reason if rejection else None,
        "detail": dict(rejection.detail) if rejection else None,
        "request": _request_payload(request),
        "vector": _vector_payload(decision.vector),
        **_index_fields(decision.index),
    }


# perfbench/drive.py calls these three until it uses play_event: keep their signatures.
def _entry(**fields) -> dict:
    return dict.fromkeys(_ENTRY_KEYS) | fields


def _arrival_entry(event: Event, record: AllocationRecord) -> dict:
    return _entry(
        seq=event.seq, event=event.kind.value, action="admit",
        slice=record.slice_id, outcome=record.state.value,
        paths=_paths_payload(record.paths),
        **_decision_fields(record, event.request),
    )


def _reconfig_entry(seq: int, event_kind: str, request: SliceRequest,
                    outcome: ReconfigEntry) -> dict:
    return _entry(
        seq=seq, event=event_kind, action="reconfigure",
        slice=outcome.slice_id, outcome=outcome.outcome,
        old_paths=_paths_payload(outcome.old_paths),
        new_paths=_paths_payload(outcome.new_paths),
        **_decision_fields(outcome, request),
    )


def play_event(controller: Controller, event: Event) -> list[dict]:
    """Apply one event to the controller and return, as a new list, the
    report entries it writes. The first is the event's own: an admit, a
    release (``error`` for an unknown or released slice) or a link entry,
    whose ``affected`` lists the slices a ``link_down`` hit; one
    ``reconfigure`` entry per such slice follows, in policy order. Other
    errors, such as a stale seq, raise."""
    kind = event.kind.value
    if event.kind is EventKind.REQUEST_ARRIVAL:
        controller.apply_event(event)
        return [_arrival_entry(event, controller.records[event.request.id])]
    if event.kind is EventKind.REQUEST_RELEASE:
        outcome, reason, detail = "released", None, None
        try:
            controller.apply_event(event)
        except (UnknownSlice, AlreadyReleased) as err:
            outcome, reason, detail = "error", err.reason, err.detail()
        return [_entry(seq=event.seq, event=kind, action="release", slice=event.slice_id,
                       outcome=outcome, reason=reason, detail=detail)]
    affected = controller.apply_event(event)
    entries = [_entry(seq=event.seq, event=kind, action=kind, outcome="applied",
                      affected=list(affected))]
    if event.kind is EventKind.LINK_DOWN:
        entries += [_reconfig_entry(event.seq, kind, controller.requests[moved.slice_id], moved)
                    for moved in controller.reconfigure(affected)]
    return entries


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Drive the controller through every event in sequence order.

    Link failures trigger reconfiguration of the slices they touch; every
    decision lands in the report together with the vector and index it was
    based on. Identical scenarios produce identical reports.
    """
    controller = Controller(scenario.topology, scenario.bounds, scenario.mode,
                            scenario.policy)
    entries = [entry for event in scenario.events
               for entry in play_event(controller, event)]
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
    derived = bounds.mode is BoundsMode.DERIVED
    ledger = (ResourceLedger.from_topology(topology)
              if derived and topology is not None else None)
    rows = []
    for request in requests:
        resolved = bounds
        if derived:
            try:
                if topology is None:
                    raise ValidationError("bounds",
                                          "derived bounds require a topology")
                # The search rejects endpoints that are not nodes, so the
                # device checks run first and keep their reasons.
                _check_endpoint_ports(topology, request)
                resolved = derive_bounds(
                    request, DisjointSearch(topology, request.src, request.dst, mode),
                    ledger.least_residual(0), ledger.residual_ports)
            except TnscError as err:
                row = {"slice": request.id, "control": request.control,
                       "status": err.reason, "error": err.detail(),
                       "index": None, "index_display": None}
                for dim in DIMENSIONS:
                    row[dim] = {"r": request.trait(dim), "l": None, "h": None,
                                "value": None}
                rows.append(row)
                continue

        assessment = assess(request, resolved, weights)
        traits = assessment.traits
        if not assessment.errors:
            index = assessment.index.value
            row = {"slice": request.id, "control": request.control, "status": "ok",
                   "error": None, "index": index, "index_display": _round3(index)}
            for dim, (r, l, h, value) in traits.items():
                row[dim] = {"r": r, "l": l, "h": h, "value": value}
            rows.append(row)
            continue
        # The row shows each value that normalizes; the last failing
        # dimension's error stands, without the slice id the row names.
        last = assessment.errors[-1]
        row = {"slice": request.id, "control": request.control, "status": "OUT_OF_RANGE",
               "error": {"r": last.r, "l": last.l, "h": last.h, "dimension": last.dimension},
               "index": None, "index_display": None}
        failed = iter(assessment.errors)
        for dim in DIMENSIONS:
            if dim in traits:
                r, l, h, value = traits[dim]
            else:
                err = next(failed)
                r, l, h, value = err.r, err.l, err.h, None
            row[dim] = {"r": r, "l": l, "h": h, "value": value}
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
