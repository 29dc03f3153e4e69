"""The slice controller: admission, release, failure handling, reconfiguration.

All mutating operations run strictly serialized against one resource ledger.
Admission is compute-then-commit: a rejected request leaves the ledger
bit-identical to its prior state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import (
    AlreadyReleased,
    ControlExhausted,
    InsufficientDiversity,
    NoDevice,
    PortExhausted,
    SlotExhausted,
    StaleSequence,
    TnscError,
    UnknownLink,
    UnknownSlice,
)
from .feasibility import Assessment, FeasibilityIndex, FeasibilityVector, assess, rank_key
from .model import (
    DERIVED_BOUNDS,
    AllocationRecord,
    AllocationState,
    BoundsMode,
    NetworkTopology,
    Path,
    PortSpec,
    Rejection,
    SliceRequest,
    TraitBounds,
    derive_bounds,
)
from .pathfind import DisjointnessMode, DisjointSearch

LINK_UP = "up"
LINK_DOWN = "down"


class ReconfigOrder(str, Enum):
    DESCENDING_INDEX = "descending_index"
    ASCENDING_INDEX = "ascending_index"


class FailurePolicy(str, Enum):
    MARK_DEGRADED = "mark_degraded"
    DROP = "drop"


@dataclass(frozen=True)
class ReconfigPolicy:
    order: ReconfigOrder = ReconfigOrder.DESCENDING_INDEX
    on_failure: FailurePolicy = FailurePolicy.MARK_DEGRADED


class EventKind(str, Enum):
    REQUEST_ARRIVAL = "request_arrival"
    REQUEST_RELEASE = "request_release"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"


@dataclass(frozen=True)
class Event:
    """One step of a scenario; seq values must strictly increase."""

    seq: int
    kind: EventKind
    request: SliceRequest | None = None
    slice_id: str | None = None
    link_id: str | None = None

    def __post_init__(self) -> None:
        needs = {
            EventKind.REQUEST_ARRIVAL: self.request is not None,
            EventKind.REQUEST_RELEASE: self.slice_id is not None,
            EventKind.LINK_DOWN: self.link_id is not None,
            EventKind.LINK_UP: self.link_id is not None,
        }
        if not needs[self.kind]:
            raise ValueError(f"event {self.seq} lacks the {self.kind.value} payload")


@dataclass
class ResourceLedger:
    """Mutable accounting of what remains allocatable."""

    residual_slots: dict[str, int]
    residual_ports: dict[tuple[str, str, float], int]
    link_state: dict[str, str]
    control_contexts: dict[str, str]

    @classmethod
    def from_topology(cls, topology: NetworkTopology) -> "ResourceLedger":
        ports: dict[tuple[str, str, float], int] = {}
        for device in topology.devices:
            for group in device.port_groups:
                ports[(device.node, group.port_type, group.gbps)] = group.count
        return cls(
            residual_slots={link.id: link.slot_capacity for link in topology.links},
            residual_ports=ports,
            link_state={link.id: LINK_UP for link in topology.links},
            control_contexts={},
        )

    def clone(self) -> "ResourceLedger":
        return ResourceLedger(
            residual_slots=dict(self.residual_slots),
            residual_ports=dict(self.residual_ports),
            link_state=dict(self.link_state),
            control_contexts=dict(self.control_contexts),
        )


@dataclass(frozen=True)
class ReconfigEntry:
    """Outcome of one slice's reconfiguration attempt."""

    slice_id: str
    old_paths: tuple[Path, ...]
    new_paths: tuple[Path, ...]
    vector: FeasibilityVector | None
    index: FeasibilityIndex | None
    outcome: str  # readmitted | degraded | dropped
    rejection: Rejection | None


class Controller:
    """Transport-slice decision engine over one topology.

    Bounds default to derived mode, resolved per request against the current
    residual network; a static TraitBounds pins the normalization ranges
    instead. ``control_context_limit`` optionally caps dedicated control
    contexts (unlimited by default).
    """

    def __init__(
        self,
        topology: NetworkTopology,
        bounds: TraitBounds = DERIVED_BOUNDS,
        mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
        policy: ReconfigPolicy = ReconfigPolicy(),
        *,
        control_context_limit: int | None = None,
    ):
        self.topology = topology
        self.bounds = bounds
        self.mode = mode
        self.policy = policy
        self.control_context_limit = control_context_limit
        self.ledger = ResourceLedger.from_topology(topology)
        self.records: dict[str, AllocationRecord] = {}
        self.requests: dict[str, SliceRequest] = {}
        self._last_seq: int | None = None

    # -- admission ----------------------------------------------------------

    def admit(self, request: SliceRequest) -> AllocationRecord:
        """Admit a slice request, debiting the ledger on success.

        Failures come back as a rejected record whose reason is one of the
        stable names (InsufficientDiversity, PortExhausted, SlotExhausted,
        NoDevice, OutOfRange, ControlExhausted); the ledger is untouched.
        """
        existing = self.records.get(request.id)
        if existing is not None and existing.state in (
            AllocationState.ACTIVE,
            AllocationState.DEGRADED,
        ):
            raise ValueError(f"slice {request.id!r} already exists")
        record = self._try_allocate(request)
        self.records[request.id] = record
        self.requests[request.id] = request
        return record

    def _usable_links(self, slots_needed: int) -> frozenset[str]:
        return frozenset(
            lid for lid, state in self.ledger.link_state.items()
            if state == LINK_UP and self.ledger.residual_slots[lid] >= slots_needed
        )

    def _rejected(self, request: SliceRequest, error: TnscError) -> AllocationRecord:
        return AllocationRecord(
            slice_id=request.id,
            state=AllocationState.REJECTED,
            rejection=Rejection.from_error(error),
        )

    def _try_allocate(self, request: SliceRequest,
                      assessment: Assessment | None = None) -> AllocationRecord:
        spec = request.client_ports
        for node in (request.src, request.dst):
            if node not in self.topology.device_by_node:
                return self._rejected(request, NoDevice(node))

        # Pre-search pruning keeps any returned path set slot-feasible.
        search = self._search(request, self._usable_links(request.calendar_slots))
        try:
            paths = search.paths(request.disjoint_paths)
        except InsufficientDiversity as err:
            return self._rejected(request, self._diversity_reason(request, search, err))

        for node in (request.src, request.dst):
            key = (node, spec.port_type, spec.gbps)
            available = self.ledger.residual_ports.get(key, 0)
            if available < spec.count:
                return self._rejected(
                    request, PortExhausted(node, spec.count, available))

        if (request.control and self.control_context_limit is not None
                and len(self.ledger.control_contexts) >= self.control_context_limit):
            return self._rejected(request, ControlExhausted(self.control_context_limit))

        assessment = assessment or self._evaluate(request, search)
        if assessment.errors:
            return self._rejected(request, assessment.errors[0])

        # Commit point: every check passed, debit atomically.
        slots: dict[str, int] = {}
        for path in paths:
            for link_id in path.links:
                slots[link_id] = request.calendar_slots
                self.ledger.residual_slots[link_id] -= request.calendar_slots
        ports = {
            node: PortSpec(spec.port_type, spec.gbps, spec.count)
            for node in (request.src, request.dst)
        }
        for node in ports:
            self.ledger.residual_ports[(node, spec.port_type, spec.gbps)] -= spec.count
        context = None
        if request.control:
            context = f"ctx-{request.id}"
            self.ledger.control_contexts[request.id] = context

        return AllocationRecord(
            slice_id=request.id,
            state=AllocationState.ACTIVE,
            paths=tuple(paths),
            slots_per_link=slots,
            ports_per_device=ports,
            control_context=context,
            vector=assessment.vector,
            index=assessment.index,
        )

    def _search(self, request: SliceRequest, usable: frozenset[str]) -> DisjointSearch:
        return DisjointSearch(self.topology, request.src, request.dst, self.mode,
                              usable_links=usable)

    def _diversity_reason(self, request: SliceRequest, search: DisjointSearch,
                          err: InsufficientDiversity) -> TnscError:
        """Blame slots when the up network alone would have been diverse
        enough; otherwise the shortage is structural. In link and node
        modes k paths exist exactly when the maximum flow is at least k, so
        the up network's count answers without a second path search; the
        budget-bounded SRLG count is not equivalent, so that mode searches."""
        up_only = self._usable_links(0)
        if up_only == search.usable:
            return err
        up = self._search(request, up_only)
        if self.mode is DisjointnessMode.SRLG_DISJOINT:
            try:
                up.paths(request.disjoint_paths)
            except InsufficientDiversity:
                return err
        elif up.count() < request.disjoint_paths:
            return err
        return SlotExhausted(request.calendar_slots)

    def _evaluate(self, request: SliceRequest, search: DisjointSearch | None = None,
                  ) -> Assessment:
        """Derived bounds count diversity on ``search``, or on a new search
        when None; static bounds never build one."""
        if self.bounds.mode is BoundsMode.DERIVED:
            if search is None:
                search = self._search(request, self._usable_links(request.calendar_slots))
            bounds = derive_bounds(request, search, self.ledger.residual_slots,
                                   self.ledger.residual_ports)
        else:
            bounds = self.bounds
        return assess(request, bounds)

    def _appraisal(self, request: SliceRequest) -> Assessment | None:
        try:
            return self._evaluate(request)
        except TnscError:
            return None

    # -- release ------------------------------------------------------------

    def release(self, slice_id: str) -> AllocationRecord:
        """Return every ledger debit of an active or degraded slice."""
        record = self.records.get(slice_id)
        if record is None:
            raise UnknownSlice(slice_id)
        if record.state in (AllocationState.RELEASED, AllocationState.REJECTED):
            raise AlreadyReleased(slice_id)
        if record.state is AllocationState.ACTIVE:
            self._credit(record)
        released = replace(record, state=AllocationState.RELEASED, stale=False)
        self.records[slice_id] = released
        return released

    def _credit(self, record: AllocationRecord) -> None:
        for link_id, slots in record.slots_per_link.items():
            self.ledger.residual_slots[link_id] += slots
        for node, spec in record.ports_per_device.items():
            self.ledger.residual_ports[(node, spec.port_type, spec.gbps)] += spec.count
        self.ledger.control_contexts.pop(record.slice_id, None)

    # -- events -------------------------------------------------------------

    def apply_event(self, event: Event) -> list[str]:
        """Apply one event; returns the affected slice ids.

        Arrival and release errors propagate after the sequence number is
        consumed; the event did happen, it just failed.
        """
        if self._last_seq is not None and event.seq <= self._last_seq:
            raise StaleSequence(event.seq, self._last_seq)
        if event.kind in (EventKind.LINK_DOWN, EventKind.LINK_UP):
            if event.link_id not in self.topology.link_by_id:
                raise UnknownLink(event.link_id)
        self._last_seq = event.seq

        if event.kind is EventKind.REQUEST_ARRIVAL:
            self.admit(event.request)
            return [event.request.id]
        if event.kind is EventKind.REQUEST_RELEASE:
            self.release(event.slice_id)
            return [event.slice_id]
        if event.kind is EventKind.LINK_DOWN:
            self.ledger.link_state[event.link_id] = LINK_DOWN
            affected = []
            for slice_id in sorted(self.records):
                record = self.records[slice_id]
                if record.state is AllocationState.ACTIVE and any(
                    event.link_id in path.links for path in record.paths
                ):
                    self.records[slice_id] = replace(record, stale=True)
                    affected.append(slice_id)
            return affected
        self.ledger.link_state[event.link_id] = LINK_UP
        return []

    # -- reconfiguration ----------------------------------------------------

    def reconfigure(self, affected: list[str]) -> list[ReconfigEntry]:
        """Reallocate slices whose allocations went stale.

        Stale holdings are released first, then slices are re-admitted in
        policy order using their feasibility index as of this moment.
        Per-slice failures become report entries; the batch never aborts.
        """
        targets = [
            slice_id for slice_id in affected
            if (record := self.records.get(slice_id)) is not None
            and record.stale and record.state is AllocationState.ACTIVE
        ]

        old = {slice_id: self.records[slice_id] for slice_id in targets}
        for slice_id in targets:
            self.release(slice_id)

        appraisals = {slice_id: self._appraisal(self.requests[slice_id])
                      for slice_id in targets}
        # Static bounds ignore the ledger, so readmission reuses the appraisal.
        reuse = appraisals if self.bounds.mode is BoundsMode.STATIC else {}

        descending = self.policy.order is ReconfigOrder.DESCENDING_INDEX

        def sort_key(slice_id: str):
            # Unnormalizable requests rank as least feasible.
            index = appraisals[slice_id] and appraisals[slice_id].index
            return rank_key(index and index.value, slice_id, descending)

        entries = []
        for slice_id in sorted(targets, key=sort_key):
            record = self._try_allocate(self.requests[slice_id], reuse.get(slice_id))
            if record.state is AllocationState.ACTIVE:
                outcome = "readmitted"
            elif self.policy.on_failure is FailurePolicy.MARK_DEGRADED:
                record = replace(record, state=AllocationState.DEGRADED)
                outcome = "degraded"
            else:
                record = replace(record, state=AllocationState.RELEASED)
                outcome = "dropped"
            self.records[slice_id] = record
            appraisal = appraisals[slice_id]
            entries.append(ReconfigEntry(
                slice_id=slice_id,
                old_paths=old[slice_id].paths,
                new_paths=record.paths,
                vector=appraisal and appraisal.vector,
                index=appraisal and appraisal.index,
                outcome=outcome,
                rejection=record.rejection,
            ))
        return entries

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Read-only utilization summary, deterministically ordered."""
        links = {}
        for link_id in sorted(self.ledger.residual_slots):
            capacity = self.topology.link_by_id[link_id].slot_capacity
            residual = self.ledger.residual_slots[link_id]
            links[link_id] = {
                "capacity": capacity,
                "residual": residual,
                "used": capacity - residual,
                "state": self.ledger.link_state[link_id],
            }
        devices: dict[str, dict] = {}
        for device in sorted(self.topology.devices, key=lambda d: d.node):
            groups = {}
            for group in device.port_groups:
                key = (device.node, group.port_type, group.gbps)
                residual = self.ledger.residual_ports[key]
                groups[f"{group.port_type}@{group.gbps:g}"] = {
                    "inventory": group.count,
                    "residual": residual,
                    "used": group.count - residual,
                }
            devices[device.node] = groups
        return {
            "links": links,
            "devices": devices,
            "slices": {slice_id: self.records[slice_id].state.value
                       for slice_id in sorted(self.records)},
            "control_contexts": dict(sorted(self.ledger.control_contexts.items())),
        }
