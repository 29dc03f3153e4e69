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
    Rejection,
    SliceRequest,
    TraitBounds,
    derive_bounds,
)
from .pathfind import DisjointnessMode, DisjointSearch

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

    def __post_init__(self) -> None:
        # A member passes unchanged; an unknown value raises ValueError.
        object.__setattr__(self, "order", ReconfigOrder(self.order))
        object.__setattr__(self, "on_failure", FailurePolicy(self.on_failure))


class EventKind(str, Enum):
    REQUEST_ARRIVAL = "request_arrival"
    REQUEST_RELEASE = "request_release"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"


#: The field that carries each kind of event's payload.
_PAYLOAD = {EventKind.REQUEST_ARRIVAL: "request", EventKind.REQUEST_RELEASE: "slice_id",
            EventKind.LINK_DOWN: "link_id", EventKind.LINK_UP: "link_id"}


@dataclass(frozen=True)
class Event:
    """One step of a scenario; seq values must strictly increase."""

    seq: int
    kind: EventKind
    request: SliceRequest | None = None
    slice_id: str | None = None
    link_id: str | None = None

    def __post_init__(self) -> None:
        if type(self.kind) is not EventKind:  # an unknown value raises ValueError
            object.__setattr__(self, "kind", EventKind(self.kind))
        if getattr(self, _PAYLOAD[self.kind]) is None:
            raise ValueError(f"event {self.seq} lacks the {self.kind.value} payload")


@dataclass
class ResourceLedger:
    """Mutable accounting of what remains allocatable. A link is up unless
    its id is in ``down_links``. ``links_by_slots`` files each link under
    its residual slot count; it holds no empty set."""

    residual_slots: dict[str, int]
    residual_ports: dict[tuple[str, str, float], int]
    down_links: set[str]
    control_contexts: dict[str, str]
    links_by_slots: dict[int, set[str]]

    @classmethod
    def from_topology(cls, topology: NetworkTopology) -> "ResourceLedger":
        index: dict[int, set[str]] = {}
        for link in topology.links:
            index.setdefault(link.slot_capacity, set()).add(link.id)
        return cls(
            residual_slots={link.id: link.slot_capacity for link in topology.links},
            residual_ports={(device.node, group.port_type, group.gbps): group.count
                            for device in topology.devices
                            for group in device.port_groups},
            down_links=set(),
            control_contexts={},
            links_by_slots=index,
        )

    def clone(self) -> "ResourceLedger":
        return ResourceLedger(
            residual_slots=dict(self.residual_slots),
            residual_ports=dict(self.residual_ports),
            down_links=set(self.down_links),
            control_contexts=dict(self.control_contexts),
            links_by_slots={left: set(links) for left, links in self.links_by_slots.items()},
        )

    def least_residual(self, slots_needed: int) -> int:
        """The fewest slots, at least ``slots_needed``, left on an up link; 0 if none."""
        return min((left for left, links in self.links_by_slots.items()
                    if left >= slots_needed and not links <= self.down_links), default=0)


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
        self.mode = DisjointnessMode(mode)
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

    def _blocked_links(self, slots_needed: int) -> set[str]:
        """The down links and those short of slots, found from the slot
        index's keys: never ``range(slots_needed)``, which may be huge."""
        down, index = self.ledger.down_links, self.ledger.links_by_slots
        return down.union(*(index[left] for left in index if left < slots_needed))

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
        search = self._search(request, self._blocked_links(request.calendar_slots))
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
        record = AllocationRecord(
            slice_id=request.id,
            state=AllocationState.ACTIVE,
            paths=tuple(paths),
            slots_per_link=dict.fromkeys([link for path in paths for link in path.links],
                                         request.calendar_slots),
            ports_per_device=dict.fromkeys((request.src, request.dst), spec),
            control_context=f"ctx-{request.id}" if request.control else None,
            vector=assessment.vector,
            index=assessment.index,
        )
        self._book(record, -1)
        return record

    def _search(self, request: SliceRequest, blocked: set[str]) -> DisjointSearch:
        return DisjointSearch(self.topology, request.src, request.dst, self.mode,
                              blocked_links=blocked)

    def _diversity_reason(self, request: SliceRequest, search: DisjointSearch,
                          err: InsufficientDiversity) -> TnscError:
        """Blame slots when the up network alone would have been diverse
        enough; otherwise the shortage is structural. In every mode
        ``paths(k)`` succeeds exactly when ``count()`` is at least k: in link
        and node modes k paths exist exactly when the maximum flow is at
        least k, and in SRLG mode the count walks on past the first set of
        k paths a fresh ``paths(k)`` would meet, on the same budget."""
        down = self.ledger.down_links
        if search.blocked == down:
            return err
        if self._search(request, down).count() < request.disjoint_paths:
            return err
        return SlotExhausted(request.calendar_slots)

    def _evaluate(self, request: SliceRequest, search: DisjointSearch) -> Assessment:
        """Derived bounds count diversity on ``search``; static bounds ignore it."""
        bounds, ledger = self.bounds, self.ledger
        if bounds.mode is BoundsMode.DERIVED:
            bounds = derive_bounds(request, search, ledger.least_residual(request.calendar_slots),
                                   ledger.residual_ports)
        return assess(request, bounds)

    def _appraisal(self, record: AllocationRecord) -> Assessment:
        """A released slice's standing now. Static bounds ignore the ledger,
        so the record's own vector and index still hold; derived bounds are
        resolved again on the freed ledger, which cannot raise: an active
        record's endpoints are distinct nodes with a matching port group."""
        if self.bounds.mode is BoundsMode.STATIC:
            vector = record.vector
            return Assessment(record.slice_id, vector.numeric_traits, (), vector,
                              record.index)
        request = self.requests[record.slice_id]
        return self._evaluate(
            request, self._search(request, self._blocked_links(request.calendar_slots)))

    # -- release ------------------------------------------------------------

    def release(self, slice_id: str) -> AllocationRecord:
        """Return every ledger debit of an active or degraded slice."""
        record = self.records.get(slice_id)
        if record is None:
            raise UnknownSlice(slice_id)
        if record.state in (AllocationState.RELEASED, AllocationState.REJECTED):
            raise AlreadyReleased(slice_id)
        if record.state is AllocationState.ACTIVE:
            self._book(record, +1)
        released = replace(record, state=AllocationState.RELEASED, stale=False)
        self.records[slice_id] = released
        return released

    def _book(self, record: AllocationRecord, sign: int) -> None:
        """Debit (sign -1) or credit (+1) everything an active record holds.
        The only code that writes the residual maps, slot index and contexts."""
        ledger = self.ledger
        for link_id, slots in record.slots_per_link.items():
            left = ledger.residual_slots[link_id]
            ledger.links_by_slots[left].remove(link_id)
            if not ledger.links_by_slots[left]:
                del ledger.links_by_slots[left]
            ledger.residual_slots[link_id] = left = left + sign * slots
            ledger.links_by_slots.setdefault(left, set()).add(link_id)
        for node, spec in record.ports_per_device.items():
            ledger.residual_ports[(node, spec.port_type, spec.gbps)] += sign * spec.count
        if sign < 0 and record.control_context is not None:
            ledger.control_contexts[record.slice_id] = record.control_context
        elif sign > 0:
            ledger.control_contexts.pop(record.slice_id, None)

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
            self.ledger.down_links.add(event.link_id)
            # An active record holds slots on exactly the links of its paths.
            affected = sorted(
                slice_id for slice_id, record in self.records.items()
                if record.state is AllocationState.ACTIVE
                and event.link_id in record.slots_per_link)
            for slice_id in affected:
                self.records[slice_id] = replace(self.records[slice_id], stale=True)
            return affected
        self.ledger.down_links.discard(event.link_id)
        return []

    # -- reconfiguration ----------------------------------------------------

    def reconfigure(self, affected: list[str]) -> list[ReconfigEntry]:
        """Reallocate slices whose allocations went stale.

        Stale holdings are released first, then slices are re-admitted in
        policy order using their feasibility index as of this moment.
        Per-slice failures become report entries; the batch never aborts.
        A repeated id counts once, where it first appears.
        """
        targets = [
            slice_id for slice_id in dict.fromkeys(affected)
            if (record := self.records.get(slice_id)) is not None
            and record.stale and record.state is AllocationState.ACTIVE
        ]

        released = {slice_id: self.release(slice_id) for slice_id in targets}
        appraisals = {slice_id: self._appraisal(record) for slice_id, record in released.items()}
        # Static bounds ignore the ledger, so readmission reuses the appraisal.
        reuse = appraisals if self.bounds.mode is BoundsMode.STATIC else {}

        descending = self.policy.order is ReconfigOrder.DESCENDING_INDEX

        def sort_key(slice_id: str):
            # Unnormalizable requests rank as least feasible.
            index = appraisals[slice_id].index
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
                old_paths=released[slice_id].paths,
                new_paths=record.paths,
                vector=appraisal.vector,
                index=appraisal.index,
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
                "state": "down" if link_id in self.ledger.down_links else "up",
            }
        devices: dict[str, dict] = {}
        for device in sorted(self.topology.devices, key=lambda d: d.node):
            groups = {}
            for group in device.port_groups:
                key = (device.node, group.port_type, group.gbps)
                residual = self.ledger.residual_ports[key]
                groups[group.label] = {
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
