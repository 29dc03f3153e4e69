"""Domain model: transport topology, slice requests, bounds, and allocations.

Everything here is an immutable value object. Mutable accounting state lives
in the controller's ledger, which keeps topology descriptions safe to share
between threads and makes scenario replay deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    DanglingEndpoint,
    DuplicateId,
    InvalidCapacity,
    NoDevice,
    NoMatchingPorts,
    NonPositiveWeight,
    TnscError,
    UnknownDimension,
    ValidationError,
)

if TYPE_CHECKING:
    from .pathfind import DisjointSearch

DEFAULT_SLOT_CAPACITY = 20
DEFAULT_SLOT_GBPS = 5.0

#: Fixed numeric dimension labels, in vector order.
DIMENSIONS = ("topology", "device", "data_plane")

#: Lower bounds forced by the model: at least 2 disjoint paths, at least one
#: port, at least one calendar slot.
DIMENSION_FLOORS = {"topology": 2, "device": 1, "data_plane": 1}


@dataclass(frozen=True)
class PortGroup:
    """Inventory of interchangeable client ports of one type and bitrate."""

    port_type: str
    gbps: float
    count: int


@dataclass(frozen=True)
class Link:
    """Undirected transport link carrying a pool of fixed-rate calendar slots."""

    id: str
    a: str
    b: str
    srlgs: frozenset[int] = frozenset()
    slot_capacity: int = DEFAULT_SLOT_CAPACITY
    slot_gbps: float = DEFAULT_SLOT_GBPS


@dataclass(frozen=True)
class DeviceProfile:
    """Client-port inventory of the device at one node."""

    node: str
    port_groups: tuple[PortGroup, ...]

    def matching_group(self, port_type: str, gbps: float) -> PortGroup | None:
        for group in self.port_groups:
            if group.port_type == port_type and group.gbps == gbps:
                return group
        return None


@dataclass(frozen=True)
class NetworkTopology:
    """Validated, immutable network description.

    Construct through :func:`validate_topology`; the lookup tables below are
    derived lazily and assume the invariants already hold.
    """

    nodes: frozenset[str]
    links: tuple[Link, ...]
    devices: tuple[DeviceProfile, ...]

    @cached_property
    def link_by_id(self) -> Mapping[str, Link]:
        return {link.id: link for link in self.links}

    @cached_property
    def device_by_node(self) -> Mapping[str, DeviceProfile]:
        return {device.node: device for device in self.devices}

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """Per node, (neighbor, link id) pairs sorted for deterministic walks."""
        out: dict[str, list[tuple[str, str]]] = {node: [] for node in self.nodes}
        for link in self.links:
            out[link.a].append((link.b, link.id))
            out[link.b].append((link.a, link.id))
        return {node: tuple(sorted(pairs)) for node, pairs in out.items()}

    def link_between(self, a: str, b: str) -> Link | None:
        for neighbor, link_id in self.adjacency.get(a, ()):
            if neighbor == b:
                return self.link_by_id[link_id]
        return None


@dataclass(frozen=True)
class PortSpec:
    """Client-port demand of a slice: count ports of one type and bitrate."""

    port_type: str
    gbps: float
    count: int


@dataclass(frozen=True)
class SliceRequest:
    """Transport-slice request with its four isolation traits.

    ``control`` is the Boolean control-plane trait; ``disjoint_paths``,
    ``client_ports.count`` and ``calendar_slots`` are the numeric topology,
    device and data-plane traits.
    """

    id: str
    src: str
    dst: str
    control: bool
    disjoint_paths: int
    client_ports: PortSpec
    calendar_slots: int
    weights: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValidationError(self.id, "src and dst must differ")
        if self.disjoint_paths < DIMENSION_FLOORS["topology"]:
            raise ValidationError(self.id, "disjoint_paths must be at least 2")
        if self.client_ports.count < DIMENSION_FLOORS["device"]:
            raise ValidationError(self.id, "client port count must be at least 1")
        if self.calendar_slots < DIMENSION_FLOORS["data_plane"]:
            raise ValidationError(self.id, "calendar_slots must be at least 1")
        if self.weights is not None:
            object.__setattr__(self, "weights", weights_from_dict(self.weights, self.id))

    def trait(self, dimension: str) -> int:
        if dimension == "topology":
            return self.disjoint_paths
        if dimension == "device":
            return self.client_ports.count
        if dimension == "data_plane":
            return self.calendar_slots
        raise KeyError(dimension)


@dataclass(frozen=True)
class Bound:
    """Inclusive [l, h] range for one numeric trait. h is None while a
    derived-mode configuration has not been resolved against a topology."""

    l: int
    h: int | None


class BoundsMode(str, Enum):
    STATIC = "static"
    DERIVED = "derived"


@dataclass(frozen=True)
class TraitBounds:
    """Normalization ranges for the three numeric dimensions.

    Static bounds come from configuration and must satisfy l <= h. Derived
    bounds are computed per request against a topology; a derived h may fall
    below l, in which case every requested value is out of range and the
    infeasibility surfaces at normalization time.
    """

    mode: BoundsMode
    topology: Bound
    device: Bound
    data_plane: Bound

    def __post_init__(self) -> None:
        for dim in DIMENSIONS:
            bound = self.bound(dim)
            floor = DIMENSION_FLOORS[dim]
            if bound.l < floor:
                raise ValidationError(dim, f"lower bound must be at least {floor}")
            if self.mode is BoundsMode.STATIC:
                if bound.h is None:
                    raise ValidationError(dim, "static bounds require h")
                if bound.l > bound.h:
                    raise ValidationError(dim, "lower bound exceeds upper bound")

    def bound(self, dimension: str) -> Bound:
        if dimension == "topology":
            return self.topology
        if dimension == "device":
            return self.device
        if dimension == "data_plane":
            return self.data_plane
        raise KeyError(dimension)


#: Derived-mode configuration placeholder: floors only, h resolved per request.
DERIVED_BOUNDS = TraitBounds(
    mode=BoundsMode.DERIVED,
    topology=Bound(2, None),
    device=Bound(1, None),
    data_plane=Bound(1, None),
)


@dataclass(frozen=True)
class Path:
    """Simple path as a node sequence plus the link ids joining it."""

    nodes: tuple[str, ...]
    links: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValidationError("path", "a path needs at least two nodes")
        if len(self.links) != len(self.nodes) - 1:
            raise ValidationError("path", "link count must be node count minus one")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("path", f"repeated node in {self.nodes}")

    @classmethod
    def through(cls, topology: NetworkTopology, nodes: tuple[str, ...]) -> "Path":
        """Build a path from a node sequence, deriving link ids from the topology."""
        links = []
        for a, b in zip(nodes, nodes[1:]):
            link = topology.link_between(a, b)
            if link is None:
                raise ValidationError("path", f"no link joins {a!r} and {b!r}")
            links.append(link.id)
        return cls(nodes=tuple(nodes), links=tuple(links))


class AllocationState(str, Enum):
    ACTIVE = "active"
    DEGRADED = "degraded"
    REJECTED = "rejected"
    RELEASED = "released"


@dataclass(frozen=True)
class Rejection:
    """Stable rejection reason: error class name plus structured detail."""

    reason: str
    detail: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_error(cls, error) -> "Rejection":
        return cls(reason=error.reason, detail=error.detail())


@dataclass(frozen=True)
class AllocationRecord:
    """Per-slice ledger entry: what was allocated, or why it was not.

    ``stale`` marks an active allocation that traverses a failed link and
    awaits reconfiguration; the enum states are unchanged until then.
    ``vector`` and ``index`` snapshot the feasibility evaluation made at
    allocation time, when one was reached.
    """

    slice_id: str
    state: AllocationState
    paths: tuple[Path, ...] = ()
    slots_per_link: Mapping[str, int] = field(default_factory=dict)
    ports_per_device: Mapping[str, PortSpec] = field(default_factory=dict)
    control_context: str | None = None
    rejection: Rejection | None = None
    stale: bool = False
    vector: object | None = None
    index: object | None = None


# ---------------------------------------------------------------------------
# Topology ingestion and serialization
# ---------------------------------------------------------------------------


def _require(condition: bool, error: type[TnscError], *args) -> None:
    if not condition:
        raise error(*args)


def _as_int(value, element: str, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(element, f"{what} must be an integer, got {value!r}")
    return value


def _as_object(value, element: str, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValidationError(element, f"{what} must be an object, got {value!r}")
    return value


def _as_list(value, element: str, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(element, f"{what} must be a list, got {value!r}")
    return value


def _as_name(value, element: str, what: str) -> str:
    if not isinstance(value, str) or value == "":
        raise ValidationError(element, f"invalid {what} {value!r}")
    return value


def _as_choice(kind: type[Enum], value, element: str, what: str):
    try:
        return kind(value)
    except ValueError:
        raise ValidationError(element, f"unknown {what} {value!r}") from None


def _as_positive(value, error: type[TnscError], *args) -> float:
    """Read a finite int or float (not a bool) greater than 0 as a float;
    otherwise raise ``error(*args)``, so each site keeps its own reason."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
        else:
            if 0 < number < math.inf:  # false for NaN too
                return number
    raise error(*args)


def validate_topology(raw: Mapping) -> NetworkTopology:
    """Validate a raw topology description and return the immutable model.

    Checks run in input order and the first violated invariant wins, so the
    raised error always names one offending element.
    """
    raw = _as_object(raw, "topology", "topology description")
    node_list = _as_list(raw.get("nodes"), "topology", "nodes")
    _require(node_list, ValidationError, "topology", "nodes must not be empty")
    nodes: set[str] = set()
    for node in node_list:
        node = _as_name(node, "topology", "node id")
        _require(node not in nodes, DuplicateId, node)
        nodes.add(node)

    links: list[Link] = []
    seen_link_ids: set[str] = set()
    seen_pairs: set[frozenset[str]] = set()
    for entry in _as_list(raw.get("links", []), "topology", "links"):
        entry = _as_object(entry, "links", "link entry")
        link_id = _as_name(entry.get("id"), "links", "link id")
        _require(link_id not in seen_link_ids, DuplicateId, link_id)
        a, b = entry.get("a"), entry.get("b")
        for endpoint in (a, b):
            _require(isinstance(endpoint, str) and endpoint in nodes,
                     DanglingEndpoint, str(endpoint))
        _require(a != b, ValidationError, link_id, "link endpoints must differ")
        pair = frozenset((a, b))
        # Parallel links would make link ids underivable from node sequences.
        _require(pair not in seen_pairs, DuplicateId, link_id)
        capacity = entry.get("slot_capacity", DEFAULT_SLOT_CAPACITY)
        capacity = _as_int(capacity, link_id, "slot_capacity")
        _require(capacity >= 1, InvalidCapacity, link_id, "slot_capacity must be >= 1")
        gbps = _as_positive(entry.get("slot_gbps", DEFAULT_SLOT_GBPS), InvalidCapacity,
                            link_id, "slot_gbps must be a finite number > 0")
        srlgs = _as_list(entry.get("srlgs", []), link_id, "srlgs")
        for tag in srlgs:
            _require(_as_int(tag, link_id, "srlg tag") >= 0,
                     ValidationError, link_id, f"srlg tags must be >= 0, got {tag!r}")
        seen_link_ids.add(link_id)
        seen_pairs.add(pair)
        links.append(Link(id=link_id, a=a, b=b, srlgs=frozenset(srlgs),
                          slot_capacity=capacity, slot_gbps=gbps))

    devices: list[DeviceProfile] = []
    seen_device_nodes: set[str] = set()
    for entry in _as_list(raw.get("devices", []), "topology", "devices"):
        entry = _as_object(entry, "devices", "device entry")
        node = entry.get("node")
        _require(isinstance(node, str) and node in nodes, DanglingEndpoint, str(node))
        _require(node not in seen_device_nodes, DuplicateId, node)
        groups: list[PortGroup] = []
        seen_kinds: set[tuple[str, float]] = set()
        for port in _as_list(entry.get("ports", []), node, "ports"):
            port = _as_object(port, node, "port group")
            port_type = _as_name(port.get("type"), node, "port type")
            where = f"{node}:{port_type}"
            gbps = _as_positive(port.get("gbps"), InvalidCapacity, where,
                                "port gbps must be a finite number > 0")
            count = _as_int(port.get("count"), where, "port count")
            _require(count >= 1, InvalidCapacity, where, "port count must be >= 1")
            kind = (port_type, gbps)
            _require(kind not in seen_kinds, DuplicateId, f"{where}@{gbps:g}")
            seen_kinds.add(kind)
            groups.append(PortGroup(port_type=port_type, gbps=gbps, count=count))
        seen_device_nodes.add(node)
        devices.append(DeviceProfile(node=node, port_groups=tuple(groups)))

    return NetworkTopology(nodes=frozenset(nodes), links=tuple(links),
                           devices=tuple(devices))


def topology_to_dict(topology: NetworkTopology) -> dict:
    """Serialize back to the external JSON shape (round-trips through
    :func:`validate_topology`)."""
    return {
        "nodes": sorted(topology.nodes),
        "links": [
            {
                "id": link.id,
                "a": link.a,
                "b": link.b,
                "slot_capacity": link.slot_capacity,
                "slot_gbps": link.slot_gbps,
                "srlgs": sorted(link.srlgs),
            }
            for link in topology.links
        ],
        "devices": [
            {
                "node": device.node,
                "ports": [
                    {"type": g.port_type, "gbps": g.gbps, "count": g.count}
                    for g in device.port_groups
                ],
            }
            for device in topology.devices
        ],
    }


def request_from_dict(raw: Mapping) -> SliceRequest:
    """Parse one slice request from its external JSON shape."""
    raw = _as_object(raw, "request", "request")
    rid = _as_name(raw.get("id"), "request", "request id")
    ports = _as_object(raw.get("client_ports"), rid, "client_ports")
    control = raw.get("control", False)
    if not isinstance(control, bool):
        raise ValidationError(rid, "control must be a boolean")
    return SliceRequest(
        id=rid,
        src=_as_name(raw.get("src"), rid, "src"),
        dst=_as_name(raw.get("dst"), rid, "dst"),
        control=control,
        disjoint_paths=_as_int(raw.get("disjoint_paths"), rid, "disjoint_paths"),
        client_ports=PortSpec(
            port_type=_as_name(ports.get("type"), rid, "client_ports.type"),
            gbps=_as_positive(ports.get("gbps"), ValidationError, rid,
                              "client_ports.gbps must be a finite number > 0"),
            count=_as_int(ports.get("count"), rid, "client_ports.count"),
        ),
        calendar_slots=_as_int(raw.get("calendar_slots"), rid, "calendar_slots"),
        weights=raw.get("weights"),
    )


def weights_from_dict(raw: Mapping, element: str) -> dict[str, float]:
    """Parse a per-dimension merge-weight map for ``element``.

    Every key must name a dimension (else UnknownDimension) and every weight
    must be a finite int or float greater than 0 (else NonPositiveWeight).
    Dimensions left out weigh 1 at merge time.
    """
    weights = {}
    for dim, value in _as_object(raw, element, "weights").items():
        if dim not in DIMENSIONS:
            raise UnknownDimension(str(dim))
        weights[dim] = _as_positive(value, NonPositiveWeight, dim, value)
    return weights


def bounds_from_dict(raw: Mapping) -> TraitBounds:
    """Parse a bounds file: static ranges, or a derived-mode marker whose h
    fields are ignored."""
    raw = _as_object(raw, "bounds", "bounds")
    mode = _as_choice(BoundsMode, raw.get("mode", "static"), "bounds", "mode")
    if mode is BoundsMode.DERIVED:
        return DERIVED_BOUNDS
    bounds: dict[str, Bound] = {}
    for dim in DIMENSIONS:
        entry = _as_object(raw.get(dim), dim, "static bounds")
        bounds[dim] = Bound(l=_as_int(entry.get("l"), dim, "l"),
                            h=_as_int(entry.get("h"), dim, "h"))
    return TraitBounds(mode=mode, topology=bounds["topology"],
                       device=bounds["device"], data_plane=bounds["data_plane"])


def bounds_to_dict(bounds: TraitBounds) -> dict:
    if bounds.mode is BoundsMode.DERIVED and bounds.topology.h is None:
        return {"mode": "derived"}
    return {
        "mode": bounds.mode.value,
        **{
            dim: {"l": bounds.bound(dim).l, "h": bounds.bound(dim).h}
            for dim in DIMENSIONS
        },
    }


# ---------------------------------------------------------------------------
# Derived bounds
# ---------------------------------------------------------------------------


def _check_endpoint_ports(topology: NetworkTopology, request: SliceRequest) -> None:
    """Raise NoDevice or NoMatchingPorts for the first endpoint, src before
    dst, whose device cannot supply the requested port kind. Needs no
    search, so a caller can run it before building one."""
    spec = request.client_ports
    for node in (request.src, request.dst):
        device = topology.device_by_node.get(node)
        if device is None:
            raise NoDevice(node)
        if device.matching_group(spec.port_type, spec.gbps) is None:
            raise NoMatchingPorts(node, spec.port_type, spec.gbps)


def derive_bounds(request: SliceRequest, search: DisjointSearch,
                  residual_slots: Mapping[str, int],
                  residual_ports: Mapping[tuple[str, str, float], int]) -> TraitBounds:
    """Resolve per-request trait ranges against the network ``search`` sees:
    it fixes the topology, the disjointness mode and the usable links.

    Upper bounds: the diversity ``search.count()`` finds, which resumes its
    flow and ends its ``paths()``; the smaller residual inventory of the
    matching port group at the two endpoints; and the smallest residual slot
    pool among the search's usable links. The controller passes the
    admission's search and its live ledger; an unrestricted search over a
    fresh ledger's residuals gives the ranges of the topology as built.

    Raises NoDevice when an endpoint has no device profile and
    NoMatchingPorts when no port group matches the requested kind.
    """
    _check_endpoint_ports(search.topology, request)
    spec = request.client_ports
    ports = min(residual_ports.get((node, spec.port_type, spec.gbps), 0)
                for node in (request.src, request.dst))
    slot_pool = [residual_slots.get(link_id, 0) for link_id in search.usable]
    return TraitBounds(
        mode=BoundsMode.DERIVED,
        topology=Bound(DIMENSION_FLOORS["topology"], search.count()),
        device=Bound(DIMENSION_FLOORS["device"], ports),
        data_plane=Bound(DIMENSION_FLOORS["data_plane"],
                         min(slot_pool) if slot_pool else 0),
    )
