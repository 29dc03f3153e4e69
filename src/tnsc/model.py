"""Domain model: transport topology, slice requests, bounds, and allocations.

Everything here is an immutable value object. Mutable accounting state lives
in the controller's ledger, which keeps topology descriptions safe to share
between threads and makes scenario replay deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

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


class PortSpec(NamedTuple):
    """Count client ports of one type and bitrate: a slice's demand, or a
    device's inventory of interchangeable ports. A named tuple: immutable,
    and equal to a plain ``(port_type, gbps, count)`` tuple."""

    port_type: str
    gbps: float
    count: int

    @property
    def label(self) -> str:
        """The kind's name in reports. ``:g`` rounds near-equal bitrates
        alike, so match on ``(port_type, gbps)``, never on the label."""
        return f"{self.port_type}@{self.gbps:g}"


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
    port_groups: tuple[PortSpec, ...]


@dataclass(frozen=True)
class NetworkTopology:
    """Validated, immutable network description.

    Construct through :func:`validate_topology`; the two lookups by id below
    are derived lazily and assume the invariants already hold.
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


class _RequestFields(NamedTuple):
    id: str
    src: str
    dst: str
    control: bool
    disjoint_paths: int
    client_ports: PortSpec
    calendar_slots: int
    weights: Mapping[str, float] | None = None


class SliceRequest(_RequestFields):
    """Transport-slice request with its four isolation traits.

    ``control`` is the Boolean control-plane trait; ``disjoint_paths``,
    ``client_ports.count`` and ``calendar_slots`` are the numeric topology,
    device and data-plane traits. A named tuple, equal to a plain tuple of
    its eight fields, whose constructor checks the request; ``_replace``
    and ``_make`` go through the constructor, so they check it again.
    """

    __slots__ = ()

    def __new__(cls, id: str, src: str, dst: str, control: bool, disjoint_paths: int,
                client_ports: PortSpec, calendar_slots: int,
                weights: Mapping[str, float] | None = None) -> SliceRequest:
        if src == dst:
            raise ValidationError(id, "src and dst must differ")
        if disjoint_paths < DIMENSION_FLOORS["topology"]:
            raise ValidationError(id, "disjoint_paths must be at least 2")
        if client_ports.count < DIMENSION_FLOORS["device"]:
            raise ValidationError(id, "client port count must be at least 1")
        if calendar_slots < DIMENSION_FLOORS["data_plane"]:
            raise ValidationError(id, "calendar_slots must be at least 1")
        if weights is not None:
            weights = weights_from_dict(weights, id)
        return tuple.__new__(cls, (id, src, dst, control, disjoint_paths, client_ports,
                                   calendar_slots, weights))

    @classmethod
    def _make(cls, iterable: Iterable) -> SliceRequest:
        return cls(*iterable)

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
        # A member passes unchanged; an unknown value raises ValueError.
        object.__setattr__(self, "mode", BoundsMode(self.mode))
        for dim in DIMENSIONS:
            bound = getattr(self, dim)
            floor = DIMENSION_FLOORS[dim]
            if bound.l < floor:
                raise ValidationError(dim, f"lower bound must be at least {floor}")
            if self.mode is BoundsMode.STATIC:
                if bound.h is None:
                    raise ValidationError(dim, "static bounds require h")
                if bound.l > bound.h:
                    raise ValidationError(dim, "lower bound exceeds upper bound")


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
# Topology ingestion
# ---------------------------------------------------------------------------


def _as_int(value, element: str, what: str) -> int:
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValidationError(element, f"{what} must be an integer, got {value!r}")
    return value


def _as_object(value, element: str, what: str) -> Mapping:
    # The exact-type test first: the ABC check costs several times more.
    if type(value) is not dict and not isinstance(value, Mapping):
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
    if (type(value) is float or type(value) is int
            or isinstance(value, (int, float)) and not isinstance(value, bool)):
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
    raised error always names one offending element. An error is built only
    when its check fails.
    """
    raw = _as_object(raw, "topology", "topology description")
    node_list = _as_list(raw.get("nodes"), "topology", "nodes")
    if not node_list:
        raise ValidationError("topology", "nodes must not be empty")
    nodes: set[str] = set()
    for node in node_list:
        node = _as_name(node, "topology", "node id")
        if node in nodes:
            raise DuplicateId(node)
        nodes.add(node)

    links: list[Link] = []
    seen_link_ids: set[str] = set()
    seen_pairs: set[frozenset[str]] = set()
    for entry in _as_list(raw.get("links", []), "topology", "links"):
        entry = _as_object(entry, "links", "link entry")
        link_id = _as_name(entry.get("id"), "links", "link id")
        if link_id in seen_link_ids:
            raise DuplicateId(link_id)
        a, b = entry.get("a"), entry.get("b")
        for endpoint in (a, b):
            if not (isinstance(endpoint, str) and endpoint in nodes):
                raise DanglingEndpoint(str(endpoint))
        if a == b:
            raise ValidationError(link_id, "link endpoints must differ")
        pair = frozenset((a, b))
        # No parallel links: verify_disjoint matches each hop's link by its endpoints.
        if pair in seen_pairs:
            raise DuplicateId(link_id)
        capacity = _as_int(entry.get("slot_capacity", DEFAULT_SLOT_CAPACITY), link_id,
                           "slot_capacity")
        if capacity < 1:
            raise InvalidCapacity(link_id, "slot_capacity must be >= 1")
        gbps = _as_positive(entry.get("slot_gbps", DEFAULT_SLOT_GBPS), InvalidCapacity,
                            link_id, "slot_gbps must be a finite number > 0")
        srlgs = _as_list(entry.get("srlgs", []), link_id, "srlgs")
        for tag in srlgs:
            if _as_int(tag, link_id, "srlg tag") < 0:
                raise ValidationError(link_id, f"srlg tags must be >= 0, got {tag!r}")
        seen_link_ids.add(link_id)
        seen_pairs.add(pair)
        # By position: keywords cost more per link, and the fields are in order.
        links.append(Link(link_id, a, b, frozenset(srlgs), capacity, gbps))

    devices: list[DeviceProfile] = []
    seen_device_nodes: set[str] = set()
    for entry in _as_list(raw.get("devices", []), "topology", "devices"):
        entry = _as_object(entry, "devices", "device entry")
        node = entry.get("node")
        if not (isinstance(node, str) and node in nodes):
            raise DanglingEndpoint(str(node))
        if node in seen_device_nodes:
            raise DuplicateId(node)
        groups: dict[str, PortSpec] = {}  # keyed as the snapshot names groups
        for port in _as_list(entry.get("ports", []), node, "ports"):
            port = _as_object(port, node, "port group")
            port_type = _as_name(port.get("type"), node, "port type")
            where = f"{node}:{port_type}"
            gbps = _as_positive(port.get("gbps"), InvalidCapacity, where,
                                "port gbps must be a finite number > 0")
            count = _as_int(port.get("count"), where, "port count")
            if count < 1:
                raise InvalidCapacity(where, "port count must be >= 1")
            group = PortSpec(port_type, gbps, count)
            label = group.label
            if label in groups:
                raise DuplicateId(f"{node}:{label}")
            groups[label] = group
        seen_device_nodes.add(node)
        devices.append(DeviceProfile(node, tuple(groups.values())))

    return NetworkTopology(frozenset(nodes), tuple(links), tuple(devices))


def request_from_dict(raw: Mapping) -> SliceRequest:
    """Parse one slice request from its external JSON shape."""
    raw = _as_object(raw, "request", "request")
    rid = _as_name(raw.get("id"), "request", "request id")
    ports = _as_object(raw.get("client_ports"), rid, "client_ports")
    control = raw.get("control", False)
    if not isinstance(control, bool):
        raise ValidationError(rid, "control must be a boolean")
    # Positional arguments: keywords cost more per row, and the arguments are
    # still read, and checked, in field order.
    return SliceRequest(
        rid,
        _as_name(raw.get("src"), rid, "src"),
        _as_name(raw.get("dst"), rid, "dst"),
        control,
        _as_int(raw.get("disjoint_paths"), rid, "disjoint_paths"),
        PortSpec(
            _as_name(ports.get("type"), rid, "client_ports.type"),
            _as_positive(ports.get("gbps"), ValidationError, rid,
                         "client_ports.gbps must be a finite number > 0"),
            _as_int(ports.get("count"), rid, "client_ports.count"),
        ),
        _as_int(raw.get("calendar_slots"), rid, "calendar_slots"),
        raw.get("weights"),
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
        if not any(group.port_type == spec.port_type and group.gbps == spec.gbps
                   for group in device.port_groups):
            raise NoMatchingPorts(node, spec.port_type, spec.gbps)


def derive_bounds(request: SliceRequest, search: DisjointSearch, least_slots: int,
                  residual_ports: Mapping[tuple[str, str, float], int]) -> TraitBounds:
    """Resolve per-request trait ranges against the network ``search`` sees:
    it fixes the topology, the mode, the links it does not block and the
    SRLG budget (1000 heap pops by default).

    Upper bounds: the diversity ``search.count()`` finds, which resumes its
    flow and ends its ``paths()``; the smaller residual inventory of the
    matching port group at the two endpoints; and ``least_slots``, the least
    residual slot pool of the links the search does not block (0 if none).
    The controller passes the admission's search and its live ledger's
    ``least_residual``; an unrestricted search with a fresh ledger's
    ``least_residual(0)`` and ports gives the ranges of the topology as built.

    Raises NoDevice when an endpoint has no device profile and
    NoMatchingPorts when no port group matches the requested kind.
    """
    _check_endpoint_ports(search.topology, request)
    spec = request.client_ports
    ports = min(residual_ports.get((node, spec.port_type, spec.gbps), 0)
                for node in (request.src, request.dst))
    return TraitBounds(
        mode=BoundsMode.DERIVED,
        topology=Bound(DIMENSION_FLOORS["topology"], search.count()),
        device=Bound(DIMENSION_FLOORS["device"], ports),
        data_plane=Bound(DIMENSION_FLOORS["data_plane"], least_slots),
    )
