"""Exception hierarchy shared by every module in the package.

Error class names double as stable rejection-reason identifiers in
controller records and scenario reports, so renaming one is a breaking
change for golden-file consumers.
"""

from __future__ import annotations


class TnscError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def reason(self) -> str:
        return type(self).__name__

    def detail(self) -> dict:
        """Structured payload for report entries. Subclasses override."""
        return {}


# ---------------------------------------------------------------------------
# Topology and model validation
# ---------------------------------------------------------------------------


class ValidationError(TnscError, ValueError):
    """Malformed input or argument; also a ValueError for library callers."""

    def __init__(self, element: str, message: str):
        super().__init__(f"{element}: {message}")
        self.element = element
        self.message = message

    def detail(self) -> dict:
        return {"element": self.element, "message": self.message}


class DanglingEndpoint(TnscError):
    """A link or device references a node absent from the node set."""

    def __init__(self, element: str):
        super().__init__(f"unknown node referenced: {element!r}")
        self.element = element

    def detail(self) -> dict:
        return {"element": self.element}


class DuplicateId(TnscError):
    """Two topology elements collide on an identifier or endpoint pair."""

    def __init__(self, element: str):
        super().__init__(f"duplicate identifier: {element!r}")
        self.element = element

    def detail(self) -> dict:
        return {"element": self.element}


class InvalidCapacity(TnscError):
    """A link or port group declares a non-positive capacity."""

    def __init__(self, element: str, message: str = "invalid capacity"):
        super().__init__(f"{message}: {element!r}")
        self.element = element

    def detail(self) -> dict:
        return {"element": self.element}


class NoDevice(TnscError):
    """A slice endpoint has no device profile to allocate ports from."""

    def __init__(self, node: str):
        super().__init__(f"no device profile at node {node!r}")
        self.node = node

    def detail(self) -> dict:
        return {"node": self.node}


class NoMatchingPorts(TnscError):
    """The endpoint device has no port group of the requested kind."""

    def __init__(self, node: str, port_type: str, gbps: float):
        super().__init__(
            f"device at {node!r} has no {port_type!r} port group at {gbps:g} Gbps"
        )
        self.node = node
        self.port_type = port_type
        self.gbps = gbps

    def detail(self) -> dict:
        return {"node": self.node, "port_type": self.port_type, "gbps": self.gbps}


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


class OutOfRange(TnscError):
    """A requested trait value falls outside its admissible [l, h] range."""

    def __init__(self, r: int, l: int, h: int, dimension: str | None = None,
                 slice_id: str | None = None):
        where = f" on dimension {dimension!r}" if dimension else ""
        whom = f" for slice {slice_id!r}" if slice_id else ""
        super().__init__(f"value {r} outside [{l}, {h}]{where}{whom}")
        self.r = r
        self.l = l
        self.h = h
        self.dimension = dimension
        self.slice_id = slice_id

    def detail(self) -> dict:
        out: dict = {"r": self.r, "l": self.l, "h": self.h}
        if self.dimension is not None:
            out["dimension"] = self.dimension
        if self.slice_id is not None:
            out["slice"] = self.slice_id
        return out


class NonPositiveWeight(ValidationError):
    """A merge weight is not a finite number greater than 0."""

    def __init__(self, dimension: str, weight: float):
        super().__init__(dimension,
                         f"weight must be a finite number > 0, got {weight!r}")
        self.dimension = dimension
        self.weight = weight

    def detail(self) -> dict:
        return {"dimension": self.dimension, "weight": self.weight}


class UnknownDimension(ValidationError):
    """A weight or vector names a dimension outside the fixed three."""

    def __init__(self, dimension: str):
        super().__init__(dimension, "unknown vector dimension")
        self.dimension = dimension

    def detail(self) -> dict:
        return {"dimension": self.dimension}


# ---------------------------------------------------------------------------
# Path computation
# ---------------------------------------------------------------------------


class InsufficientDiversity(TnscError):
    """Fewer pairwise-disjoint paths exist than requested.

    ``budget_exhausted`` marks the conservative outcome of the bounded
    risk-group search: the answer may be "not found" rather than
    "does not exist".
    """

    def __init__(self, requested: int, found: int, budget_exhausted: bool = False):
        note = " (search budget exhausted)" if budget_exhausted else ""
        super().__init__(f"found {found} disjoint paths, need {requested}{note}")
        self.requested = requested
        self.found = found
        self.budget_exhausted = budget_exhausted

    def detail(self) -> dict:
        return {
            "requested": self.requested,
            "found": self.found,
            "budget_exhausted": self.budget_exhausted,
        }


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------


class PortExhausted(TnscError):
    """Residual client ports at an endpoint device cannot cover the request."""

    def __init__(self, node: str, needed: int, available: int):
        super().__init__(
            f"device at {node!r} has {available} matching ports, need {needed}"
        )
        self.node = node
        self.needed = needed
        self.available = available

    def detail(self) -> dict:
        return {"node": self.node, "needed": self.needed,
                "available": self.available}


class SlotExhausted(TnscError):
    """Calendar-slot residuals block every sufficiently diverse path set."""

    def __init__(self, needed: int):
        super().__init__(f"no diverse path set has {needed} residual slots per link")
        self.needed = needed

    def detail(self) -> dict:
        return {"needed": self.needed}


class ControlExhausted(TnscError):
    """The configured cap on dedicated control contexts is already reached."""

    def __init__(self, limit: int):
        super().__init__(f"control context limit {limit} reached")
        self.limit = limit

    def detail(self) -> dict:
        return {"limit": self.limit}


class UnknownSlice(TnscError):
    def __init__(self, slice_id: str):
        super().__init__(f"unknown slice {slice_id!r}")
        self.slice_id = slice_id

    def detail(self) -> dict:
        return {"slice": self.slice_id}


class AlreadyReleased(TnscError):
    def __init__(self, slice_id: str):
        super().__init__(f"slice {slice_id!r} holds no allocation to release")
        self.slice_id = slice_id

    def detail(self) -> dict:
        return {"slice": self.slice_id}


class UnknownLink(TnscError):
    def __init__(self, link_id: str):
        super().__init__(f"unknown link {link_id!r}")
        self.link_id = link_id

    def detail(self) -> dict:
        return {"link": self.link_id}


class StaleSequence(TnscError):
    def __init__(self, seq: int, last_seq: int):
        super().__init__(f"event seq {seq} not greater than last processed {last_seq}")
        self.seq = seq
        self.last_seq = last_seq

    def detail(self) -> dict:
        return {"seq": self.seq, "last_seq": self.last_seq}


# ---------------------------------------------------------------------------
# Scenario ingestion
# ---------------------------------------------------------------------------


class ParseError(TnscError):
    def __init__(self, source: str, message: str):
        super().__init__(f"{source}: {message}")
        self.source = source
        self.message = message

    def detail(self) -> dict:
        return {"source": self.source, "message": self.message}
