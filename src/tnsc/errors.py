"""Exception hierarchy shared by every module in the package.

Error class names double as stable rejection-reason identifiers in
controller records and scenario reports, so renaming one is a breaking
change for golden-file consumers.
"""

from inspect import Parameter, Signature


class TnscError(Exception):
    """Base class for all domain errors raised by this package.

    A subclass declares its data, not code. ``fields`` names the constructor
    parameters in order, ``defaults`` gives the trailing optional ones, and
    the values become ``args`` and attributes. ``str(err)`` formats
    ``template`` with the fields by name, and with the error itself as
    ``{0}``, when it is asked for, not when the error is built. ``detail()``
    maps each field to its value, renamed by ``renames``, leaving out the
    ``hidden`` fields and any field that defaults to None while it is None.
    """

    fields: tuple[str, ...] = ()
    defaults: tuple = ()
    template = ""
    renames = {"slice_id": "slice", "link_id": "link"}
    hidden: tuple[str, ...] = ()
    __signature__ = Signature()

    def __init_subclass__(cls):
        required = (Parameter.empty,) * (len(cls.fields) - len(cls.defaults))
        cls.__signature__ = Signature([
            Parameter(name, Parameter.POSITIONAL_OR_KEYWORD, default=default)
            for name, default in zip(cls.fields, required + cls.defaults)])

    def __init__(self, *args, **kwargs):
        # Signature.bind takes microseconds; positional calls skip it.
        missing = len(self.fields) - len(args)
        if kwargs or not 0 <= missing <= len(self.defaults):
            bound = self.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            self.args = args = tuple(bound.arguments.values())
        elif missing:
            self.args = args = args + self.defaults[-missing:]
        self.__dict__.update(zip(self.fields, args))

    def __str__(self) -> str:
        return self.template.format(self, **self.__dict__)

    @property
    def reason(self) -> str:
        return type(self).__name__

    def detail(self) -> dict:
        """Structured payload for report entries."""
        parameters = self.__signature__.parameters
        return {self.renames.get(name, name): value
                for name, value in zip(self.fields, self.args) if name not in self.hidden
                and not (value is None and parameters[name].default is None)}


# ---------------------------------------------------------------------------
# Topology and model validation
# ---------------------------------------------------------------------------


class ValidationError(TnscError, ValueError):
    """Malformed input or argument; also a ValueError for library callers."""

    fields = ("element", "message")
    template = "{0.element}: {0.message}"


class DanglingEndpoint(TnscError):
    """A link or device references a node absent from the node set."""

    fields = ("element",)
    template = "unknown node referenced: {element!r}"


class DuplicateId(TnscError):
    """Two topology elements collide on an identifier or endpoint pair."""

    fields = ("element",)
    template = "duplicate identifier: {element!r}"


class InvalidCapacity(TnscError):
    """A link or port group declares a non-positive capacity."""

    fields = ("element", "message")
    defaults = ("invalid capacity",)
    template = "{message}: {element!r}"
    hidden = ("message",)


class NoDevice(TnscError):
    """A slice endpoint has no device profile to allocate ports from."""

    fields = ("node",)
    template = "no device profile at node {node!r}"


class NoMatchingPorts(TnscError):
    """The endpoint device has no port group of the requested kind."""

    fields = ("node", "port_type", "gbps")
    template = "device at {node!r} has no {port_type!r} port group at {gbps:g} Gbps"


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


class OutOfRange(TnscError):
    """A requested trait value falls outside its admissible [l, h] range."""

    fields = ("r", "l", "h", "dimension", "slice_id")
    defaults = (None, None)

    def __str__(self) -> str:
        where = f" on dimension {self.dimension!r}" if self.dimension else ""
        whom = f" for slice {self.slice_id!r}" if self.slice_id else ""
        return f"value {self.r} outside [{self.l}, {self.h}]{where}{whom}"


class NonPositiveWeight(ValidationError):
    """A merge weight is not a finite number greater than 0."""

    fields = ("dimension", "weight")
    element = property(lambda self: self.dimension)
    message = property(
        lambda self: f"weight must be a finite number > 0, got {self.weight!r}")


class UnknownDimension(ValidationError):
    """A weight or vector names a dimension outside the fixed three."""

    fields = ("dimension",)
    element = property(lambda self: self.dimension)
    message = "unknown vector dimension"


# ---------------------------------------------------------------------------
# Path computation
# ---------------------------------------------------------------------------


class InsufficientDiversity(TnscError):
    """Fewer pairwise-disjoint paths exist than requested.

    ``budget_exhausted`` marks the conservative outcome of the bounded
    risk-group search: the answer may be "not found" rather than
    "does not exist".
    """

    fields = ("requested", "found", "budget_exhausted")
    defaults = (False,)

    def __str__(self) -> str:
        note = " (search budget exhausted)" if self.budget_exhausted else ""
        return f"found {self.found} disjoint paths, need {self.requested}{note}"


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------


class PortExhausted(TnscError):
    """Residual client ports at an endpoint device cannot cover the request."""

    fields = ("node", "needed", "available")
    template = "device at {node!r} has {available} matching ports, need {needed}"


class SlotExhausted(TnscError):
    """Calendar-slot residuals block every sufficiently diverse path set."""

    fields = ("needed",)
    template = "no diverse path set has {needed} residual slots per link"


class ControlExhausted(TnscError):
    """The configured cap on dedicated control contexts is already reached."""

    fields = ("limit",)
    template = "control context limit {limit} reached"


class UnknownSlice(TnscError):
    fields = ("slice_id",)
    template = "unknown slice {slice_id!r}"


class AlreadyReleased(TnscError):
    fields = ("slice_id",)
    template = "slice {slice_id!r} holds no allocation to release"


class UnknownLink(TnscError):
    fields = ("link_id",)
    template = "unknown link {link_id!r}"


class StaleSequence(TnscError):
    fields = ("seq", "last_seq")
    template = "event seq {seq} not greater than last processed {last_seq}"


# ---------------------------------------------------------------------------
# Scenario ingestion
# ---------------------------------------------------------------------------


class ParseError(TnscError):
    fields = ("source", "message")
    template = "{source}: {message}"
