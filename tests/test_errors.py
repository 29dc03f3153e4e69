"""Every error class's public face: reason, message, detail payload,
attributes, constructor signature and class hierarchy.

Reason names and detail keys are written into reports and CLI messages, so
each class has fixed cases here, and a class added without one fails
``test_every_error_class_has_a_case``.
"""

from __future__ import annotations

import inspect

import pytest

import tnsc.errors as errors
from tnsc.errors import (
    AlreadyReleased,
    ControlExhausted,
    DanglingEndpoint,
    DuplicateId,
    InsufficientDiversity,
    InvalidCapacity,
    NoDevice,
    NoMatchingPorts,
    NonPositiveWeight,
    OutOfRange,
    ParseError,
    PortExhausted,
    SlotExhausted,
    StaleSequence,
    TnscError,
    UnknownDimension,
    UnknownLink,
    UnknownSlice,
    ValidationError,
)

_EMPTY = inspect.Parameter.empty
_BASE = ("TnscError", "Exception", "BaseException", "object")
_VALUE = ("ValidationError", "TnscError", "ValueError", "Exception",
          "BaseException", "object")

#: Per class: the MRO by name and the constructor's (name, default) list.
SHAPES = {
    ValidationError: (_VALUE, [("element", _EMPTY), ("message", _EMPTY)]),
    DanglingEndpoint: (("DanglingEndpoint",) + _BASE, [("element", _EMPTY)]),
    DuplicateId: (("DuplicateId",) + _BASE, [("element", _EMPTY)]),
    InvalidCapacity: (("InvalidCapacity",) + _BASE,
                      [("element", _EMPTY), ("message", "invalid capacity")]),
    NoDevice: (("NoDevice",) + _BASE, [("node", _EMPTY)]),
    NoMatchingPorts: (("NoMatchingPorts",) + _BASE,
                      [("node", _EMPTY), ("port_type", _EMPTY), ("gbps", _EMPTY)]),
    OutOfRange: (("OutOfRange",) + _BASE,
                 [("r", _EMPTY), ("l", _EMPTY), ("h", _EMPTY),
                  ("dimension", None), ("slice_id", None)]),
    NonPositiveWeight: (("NonPositiveWeight",) + _VALUE,
                        [("dimension", _EMPTY), ("weight", _EMPTY)]),
    UnknownDimension: (("UnknownDimension",) + _VALUE, [("dimension", _EMPTY)]),
    InsufficientDiversity: (("InsufficientDiversity",) + _BASE,
                            [("requested", _EMPTY), ("found", _EMPTY),
                             ("budget_exhausted", False)]),
    PortExhausted: (("PortExhausted",) + _BASE,
                    [("node", _EMPTY), ("needed", _EMPTY), ("available", _EMPTY)]),
    SlotExhausted: (("SlotExhausted",) + _BASE, [("needed", _EMPTY)]),
    ControlExhausted: (("ControlExhausted",) + _BASE, [("limit", _EMPTY)]),
    UnknownSlice: (("UnknownSlice",) + _BASE, [("slice_id", _EMPTY)]),
    AlreadyReleased: (("AlreadyReleased",) + _BASE, [("slice_id", _EMPTY)]),
    UnknownLink: (("UnknownLink",) + _BASE, [("link_id", _EMPTY)]),
    StaleSequence: (("StaleSequence",) + _BASE,
                    [("seq", _EMPTY), ("last_seq", _EMPTY)]),
    ParseError: (("ParseError",) + _BASE, [("source", _EMPTY), ("message", _EMPTY)]),
}

_WEIGHT = "weight must be a finite number > 0, got "

#: (class, positional args, keyword args, str(err), detail(), attributes).
CASES = [
    (ValidationError, ("bounds", "derived bounds require a topology"), {},
     "bounds: derived bounds require a topology",
     {"element": "bounds", "message": "derived bounds require a topology"},
     {"element": "bounds", "message": "derived bounds require a topology"}),
    (ValidationError, (), {"message": "missing topology", "element": "scenario"},
     "scenario: missing topology",
     {"element": "scenario", "message": "missing topology"},
     {"element": "scenario", "message": "missing topology"}),
    (DanglingEndpoint, ("Z",), {}, "unknown node referenced: 'Z'",
     {"element": "Z"}, {"element": "Z"}),
    (DuplicateId, ("L1",), {}, "duplicate identifier: 'L1'",
     {"element": "L1"}, {"element": "L1"}),
    (InvalidCapacity, ("L1",), {}, "invalid capacity: 'L1'",
     {"element": "L1"}, {"element": "L1"}),
    (InvalidCapacity, ("L1", "slot_capacity must be > 0"), {},
     "slot_capacity must be > 0: 'L1'", {"element": "L1"}, {"element": "L1"}),
    (InvalidCapacity, ("A",), {"message": "port count must be > 0"},
     "port count must be > 0: 'A'", {"element": "A"}, {"element": "A"}),
    (NoDevice, ("A",), {}, "no device profile at node 'A'",
     {"node": "A"}, {"node": "A"}),
    (NoMatchingPorts, ("A", "10GE", 10), {},
     "device at 'A' has no '10GE' port group at 10 Gbps",
     {"node": "A", "port_type": "10GE", "gbps": 10},
     {"node": "A", "port_type": "10GE", "gbps": 10}),
    (NoMatchingPorts, ("B",), {"gbps": 2.5, "port_type": "1GE"},
     "device at 'B' has no '1GE' port group at 2.5 Gbps",
     {"node": "B", "port_type": "1GE", "gbps": 2.5},
     {"node": "B", "port_type": "1GE", "gbps": 2.5}),
    (OutOfRange, (5, 1, 4), {}, "value 5 outside [1, 4]",
     {"r": 5, "l": 1, "h": 4},
     {"r": 5, "l": 1, "h": 4, "dimension": None, "slice_id": None}),
    (OutOfRange, (5, 1, 4, "device"), {},
     "value 5 outside [1, 4] on dimension 'device'",
     {"r": 5, "l": 1, "h": 4, "dimension": "device"},
     {"dimension": "device", "slice_id": None}),
    (OutOfRange, (0, 2, 4), {"dimension": "topology", "slice_id": "TS_1"},
     "value 0 outside [2, 4] on dimension 'topology' for slice 'TS_1'",
     {"r": 0, "l": 2, "h": 4, "dimension": "topology", "slice": "TS_1"},
     {"r": 0, "l": 2, "h": 4, "dimension": "topology", "slice_id": "TS_1"}),
    (OutOfRange, (3, 4, 2), {"slice_id": "S"}, "value 3 outside [4, 2] for slice 'S'",
     {"r": 3, "l": 4, "h": 2, "slice": "S"}, {"dimension": None, "slice_id": "S"}),
    # An empty dimension prints no clause but is still reported.
    (OutOfRange, (9, 1, 2, ""), {}, "value 9 outside [1, 2]",
     {"r": 9, "l": 1, "h": 2, "dimension": ""}, {"dimension": ""}),
    (NonPositiveWeight, ("device", -1), {}, "device: " + _WEIGHT + "-1",
     {"dimension": "device", "weight": -1},
     {"dimension": "device", "weight": -1, "element": "device",
      "message": _WEIGHT + "-1"}),
    (NonPositiveWeight, (), {"weight": "x", "dimension": "topology"},
     "topology: " + _WEIGHT + "'x'", {"dimension": "topology", "weight": "x"},
     {"dimension": "topology", "weight": "x", "element": "topology",
      "message": _WEIGHT + "'x'"}),
    (UnknownDimension, ("latency",), {}, "latency: unknown vector dimension",
     {"dimension": "latency"},
     {"dimension": "latency", "element": "latency",
      "message": "unknown vector dimension"}),
    (InsufficientDiversity, (2, 1), {}, "found 1 disjoint paths, need 2",
     {"requested": 2, "found": 1, "budget_exhausted": False},
     {"requested": 2, "found": 1, "budget_exhausted": False}),
    (InsufficientDiversity, (3, 0, True), {},
     "found 0 disjoint paths, need 3 (search budget exhausted)",
     {"requested": 3, "found": 0, "budget_exhausted": True},
     {"requested": 3, "found": 0, "budget_exhausted": True}),
    (InsufficientDiversity, (2,), {"found": 1, "budget_exhausted": True},
     "found 1 disjoint paths, need 2 (search budget exhausted)",
     {"requested": 2, "found": 1, "budget_exhausted": True},
     {"requested": 2, "found": 1, "budget_exhausted": True}),
    (PortExhausted, ("A", 15, 4), {}, "device at 'A' has 4 matching ports, need 15",
     {"node": "A", "needed": 15, "available": 4},
     {"node": "A", "needed": 15, "available": 4}),
    (SlotExhausted, (2,), {}, "no diverse path set has 2 residual slots per link",
     {"needed": 2}, {"needed": 2}),
    (ControlExhausted, (), {"limit": 1}, "control context limit 1 reached",
     {"limit": 1}, {"limit": 1}),
    (UnknownSlice, ("TS_9",), {}, "unknown slice 'TS_9'",
     {"slice": "TS_9"}, {"slice_id": "TS_9"}),
    (AlreadyReleased, ("TS_1",), {}, "slice 'TS_1' holds no allocation to release",
     {"slice": "TS_1"}, {"slice_id": "TS_1"}),
    (UnknownLink, ("L9",), {}, "unknown link 'L9'", {"link": "L9"}, {"link_id": "L9"}),
    (StaleSequence, (3, 5), {}, "event seq 3 not greater than last processed 5",
     {"seq": 3, "last_seq": 5}, {"seq": 3, "last_seq": 5}),
    (ParseError, ("x.json", "line 1 column 2: Expecting value"), {},
     "x.json: line 1 column 2: Expecting value",
     {"source": "x.json", "message": "line 1 column 2: Expecting value"},
     {"source": "x.json", "message": "line 1 column 2: Expecting value"}),
]


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("tnsc"):
            found += [sub, *_subclasses(sub)]
    return found


def test_every_error_class_has_a_case():
    classes = set(_subclasses(TnscError))
    assert classes == set(SHAPES)
    assert classes == {case[0] for case in CASES}
    assert all(getattr(errors, cls.__name__) is cls for cls in classes)


@pytest.mark.parametrize("cls", list(SHAPES), ids=lambda cls: cls.__name__)
def test_hierarchy_and_signature(cls):
    mro, parameters = SHAPES[cls]
    assert tuple(base.__name__ for base in cls.__mro__) == mro
    assert issubclass(cls, ValueError) == ("ValueError" in mro)
    signature = inspect.signature(cls)
    assert [(p.name, p.default) for p in signature.parameters.values()] == parameters
    assert {p.kind for p in signature.parameters.values()} == {
        inspect.Parameter.POSITIONAL_OR_KEYWORD}
    args = [object()] * len(parameters)
    with pytest.raises(TypeError):
        cls(*args, object())
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls,args,kwargs,text,detail,attributes", CASES,
                         ids=lambda value: getattr(value, "__name__", None))
def test_error_case(cls, args, kwargs, text, detail, attributes):
    err = cls(*args, **kwargs)
    assert isinstance(err, TnscError)
    assert isinstance(err, ValueError) == issubclass(cls, ValidationError)
    assert err.reason == cls.__name__
    assert str(err) == text
    assert err.detail() == detail
    assert list(err.detail()) == list(detail)
    err.detail()["mutated"] = True
    assert err.detail() == detail
    for name, value in attributes.items():
        assert getattr(err, name) == value, name
    with pytest.raises(cls) as caught:
        raise err
    assert f"{caught.value.reason}: {caught.value}" == f"{cls.__name__}: {text}"
