from __future__ import annotations

import pytest

from tnsc import (
    Bound,
    BoundsMode,
    PortSpec,
    SliceRequest,
    TraitBounds,
    validate_topology,
)

from .oracles import assert_conserved  # noqa: F401  (re-exported for the suites)


def make_topology(nodes, links, devices=()):
    """Compact builder: links as (id, a, b) or (id, a, b, extras dict),
    devices as (node, count) with 24x10GE defaulting, or full dicts."""
    link_entries = []
    for link in links:
        entry = {"id": link[0], "a": link[1], "b": link[2]}
        if len(link) > 3:
            entry.update(link[3])
        link_entries.append(entry)
    device_entries = []
    for device in devices:
        if isinstance(device, dict):
            device_entries.append(device)
        else:
            node, count = device
            device_entries.append(
                {"node": node, "ports": [{"type": "10GE", "gbps": 10, "count": count}]}
            )
    return validate_topology(
        {"nodes": list(nodes), "links": link_entries, "devices": device_entries}
    )


def make_request(rid="TS_1", src="A", dst="C", control=True, p=2, d=15, s=2,
                 weights=None):
    return SliceRequest(
        id=rid, src=src, dst=dst, control=control, disjoint_paths=p,
        client_ports=PortSpec("10GE", 10.0, d), calendar_slots=s, weights=weights,
    )


@pytest.fixture
def four_cycle():
    return make_topology(
        "ABCD",
        [("L_AB", "A", "B"), ("L_BC", "B", "C"), ("L_CD", "C", "D"),
         ("L_DA", "D", "A")],
        [("A", 24), ("C", 24)],
    )


@pytest.fixture
def theta():
    """Three internally disjoint 2-hop routes between A and C."""
    return make_topology(
        "ABCDE",
        [("L_AB", "A", "B"), ("L_AD", "A", "D"), ("L_AE", "A", "E"),
         ("L_BC", "B", "C"), ("L_DC", "D", "C"), ("L_EC", "E", "C")],
        [("A", 30), ("C", 30)],
    )


@pytest.fixture
def table2_bounds():
    return TraitBounds(
        mode=BoundsMode.STATIC,
        topology=Bound(2, 4),
        device=Bound(1, 24),
        data_plane=Bound(1, 20),
    )


@pytest.fixture
def ts1():
    return make_request("TS_1", p=2, d=15, s=2)


@pytest.fixture
def ts2():
    return make_request("TS_2", p=3, d=12, s=3)
