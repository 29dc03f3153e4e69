from __future__ import annotations

import copy
import pickle
import random
from types import MappingProxyType

import pytest

from tnsc import (
    DERIVED_BOUNDS,
    AllocationState,
    Bound,
    BoundsMode,
    Controller,
    DisjointSearch,
    DisjointnessMode,
    Path,
    PortSpec,
    ResourceLedger,
    SliceRequest,
    TraitBounds,
    bounds_from_dict,
    build_vector,
    derive_bounds,
    evaluate,
    max_disjoint_count,
    validate_topology,
)
from tnsc.errors import (
    DanglingEndpoint,
    DuplicateId,
    InvalidCapacity,
    NoDevice,
    NoMatchingPorts,
    OutOfRange,
    UnknownDimension,
    ValidationError,
)

from .conftest import make_request, make_topology
from .oracles import random_connected_dict


FOUR_CYCLE = {
    "nodes": ["A", "B", "C", "D"],
    "links": [
        {"id": "L_AB", "a": "A", "b": "B"},
        {"id": "L_BC", "a": "B", "b": "C"},
        {"id": "L_CD", "a": "C", "b": "D"},
        {"id": "L_DA", "a": "D", "b": "A"},
    ],
    "devices": [
        {"node": "A", "ports": [{"type": "10GE", "gbps": 10, "count": 24}]},
        {"node": "C", "ports": [{"type": "10GE", "gbps": 10, "count": 24}]},
    ],
}


class TestValidateTopology:
    def test_well_formed_four_cycle(self):
        topology = validate_topology(FOUR_CYCLE)
        assert len(topology.nodes) == 4
        assert len(topology.links) == 4
        assert topology.link_by_id["L_AB"].slot_capacity == 20
        assert topology.link_by_id["L_AB"].slot_gbps == 5.0
        assert topology.link_by_id["L_AB"].srlgs == frozenset()

    def test_dangling_endpoint(self):
        raw = {"nodes": ["A"], "links": [{"id": "L1", "a": "A", "b": "Z"}]}
        with pytest.raises(DanglingEndpoint) as err:
            validate_topology(raw)
        assert err.value.element == "Z"

    def test_duplicate_link_id(self):
        raw = {
            "nodes": ["A", "B", "C"],
            "links": [
                {"id": "L1", "a": "A", "b": "B"},
                {"id": "L1", "a": "B", "b": "C"},
            ],
        }
        with pytest.raises(DuplicateId) as err:
            validate_topology(raw)
        assert err.value.element == "L1"

    def test_duplicate_node(self):
        with pytest.raises(DuplicateId):
            validate_topology({"nodes": ["A", "A"]})

    def test_parallel_links_rejected(self):
        raw = {
            "nodes": ["A", "B"],
            "links": [
                {"id": "L1", "a": "A", "b": "B"},
                {"id": "L2", "a": "B", "b": "A"},
            ],
        }
        with pytest.raises(DuplicateId) as err:
            validate_topology(raw)
        assert err.value.element == "L2"

    def test_self_loop_rejected(self):
        raw = {"nodes": ["A"], "links": [{"id": "L1", "a": "A", "b": "A"}]}
        with pytest.raises(ValidationError):
            validate_topology(raw)

    def test_invalid_slot_capacity(self):
        raw = {
            "nodes": ["A", "B"],
            "links": [{"id": "L1", "a": "A", "b": "B", "slot_capacity": 0}],
        }
        with pytest.raises(InvalidCapacity) as err:
            validate_topology(raw)
        assert err.value.element == "L1"

    def test_device_at_unknown_node(self):
        raw = {"nodes": ["A"], "links": [], "devices": [{"node": "Z", "ports": []}]}
        with pytest.raises(DanglingEndpoint):
            validate_topology(raw)

    def test_two_devices_one_node(self):
        raw = {
            "nodes": ["A"],
            "links": [],
            "devices": [{"node": "A", "ports": []}, {"node": "A", "ports": []}],
        }
        with pytest.raises(DuplicateId):
            validate_topology(raw)

    def test_duplicate_port_group(self):
        raw = {
            "nodes": ["A"],
            "links": [],
            "devices": [{
                "node": "A",
                "ports": [
                    {"type": "10GE", "gbps": 10, "count": 4},
                    {"type": "10GE", "gbps": 10, "count": 8},
                ],
            }],
        }
        with pytest.raises(DuplicateId):
            validate_topology(raw)

    def test_port_groups_named_alike_rejected(self):
        # 100 and 100.0000001 differ as floats but both read GE@100, so the
        # snapshot would fold the second group into the first.
        raw = {
            "nodes": ["A"],
            "devices": [{
                "node": "A",
                "ports": [
                    {"type": "GE", "gbps": 100.0, "count": 1},
                    {"type": "GE", "gbps": 100.0000001, "count": 5},
                ],
            }],
        }
        with pytest.raises(DuplicateId) as err:
            validate_topology(raw)
        assert err.value.element == "A:GE@100"

    def test_negative_srlg_tag(self):
        raw = {
            "nodes": ["A", "B"],
            "links": [{"id": "L1", "a": "A", "b": "B", "srlgs": [-1]}],
        }
        with pytest.raises(ValidationError):
            validate_topology(raw)


class TestSliceRequest:
    def test_same_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            make_request(src="A", dst="A")

    def test_single_path_rejected(self):
        with pytest.raises(ValidationError):
            make_request(p=1)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValidationError):
            make_request(s=0)

    def test_unknown_weight_dimension_rejected(self):
        with pytest.raises(ValidationError):
            make_request(weights={"colour": 1.0})


class TestRequestValueSemantics:
    """Both types are named tuples whose checks no copy or edit skips."""

    def test_fields_cannot_be_assigned(self):
        request = make_request(weights={"device": 2})
        for value in (request, request.client_ports):
            for field in (*value._fields, "note"):
                with pytest.raises(AttributeError):
                    setattr(value, field, getattr(value, field, None))

    def test_construct_by_position_and_keyword(self):
        ports = PortSpec("10GE", 10.0, 15)
        assert ports == PortSpec(port_type="10GE", gbps=10.0, count=15) == ("10GE", 10.0, 15)
        assert ports.label == "10GE@10"
        request = SliceRequest("TS_1", "A", "C", True, 2, ports, 2)
        assert request == make_request() == ("TS_1", "A", "C", True, 2, ports, 2, None)
        assert request.trait("device") == 15

    def test_replace_and_make_check_again(self):
        request = make_request()
        with pytest.raises(ValidationError, match="src and dst must differ"):
            request._replace(dst=request.src)
        with pytest.raises(ValidationError, match="disjoint_paths must be at least 2"):
            request._replace(disjoint_paths=1)
        with pytest.raises(UnknownDimension):
            request._replace(weights={"bogus": 1})
        with pytest.raises(ValidationError, match="calendar_slots must be at least 1"):
            SliceRequest._make((*request[:6], 0, None))
        edited = request._replace(weights=MappingProxyType({"device": 2}))
        assert type(edited) is SliceRequest
        assert type(edited.weights) is dict and edited.weights == {"device": 2.0}
        assert SliceRequest._make(edited) == edited

    def test_weighted_request_is_unhashable(self):
        assert hash(make_request()) == hash(make_request())
        with pytest.raises(TypeError):
            hash(make_request(weights={"device": 2}))

    def test_pickle_and_copy_round_trip(self):
        for request in (make_request(), make_request(weights={"device": 2})):
            for twin in (pickle.loads(pickle.dumps(request)), copy.copy(request),
                         copy.deepcopy(request)):
                assert twin == request and type(twin) is SliceRequest
                assert type(twin.client_ports) is PortSpec


class TestTraitBounds:
    def test_static_requires_ordered_bounds(self):
        with pytest.raises(ValidationError):
            TraitBounds(mode=BoundsMode.STATIC, topology=Bound(4, 2),
                        device=Bound(1, 24), data_plane=Bound(1, 20))

    def test_topology_floor_is_two(self):
        with pytest.raises(ValidationError):
            TraitBounds(mode=BoundsMode.STATIC, topology=Bound(1, 4),
                        device=Bound(1, 24), data_plane=Bound(1, 20))

    def test_bounds_file_parsing(self):
        bounds = bounds_from_dict({
            "mode": "static",
            "topology": {"l": 2, "h": 4},
            "device": {"l": 1, "h": 24},
            "data_plane": {"l": 1, "h": 20},
        })
        assert bounds.topology == Bound(2, 4)
        derived = bounds_from_dict({"mode": "derived"})
        assert derived.mode is BoundsMode.DERIVED
        assert derived.topology.h is None


class TestPath:
    def test_repeated_node_rejected(self):
        with pytest.raises(ValidationError):
            Path(nodes=("A", "B", "A"), links=("L1", "L2"))


def fresh_view(topology, request, mode=DisjointnessMode.LINK_DISJOINT):
    """The network as built, as ``derive_bounds`` arguments after the
    request: an unrestricted search between the request's endpoints and a
    fresh ledger's least residual slots and its ports."""
    ledger = ResourceLedger.from_topology(topology)
    return (DisjointSearch(topology, request.src, request.dst, mode),
            ledger.least_residual(0), ledger.residual_ports)


TWO_RATES = [{"type": "10GE", "gbps": 10, "count": 24},
             {"type": "10GE", "gbps": 100, "count": 6}]


def port_cycle(ports=TWO_RATES):
    """The four-cycle with the same port groups at A and C."""
    return validate_topology(dict(FOUR_CYCLE, devices=[
        {"node": node, "ports": ports} for node in "AC"]))


def port_request(port_type, gbps, count=2):
    return SliceRequest(id="TS_1", src="A", dst="C", control=False,
                        disjoint_paths=2, client_ports=PortSpec(port_type, gbps, count),
                        calendar_slots=1)


class TestExactPortMatching:
    """A demand is served only by a group of its own type and bitrate."""

    def test_demand_takes_its_own_rate(self):
        topology = port_cycle()
        request = port_request("10GE", 100.0)
        assert derive_bounds(request, *fresh_view(topology, request)).device \
            == Bound(1, 6)
        controller = Controller(topology)
        record = controller.admit(request)
        assert record.state is AllocationState.ACTIVE
        assert record.ports_per_device == {"A": request.client_ports,
                                           "C": request.client_ports}
        assert controller.ledger.residual_ports[("A", "10GE", 100.0)] == 4
        assert controller.ledger.residual_ports[("A", "10GE", 10.0)] == 24

    def test_rate_no_group_offers(self):
        topology = port_cycle()
        request = port_request("10GE", 40.0)
        with pytest.raises(NoMatchingPorts) as err:
            derive_bounds(request, *fresh_view(topology, request))
        assert err.value.detail() == {"node": "A", "port_type": "10GE", "gbps": 40.0}
        [row] = evaluate([request], DERIVED_BOUNDS, topology=topology)
        assert row["status"] == "NoMatchingPorts"
        assert row["error"] == err.value.detail()
        assert row["index"] is None

    def test_near_equal_rate_is_another_kind(self):
        topology = port_cycle([{"type": "GE", "gbps": 100.0000001, "count": 4}])
        request = port_request("GE", 100.0)
        controller = Controller(topology)
        assert list(controller.snapshot()["devices"]["A"]) == ["GE@100"]
        with pytest.raises(NoMatchingPorts):
            derive_bounds(request, *fresh_view(topology, request))
        assert controller.admit(request).rejection.reason == "PortExhausted"

    def test_snapshot_names_each_group(self):
        controller = Controller(port_cycle())
        controller.admit(port_request("10GE", 100.0))
        assert controller.snapshot()["devices"]["A"] == {
            "10GE@10": {"inventory": 24, "residual": 24, "used": 0},
            "10GE@100": {"inventory": 6, "residual": 4, "used": 2},
        }


class TestDeriveBounds:
    def test_four_cycle_reference_values(self, four_cycle):
        # Max-flow on the 4-cycle gives exactly 2 disjoint A-C paths.
        request = make_request()
        bounds = derive_bounds(request, *fresh_view(four_cycle, request))
        assert bounds.topology == Bound(2, 2)
        assert bounds.device == Bound(1, 24)
        assert bounds.data_plane == Bound(1, 20)
        assert bounds.mode is BoundsMode.DERIVED

    def test_missing_device(self):
        topology = make_topology("AB", [("L1", "A", "B")], [("A", 4)])
        request = make_request(src="A", dst="B")
        with pytest.raises(NoDevice) as err:
            derive_bounds(request, *fresh_view(topology, request))
        assert err.value.node == "B"

    def test_no_matching_ports(self):
        topology = make_topology(
            "AB", [("L1", "A", "B")],
            [{"node": "A", "ports": [{"type": "100GE", "gbps": 100, "count": 2}]},
             ("B", 4)],
        )
        request = make_request(src="A", dst="B")
        with pytest.raises(NoMatchingPorts):
            derive_bounds(request, *fresh_view(topology, request))

    def test_single_link_yields_unreachable_range(self):
        # One path only: h=1 < l=2 comes back as-is and the infeasibility
        # surfaces at normalization.
        topology = make_topology("AB", [("L1", "A", "B")], [("A", 24), ("B", 24)])
        request = make_request(src="A", dst="B")
        bounds = derive_bounds(request, *fresh_view(topology, request))
        assert bounds.topology == Bound(2, 1)
        with pytest.raises(OutOfRange) as err:
            build_vector(request, bounds)
        assert err.value.dimension == "topology"

    def test_node_mode_matches_link_mode_on_cycle(self, four_cycle):
        request = make_request()
        bounds = derive_bounds(request, *fresh_view(four_cycle, request,
                                                    DisjointnessMode.NODE_DISJOINT))
        assert bounds.topology == Bound(2, 2)

    def test_view_search_mode_governs(self):
        # Two link-disjoint A-C paths must share the cut node M here.
        topology = make_topology(
            "ABCDME",
            [("L_AB", "A", "B"), ("L_BM", "B", "M"), ("L_AD", "A", "D"),
             ("L_DM", "D", "M"), ("L_MC", "M", "C"), ("L_ME", "M", "E"),
             ("L_EC", "E", "C")],
            [("A", 24), ("C", 24)],
        )
        request = make_request()
        for mode, diversity in ((DisjointnessMode.LINK_DISJOINT, 2),
                                (DisjointnessMode.NODE_DISJOINT, 1)):
            bounds = derive_bounds(request, *fresh_view(topology, request, mode))
            assert bounds.topology == Bound(2, diversity)

    @pytest.mark.parametrize("mode", [DisjointnessMode.LINK_DISJOINT,
                                      DisjointnessMode.NODE_DISJOINT])
    def test_fresh_view_matches_nominal_oracle(self, mode):
        # A search over a fresh ledger sees the network as built: the diversity
        # max_disjoint_count finds, the smaller matching inventory and the
        # smallest slot pool, on 200 random graphs of 10-40 nodes.
        rng = random.Random(f"derive-bounds-{mode.value}")
        checked = 0
        while checked < 200:
            raw = random_connected_dict(rng, max_nodes=40)
            if len(raw["nodes"]) < 10:
                continue
            for link in raw["links"]:
                link["slot_capacity"] = rng.randint(1, 40)
            ports = {node: rng.randint(1, 48) for node in raw["nodes"]}
            raw["devices"] = [
                {"node": node, "ports": [{"type": "10GE", "gbps": 10, "count": count},
                                         {"type": "100GE", "gbps": 100,
                                          "count": rng.randint(1, 48)}]}
                for node, count in ports.items()
            ]
            topology = validate_topology(raw)
            src, dst = rng.sample(raw["nodes"], 2)
            request = make_request(src=src, dst=dst)
            bounds = derive_bounds(request, *fresh_view(topology, request, mode))
            assert bounds.topology == Bound(2, max_disjoint_count(topology, src, dst, mode))
            assert bounds.device == Bound(1, min(ports[src], ports[dst]))
            assert bounds.data_plane == Bound(
                1, min(link["slot_capacity"] for link in raw["links"]))
            checked += 1
