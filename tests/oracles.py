"""Independent reference implementations for cross-checking the library.

Nothing here calls into the search or merge code under test: paths come
from exhaustive enumeration or from the dict-keyed flow engine that the
array engine in ``tnsc.pathfind`` replaced, disjointness from raw set
intersections, and the numeric references from exact rational arithmetic.
``reference_residual_shortest`` is the array Bellman-Ford that the
potentials-based Dijkstra in ``tnsc.pathfind`` replaced, moved here
unchanged but for skipping the masked (None) arcs of a search's residual
network.
The ``Fraction`` harmonic merge and the ``isinstance``-chain canonical
writer are the versions the library's integer merge and type-dispatched
writer replaced, moved here unchanged. So are ``reference_verify_disjoint``,
which checks each hop with ``link_between``, and the controller's per-link
usable-link filter and per-path stale-slice scan, and the scoring path that
one range check per dimension replaced: ``reference_normalize_trait``,
``reference_assess``, ``reference_merge_index`` (over the public, checked
``harmonic_index``) and ``reference_evaluate``. ``ReferencePortSpec``,
``ReferenceSliceRequest`` and ``reference_request_from_dict`` are the frozen
dataclasses and the parser that the checked named tuples replaced; the
parser shares the library's ``_as_*`` readers. So do
``reference_validate_topology``, the topology reader that raised through a
``_require`` helper and built links and devices by keyword, and
``reference_scenario_from_dict``, the scenario reader whose event loop
built each event by keyword and converted its kind twice. Both are kept
unchanged, but for the scenario reader calling the reference topology
reader. ``reference_srlg_disjoint``
is the risk-group search that one resumable walk on ``tnsc.DisjointSearch``
replaced: a backtracking search over name-keyed adjacency, started afresh
with a fresh budget for every call. That name-keyed view (``adjacency``,
``link_between`` and ``path_through``) lives here, since the library walks
only its compiled network. ``ledger_errors`` lists each broken ledger
invariant, which the controller differential counts as mismatches and the
unit and acceptance suites assert through ``assert_conserved``. ``mutate``
breaks a JSON document at random places for the fuzz tests and the
scenario ingestion differential. Like the rest of this module it needs only
the stdlib, so full runs need no pytest.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import random
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from tnsc import AllocationState, DisjointnessMode, NetworkTopology, Path, validate_topology
from tnsc.controller import (
    Controller,
    Event,
    EventKind,
    FailurePolicy,
    ReconfigOrder,
    ReconfigPolicy,
    ResourceLedger,
)
from tnsc.errors import (
    DanglingEndpoint,
    DuplicateId,
    InsufficientDiversity,
    InvalidCapacity,
    NonPositiveWeight,
    OutOfRange,
    TnscError,
    ValidationError,
)
from tnsc.feasibility import (
    Assessment,
    FeasibilityIndex,
    FeasibilityVector,
    TraitValue,
    harmonic_index,
    normalize_falling,
)
from tnsc.model import (
    DEFAULT_SLOT_CAPACITY,
    DEFAULT_SLOT_GBPS,
    DIMENSION_FLOORS,
    DIMENSIONS,
    Bound,
    BoundsMode,
    DeviceProfile,
    Link,
    PortSpec,
    SliceRequest,
    TraitBounds,
    _as_choice,
    _as_int,
    _as_list,
    _as_name,
    _as_object,
    _as_positive,
    _check_endpoint_ports,
    bounds_from_dict,
    derive_bounds,
    request_from_dict,
    weights_from_dict,
)
from tnsc.pathfind import DisjointnessMode, DisjointSearch, verify_disjoint
from tnsc.scenario import Scenario, _index_fields


Adjacency = Mapping[str, Sequence[tuple[str, str]]]


def adjacency(topology: NetworkTopology) -> Adjacency:
    """Per node, its (neighbor, link id) pairs sorted for deterministic walks.
    Build it once per reference call and pass it down."""
    out: dict[str, list[tuple[str, str]]] = {node: [] for node in topology.nodes}
    for link in topology.links:
        out[link.a].append((link.b, link.id))
        out[link.b].append((link.a, link.id))
    for pairs in out.values():
        pairs.sort()
    return out


def link_between(adjacent: Adjacency, a: str, b: str) -> str | None:
    """The id of the link joining ``a`` and ``b``, or None."""
    for neighbor, link_id in adjacent.get(a, ()):
        if neighbor == b:
            return link_id
    return None


def path_through(adjacent: Adjacency, nodes: tuple[str, ...]) -> Path:
    """The path over ``nodes``, each hop's link found by its endpoints."""
    return Path(nodes, tuple(link_between(adjacent, a, b)
                             for a, b in zip(nodes, nodes[1:])))


def enumerate_simple_paths(adjacent: Adjacency, src: str, dst: str):
    """All simple src->dst paths as node tuples, DFS over sorted adjacency."""
    paths = []

    def walk(node, seen, trail):
        if node == dst:
            paths.append(tuple(trail))
            return
        for neighbor, _link in adjacent[node]:
            if neighbor not in seen:
                walk(neighbor, seen | {neighbor}, trail + [neighbor])

    walk(src, {src}, [src])
    return paths


def path_links(adjacent: Adjacency, nodes) -> frozenset[str]:
    return frozenset(link_between(adjacent, a, b) for a, b in zip(nodes, nodes[1:]))


def path_srlgs(topology: NetworkTopology, adjacent: Adjacency, nodes) -> frozenset[int]:
    tags: set[int] = set()
    for link_id in path_links(adjacent, nodes):
        tags |= topology.link_by_id[link_id].srlgs
    return frozenset(tags)


def pair_disjoint(topology: NetworkTopology, adjacent: Adjacency, first, second,
                  mode: DisjointnessMode) -> bool:
    if path_links(adjacent, first) & path_links(adjacent, second):
        return False
    if mode is DisjointnessMode.NODE_DISJOINT:
        if set(first[1:-1]) & set(second[1:-1]):
            return False
    if mode is DisjointnessMode.SRLG_DISJOINT:
        if (path_srlgs(topology, adjacent, first)
                & path_srlgs(topology, adjacent, second)):
            return False
    return True


def exists_k_disjoint(topology: NetworkTopology, src: str, dst: str, k: int,
                      mode: DisjointnessMode) -> bool:
    """Exhaustive search over subsets of simple paths."""
    adjacent = adjacency(topology)
    paths = enumerate_simple_paths(adjacent, src, dst)

    def extend(start: int, chosen: list) -> bool:
        if len(chosen) == k:
            return True
        for i in range(start, len(paths)):
            candidate = paths[i]
            if all(pair_disjoint(topology, adjacent, candidate, have, mode)
                   for have in chosen):
                if extend(i + 1, chosen + [candidate]):
                    return True
        return False

    return extend(0, [])


def max_disjoint_brute(topology: NetworkTopology, src: str, dst: str,
                       mode: DisjointnessMode) -> int:
    count = 0
    while exists_k_disjoint(topology, src, dst, count + 1, mode):
        count += 1
    return count


def min_total_hops(topology: NetworkTopology, src: str, dst: str, k: int,
                   mode: DisjointnessMode) -> int | None:
    """Fewest summed hops over all sets of k pairwise-disjoint simple
    paths, or None when no such set exists."""
    adjacent = adjacency(topology)
    paths = enumerate_simple_paths(adjacent, src, dst)
    best = None

    def extend(start: int, chosen: list, hops: int) -> None:
        nonlocal best
        if len(chosen) == k:
            best = hops if best is None else min(best, hops)
            return
        for i in range(start, len(paths)):
            candidate = paths[i]
            if all(pair_disjoint(topology, adjacent, candidate, have, mode)
                   for have in chosen):
                extend(i + 1, chosen + [candidate], hops + len(candidate) - 1)

    extend(0, [], 0)
    return best


# ---------------------------------------------------------------------------
# Reference flow engine: successive shortest augmenting paths, dict-keyed
# ---------------------------------------------------------------------------

_IN = 0
_OUT = 1


@dataclass
class _Arc:
    u: object
    v: object
    cost: float
    link: str | None
    flow: int = 0


def _residual_shortest(arcs: list[_Arc], source, sink,
                       node_count: int) -> list[tuple[_Arc, bool]] | None:
    """Bellman-Ford over the residual graph (reverse arcs carry negated
    cost). Returns the augmenting steps from source to sink, or None."""
    dist: dict = {source: 0.0}
    pred: dict = {}
    for _ in range(node_count + 1):
        changed = False
        for arc in arcs:
            if arc.flow == 0 and arc.u in dist:
                candidate = dist[arc.u] + arc.cost
                if candidate < dist.get(arc.v, float("inf")):
                    dist[arc.v] = candidate
                    pred[arc.v] = (arc.u, arc, True)
                    changed = True
            if arc.flow == 1 and arc.v in dist:
                candidate = dist[arc.v] - arc.cost
                if candidate < dist.get(arc.u, float("inf")):
                    dist[arc.u] = candidate
                    pred[arc.u] = (arc.v, arc, False)
                    changed = True
        if not changed:
            break
    else:
        raise RuntimeError("negative cycle in residual graph")
    if sink not in dist:
        return None
    steps: list[tuple[_Arc, bool]] = []
    node = sink
    while node != source:
        prev, arc, forward = pred[node]
        steps.append((arc, forward))
        node = prev
    steps.reverse()
    return steps


class ReferenceSearch:
    """Link- and node-disjoint search on ``_Arc`` objects keyed by node id
    or (id, side): every augmentation, the count included, is a
    Bellman-Ford shortest path. ``paths(k)`` and ``count()`` mirror
    ``tnsc.DisjointSearch`` outside risk-group mode."""

    def __init__(self, topology: NetworkTopology, src: str, dst: str,
                 mode: DisjointnessMode, usable_links=None):
        self.topology = topology
        self.src = src
        self.dst = dst
        self.usable = ({link.id for link in topology.links}
                       if usable_links is None else set(usable_links))
        self._flow = 0
        self._split = mode is DisjointnessMode.NODE_DISJOINT
        self._source = (src, _OUT) if self._split else src
        self._sink = (dst, _IN) if self._split else dst
        internal = [_Arc((node, _IN), (node, _OUT), 0.0, None)
                    for node in sorted(topology.nodes)
                    if node not in (src, dst)] if self._split else []
        into = {node: (node, _IN) if self._split else node for node in topology.nodes}
        out = {node: (node, _OUT) if self._split else node for node in topology.nodes}
        self._arcs = internal + [
            arc
            for link in sorted(topology.links, key=lambda l: l.id)
            if link.id in self.usable
            for arc in (_Arc(out[link.a], into[link.b], 1.0, link.id),
                        _Arc(out[link.b], into[link.a], 1.0, link.id))
        ]

    def _augment_to(self, limit: float) -> int:
        node_count = len(self.topology.nodes) * (2 if self._split else 1)
        while self._flow < limit:
            steps = _residual_shortest(self._arcs, self._source, self._sink, node_count)
            if steps is None:
                break
            for arc, forward in steps:
                arc.flow = 1 if forward else 0
            self._flow += 1
        return self._flow

    def _decompose(self, k: int) -> list[Path]:
        outgoing: dict = {}
        for arc in sorted((arc for arc in self._arcs if arc.flow == 1),
                          key=lambda a: (a.v, a.link or "")):
            outgoing.setdefault(arc.u, []).append(arc)

        paths = []
        for _ in range(k):
            nodes = [self.src]
            links: list[str] = []
            key = self._source
            while key != self._sink:
                arc = outgoing[key].pop(0)
                key = arc.v
                if arc.link is not None:
                    nodes.append(key[0] if self._split else key)
                    links.append(arc.link)
            paths.append(Path(nodes=tuple(nodes), links=tuple(links)))
        return paths

    def paths(self, k: int) -> list[Path]:
        """Raises InsufficientDiversity as the library does. Successive
        calls with a growing k extend one flow, as fresh searches would."""
        if self._augment_to(k) < k:
            raise InsufficientDiversity(requested=k, found=self._flow)
        paths = self._decompose(k)
        paths.sort(key=lambda p: (len(p.links), p.nodes))
        return paths

    def count(self) -> int:
        return self._augment_to(math.inf)


def reference_residual_shortest(residual: list[tuple[int, int, int, int] | None], source: int,
                                sink: int, node_count: int) -> list[int] | None:
    """Bellman-Ford with Gauss-Seidel passes over the residual arcs
    (tail, head, cost, index) in list order, skipping masked (None) slots.
    Returns each node's predecessor arc index, or None when the sink is
    unreachable. The arc order and the strict comparison fix which of
    several equal-cost paths is found, and with it every k-set."""
    dist = [math.inf] * node_count
    dist[source] = 0
    pred = [0] * node_count
    for _ in range(node_count + 1):
        changed = False
        for tail, head, cost, index in filter(None, residual):
            candidate = dist[tail] + cost
            if candidate < dist[head]:
                dist[head] = candidate
                pred[head] = index
                changed = True
        if not changed:
            break
    else:
        raise RuntimeError("negative cycle in residual graph")
    return None if dist[sink] == math.inf else pred


def reference_verify_disjoint(topology: NetworkTopology, paths: Sequence[Path],
                              mode: DisjointnessMode) -> bool:
    """``tnsc.verify_disjoint`` finding each hop's link by ``link_between``."""
    if not paths:
        return False
    adjacent = adjacency(topology)
    for path in paths:
        if len(set(path.nodes)) != len(path.nodes):
            return False
        for i, (a, b) in enumerate(zip(path.nodes, path.nodes[1:])):
            if link_between(adjacent, a, b) != path.links[i]:
                return False
    if len({(path.nodes[0], path.nodes[-1]) for path in paths}) > 1:
        return False
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if set(paths[i].links) & set(paths[j].links):
                return False
            if mode is DisjointnessMode.NODE_DISJOINT:
                if set(paths[i].nodes[1:-1]) & set(paths[j].nodes[1:-1]):
                    return False
            if mode is DisjointnessMode.SRLG_DISJOINT:
                tags_i = _link_srlgs(topology, paths[i].links)
                tags_j = _link_srlgs(topology, paths[j].links)
                if tags_i & tags_j:
                    return False
    return True


def _link_srlgs(topology: NetworkTopology, links) -> frozenset[int]:
    return frozenset().union(*(topology.link_by_id[link].srlgs for link in links))


class _BudgetExhausted(Exception):
    pass


class _Budget:
    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> None:
        if self.remaining <= 0:
            raise _BudgetExhausted()
        self.remaining -= 1


def _ordered_simple_paths(adjacent: Adjacency, src: str, dst: str,
                          allowed: set[str], budget: _Budget) -> Iterator[Path]:
    """Yield simple paths in (hop count, node sequence) order. Every heap
    expansion spends one unit of the shared search budget."""
    heap: list[tuple[int, tuple[str, ...]]] = [(0, (src,))]
    while heap:
        budget.spend()
        hops, nodes = heapq.heappop(heap)
        last = nodes[-1]
        if last == dst:
            yield path_through(adjacent, nodes)
            continue
        for neighbor, link_id in adjacent[last]:
            if link_id in allowed and neighbor not in nodes:
                heapq.heappush(heap, (hops + 1, nodes + (neighbor,)))


def reference_srlg_disjoint(topology: NetworkTopology, src: str, dst: str, k: int,
                            usable: frozenset[str], budget_limit: int) -> list[Path]:
    """Backtracking over path choices: each level excludes the links and
    risk groups claimed so far. First full set found wins, so the result is
    deterministic but not necessarily hop-minimal."""
    adjacent = adjacency(topology)
    budget = _Budget(budget_limit)
    deepest = 0

    def search(chosen: list[Path], used_links: frozenset[str],
               used_srlgs: frozenset[int]) -> list[Path] | None:
        nonlocal deepest
        deepest = max(deepest, len(chosen))
        if len(chosen) == k:
            return chosen
        allowed = {
            link_id for link_id in usable
            if link_id not in used_links
            and not (topology.link_by_id[link_id].srlgs & used_srlgs)
        }
        for path in _ordered_simple_paths(adjacent, src, dst, allowed, budget):
            result = search(
                chosen + [path],
                used_links | set(path.links),
                used_srlgs | _link_srlgs(topology, path.links),
            )
            if result is not None:
                return result
        return None

    try:
        result = search([], frozenset(), frozenset())
    except _BudgetExhausted:
        raise InsufficientDiversity(requested=k, found=deepest,
                                    budget_exhausted=True) from None
    if result is None:
        raise InsufficientDiversity(requested=k, found=deepest)
    return list(result)


def blocked_by(topology: NetworkTopology, usable) -> set[str]:
    """The ``blocked_links`` of a search over ``usable`` (every link when None)."""
    return set() if usable is None else set(topology.link_by_id) - set(usable)


def reference_usable_links(ledger, slots_needed: int) -> frozenset[str]:
    """The up links of ``ledger`` with at least ``slots_needed`` slots left,
    one link at a time."""
    return frozenset(
        lid for lid, left in ledger.residual_slots.items()
        if lid not in ledger.down_links and left >= slots_needed
    )


def reference_stale_scan(records: Mapping, link_id: str) -> list[str]:
    """Sorted ids of the active records with a path over ``link_id``,
    walking every record's paths."""
    affected = []
    for slice_id in sorted(records):
        record = records[slice_id]
        if record.state is AllocationState.ACTIVE and any(
            link_id in path.links for path in record.paths
        ):
            affected.append(slice_id)
    return affected


def ledger_errors(controller: Controller) -> list[str]:
    """Every broken ledger invariant, one message each. One pass over the
    active records takes what they hold off capacity."""
    ledger, errors = controller.ledger, []
    active = [record for record in controller.records.values()
              if record.state is AllocationState.ACTIVE]
    slots = {link.id: link.slot_capacity for link in controller.topology.links}
    ports = {(device.node, group.port_type, group.gbps): group.count
             for device in controller.topology.devices for group in device.port_groups}
    for record in active:
        slice_id, request = record.slice_id, controller.requests[record.slice_id]
        covered = {link for path in record.paths for link in path.links}
        if (len(record.paths) != request.disjoint_paths
                or not verify_disjoint(controller.topology, record.paths, controller.mode)):
            errors.append(f"{slice_id} lacks {request.disjoint_paths} disjoint paths")
        if record.slots_per_link != dict.fromkeys(covered, request.calendar_slots):
            errors.append(f"{slice_id} holds slots off its paths or of the wrong count")
        if not record.stale and not ledger.down_links.isdisjoint(covered):
            errors.append(f"{slice_id} crosses a down link")
        for link_id, held in record.slots_per_link.items():
            slots[link_id] = slots.get(link_id, 0) - held
        for node, spec in record.ports_per_device.items():
            key = (node, spec.port_type, spec.gbps)
            ports[key] = ports.get(key, 0) - spec.count
    for name, residual, expected in (("slots", ledger.residual_slots, slots),
                                     ("ports", ledger.residual_ports, ports)):
        if residual != expected:
            keys = sorted({key for key, _ in residual.items() ^ expected.items()})
            errors.append(f"residual {name} not conserved at {keys}")
        if min(residual.values(), default=0) < 0:
            errors.append(f"residual {name} negative")
    filed: dict[int, set[str]] = {}  # each link in its residual's bucket, none empty
    for link_id, left in ledger.residual_slots.items():
        filed.setdefault(left, set()).add(link_id)
    index = ledger.links_by_slots
    if index != filed:
        keys = sorted(key for key in index.keys() | filed.keys()
                      if index.get(key) != filed.get(key))
        errors.append(f"slot index differs from the residual slots at {keys}")
    holders = {record.slice_id for record in active if record.control_context is not None}
    if set(ledger.control_contexts) != holders:
        errors.append(f"control contexts {sorted(ledger.control_contexts)} for {sorted(holders)}")
    return errors


def assert_conserved(controller: Controller) -> None:
    assert not (errors := ledger_errors(controller)), errors


def falling_fraction(r: int, l: int, h: int) -> Fraction:
    if l == h:
        return Fraction(1)
    return 1 - Fraction(r - l, h - l)


def harmonic_fraction(values, weights=None) -> Fraction:
    if weights is None:
        weights = [1] * len(values)
    if any(Fraction(v) == 0 for v in values):
        return Fraction(0)
    total = sum(Fraction(w) for w in weights)
    return total / sum(Fraction(w) / Fraction(v) for w, v in zip(weights, values))


def reference_harmonic_index(values: Sequence[float],
                             weights: Sequence[float] | None = None) -> float:
    """``tnsc.feasibility.harmonic_index`` as exact ``Fraction`` sums."""
    if not values:
        raise ValueError("cannot merge an empty value list")
    if weights is None:
        weights = [1.0] * len(values)
    if len(weights) != len(values):
        raise ValueError("weights and values must have equal length")
    for i, w in enumerate(weights):
        if w <= 0:
            raise NonPositiveWeight(DIMENSIONS[i] if i < len(DIMENSIONS) else str(i), w)
    for v in values:
        if v < 0:
            raise ValueError(f"trait values must be non-negative, got {v!r}")
    if any(v == 0 for v in values):
        return 0.0
    total_weight = sum(Fraction(w) for w in weights)
    denominator = sum(Fraction(w) / Fraction(v) for w, v in zip(weights, values))
    return float(total_weight / denominator)


def reference_normalize_trait(dimension: str, raw: int, bound: Bound) -> TraitValue:
    """Normalize one numeric trait against its range; OutOfRange propagates."""
    if bound.h is None:
        raise ValidationError("bounds", f"bounds for {dimension!r} are unresolved "
                              "(derived mode requires derive_bounds against a topology)")
    value = normalize_falling(raw, bound.l, bound.h)
    return TraitValue(raw=raw, l=bound.l, h=bound.h, value=value)


def reference_assess(request: SliceRequest, bounds: TraitBounds,
                     weights: Mapping[str, float] | None = None) -> Assessment:
    """``tnsc.feasibility.assess`` through a raised and caught OutOfRange
    per failing dimension."""
    traits: dict[str, TraitValue] = {}
    errors = []
    for dim in DIMENSIONS:
        try:
            traits[dim] = reference_normalize_trait(dim, request.trait(dim),
                                                    getattr(bounds, dim))
        except OutOfRange as err:
            errors.append(OutOfRange(err.r, err.l, err.h, dim, request.id))
    if errors:
        return Assessment(request.id, traits, tuple(errors))
    vector = FeasibilityVector(request.id, {"control": request.control}, traits)
    return Assessment(request.id, traits, (), vector, reference_merge_index(
        vector, weights if request.weights is None else request.weights))


def reference_merge_index(vector: FeasibilityVector,
                          weights: Mapping[str, float] | None = None) -> FeasibilityIndex:
    """``tnsc.feasibility.merge_index`` with a fresh unit-weight map and the
    checked ``harmonic_index``."""
    resolved = {dim: 1.0 for dim in DIMENSIONS}
    if weights:
        resolved.update(weights_from_dict(weights, vector.slice_id))
    value = harmonic_index(
        [vector.numeric_traits[dim].value for dim in DIMENSIONS],
        [resolved[dim] for dim in DIMENSIONS],
    )
    return FeasibilityIndex(value=value, weights_used=resolved)


@dataclass(frozen=True)
class ReferencePortSpec:
    """Count client ports of one type and bitrate: a slice's demand, or a
    device's inventory of interchangeable ports."""

    port_type: str
    gbps: float
    count: int

    @property
    def label(self) -> str:
        """The kind's name in reports. ``:g`` rounds near-equal bitrates
        alike, so match on ``(port_type, gbps)``, never on the label."""
        return f"{self.port_type}@{self.gbps:g}"


@dataclass(frozen=True)
class ReferenceSliceRequest:
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
    client_ports: ReferencePortSpec
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


def reference_request_from_dict(raw: Mapping) -> ReferenceSliceRequest:
    """Parse one slice request from its external JSON shape."""
    raw = _as_object(raw, "request", "request")
    rid = _as_name(raw.get("id"), "request", "request id")
    ports = _as_object(raw.get("client_ports"), rid, "client_ports")
    control = raw.get("control", False)
    if not isinstance(control, bool):
        raise ValidationError(rid, "control must be a boolean")
    return ReferenceSliceRequest(
        id=rid,
        src=_as_name(raw.get("src"), rid, "src"),
        dst=_as_name(raw.get("dst"), rid, "dst"),
        control=control,
        disjoint_paths=_as_int(raw.get("disjoint_paths"), rid, "disjoint_paths"),
        client_ports=ReferencePortSpec(
            port_type=_as_name(ports.get("type"), rid, "client_ports.type"),
            gbps=_as_positive(ports.get("gbps"), ValidationError, rid,
                              "client_ports.gbps must be a finite number > 0"),
            count=_as_int(ports.get("count"), rid, "client_ports.count"),
        ),
        calendar_slots=_as_int(raw.get("calendar_slots"), rid, "calendar_slots"),
        weights=raw.get("weights"),
    )


def _require(condition: bool, error: type[TnscError], *args) -> None:
    if not condition:
        raise error(*args)


def reference_validate_topology(raw: Mapping) -> NetworkTopology:
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
        # No parallel links: verify_disjoint matches each hop's link by its endpoints.
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
        groups: dict[str, PortSpec] = {}  # keyed as the snapshot names groups
        for port in _as_list(entry.get("ports", []), node, "ports"):
            port = _as_object(port, node, "port group")
            port_type = _as_name(port.get("type"), node, "port type")
            where = f"{node}:{port_type}"
            gbps = _as_positive(port.get("gbps"), InvalidCapacity, where,
                                "port gbps must be a finite number > 0")
            count = _as_int(port.get("count"), where, "port count")
            _require(count >= 1, InvalidCapacity, where, "port count must be >= 1")
            group = PortSpec(port_type=port_type, gbps=gbps, count=count)
            label = group.label
            _require(label not in groups, DuplicateId, f"{node}:{label}")
            groups[label] = group
        seen_device_nodes.add(node)
        devices.append(DeviceProfile(node=node, port_groups=tuple(groups.values())))

    return NetworkTopology(nodes=frozenset(nodes), links=tuple(links),
                           devices=tuple(devices))


def reference_scenario_from_dict(raw: Mapping) -> Scenario:
    raw = _as_object(raw, "scenario", "scenario")
    if "topology" not in raw:
        raise ValidationError("scenario", "missing topology")
    topology = reference_validate_topology(raw["topology"])
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
            events.append(Event(seq=seq, kind=kind, request=request))
        elif kind is EventKind.REQUEST_RELEASE:
            slice_id = _as_name(entry.get("slice"), f"event {seq}", "slice")
            if slice_id not in arrivals:
                raise ValidationError(f"event {seq}",
                                      f"release of unknown slice {slice_id!r}")
            events.append(Event(seq=seq, kind=kind, slice_id=slice_id))
        else:
            link_id = _as_name(entry.get("link"), f"event {seq}", "link")
            if link_id not in topology.link_by_id:
                raise ValidationError(f"event {seq}", f"unknown link {link_id!r}")
            events.append(Event(seq=seq, kind=kind, link_id=link_id))

    return Scenario(topology=topology, bounds=bounds, mode=mode, policy=policy,
                    events=tuple(events))


def reference_evaluate(requests: Sequence[SliceRequest], bounds: TraitBounds,
                       weights: Mapping[str, float] | None = None,
                       topology: NetworkTopology | None = None,
                       mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT) -> list[dict]:
    """``tnsc.scenario.evaluate`` that pre-fills every cell with None and
    overwrites it from ``reference_assess``."""
    ledger = (ResourceLedger.from_topology(topology)
              if bounds.mode is BoundsMode.DERIVED and topology is not None else None)
    rows = []
    for request in requests:
        row: dict = {"slice": request.id, "control": request.control,
                     "status": "ok", "error": None,
                     "index": None, "index_display": None}
        for dim in DIMENSIONS:
            row[dim] = {"r": None, "l": None, "h": None, "value": None}
        try:
            if bounds.mode is BoundsMode.DERIVED:
                if topology is None:
                    raise ValidationError("bounds",
                                          "derived bounds require a topology")
                # The search rejects endpoints that are not nodes, so the
                # device checks run first and keep their reasons.
                _check_endpoint_ports(topology, request)
                resolved = derive_bounds(
                    request, DisjointSearch(topology, request.src, request.dst, mode),
                    min(ledger.residual_slots.values(), default=0), ledger.residual_ports)
            else:
                resolved = bounds
        except TnscError as err:
            for dim in DIMENSIONS:
                row[dim]["r"] = request.trait(dim)
            row["status"] = err.reason
            row["error"] = err.detail()
            rows.append(row)
            continue

        # The row shows each value that normalizes; the last failing
        # dimension's error stands, without the slice id the row names.
        assessment = reference_assess(request, resolved, weights)
        for dim, trait in assessment.traits.items():
            cell = row[dim]
            cell["r"], cell["l"], cell["h"], cell["value"] = (
                trait.raw, trait.l, trait.h, trait.value)
        for err in assessment.errors:
            cell = row[err.dimension]
            cell["r"], cell["l"], cell["h"] = err.r, err.l, err.h
            row["status"] = "OUT_OF_RANGE"
            row["error"] = dict(r=err.r, l=err.l, h=err.h, dimension=err.dimension)
        row.update(_index_fields(assessment.index))
        rows.append(row)
    return rows


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".17g")


def _write_canonical(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, Mapping):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _write_canonical(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_canonical_json(value) -> str:
    """``tnsc.scenario.canonical_json`` over the ``isinstance``-chain writer."""
    out: list[str] = []
    _write_canonical(value, out)
    out.append("\n")
    return "".join(out)


#: What ``mutate`` puts in place of a value.
REPLACEMENTS = ([], {}, "x", "", True, None, 0, -1, 1.5, float("nan"),
                float("inf"), float("-inf"), 10**400, 2**63, -10**30)


def _locations(value, prefix=()):
    """Path of every value inside a JSON document, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _locations(item, prefix + (key,))


def mutate(rng: random.Random, payload):
    """A copy of ``payload`` after one to three seeded mutations: a value
    anywhere, the root included, is deleted or replaced by one of
    ``REPLACEMENTS``."""
    payload = copy.deepcopy(payload)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_locations(payload)))
        value = copy.deepcopy(rng.choice(REPLACEMENTS))
        if not path:
            payload = value
            continue
        holder = payload
        for key in path[:-1]:
            holder = holder[key]
        if rng.random() < 0.3:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    return payload


def random_connected_dict(rng, max_nodes=8, srlg_pool=0):
    """Random spanning tree plus a few chords, as a raw topology dict with
    its nodes in sorted order and no devices; optional risk-group tags."""
    n = rng.randint(4, max_nodes)
    names = [chr(ord("A") + i) for i in range(n)]
    links = []
    pairs = set()

    def add_link(a, b):
        entry = {"id": f"L{len(links)}", "a": a, "b": b}
        if srlg_pool:
            entry["srlgs"] = sorted(
                {rng.randrange(srlg_pool) for _ in range(rng.randint(0, 2))}
            )
        links.append(entry)
        pairs.add(frozenset((a, b)))

    order = names[:]
    rng.shuffle(order)
    for i in range(1, n):
        add_link(rng.choice(order[:i]), order[i])
    candidates = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if frozenset((a, b)) not in pairs
    ]
    rng.shuffle(candidates)
    for a, b in candidates[: rng.randint(1, max(1, n // 2))]:
        add_link(a, b)

    return {"nodes": names, "links": links, "devices": []}


def random_connected_topology(rng, max_nodes=8, srlg_pool=0):
    """``random_connected_dict``, validated."""
    return validate_topology(random_connected_dict(rng, max_nodes, srlg_pool))


def random_graph_dict(rng, min_nodes=6, max_nodes=400, family=None):
    """A connected topology as a raw dict with no devices: a grid, a ring
    with chords or a random spanning tree with chords (``family`` "grid",
    "ring" or "sparse", drawn when None), sized log-uniformly (grids may
    come out a little smaller). Node and link names carry unpadded shuffled
    numbers, so their sorted order is unrelated to the shape."""
    target = round(math.exp(rng.uniform(math.log(min_nodes), math.log(max_nodes))))
    family = family or rng.choice(("grid", "ring", "sparse"))
    if family == "grid":
        rows = rng.randint(2, max(2, math.isqrt(target)))
        cols = max(3, target // rows)
        n = rows * cols
        pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    else:
        n = target
        if family == "ring":
            pairs = [(i, (i + 1) % n) for i in range(n)]
            extra = rng.randint(max(1, n // 8), max(1, n // 3))
        else:
            pairs = [(rng.randrange(i), i) for i in range(1, n)]
            extra = rng.randint(max(1, n // 4), n)
        seen = {frozenset(pair) for pair in pairs}
        for _ in range(extra):
            pair = frozenset(rng.sample(range(n), 2))
            if pair not in seen:
                seen.add(pair)
                pairs.append(tuple(pair))
    labels = rng.sample(range(n), n)
    names = [f"n{label}" for label in labels]
    link_labels = rng.sample(range(len(pairs)), len(pairs))
    links = [{"id": f"e{label}", "a": names[a], "b": names[b]}
             for label, (a, b) in zip(link_labels, pairs)]
    return {"nodes": names, "links": links, "devices": []}


def search_outcome(search, call):
    """``search.paths(call)`` as node and link tuples, or ``count()`` when
    ``call`` is "count", or the ``InsufficientDiversity`` detail; any other
    error propagates."""
    try:
        if call == "count":
            return search.count()
        return [(path.nodes, path.links) for path in search.paths(call)]
    except InsufficientDiversity as err:
        return err.detail()


def seeded_searches(seed: int, graphs: int):
    """Yield (number, topology, src, dst, mode, usable) for the link- and
    node-disjoint searches of a seeded stream of ``random_graph_dict``
    graphs, each over all links (usable None) and over a random subset."""
    rng = random.Random(seed)
    for number in range(graphs):
        topology = validate_topology(random_graph_dict(rng))
        src, dst = rng.sample(sorted(topology.nodes), 2)
        subset = {link.id for link in topology.links if rng.random() < 0.85}
        for mode in (DisjointnessMode.LINK_DISJOINT, DisjointnessMode.NODE_DISJOINT):
            for usable in (None, subset):
                yield number, topology, src, dst, mode, usable
