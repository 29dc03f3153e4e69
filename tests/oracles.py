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
writer replaced, moved here unchanged.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from tnsc import DisjointnessMode, NetworkTopology, Path, validate_topology
from tnsc.errors import InsufficientDiversity, NonPositiveWeight
from tnsc.model import DIMENSIONS


def enumerate_simple_paths(topology: NetworkTopology, src: str, dst: str):
    """All simple src->dst paths as node tuples, DFS over sorted adjacency."""
    paths = []

    def walk(node, seen, trail):
        if node == dst:
            paths.append(tuple(trail))
            return
        for neighbor, _link in topology.adjacency[node]:
            if neighbor not in seen:
                walk(neighbor, seen | {neighbor}, trail + [neighbor])

    walk(src, {src}, [src])
    return paths


def path_links(topology: NetworkTopology, nodes) -> frozenset[str]:
    return frozenset(topology.link_between(a, b).id
                     for a, b in zip(nodes, nodes[1:]))


def path_srlgs(topology: NetworkTopology, nodes) -> frozenset[int]:
    tags: set[int] = set()
    for link_id in path_links(topology, nodes):
        tags |= topology.link_by_id[link_id].srlgs
    return frozenset(tags)


def pair_disjoint(topology: NetworkTopology, first, second,
                  mode: DisjointnessMode) -> bool:
    if path_links(topology, first) & path_links(topology, second):
        return False
    if mode is DisjointnessMode.NODE_DISJOINT:
        if set(first[1:-1]) & set(second[1:-1]):
            return False
    if mode is DisjointnessMode.SRLG_DISJOINT:
        if path_srlgs(topology, first) & path_srlgs(topology, second):
            return False
    return True


def exists_k_disjoint(topology: NetworkTopology, src: str, dst: str, k: int,
                      mode: DisjointnessMode) -> bool:
    """Exhaustive search over subsets of simple paths."""
    paths = enumerate_simple_paths(topology, src, dst)

    def extend(start: int, chosen: list) -> bool:
        if len(chosen) == k:
            return True
        for i in range(start, len(paths)):
            candidate = paths[i]
            if all(pair_disjoint(topology, candidate, have, mode)
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
    paths = enumerate_simple_paths(topology, src, dst)
    best = None

    def extend(start: int, chosen: list, hops: int) -> None:
        nonlocal best
        if len(chosen) == k:
            best = hops if best is None else min(best, hops)
            return
        for i in range(start, len(paths)):
            candidate = paths[i]
            if all(pair_disjoint(topology, candidate, have, mode)
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


def random_connected_topology(rng, max_nodes=8, srlg_pool=0):
    """Random spanning tree plus a few chords; optional risk-group tags."""
    import tnsc

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

    return tnsc.validate_topology({"nodes": names, "links": links, "devices": []})


def random_graph_dict(rng, min_nodes=6, max_nodes=400):
    """A connected topology as a raw dict with no devices: a grid, a ring
    with chords or a random spanning tree with chords, sized log-uniformly
    (grids may come out a little smaller). Node and link names carry
    unpadded shuffled numbers, so their sorted order is unrelated to the
    shape."""
    target = round(math.exp(rng.uniform(math.log(min_nodes), math.log(max_nodes))))
    family = rng.choice(("grid", "ring", "sparse"))
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
