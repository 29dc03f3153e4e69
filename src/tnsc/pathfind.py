"""Disjoint-path computation between slice endpoints.

Link- and node-disjoint sets are found with successive shortest augmenting
paths over a unit-capacity residual network (negative-cost reverse arcs),
which is optimal and immune to the trap topologies that defeat greedy
removal. Risk-group disjointness is NP-hard in general, so that mode runs a
budget-bounded backtracking search and reports budget exhaustion explicitly.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import InsufficientDiversity, Unreachable, ValidationError
from .model import NetworkTopology, Path

DEFAULT_SRLG_BUDGET = 1000

# Flow-graph node keys: plain node ids in link mode, (id, side) pairs after
# node splitting, where side 0 is the ingress half and 1 the egress half.
_IN = 0
_OUT = 1


class DisjointnessMode(str, Enum):
    LINK_DISJOINT = "link_disjoint"
    NODE_DISJOINT = "node_disjoint"
    SRLG_DISJOINT = "srlg_disjoint"


@dataclass
class _Arc:
    u: object
    v: object
    cost: float
    link: str | None
    flow: int = 0


def _check_endpoints(topology: NetworkTopology, src: str, dst: str) -> None:
    for role, node in (("src", src), ("dst", dst)):
        if node not in topology.nodes:
            raise ValidationError(role, f"unknown node {node!r}")
    if src == dst:
        raise ValidationError("dst", "src and dst must differ")


def _resolve_costs(topology: NetworkTopology,
                   link_costs: Mapping[str, float] | None) -> dict[str, float]:
    costs = {link.id: 1.0 for link in topology.links}
    if link_costs:
        for link_id, cost in link_costs.items():
            if link_id not in costs:
                raise ValidationError("link_costs", f"unknown link {link_id!r}")
            if cost < 0:
                raise ValidationError("link_costs", f"negative cost for link {link_id!r}")
            costs[link_id] = float(cost)
    return costs


def _resolve_usable(topology: NetworkTopology,
                    usable_links: frozenset[str] | set[str] | None) -> set[str]:
    if usable_links is None:
        return {link.id for link in topology.links}
    unknown = set(usable_links) - set(topology.link_by_id)
    if unknown:
        raise ValidationError("usable_links", f"unknown links {sorted(unknown)}")
    return set(usable_links)


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


class DisjointSearch:
    """One disjoint-path search between two endpoints: ``paths(k)`` gives
    the k-set and ``count()`` the maximum diversity. Link and node modes
    share one residual network, built on first use, and ``count()`` resumes
    from the flow ``paths(k)`` left, so a decision costs one max-flow solve.
    SRLG mode runs the bounded search for each call.
    """

    def __init__(self, topology: NetworkTopology, src: str, dst: str,
                 mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
                 *,
                 link_costs: Mapping[str, float] | None = None,
                 usable_links: frozenset[str] | set[str] | None = None,
                 srlg_budget: int = DEFAULT_SRLG_BUDGET):
        _check_endpoints(topology, src, dst)
        self.topology = topology
        self.src = src
        self.dst = dst
        self.mode = mode
        self.costs = _resolve_costs(topology, link_costs)
        self.usable = _resolve_usable(topology, usable_links)
        self.srlg_budget = srlg_budget
        self._flow = 0
        self._counted = False
        self._split = mode is DisjointnessMode.NODE_DISJOINT
        self._source = (src, _OUT) if self._split else src
        self._sink = (dst, _IN) if self._split else dst

    @cached_property
    def _link_pairs(self) -> list[tuple[_Arc, _Arc]]:
        into = {node: (node, _IN) if self._split else node for node in self.topology.nodes}
        out = {node: (node, _OUT) if self._split else node for node in self.topology.nodes}
        return [
            (_Arc(out[link.a], into[link.b], self.costs[link.id], link.id),
             _Arc(out[link.b], into[link.a], self.costs[link.id], link.id))
            for link in sorted(self.topology.links, key=lambda l: l.id)
            if link.id in self.usable
        ]

    @cached_property
    def _arcs(self) -> list[_Arc]:
        # Node splitting: a unit-capacity internal arc per intermediate node
        # makes arc-disjointness in the split graph equal node-disjointness
        # in the original. Endpoints get no internal arc; they are shared.
        internal = [_Arc((node, _IN), (node, _OUT), 0.0, None)
                    for node in sorted(self.topology.nodes)
                    if node not in (self.src, self.dst)] if self._split else []
        return internal + [arc for pair in self._link_pairs for arc in pair]

    def _augment_to(self, limit: float) -> int:
        """Augment until the flow is ``limit`` or saturated; returns the flow."""
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
        """Split the unit flow into k walks, loop-erased to simple paths."""
        # Flow both ways over one link is a zero-cost cycle that no walk
        # needs; the walks skip it, but it stays in the flow count() resumes.
        cycles = {id(arc) for pair in self._link_pairs
                  if pair[0].flow == 1 and pair[1].flow == 1 for arc in pair}
        outgoing: dict = {}
        for arc in sorted((arc for arc in self._arcs
                           if arc.flow == 1 and id(arc) not in cycles),
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
                    name = key[0] if self._split else key
                    if name in nodes:
                        cut = nodes.index(name)
                        nodes = nodes[: cut + 1]
                        links = links[:cut]
                    else:
                        nodes.append(name)
                        links.append(arc.link)
            paths.append(Path(nodes=tuple(nodes), links=tuple(links)))
        return paths

    def paths(self, k: int) -> list[Path]:
        """The k-set of ``k_disjoint_paths``. Raises RuntimeError after
        ``count()``: decomposing a flow past k would give the wrong paths."""
        if self._counted or self._flow > k:
            raise RuntimeError("paths() after count() or a larger paths()")
        if k < 1:
            raise ValidationError("k", "must be at least 1")
        if self.mode is DisjointnessMode.SRLG_DISJOINT:
            paths = _srlg_disjoint(self.topology, self.src, self.dst, k,
                                   self.costs, self.usable, self.srlg_budget)
        elif self._augment_to(k) < k:
            raise InsufficientDiversity(requested=k, found=self._flow)
        else:
            paths = self._decompose(k)

        paths.sort(key=lambda p: (p.cost(self.costs), p.nodes))
        if not verify_disjoint(self.topology, paths, self.mode):
            raise RuntimeError("internal error: computed paths fail disjointness check")
        return paths

    def count(self) -> int:
        """The diversity of ``max_disjoint_count``, resumed from the flow
        ``paths`` left."""
        self._counted = True
        if self.mode is not DisjointnessMode.SRLG_DISJOINT:
            return self._augment_to(math.inf)
        ceiling = DisjointSearch(self.topology, self.src, self.dst,
                                 usable_links=self.usable).count()
        for k in range(1, ceiling + 1):
            try:
                _srlg_disjoint(self.topology, self.src, self.dst, k,
                               self.costs, self.usable, self.srlg_budget)
            except InsufficientDiversity:
                return k - 1
        return ceiling


def shortest_path(topology: NetworkTopology, src: str, dst: str,
                  link_costs: Mapping[str, float] | None = None,
                  usable_links: frozenset[str] | set[str] | None = None) -> Path:
    """Minimum-cost simple path; ties resolve to the lexicographically
    smallest node sequence. Raises Unreachable when no path exists."""
    _check_endpoints(topology, src, dst)
    costs = _resolve_costs(topology, link_costs)
    usable = _resolve_usable(topology, usable_links)
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
    settled: set[str] = set()
    while heap:
        cost, nodes = heapq.heappop(heap)
        last = nodes[-1]
        if last in settled:
            continue
        settled.add(last)
        if last == dst:
            return Path.through(topology, nodes)
        for neighbor, link_id in topology.adjacency[last]:
            if link_id in usable and neighbor not in settled:
                heapq.heappush(heap, (cost + costs[link_id], nodes + (neighbor,)))
    raise Unreachable(src, dst)


def k_disjoint_paths(topology: NetworkTopology, src: str, dst: str, k: int,
                     mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
                     *,
                     link_costs: Mapping[str, float] | None = None,
                     usable_links: frozenset[str] | set[str] | None = None,
                     srlg_budget: int = DEFAULT_SRLG_BUDGET) -> list[Path]:
    """Compute k pairwise-disjoint simple paths between src and dst.

    Link and node modes minimize the summed path cost over all valid sets
    and report the true maximum diversity on failure. SRLG mode is a bounded
    search: InsufficientDiversity with ``budget_exhausted`` set means the
    search gave up, not that no set exists. The returned list is sorted by
    (cost, node sequence) and is deterministic for identical inputs.
    """
    return DisjointSearch(topology, src, dst, mode, link_costs=link_costs,
                          usable_links=usable_links, srlg_budget=srlg_budget).paths(k)


def max_disjoint_count(topology: NetworkTopology, src: str, dst: str,
                       mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
                       *,
                       link_costs: Mapping[str, float] | None = None,
                       usable_links: frozenset[str] | set[str] | None = None,
                       srlg_budget: int = DEFAULT_SRLG_BUDGET) -> int:
    """Largest k for which k disjoint paths exist (0 when unreachable).

    Link and node modes are exact via max flow with unit capacities; SRLG
    mode probes increasing k with the bounded search and is conservative
    when the budget runs out.
    """
    return DisjointSearch(topology, src, dst, mode, link_costs=link_costs,
                          usable_links=usable_links, srlg_budget=srlg_budget).count()


def verify_disjoint(topology: NetworkTopology, paths: Sequence[Path],
                    mode: DisjointnessMode) -> bool:
    """Independent set-intersection check of a candidate path set.

    Validates every path against the topology and tests pairwise
    disjointness for the given mode. Deliberately shares nothing with the
    search routines above so it can vouch for their output.
    """
    if not paths:
        return False
    for path in paths:
        if len(set(path.nodes)) != len(path.nodes):
            return False
        for i, (a, b) in enumerate(zip(path.nodes, path.nodes[1:])):
            link = topology.link_between(a, b)
            if link is None or link.id != path.links[i]:
                return False
    first = paths[0]
    for path in paths[1:]:
        if path.nodes[0] != first.nodes[0] or path.nodes[-1] != first.nodes[-1]:
            return False
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if set(paths[i].links) & set(paths[j].links):
                return False
            if mode is DisjointnessMode.NODE_DISJOINT:
                if set(paths[i].nodes[1:-1]) & set(paths[j].nodes[1:-1]):
                    return False
            if mode is DisjointnessMode.SRLG_DISJOINT:
                tags_i = _srlg_tags(topology, paths[i])
                tags_j = _srlg_tags(topology, paths[j])
                if tags_i & tags_j:
                    return False
    return True


def _srlg_tags(topology: NetworkTopology, path: Path) -> frozenset[int]:
    return frozenset().union(*(topology.link_by_id[link].srlgs
                               for link in path.links))


# ---------------------------------------------------------------------------
# SRLG-constrained search
# ---------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


class _Budget:
    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> None:
        if self.remaining <= 0:
            raise _BudgetExhausted()
        self.remaining -= 1


def _ordered_simple_paths(topology: NetworkTopology, src: str, dst: str,
                          allowed: set[str], costs: Mapping[str, float],
                          budget: _Budget) -> Iterator[Path]:
    """Yield simple paths in (cost, node sequence) order. Every heap
    expansion spends one unit of the shared search budget."""
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
    while heap:
        budget.spend()
        cost, nodes = heapq.heappop(heap)
        last = nodes[-1]
        if last == dst:
            yield Path.through(topology, nodes)
            continue
        for neighbor, link_id in topology.adjacency[last]:
            if link_id in allowed and neighbor not in nodes:
                heapq.heappush(heap, (cost + costs[link_id], nodes + (neighbor,)))


def _srlg_disjoint(topology: NetworkTopology, src: str, dst: str, k: int,
                   costs: Mapping[str, float], usable: set[str],
                   budget_limit: int) -> list[Path]:
    """Backtracking over path choices: each level excludes the links and
    risk groups claimed so far. First full set found wins, so the result is
    deterministic but not necessarily cost-minimal."""
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
        for path in _ordered_simple_paths(topology, src, dst, allowed, costs, budget):
            result = search(
                chosen + [path],
                used_links | set(path.links),
                used_srlgs | _srlg_tags(topology, path),
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
