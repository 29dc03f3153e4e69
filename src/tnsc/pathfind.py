"""Disjoint-path computation between slice endpoints.

Every link costs 1, so a path's cost is its hop count. Link- and
node-disjoint k-sets come from min-cost augmentation: k successive shortest
augmenting paths over a unit-capacity residual network (negative-cost
reverse arcs), compiled once per search to integer-indexed arcs. Each path
is a Dijkstra search over costs reduced by node potentials (Johnson's
reweighting), breaking ties among equal-cost paths exactly as Bellman-Ford
passes in arc order would. That is optimal and immune to the trap
topologies that defeat greedy removal. The maximum diversity comes from
breadth-first max-flow augmentation resumed from the same flow on the same
arcs. Risk-group disjointness is NP-hard in general, so that mode runs a
budget-bounded backtracking search and reports budget exhaustion explicitly.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterator, Sequence
from enum import Enum

from .errors import InsufficientDiversity, ValidationError
from .model import NetworkTopology, Path

DEFAULT_SRLG_BUDGET = 1000


class DisjointnessMode(str, Enum):
    LINK_DISJOINT = "link_disjoint"
    NODE_DISJOINT = "node_disjoint"
    SRLG_DISJOINT = "srlg_disjoint"


def _check_endpoints(topology: NetworkTopology, src: str, dst: str) -> None:
    for role, node in (("src", src), ("dst", dst)):
        if node not in topology.nodes:
            raise ValidationError(role, f"unknown node {node!r}")
    if src == dst:
        raise ValidationError("dst", "src and dst must differ")


def _resolve_usable(topology: NetworkTopology,
                    usable_links: frozenset[str] | set[str] | None) -> set[str]:
    if usable_links is None:
        return {link.id for link in topology.links}
    unknown = set(usable_links) - set(topology.link_by_id)
    if unknown:
        raise ValidationError("usable_links", f"unknown links {sorted(unknown)}")
    return set(usable_links)


def _residual_shortest(residual: list[tuple[int, int, int, int]],
                       outgoing: list[list[int]], potential: list[int],
                       source: int, sink: int) -> list[int] | None:
    """Dijkstra over the residual arcs (tail, head, cost, index), listed by
    tail in ``outgoing``, with reduced costs ``cost + potential[tail] -
    potential[head]``. Returns each node's predecessor arc index, or None
    when the sink is unreachable, and moves the potentials on by the
    distances found, capped at the sink's.

    Equal-cost paths tie-break as Gauss-Seidel Bellman-Ford passes over the
    arcs in list order would, with a strict comparison: a node's label is
    the scan (pass, arc position) at which those passes would first give it
    its final distance, and nodes pop by (distance, label). A node first
    reaches its final distance over a tight arc from a final tail, at the
    first scan of that arc after the tail's own, so the label is the
    smallest such scan and its arc is the predecessor: the k-sets are
    those Bellman-Ford finds."""
    count = len(residual)
    if not count:
        return None
    dist = [math.inf] * len(potential)
    scan = list(dist)
    pred = [0] * len(potential)
    dist[source], scan[source] = 0, -1
    heap = [(0, -1, source)]
    while heap:
        d, t, node = heapq.heappop(heap)
        if node == sink:
            break
        if t != scan[node]:  # stale: an arc relaxes once, so labels are unique
            continue
        passes, last = divmod(t, count)
        offset = d + potential[node]
        for e in outgoing[node]:
            _, head, cost, _ = residual[e]
            candidate = cost + offset - potential[head]
            if candidate < d:  # a negative reduced cost
                raise RuntimeError("negative reduced cost in residual graph")
            known = dist[head]
            if candidate > known:
                continue
            when = (passes if e > last else passes + 1) * count + e
            if candidate < known or when < scan[head]:
                dist[head], scan[head], pred[head] = candidate, when, e
                heapq.heappush(heap, (candidate, when, head))
    else:
        return None
    potential[:] = [p + (reached if reached < d else d)
                    for p, reached in zip(potential, dist)]
    return pred


class DisjointSearch:
    """One disjoint-path search between two endpoints: ``paths(k)`` gives
    the k-set and ``count()`` the maximum diversity.

    Link and node modes compile one residual network to integer-indexed
    arcs. ``paths(k)`` augments along k shortest paths, a min-cost flow
    whose decomposition is the k-set; the node potentials that keep every
    residual arc's reduced cost non-negative carry over from one ``paths()``
    call to the next, so a larger k resumes the same flow. ``count()`` resumes
    from that flow with breadth-first augmenting paths until none is left,
    since a maximum flow's value does not depend on the augmenting order.
    The flow is no longer min-cost after ``count()``, so ``paths()`` refuses
    to run after it. SRLG mode runs the bounded search for each call.
    """

    def __init__(self, topology: NetworkTopology, src: str, dst: str,
                 mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
                 *,
                 usable_links: frozenset[str] | set[str] | None = None,
                 srlg_budget: int = DEFAULT_SRLG_BUDGET):
        _check_endpoints(topology, src, dst)
        self.topology = topology
        self.src = src
        self.dst = dst
        self.mode = mode
        self.usable = _resolve_usable(topology, usable_links)
        self.srlg_budget = srlg_budget
        self._flow = 0
        self._counted = False
        if mode is not DisjointnessMode.SRLG_DISJOINT:
            self._compile(mode is DisjointnessMode.NODE_DISJOINT)

    def _compile(self, split: bool) -> None:
        # Node i of the sorted ids is index i. Node splitting makes it an
        # ingress half 2i and an egress half 2i+1 joined by a unit-capacity
        # internal arc, so arc-disjointness in the split graph is
        # node-disjointness in the original; the endpoints are shared and
        # get none. Internal arcs come first, then each usable link's a->b
        # and b->a arcs in link id order. Arc e is (tail, head, cost, e); it
        # carries flow while its residual entry is the reverse
        # (head, tail, -cost, e). Each node lists the residual arcs that
        # leave it, in no particular order; augmenting moves a flipped arc.
        self._names = sorted(self.topology.nodes)
        self._width = width = 2 if split else 1
        egress = width - 1
        index = {node: i for i, node in enumerate(self._names)}
        src, dst = index[self.src], index[self.dst]
        inner = [2 * i for i in range(len(self._names)) if split and i not in (src, dst)]
        arcs = [(tail, tail + 1, 0, e) for e, tail in enumerate(inner)]
        outgoing: list[list[int]] = [[] for _ in range(width * len(self._names))]
        for e, tail in enumerate(inner):
            outgoing[tail].append(e)
        self._links: list[str | None] = [None] * len(arcs)
        for link in sorted(self.topology.links, key=lambda l: l.id):
            if link.id in self.usable:
                a, b = width * index[link.a], width * index[link.b]
                e = len(arcs)
                arcs += [(a + egress, b, 1, e), (b + egress, a, 1, e + 1)]
                outgoing[a + egress].append(e)
                outgoing[b + egress].append(e + 1)
                self._links += [link.id, link.id]
        self._arcs, self._outgoing = arcs, outgoing
        self._residual = list(arcs)
        self._potential = [0] * len(outgoing)
        self._source, self._sink = width * src + egress, width * dst

    def _augment_to(self, k: float, find_path: Callable[[], list | None]) -> int:
        """Augment along the paths ``find_path`` traces, as predecessor arcs
        from the sink, until the flow is k or no path is left."""
        residual = self._residual
        while self._flow < k:
            pred = find_path()
            if pred is None:
                break
            node = self._sink
            while node != self._source:
                tail, head, cost, e = residual[pred[node]]
                residual[e] = (head, tail, -cost, e)
                self._outgoing[tail].remove(e)
                self._outgoing[head].append(e)
                node = tail
            self._flow += 1
        return self._flow

    def _shortest(self) -> list[int] | None:
        """Predecessor arcs of a min-cost augmenting path, or None."""
        return _residual_shortest(self._residual, self._outgoing, self._potential,
                                  self._source, self._sink)

    def _breadth_first(self) -> list[int | None] | None:
        """Predecessor arcs of a fewest-arc augmenting path, or None."""
        pred: list[int | None] = [None] * len(self._outgoing)
        pred[self._source] = -1
        queue = [self._source]
        for node in queue:
            for e in self._outgoing[node]:
                head = self._residual[e][1]
                if pred[head] is None:
                    pred[head] = e
                    if head == self._sink:
                        return pred
                    queue.append(head)
        return None

    def _decompose(self, k: int) -> list[Path]:
        """Split the unit flow into k walks, taking each node's carrying arcs
        in (head, link id) order. Every cycle holds a link and so costs more
        than zero, so a min-cost flow holds none and every walk is a simple
        path."""
        arcs, links = self._arcs, self._links
        outgoing: dict[int, list[int]] = {}
        for _, _, e in sorted((arcs[e][1], links[e] or "", e)
                              for e, arc in enumerate(self._residual) if arc != arcs[e]):
            outgoing.setdefault(arcs[e][0], []).append(e)

        paths = []
        for _ in range(k):
            nodes = [self.src]
            path_links: list[str] = []
            node = self._source
            while node != self._sink:
                e = outgoing[node].pop(0)
                node = arcs[e][1]
                if links[e] is not None:
                    nodes.append(self._names[node // self._width])
                    path_links.append(links[e])
            paths.append(Path(nodes=tuple(nodes), links=tuple(path_links)))
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
                                   self.usable, self.srlg_budget)
        elif self._augment_to(k, self._shortest) < k:
            raise InsufficientDiversity(requested=k, found=self._flow)
        else:
            paths = self._decompose(k)

        paths.sort(key=lambda p: (len(p.links), p.nodes))
        if not verify_disjoint(self.topology, paths, self.mode):
            raise RuntimeError("internal error: computed paths fail disjointness check")
        return paths

    def count(self) -> int:
        """The diversity of ``max_disjoint_count``, resumed from the flow
        ``paths`` left."""
        self._counted = True
        if self.mode is not DisjointnessMode.SRLG_DISJOINT:
            return self._augment_to(math.inf, self._breadth_first)
        # Every probe k <= ceiling walks the same depth-first tree in the
        # same order and stops where it first holds k paths, so one search
        # for the ceiling finds as deep a set as any probe would.
        ceiling = DisjointSearch(self.topology, self.src, self.dst,
                                 usable_links=self.usable).count()
        try:
            _srlg_disjoint(self.topology, self.src, self.dst, ceiling,
                           self.usable, self.srlg_budget)
        except InsufficientDiversity as err:
            return err.found
        return ceiling


def k_disjoint_paths(topology: NetworkTopology, src: str, dst: str, k: int,
                     mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
                     *,
                     usable_links: frozenset[str] | set[str] | None = None,
                     srlg_budget: int = DEFAULT_SRLG_BUDGET) -> list[Path]:
    """Compute k pairwise-disjoint simple paths between src and dst.

    Link and node modes minimize the total hop count over all valid sets
    and report the true maximum diversity on failure. SRLG mode is a bounded
    search: InsufficientDiversity with ``budget_exhausted`` set means the
    search gave up, not that no set exists. The returned list is sorted by
    (hop count, node sequence) and is deterministic for identical inputs.
    """
    return DisjointSearch(topology, src, dst, mode, usable_links=usable_links,
                          srlg_budget=srlg_budget).paths(k)


def max_disjoint_count(topology: NetworkTopology, src: str, dst: str,
                       mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
                       *,
                       usable_links: frozenset[str] | set[str] | None = None,
                       srlg_budget: int = DEFAULT_SRLG_BUDGET) -> int:
    """Largest k for which k disjoint paths exist (0 when unreachable).

    Link and node modes are exact via max flow with unit capacities; SRLG
    mode runs the bounded search for the link-mode count and is
    conservative when the budget runs out.
    """
    return DisjointSearch(topology, src, dst, mode, usable_links=usable_links,
                          srlg_budget=srlg_budget).count()


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
                          allowed: set[str], budget: _Budget) -> Iterator[Path]:
    """Yield simple paths in (hop count, node sequence) order. Every heap
    expansion spends one unit of the shared search budget."""
    heap: list[tuple[int, tuple[str, ...]]] = [(0, (src,))]
    while heap:
        budget.spend()
        hops, nodes = heapq.heappop(heap)
        last = nodes[-1]
        if last == dst:
            yield Path.through(topology, nodes)
            continue
        for neighbor, link_id in topology.adjacency[last]:
            if link_id in allowed and neighbor not in nodes:
                heapq.heappush(heap, (hops + 1, nodes + (neighbor,)))


def _srlg_disjoint(topology: NetworkTopology, src: str, dst: str, k: int,
                   usable: set[str], budget_limit: int) -> list[Path]:
    """Backtracking over path choices: each level excludes the links and
    risk groups claimed so far. First full set found wins, so the result is
    deterministic but not necessarily hop-minimal."""
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
        for path in _ordered_simple_paths(topology, src, dst, allowed, budget):
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
