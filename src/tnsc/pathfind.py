"""Disjoint-path computation between slice endpoints.

Every link costs 1, so a path's cost is its hop count. Link- and
node-disjoint k-sets come from min-cost augmentation: k successive shortest
augmenting paths over a unit-capacity residual network (negative-cost
reverse arcs), compiled once per topology to integer-indexed arcs. Each
search copies them and masks the arcs of links it may not use. Each path
is a Dijkstra search over costs reduced by node potentials (Johnson's
reweighting), breaking ties among equal-cost paths exactly as Bellman-Ford
passes in arc order would. The first path is an A* search, its potential
starting at minus the hop distance to the destination; ties break the same.
That is optimal and immune to the trap topologies that defeat greedy
removal. The maximum diversity comes from breadth-first max-flow
augmentation resumed from the same flow on the same arcs, stopped at the
cut of the source's or the destination's usable links. Risk-group
disjointness is NP-complete, so that mode walks one budget-bounded depth-first
tree per search, resumed by each call, and reports budget exhaustion.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from functools import cached_property
from itertools import chain

from .errors import InsufficientDiversity, ValidationError
from .model import NetworkTopology, Path

DEFAULT_SRLG_BUDGET = 1000


class DisjointnessMode(str, Enum):
    LINK_DISJOINT = "link_disjoint"
    NODE_DISJOINT = "node_disjoint"
    SRLG_DISJOINT = "srlg_disjoint"


class _Network:
    """A topology's residual network with every link usable, shared by all
    its searches in one mode. Node i of the sorted ids is index i; splitting
    makes it an ingress 2i and an egress 2i+1 joined by a unit-capacity
    internal arc at position i, so arc-disjointness in the split graph is
    node-disjointness in the original. Each link's a->b and b->a arcs follow
    in link id order; ``link_arcs`` maps each link id to the first. Arc e is
    (tail, head, cost, e); it carries flow while its residual entry is the
    reverse (head, tail, -cost, e). ``outgoing`` lists each node's arcs,
    ``neighbours`` each original node's neighbours over every link, by index.
    ``starts`` memoizes per destination minus each node's hop distance to it
    over every link (the node count if none): as the start potential of
    searches, which only mask arcs, it makes the first path search A*."""

    def __init__(self, topology: NetworkTopology, split: bool):
        self.names = tuple(sorted(topology.nodes))
        self.width = width = 2 if split else 1
        self.index = index = {node: i for i, node in enumerate(self.names)}
        arcs = [(2 * i, 2 * i + 1, 0, i) for i in range(len(index))] if split else []
        links: list[str | None] = [None] * len(arcs)
        self.link_arcs: dict[str, int] = {}
        for link in sorted(topology.links, key=lambda l: l.id):
            a, b = width * index[link.a], width * index[link.b]
            e = len(arcs)
            arcs += [(a + width - 1, b, 1, e), (b + width - 1, a, 1, e + 1)]
            links += [link.id, link.id]
            self.link_arcs[link.id] = e
        outgoing: list[list[int]] = [[] for _ in range(width * len(index))]
        for tail, _, _, e in arcs:
            outgoing[tail].append(e)
        self.arcs, self.links = tuple(arcs), tuple(links)
        self.outgoing = tuple(map(tuple, outgoing))
        self.neighbours = tuple(tuple(arcs[e][1] // width for e in outgoing[i + width - 1])
                                for i in range(0, len(outgoing), width))
        self.starts: dict[int, list[int]] = {}

    def start_potential(self, dst: int) -> list[int]:
        """Node ``dst``'s entry in ``starts``, shared: callers copy it."""
        if dst not in self.starts:
            far = len(self.names)
            hops, queue, neighbours = [far] * far, [dst], self.neighbours
            hops[dst] = 0
            for node in queue:
                for head in neighbours[node]:
                    if hops[head] == far:
                        hops[head] = hops[node] + 1
                        queue.append(head)
            negated = [-h for h in range(far + 1)]  # one int object per value
            start = [negated[h] for h in hops]
            self.starts[dst] = start if self.width == 1 else [*chain(*zip(start, start))]
        return self.starts[dst]


_NETWORKS: dict[tuple[int, bool], _Network] = {}


def _residual_shortest(residual: list[tuple[int, int, int, int] | None],
                       outgoing: list[list[int]], potential: list[int],
                       source: int, sink: int) -> list[int] | None:
    """Dijkstra over the residual arcs (tail, head, cost, index), listed by
    tail in ``outgoing`` (a masked arc is None and listed nowhere), with
    reduced costs ``cost + potential[tail] - potential[head]``. Returns each
    node's predecessor arc index, or None when the sink is unreachable, and
    moves each popped node's potential on by its distance less the sink's.

    Equal-cost paths tie-break as Gauss-Seidel Bellman-Ford passes over the
    arcs in list order would, with a strict comparison: a node's label is
    the scan (pass, arc position) at which those passes would first give it
    its final distance, and nodes pop by (distance, label). A node first
    reaches its final distance over a tight arc from a final tail, at the
    first scan of that arc after the tail's own, so the label is the
    smallest such scan and its arc is the predecessor: the k-sets are
    those Bellman-Ford finds, from any potential that keeps reduced costs
    non-negative: it adds a constant per node and keeps the tight arcs."""
    count = len(residual)
    if not count:
        return None
    dist = [math.inf] * len(potential)
    scan = list(dist)
    pred = [0] * len(potential)
    dist[source], scan[source] = 0, -1
    heap = [(0, -1, source)]
    popped = []
    while heap:
        d, t, node = heapq.heappop(heap)
        if node == sink:
            break
        if t != scan[node]:  # stale: an arc relaxes once, so labels are unique
            continue
        popped.append(node)
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
    for node in popped:
        potential[node] += dist[node] - d  # -d for all nodes keeps reduced costs
    return pred


class DisjointSearch:
    """One disjoint-path search between two endpoints over the links it does
    not block: ``paths(k)`` gives the k-set and ``count()`` the diversity.

    Each search masks a copy of its topology's residual network, unsplit in
    SRLG mode. In link and node modes ``paths(k)`` augments along k shortest
    paths, a min-cost flow whose decomposition is the k-set; the node
    potentials that keep every residual arc's reduced cost non-negative
    carry over from one ``paths()`` call to the next from the A* start in
    ``_Network.starts``, so a larger k resumes the same flow. ``count()``
    resumes from that flow with breadth-first augmenting paths until none is
    left or the flow fills the cut of the source's or the sink's usable
    arcs, since a maximum flow's value does not depend on the augmenting
    order. The flow is no longer min-cost after ``count()``, so ``paths()``
    refuses to run after it. In SRLG mode ``count()`` takes the link-mode
    ceiling from flow 0, and both calls resume one depth-first walk of at
    most ``srlg_budget`` heap pops (1000 by default), whose first set of
    each size wins. Set-up costs what ``blocked_links`` masks.
    """

    def __init__(self, topology: NetworkTopology, src: str, dst: str,
                 mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT,
                 *,
                 blocked_links: Iterable[str] = (),
                 srlg_budget: int = DEFAULT_SRLG_BUDGET):
        for role, node in (("src", src), ("dst", dst)):
            if node not in topology.nodes:
                raise ValidationError(role, f"unknown node {node!r}")
        if src == dst:
            raise ValidationError("dst", "src and dst must differ")
        self.topology = topology
        self.src = src
        self.dst = dst
        self.mode = mode = DisjointnessMode(mode)
        self.blocked = frozenset(blocked_links)
        self.srlg_budget = srlg_budget
        self._flow = 0
        self._counted = False
        self._copy_network(mode is DisjointnessMode.NODE_DISJOINT)

    def _copy_network(self, split: bool) -> None:
        # The network is built once per topology object and split flag, keyed
        # by id because hashing a topology costs more than building it, and
        # dropped with the topology. Each search copies it and masks the arcs
        # of the links it excludes and, when split, the endpoints' internal
        # arcs, which every path shares: a masked arc is None and leaves its
        # tail's tuple. The rest keep their positions and relative order. A
        # node's tuple is shared with the network until the search replaces it.
        key = (id(self.topology), split)
        if key not in _NETWORKS:
            _NETWORKS[key] = _Network(self.topology, split)
            weakref.finalize(self.topology, _NETWORKS.pop, key, None)
        self._network = network = _NETWORKS[key]
        residual: list[tuple[int, int, int, int] | None] = list(network.arcs)
        outgoing = list(network.outgoing)
        src, dst = network.index[self.src], network.index[self.dst]
        first = network.link_arcs
        if unknown := self.blocked - first.keys():
            raise ValidationError("blocked_links", f"unknown links {sorted(unknown)}")
        masked = {src, dst} if network.width == 2 else set()
        masked.update(e for link in self.blocked for e in (first[link], first[link] + 1))
        for tail in {residual[e][0] for e in masked}:
            outgoing[tail] = tuple(e for e in outgoing[tail] if e not in masked)
        for e in masked:
            residual[e] = None
        self._residual, self._outgoing = residual, outgoing
        self._carrying: set[int] = set()  # the arcs that carry flow
        self._potential = list(network.start_potential(dst))
        self._source = network.width * src + network.width - 1
        self._sink = network.width * dst
        # No flow exceeds the usable links at src or at dst (dst's egress arcs).
        self._cut = min(len(outgoing[self._source]), len(outgoing[self._sink + network.width - 1]))

    def _augment_to(self, k: float, find_path: Callable[[], list | None]) -> int:
        """Augment along the paths ``find_path`` traces, as predecessor arcs
        from the sink, until the flow is k or no path is left."""
        residual, outgoing = self._residual, self._outgoing
        while self._flow < k:
            pred = find_path()
            if pred is None:
                break
            node = self._sink
            while node != self._source:
                tail, head, cost, e = residual[pred[node]]
                residual[e] = (head, tail, -cost, e)
                self._carrying ^= {e}
                at = outgoing[tail].index(e)
                outgoing[tail] = outgoing[tail][:at] + outgoing[tail][at + 1:]
                outgoing[head] += (e,)
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
        in (head, arc index) order, which is (head, link id) order: internal
        arcs come first and link arcs follow in link-id order, and no two
        carrying arcs into one head share a link. Every cycle holds a link
        and so costs more than zero, so a min-cost flow holds none and every
        walk is a simple path."""
        network = self._network
        arcs, links = network.arcs, network.links
        outgoing: dict[int, list[int]] = {}
        for _, e in sorted((arcs[e][1], e) for e in self._carrying):
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
                    nodes.append(network.names[node // network.width])
                    path_links.append(links[e])
            paths.append(Path(nodes=tuple(nodes), links=tuple(path_links)))
        return paths

    def paths(self, k: int) -> list[Path]:
        """The k-set of ``k_disjoint_paths``. Raises RuntimeError after
        ``count()``: decomposing a flow past k would give the wrong paths."""
        if k < 1:
            raise ValidationError("k", "must be at least 1")
        if self._counted or self._flow > k:
            raise RuntimeError("paths() after count() or a larger paths()")
        if self.mode is DisjointnessMode.SRLG_DISJOINT:
            found = self._walk_to(k)
            if found < k:
                raise InsufficientDiversity(k, found, self._spent > self.srlg_budget)
            paths = list(self._sets[k])
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
        ``paths`` left and stopped at the endpoint cut."""
        self._counted = True
        ceiling = self._augment_to(self._cut, self._breadth_first)
        if self.mode is not DisjointnessMode.SRLG_DISJOINT:
            return ceiling
        # A fresh walk for any k takes the same steps on the same budget up to
        # its first set of k paths, so the walk finds as deep a set as a probe.
        return self._walk_to(ceiling)

    @cached_property
    def _walk(self) -> Iterator[list[Path]]:
        """The SRLG walk, started on first use; ``_spent`` counts its heap
        pops, ``_sets[n]`` is the first set of n paths it met and ``_usable``
        holds the links the search does not block."""
        self._spent, self._sets = 0, []
        self._usable = self.topology.link_by_id.keys() - self.blocked
        return self._extend([], frozenset(), frozenset())

    def _walk_to(self, k: int) -> int:
        """Walk on until it meets a set of k paths or ends; the largest size met."""
        walk, sets = self._walk, self._sets
        while len(sets) <= k and (chosen := next(walk, None)) is not None:
            if len(chosen) == len(sets):  # preorder meets sizes in turn
                sets.append(chosen)
        return len(sets) - 1

    def _extend(self, chosen: list[Path], used_links: frozenset[str],
                used_srlgs: frozenset[int]) -> Iterator[list[Path]]:
        """Yield ``chosen``, then in preorder each set it extends to by a path
        over usable links that share no link or risk group with it."""
        yield chosen
        allowed = {link for link in self._usable - used_links
                   if not self.topology.link_by_id[link].srlgs & used_srlgs}
        for path in self._simple_paths(allowed):
            yield from self._extend(chosen + [path], used_links | set(path.links),
                                    used_srlgs | _srlg_tags(self.topology, path))

    def _simple_paths(self, allowed: set[str]) -> Iterator[Path]:
        """Yield the simple paths over ``allowed`` links in (hop count, node
        sequence) order, on the shared arcs that ``count()`` leaves alone:
        each heap pop spends a unit of ``srlg_budget``; none follows it."""
        network = self._network
        arcs, links, names = network.arcs, network.links, network.names
        heap = [(0, (self._source,), ())]  # index order is sorted-name order
        while heap:
            self._spent += 1
            if self._spent > self.srlg_budget:
                return
            hops, nodes, path_links = heapq.heappop(heap)
            if nodes[-1] == self._sink:
                yield Path(nodes=tuple(names[v] for v in nodes), links=path_links)
                continue
            for e in network.outgoing[nodes[-1]]:
                head = arcs[e][1]
                if links[e] in allowed and head not in nodes:
                    heapq.heappush(heap, (hops + 1, nodes + (head,), path_links + (links[e],)))


def k_disjoint_paths(topology: NetworkTopology, src: str, dst: str, k: int,
                     mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT) -> list[Path]:
    """k pairwise-disjoint simple paths between src and dst over every link:
    a fresh ``DisjointSearch``'s ``paths(k)``.

    Link and node modes minimize the total hop count over all valid sets
    and report the true maximum diversity on failure. SRLG mode is a
    depth-first walk of at most 1000 heap pops (``DEFAULT_SRLG_BUDGET``):
    InsufficientDiversity with ``budget_exhausted`` set means the walk gave
    up, not that no set exists. The returned list is sorted by (hop count,
    node sequence) and is deterministic for identical inputs.
    """
    return DisjointSearch(topology, src, dst, mode).paths(k)


def max_disjoint_count(topology: NetworkTopology, src: str, dst: str,
                       mode: DisjointnessMode = DisjointnessMode.LINK_DISJOINT) -> int:
    """Largest k for which k disjoint paths over every link exist (0 when
    unreachable): a fresh ``DisjointSearch``'s ``count()``.

    Link and node modes are exact via max flow with unit capacities; SRLG
    mode walks on until it meets a set as large as the link-mode count, and
    is conservative when its 1000 heap pops (``DEFAULT_SRLG_BUDGET``) run out.
    """
    return DisjointSearch(topology, src, dst, mode).count()


def verify_disjoint(topology: NetworkTopology, paths: Sequence[Path],
                    mode: DisjointnessMode) -> bool:
    """Independent set-intersection check of a candidate path set.

    Validates every path against the topology and tests pairwise
    disjointness for the given mode. Deliberately shares nothing with the
    search routines above so it can vouch for their output.
    """
    mode = DisjointnessMode(mode)
    if not paths:
        return False
    for path in paths:
        if len(set(path.nodes)) != len(path.nodes):
            return False
        # Links are never parallel: a hop is valid if its link joins its nodes.
        for a, b, link_id in zip(path.nodes, path.nodes[1:], path.links):
            link = topology.link_by_id.get(link_id)
            if link is None or not (link.a == a and link.b == b
                                    or link.a == b and link.b == a):
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
                tags_i = _srlg_tags(topology, paths[i])
                tags_j = _srlg_tags(topology, paths[j])
                if tags_i & tags_j:
                    return False
    return True


def _srlg_tags(topology: NetworkTopology, path: Path) -> frozenset[int]:
    return frozenset().union(*(topology.link_by_id[link].srlgs
                               for link in path.links))
