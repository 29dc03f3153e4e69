"""Independent reference implementations for cross-checking the library.

Nothing here calls into the search or merge code under test: paths come
from exhaustive enumeration, disjointness from raw set intersections, and
the numeric references from exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from tnsc import DisjointnessMode, NetworkTopology


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
