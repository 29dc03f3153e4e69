"""Differential check of the shortest augmenting path search against the
array Bellman-Ford it replaced (``tests.oracles.reference_residual_shortest``).

Each seeded graph is a grid, a ring with chords or a random sparse graph of
6 to 400 nodes. In link and node modes, over all links and over a random
usable subset, one search is augmented along the reference's paths until
none is left. On every residual network on the way, from no flow to the
maximum, ``pathfind._residual_shortest`` with the search's potentials must
trace the same predecessor arcs back from the sink as the reference, or
find no path where the reference finds none.

Tier-1 runs the first graphs; the full run hashes every outcome:

    PYTHONPATH=src python -m tests.test_shortest_differential --graphs 1000
"""

from __future__ import annotations

from tnsc import DisjointSearch, pathfind

from .differential import case, checked, main
from .oracles import blocked_by, reference_residual_shortest, seeded_searches

SEED = 8008
TIER1_GRAPHS = 150


def _chain(residual, pred, source: int, sink: int):
    """The arc indices from the sink back to the source, or None when there
    is no path; a chain longer than the node count is cut and marked."""
    if pred is None:
        return None
    chain = []
    node = sink
    while node != source:
        if len(chain) == len(pred):
            return chain + ["cycle"]
        chain.append(pred[node])
        node = residual[pred[node]][0]
    return chain


def differential_cases(seed: int, graphs: int):
    """Yield a case for every residual network of every search, from no
    flow to the maximum; an outcome is a predecessor chain."""
    for number, topology, src, dst, mode, usable in seeded_searches(seed, graphs):
        search = DisjointSearch(topology, src, dst, mode,
                                blocked_links=blocked_by(topology, usable))
        residual, source, sink = search._residual, search._source, search._sink
        flow = 0
        while True:
            expected = reference_residual_shortest(
                residual, source, sink, len(search._outgoing))
            pred = pathfind._residual_shortest(
                residual, search._outgoing, search._potential, source, sink)
            label = (number, len(topology.nodes), mode.value,
                     usable is None, src, dst, flow)
            yield case(label, _chain(residual, pred, source, sink),
                       _chain(residual, expected, source, sink))
            if expected is None:
                break
            flow = search._augment_to(flow + 1, lambda: expected)


STREAMS = {"searches": (differential_cases, SEED, 1000)}


def test_shortest_matches_reference():
    assert len(list(checked(differential_cases(SEED, TIER1_GRAPHS)))) > 4 * TIER1_GRAPHS


if __name__ == "__main__":
    raise SystemExit(main(STREAMS))
