"""Differential check of the flow engine against the dict-keyed reference
it replaced (``tests.oracles.ReferenceSearch``).

Each seeded graph is a grid, a ring with chords or a random sparse graph of
6 to 400 nodes. In link and node modes, over all links and over a random
usable subset, ``paths(k)`` on a fresh search for every k up to one past
the maximum, then ``count()`` on that search, must give the same paths in
the same order, the same ``InsufficientDiversity`` detail and the same
count as the reference. A second stream, from its own seed, grows one
search by ``paths(1)``, ``paths(2)``, ... until it fails and then calls
``count()``, so each larger k resumes the flow and the node potentials the
smaller ones left.

Tier-1 runs the first graphs of each stream; the full runs hash every outcome:

    PYTHONPATH=src python -m tests.test_engine_differential --graphs 1000
    PYTHONPATH=src python -m tests.test_engine_differential --stream growing --graphs 1000
"""

from __future__ import annotations

from tnsc import DisjointSearch

from .differential import case, checked, main
from .oracles import ReferenceSearch, blocked_by, search_outcome, seeded_searches

SEED = 6006
GROWING_SEED = 6007
TIER1_GRAPHS = 70
TIER1_GROWING_GRAPHS = 40


def differential_cases(seed: int, graphs: int):
    """Yield a case for every k of every search; an outcome is the k-set
    or error detail and the count."""
    for number, topology, src, dst, mode, usable in seeded_searches(seed, graphs):
        reference = ReferenceSearch(topology, src, dst, mode, usable)
        expected = []
        while not expected or isinstance(expected[-1], list):
            expected.append(search_outcome(reference, len(expected) + 1))
        most = reference.count()
        for k, paths in enumerate(expected, start=1):
            search = DisjointSearch(topology, src, dst, mode,
                                    blocked_links=blocked_by(topology, usable))
            label = (number, len(topology.nodes), mode.value,
                     usable is None, src, dst, k)
            yield case(label, (search_outcome(search, k), search.count()), (paths, most))


def growing_cases(seed: int, graphs: int):
    """Yield a case for each ``paths(k)`` of one search grown k = 1, 2, ...
    until either fails, then for its ``count()``; a k-set outcome is the
    paths or error detail."""
    for number, topology, src, dst, mode, usable in seeded_searches(seed, graphs):
        reference = ReferenceSearch(topology, src, dst, mode, usable)
        search = DisjointSearch(topology, src, dst, mode,
                                blocked_links=blocked_by(topology, usable))
        label = (number, len(topology.nodes), mode.value, usable is None, src, dst)
        k = 0
        outcome = expected = []
        while isinstance(outcome, list) and isinstance(expected, list):
            k += 1
            outcome, expected = search_outcome(search, k), search_outcome(reference, k)
            yield case(label + (k,), outcome, expected)
        yield case(label + ("count",), search.count(), reference.count())


STREAMS = {"fresh": (differential_cases, SEED, 1000),
           "growing": (growing_cases, GROWING_SEED, 1000)}


def test_engine_matches_reference():
    assert len(list(checked(differential_cases(SEED, TIER1_GRAPHS)))) > 4 * TIER1_GRAPHS


def test_grown_search_matches_reference():
    cases = list(checked(growing_cases(GROWING_SEED, TIER1_GROWING_GRAPHS)))
    assert len(cases) > 8 * TIER1_GROWING_GRAPHS


if __name__ == "__main__":
    raise SystemExit(main(STREAMS))
