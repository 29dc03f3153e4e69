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

The tier-1 tests run the first graphs of each seeded stream. The full runs
print their case count and a sha256 over every outcome:

    PYTHONPATH=src python -m tests.test_engine_differential --graphs 1000
    PYTHONPATH=src python -m tests.test_engine_differential --stream growing --graphs 1000
"""

from __future__ import annotations

import argparse
import hashlib

from tnsc import DisjointSearch
from tnsc.errors import InsufficientDiversity

from .oracles import ReferenceSearch, seeded_searches

SEED = 6006
GROWING_SEED = 6007
TIER1_GRAPHS = 70
TIER1_GROWING_GRAPHS = 40


def _outcome(search, k: int):
    try:
        return [(path.nodes, path.links) for path in search.paths(k)]
    except InsufficientDiversity as err:
        return err.detail()


def differential_cases(seed: int, graphs: int):
    """Yield (label, outcome, reference outcome) for every k of every
    search; an outcome is the k-set or error detail and the count."""
    for number, topology, src, dst, mode, usable in seeded_searches(seed, graphs):
        reference = ReferenceSearch(topology, src, dst, mode, usable)
        expected = []
        while not expected or isinstance(expected[-1], list):
            expected.append(_outcome(reference, len(expected) + 1))
        most = reference.count()
        for k, paths in enumerate(expected, start=1):
            search = DisjointSearch(topology, src, dst, mode, usable_links=usable)
            label = (number, len(topology.nodes), mode.value,
                     usable is None, src, dst, k)
            yield label, (_outcome(search, k), search.count()), (paths, most)


def growing_cases(seed: int, graphs: int):
    """Yield (label, outcome, reference outcome) for each ``paths(k)`` of
    one search grown k = 1, 2, ... until either fails, then for its
    ``count()``; a k-set outcome is the paths or error detail."""
    for number, topology, src, dst, mode, usable in seeded_searches(seed, graphs):
        reference = ReferenceSearch(topology, src, dst, mode, usable)
        search = DisjointSearch(topology, src, dst, mode, usable_links=usable)
        label = (number, len(topology.nodes), mode.value, usable is None, src, dst)
        k = 0
        outcome = expected = []
        while isinstance(outcome, list) and isinstance(expected, list):
            k += 1
            outcome, expected = _outcome(search, k), _outcome(reference, k)
            yield label + (k,), outcome, expected
        yield label + ("count",), search.count(), reference.count()


STREAMS = {"fresh": (differential_cases, SEED),
           "growing": (growing_cases, GROWING_SEED)}


def test_engine_matches_reference():
    cases = 0
    for label, outcome, expected in differential_cases(SEED, TIER1_GRAPHS):
        assert outcome == expected, label
        cases += 1
    assert cases > 4 * TIER1_GRAPHS


def test_grown_search_matches_reference():
    cases = 0
    for label, outcome, expected in growing_cases(GROWING_SEED, TIER1_GROWING_GRAPHS):
        assert outcome == expected, label
        cases += 1
    assert cases > 8 * TIER1_GROWING_GRAPHS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=1000)
    parser.add_argument("--stream", choices=sorted(STREAMS), default="fresh")
    parser.add_argument("--seed", type=int, help="default: the stream's own")
    args = parser.parse_args(argv)
    cases_of, default_seed = STREAMS[args.stream]
    if args.seed is None:
        args.seed = default_seed
    digest = hashlib.sha256()
    cases = mismatches = 0
    for label, outcome, expected in cases_of(args.seed, args.graphs):
        cases += 1
        if outcome != expected:
            mismatches += 1
            print("mismatch", label)
        digest.update(repr((label, outcome)).encode())
    print(f"graphs={args.graphs} seed={args.seed} cases={cases} "
          f"mismatches={mismatches} sha256={digest.hexdigest()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
