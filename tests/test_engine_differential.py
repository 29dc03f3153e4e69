"""Differential check of the flow engine against the dict-keyed reference
it replaced (``tests.oracles.ReferenceSearch``).

Each seeded graph is a grid, a ring with chords or a random sparse graph of
6 to 400 nodes. In link and node modes, over all links and over a random
usable subset, ``paths(k)`` on a fresh search for every k up to one past
the maximum, then ``count()`` on that search, must give the same paths in
the same order, the same ``InsufficientDiversity`` detail and the same
count as the reference.

The tier-1 test runs the first graphs of the seeded stream. The full run
prints its case count and a sha256 over every outcome:

    PYTHONPATH=src python -m tests.test_engine_differential --graphs 1000
"""

from __future__ import annotations

import argparse
import hashlib
import random

from tnsc import DisjointnessMode, DisjointSearch, validate_topology
from tnsc.errors import InsufficientDiversity

from .oracles import ReferenceSearch, random_graph_dict

SEED = 6006
TIER1_GRAPHS = 70


def _outcome(search, k: int):
    try:
        return [(path.nodes, path.links) for path in search.paths(k)]
    except InsufficientDiversity as err:
        return err.detail()


def differential_cases(seed: int, graphs: int):
    """Yield (label, outcome, reference outcome) for every k of every
    search; an outcome is the k-set or error detail and the count."""
    rng = random.Random(seed)
    for number in range(graphs):
        topology = validate_topology(random_graph_dict(rng))
        src, dst = rng.sample(sorted(topology.nodes), 2)
        subset = {link.id for link in topology.links if rng.random() < 0.85}
        for mode in (DisjointnessMode.LINK_DISJOINT, DisjointnessMode.NODE_DISJOINT):
            for usable in (None, subset):
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


def test_engine_matches_reference():
    cases = 0
    for label, outcome, expected in differential_cases(SEED, TIER1_GRAPHS):
        assert outcome == expected, label
        cases += 1
    assert cases > 4 * TIER1_GRAPHS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    cases = mismatches = 0
    for label, outcome, expected in differential_cases(args.seed, args.graphs):
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
