from __future__ import annotations

import random

import pytest

from tnsc import (
    DisjointnessMode,
    DisjointSearch,
    Path,
    k_disjoint_paths,
    max_disjoint_count,
    validate_topology,
    verify_disjoint,
)
from tnsc.errors import InsufficientDiversity

from .conftest import make_topology
from .oracles import (
    exists_k_disjoint,
    max_disjoint_brute,
    min_total_hops,
    random_connected_topology,
    random_graph_dict,
)

LINK = DisjointnessMode.LINK_DISJOINT
NODE = DisjointnessMode.NODE_DISJOINT
SRLG = DisjointnessMode.SRLG_DISJOINT


def complete_graph(names):
    links = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            links.append((f"L_{a}{b}", a, b))
    return make_topology(names, links)


@pytest.fixture
def trap():
    """Removing the shortest path (S-A-B-T) disconnects S from T, so greedy
    path removal fails while an optimal pair exists."""
    return make_topology(
        "SABT",
        [("L_SA", "S", "A"), ("L_AB", "A", "B"), ("L_BT", "B", "T"),
         ("L_SB", "S", "B", {"slot_capacity": 20}), ("L_AT", "A", "T")],
    )


class TestKDisjointPaths:
    def test_four_cycle_pair(self, four_cycle):
        paths = k_disjoint_paths(four_cycle, "A", "C", 2, NODE)
        assert [p.nodes for p in paths] == [("A", "B", "C"), ("A", "D", "C")]

    def test_four_cycle_exhausted(self, four_cycle):
        with pytest.raises(InsufficientDiversity) as err:
            k_disjoint_paths(four_cycle, "A", "C", 3, NODE)
        assert err.value.found == 2
        assert not err.value.budget_exhausted

    def test_k1_is_a_shortest_path(self, four_cycle):
        paths = k_disjoint_paths(four_cycle, "A", "C", 1, LINK)
        assert len(paths) == 1
        assert len(paths[0].links) == 2

    def test_complete_graph_k3(self):
        topology = complete_graph("ABCD")
        paths = k_disjoint_paths(topology, "A", "C", 3, LINK)
        assert len(paths) == 3
        assert verify_disjoint(topology, paths, LINK)

    def test_trap_topology_needs_augmentation(self, trap):
        paths = k_disjoint_paths(trap, "S", "T", 2, LINK)
        assert [p.nodes for p in paths] == [("S", "A", "T"), ("S", "B", "T")]

    def test_trap_total_cost_is_minimal(self, trap):
        paths = k_disjoint_paths(trap, "S", "T", 2, NODE)
        assert sum(len(p.links) for p in paths) == 4

    def test_usable_links_filter(self, four_cycle):
        with pytest.raises(InsufficientDiversity) as err:
            k_disjoint_paths(four_cycle, "A", "C", 2, LINK,
                             usable_links={"L_AB", "L_BC"})
        assert err.value.found == 1

    def test_node_disjoint_stricter_than_link(self):
        # Two link-disjoint A-C paths must share the cut node M here.
        topology = make_topology(
            "ABCDME",
            [("L_AB", "A", "B"), ("L_BM", "B", "M"), ("L_AD", "A", "D"),
             ("L_DM", "D", "M"), ("L_MC", "M", "C"), ("L_ME", "M", "E"),
             ("L_EC", "E", "C")],
        )
        assert max_disjoint_count(topology, "A", "C", LINK) == 2
        assert max_disjoint_count(topology, "A", "C", NODE) == 1

    def test_determinism(self, four_cycle):
        first = k_disjoint_paths(four_cycle, "A", "C", 2, LINK)
        for _ in range(3):
            assert k_disjoint_paths(four_cycle, "A", "C", 2, LINK) == first

    def test_invalid_k(self, four_cycle):
        with pytest.raises(ValueError):
            k_disjoint_paths(four_cycle, "A", "C", 0, LINK)


class TestSrlgDisjoint:
    def srlg_theta(self, tags):
        """Three 2-hop A-C routes via B, D, E with the given per-link tags."""
        (ab, bc), (ad, dc), (ae, ec) = tags
        return make_topology(
            "ABCDE",
            [("L_AB", "A", "B", {"srlgs": ab}), ("L_BC", "B", "C", {"srlgs": bc}),
             ("L_AD", "A", "D", {"srlgs": ad}), ("L_DC", "D", "C", {"srlgs": dc}),
             ("L_AE", "A", "E", {"srlgs": ae}), ("L_EC", "E", "C", {"srlgs": ec})],
        )

    def test_shared_risk_steers_selection(self):
        # Route via D shares risk group 1 with the first choice via B, so the
        # result pairs B with E.
        topology = self.srlg_theta([([1], [2]), ([1], [3]), ([4], [5])])
        paths = k_disjoint_paths(topology, "A", "C", 2, SRLG)
        assert [p.nodes for p in paths] == [("A", "B", "C"), ("A", "E", "C")]

    def test_backtracking_over_first_choice(self):
        # The cheapest first path (via B) conflicts with both alternatives;
        # only dropping it entirely leaves a compatible pair.
        topology = self.srlg_theta([([1], [2]), ([1], [3]), ([2], [4])])
        paths = k_disjoint_paths(topology, "A", "C", 2, SRLG)
        assert [p.nodes for p in paths] == [("A", "D", "C"), ("A", "E", "C")]

    def test_infeasible_set_reported(self):
        topology = self.srlg_theta([([1], []), ([1], []), ([1], [])])
        with pytest.raises(InsufficientDiversity) as err:
            k_disjoint_paths(topology, "A", "C", 2, SRLG)
        assert err.value.found == 1
        assert not err.value.budget_exhausted

    def test_budget_exhaustion_is_flagged(self):
        topology = self.srlg_theta([([1], [2]), ([3], [4]), ([5], [6])])
        with pytest.raises(InsufficientDiversity) as err:
            k_disjoint_paths(topology, "A", "C", 3, SRLG, srlg_budget=2)
        assert err.value.budget_exhausted

    def test_success_implies_link_disjoint(self):
        topology = self.srlg_theta([([1], [2]), ([3], [4]), ([5], [6])])
        paths = k_disjoint_paths(topology, "A", "C", 3, SRLG)
        assert verify_disjoint(topology, paths, LINK)
        assert verify_disjoint(topology, paths, SRLG)

    def test_matches_oracle_on_random_tagged_graphs(self):
        rng = random.Random(405)
        for _ in range(40):
            topology = random_connected_topology(rng, max_nodes=6, srlg_pool=4)
            nodes = sorted(topology.nodes)
            src, dst = nodes[0], nodes[-1]
            for k in (1, 2, 3):
                expected = exists_k_disjoint(topology, src, dst, k, SRLG)
                try:
                    paths = k_disjoint_paths(topology, src, dst, k, SRLG,
                                             srlg_budget=100000)
                    assert expected, (topology, k)
                    assert verify_disjoint(topology, paths, SRLG)
                except InsufficientDiversity as err:
                    assert not err.budget_exhausted
                    assert not expected, (topology, k)


class TestMaxDisjointCount:
    def test_four_cycle(self, four_cycle):
        assert max_disjoint_count(four_cycle, "A", "C", NODE) == 2

    def test_complete_graph(self):
        assert max_disjoint_count(complete_graph("ABCD"), "A", "C", LINK) == 3

    def test_unreachable_is_zero(self):
        topology = make_topology("ABC", [("L1", "A", "B")])
        assert max_disjoint_count(topology, "A", "C", LINK) == 0

    def test_srlg_mode_bounded_by_link_mode(self):
        topology = make_topology(
            "ABCD",
            [("L_AB", "A", "B", {"srlgs": [7]}), ("L_BC", "B", "C", {"srlgs": [7]}),
             ("L_CD", "C", "D", {"srlgs": [7]}), ("L_DA", "D", "A", {"srlgs": [7]})],
        )
        assert max_disjoint_count(topology, "A", "C", LINK) == 2
        assert max_disjoint_count(topology, "A", "C", SRLG) == 1

    def test_srlg_count_matches_probe_loop(self):
        """The SRLG count runs one bounded search for the link-mode ceiling.
        It must equal the answer of probing k = 1, 2, ... with a fresh
        budget each and stopping at the first k that fails, including when
        the budget runs out."""
        rng = random.Random(5051)
        for _ in range(120):
            topology = random_connected_topology(rng, max_nodes=9, srlg_pool=4)
            usable = {link.id for link in topology.links if rng.random() < 0.9}
            src, dst = rng.sample(sorted(topology.nodes), 2)
            ceiling = max_disjoint_count(topology, src, dst, LINK, usable_links=usable)
            for budget in (1, 2, 3, 5, 8, 20, 1000):
                probed = 0
                for k in range(1, ceiling + 1):
                    try:
                        k_disjoint_paths(topology, src, dst, k, SRLG,
                                         usable_links=usable, srlg_budget=budget)
                    except InsufficientDiversity:
                        break
                    probed = k
                assert max_disjoint_count(topology, src, dst, SRLG, usable_links=usable,
                                          srlg_budget=budget) == probed


class TestVerifyDisjoint:
    def test_accepts_valid_pair(self, four_cycle):
        paths = (Path(("A", "B", "C"), ("L_AB", "L_BC")),
                 Path(("A", "D", "C"), ("L_DA", "L_CD")))
        assert verify_disjoint(four_cycle, paths, NODE)

    def test_rejects_shared_link(self, four_cycle):
        paths = (Path(("A", "B", "C"), ("L_AB", "L_BC")),
                 Path(("A", "B", "C"), ("L_AB", "L_BC")))
        assert not verify_disjoint(four_cycle, paths, LINK)

    def test_rejects_shared_interior_node(self):
        topology = make_topology(
            "ABCM",
            [("L_AM", "A", "M"), ("L_MC", "M", "C"), ("L_AB", "A", "B"),
             ("L_BM", "B", "M")],
        )
        paths = (Path(("A", "M", "C"), ("L_AM", "L_MC")),
                 Path(("A", "B", "M", "C"), ("L_AB", "L_BM", "L_MC")))
        assert not verify_disjoint(topology, paths, NODE)

    def test_rejects_wrong_link_labels(self, four_cycle):
        paths = (Path(("A", "B", "C"), ("L_AB", "L_CD")),)
        assert not verify_disjoint(four_cycle, paths, LINK)

    def test_rejects_mismatched_endpoints(self, four_cycle):
        paths = (Path(("A", "B", "C"), ("L_AB", "L_BC")),
                 Path(("B", "C"), ("L_BC",)))
        assert not verify_disjoint(four_cycle, paths, LINK)


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", [LINK, NODE])
    def test_random_graphs_match_brute_force(self, mode):
        rng = random.Random(406 if mode is LINK else 407)
        for _ in range(60):
            topology = random_connected_topology(rng)
            nodes = sorted(topology.nodes)
            src, dst = nodes[0], nodes[-1]
            brute_max = max_disjoint_brute(topology, src, dst, mode)
            assert max_disjoint_count(topology, src, dst, mode) == brute_max
            for k in range(1, 5):
                try:
                    paths = k_disjoint_paths(topology, src, dst, k, mode)
                    assert k <= brute_max
                    assert verify_disjoint(topology, paths, mode)
                except InsufficientDiversity as err:
                    assert k > brute_max
                    assert err.found == brute_max
                else:
                    hops = sum(len(path.links) for path in paths)
                    assert hops == min_total_hops(topology, src, dst, k, mode)


def random_sparse_topology(rng):
    """Connected graph of 10-60 nodes: a random spanning tree plus n/4 to n
    chords."""
    n = rng.randint(10, 60)
    names = [f"v{i:02d}" for i in range(n)]
    pairs = {frozenset((names[i], rng.choice(names[:i]))) for i in range(1, n)}
    target = len(pairs) + rng.randint(n // 4, n)
    while len(pairs) < target:
        pairs.add(frozenset(rng.sample(names, 2)))
    links = [(f"L{i:03d}", *sorted(pair)) for i, pair in enumerate(sorted(pairs, key=sorted))]
    return make_topology(names, links)


class TestDisjointSearch:
    def test_count_resumes_from_paths(self):
        """paths(k) then count() on one search, and paths(1), paths(2), ...
        then count() on another, match a fresh search for each, for every k
        up to one past the maximum."""
        rng = random.Random(3034)
        for _ in range(300):
            topology = random_sparse_topology(rng)
            usable = {link.id for link in topology.links if rng.random() < 0.85}
            src, dst = rng.sample(sorted(topology.nodes), 2)
            for mode in (LINK, NODE):
                options = {"usable_links": usable}
                most = max_disjoint_count(topology, src, dst, mode, **options)
                grown = DisjointSearch(topology, src, dst, mode, **options)
                for k in range(1, most + 2):
                    search = DisjointSearch(topology, src, dst, mode, **options)
                    try:
                        paths = search.paths(k)
                    except InsufficientDiversity as err:
                        assert k == most + 1 and err.found == most
                    else:
                        assert k <= most
                        assert paths == k_disjoint_paths(topology, src, dst, k,
                                                         mode, **options)
                        assert grown.paths(k) == paths
                    assert search.count() == most
                assert grown.count() == most

    def test_paths_after_count_raises(self, theta):
        search = DisjointSearch(theta, "A", "C", NODE)
        assert search.count() == 3
        with pytest.raises(RuntimeError):
            search.paths(3)

    @pytest.mark.parametrize("mode", [LINK, NODE])
    def test_no_usable_links(self, four_cycle, mode):
        """Link mode compiles no arc at all, node mode internal arcs only."""
        with pytest.raises(InsufficientDiversity) as caught:
            DisjointSearch(four_cycle, "A", "C", mode, usable_links=set()).paths(1)
        assert (caught.value.requested, caught.value.found) == (1, 0)
        assert DisjointSearch(four_cycle, "A", "C", mode, usable_links=set()).count() == 0

    def test_inconsistent_potentials_raise(self, theta):
        """A potential that makes a residual arc's reduced cost negative
        breaks the search's invariant; the search refuses to go on."""
        search = DisjointSearch(theta, "A", "C", LINK)
        search._potential[search._names.index("B")] = 5
        with pytest.raises(RuntimeError, match="negative reduced cost"):
            search.paths(1)


def related_graphs(seed, count):
    """Seeded raw topologies of 6 to 120 nodes with an endpoint pair."""
    rng = random.Random(seed)
    for _ in range(count):
        raw = random_graph_dict(rng, max_nodes=120)
        yield rng, raw, *rng.sample(raw["nodes"], 2)


def hop_total(topology, src, dst, k, mode):
    return sum(len(path.links) for path in k_disjoint_paths(topology, src, dst, k, mode))


class TestMetamorphic:
    """Relations between searches on related graphs, which need no
    reference result."""

    @pytest.mark.parametrize("mode", [LINK, NODE])
    def test_relabelling_nodes_keeps_count_and_hops(self, mode):
        for rng, raw, src, dst in related_graphs(7101, 60):
            rename = dict(zip(raw["nodes"], rng.sample(raw["nodes"], len(raw["nodes"]))))
            relabelled = validate_topology({
                "nodes": [rename[node] for node in raw["nodes"]],
                "links": [dict(link, a=rename[link["a"]], b=rename[link["b"]])
                          for link in raw["links"]],
                "devices": []})
            topology = validate_topology(raw)
            most = max_disjoint_count(topology, src, dst, mode)
            assert max_disjoint_count(relabelled, rename[src], rename[dst], mode) == most
            for k in range(1, most + 1):
                assert (hop_total(relabelled, rename[src], rename[dst], k, mode)
                        == hop_total(topology, src, dst, k, mode))

    @pytest.mark.parametrize("mode", [LINK, NODE])
    def test_adding_a_link_never_lowers_the_count(self, mode):
        for rng, raw, src, dst in related_graphs(7102, 60):
            topology = validate_topology(raw)
            a, b = rng.choice((src, dst)), rng.choice(raw["nodes"])
            if a == b or topology.link_between(a, b) is not None:
                continue
            grown = validate_topology(
                dict(raw, links=raw["links"] + [{"id": "added", "a": a, "b": b}]))
            assert (max_disjoint_count(grown, src, dst, mode)
                    >= max_disjoint_count(topology, src, dst, mode))

    @pytest.mark.parametrize("mode", [LINK, NODE])
    def test_deleting_a_link_outside_the_k_set_keeps_the_hop_total(self, mode):
        for rng, raw, src, dst in related_graphs(7103, 60):
            topology = validate_topology(raw)
            most = max_disjoint_count(topology, src, dst, mode)
            if most == 0:
                continue
            k = rng.randint(1, most)
            paths = k_disjoint_paths(topology, src, dst, k, mode)
            used = {link for path in paths for link in path.links}
            spare = [link for link in raw["links"] if link["id"] not in used]
            if not spare:
                continue
            dropped = rng.choice(spare)
            pruned = validate_topology(
                dict(raw, links=[link for link in raw["links"] if link is not dropped]))
            assert hop_total(pruned, src, dst, k, mode) == sum(len(p.links) for p in paths)

    def test_link_count_at_least_node_count(self):
        for _, raw, src, dst in related_graphs(7104, 100):
            topology = validate_topology(raw)
            assert (max_disjoint_count(topology, src, dst, LINK)
                    >= max_disjoint_count(topology, src, dst, NODE))
