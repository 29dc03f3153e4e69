from __future__ import annotations

import gc
import heapq
import inspect
import random
import weakref
from pathlib import Path as FilePath
from types import SimpleNamespace
from unittest import mock

import pytest

from tnsc import (
    Controller,
    DisjointnessMode,
    DisjointSearch,
    Path,
    k_disjoint_paths,
    load_scenario,
    max_disjoint_count,
    parse_scenario,
    pathfind,
    run_scenario,
    validate_topology,
    verify_disjoint,
)
from tnsc.errors import InsufficientDiversity, ValidationError

from .conftest import make_topology
from .oracles import (
    adjacency,
    blocked_by,
    exists_k_disjoint,
    link_between,
    max_disjoint_brute,
    min_total_hops,
    random_connected_topology,
    random_graph_dict,
    reference_verify_disjoint,
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
            DisjointSearch(four_cycle, "A", "C", LINK,
                           blocked_links={"L_CD", "L_DA"}).paths(2)
        assert err.value.found == 1

    def test_unknown_blocked_links_raise(self, four_cycle):
        with pytest.raises(ValidationError) as caught:
            DisjointSearch(four_cycle, "A", "C", LINK,
                           blocked_links={"L_ZZ", "L_AB", "L_XY"})
        assert caught.value.element == "blocked_links"
        assert caught.value.message == "unknown links ['L_XY', 'L_ZZ']"
        # The endpoints are checked first.
        with pytest.raises(ValidationError) as caught:
            DisjointSearch(four_cycle, "A", "Z", LINK, blocked_links={"L_ZZ"})
        assert caught.value.element == "dst"

    def test_wrappers_take_no_options(self):
        """A mask or another budget means building a ``DisjointSearch``."""
        assert list(inspect.signature(k_disjoint_paths).parameters) == [
            "topology", "src", "dst", "k", "mode"]
        assert list(inspect.signature(max_disjoint_count).parameters) == [
            "topology", "src", "dst", "mode"]
        assert not hasattr(DisjointSearch, "usable")

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

    @pytest.mark.parametrize("mode", [LINK, NODE, SRLG])
    def test_negative_k_is_a_validation_error(self, four_cycle, mode):
        # A fresh search holds flow 0, which is more than k = -1.
        with pytest.raises(ValidationError) as caught:
            k_disjoint_paths(four_cycle, "A", "C", -1, mode)
        assert caught.value.element == "k"


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
            DisjointSearch(topology, "A", "C", SRLG, srlg_budget=2).paths(3)
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
                    paths = DisjointSearch(topology, src, dst, SRLG,
                                           srlg_budget=100000).paths(k)
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

    @pytest.mark.parametrize("mode", list(DisjointnessMode))
    def test_linkless_topology_has_no_path(self, mode):
        """With no link at all, link mode's residual arc list is empty: the
        shortest-path search reports the sink unreachable, and neither the
        count nor a request for one path divides by the empty list."""
        topology = make_topology("AB", [])
        assert max_disjoint_count(topology, "A", "B", mode) == 0
        with pytest.raises(InsufficientDiversity) as caught:
            k_disjoint_paths(topology, "A", "B", 1, mode)
        assert caught.value.detail() == {"requested": 1, "found": 0,
                                         "budget_exhausted": False}

    def test_srlg_mode_bounded_by_link_mode(self):
        topology = make_topology(
            "ABCD",
            [("L_AB", "A", "B", {"srlgs": [7]}), ("L_BC", "B", "C", {"srlgs": [7]}),
             ("L_CD", "C", "D", {"srlgs": [7]}), ("L_DA", "D", "A", {"srlgs": [7]})],
        )
        assert max_disjoint_count(topology, "A", "C", LINK) == 2
        assert max_disjoint_count(topology, "A", "C", SRLG) == 1

    def test_srlg_count_builds_one_search(self, monkeypatch):
        # The link-mode ceiling is counted on the search's own network.
        topology = make_topology(
            "ABCDE",
            [("L_AB", "A", "B", {"srlgs": [1]}), ("L_BC", "B", "C", {"srlgs": [2]}),
             ("L_AD", "A", "D", {"srlgs": [1]}), ("L_DC", "D", "C", {"srlgs": [3]}),
             ("L_AE", "A", "E", {"srlgs": [4]}), ("L_EC", "E", "C", {"srlgs": [5]})],
        )
        built = []
        original = DisjointSearch.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DisjointSearch, "__init__", counting)
        assert max_disjoint_count(topology, "A", "C", SRLG) == 2
        assert len(built) == 1

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
            blocked = blocked_by(topology, usable)
            ceiling = DisjointSearch(topology, src, dst, LINK, blocked_links=blocked).count()
            for budget in (1, 2, 3, 5, 8, 20, 1000):
                options = {"blocked_links": blocked, "srlg_budget": budget}
                probed = 0
                for k in range(1, ceiling + 1):
                    try:
                        DisjointSearch(topology, src, dst, SRLG, **options).paths(k)
                    except InsufficientDiversity:
                        break
                    probed = k
                assert DisjointSearch(topology, src, dst, SRLG, **options).count() == probed


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

    @pytest.mark.parametrize("mode", list(DisjointnessMode))
    def test_rejects_empty_set(self, four_cycle, mode):
        assert verify_disjoint(four_cycle, [], mode) is False

    @pytest.mark.parametrize("mode", list(DisjointnessMode))
    def test_rejects_repeated_node(self, four_cycle, mode):
        """``Path`` forbids a repeated node, but the checker vouches for any
        path-shaped input."""
        loop = SimpleNamespace(nodes=("A", "B", "A"), links=("L_AB", "L_AB"))
        assert verify_disjoint(four_cycle, [loop], mode) is False

    @pytest.mark.parametrize("mode", list(DisjointnessMode))
    def test_paths_raise_when_the_check_fails(self, four_cycle, mode):
        with mock.patch.object(pathfind, "verify_disjoint", return_value=False):
            with pytest.raises(RuntimeError, match="^internal error: computed paths "
                                                   "fail disjointness check$"):
                DisjointSearch(four_cycle, "A", "C", mode).paths(2)


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
                blocked = blocked_by(topology, usable)
                most = DisjointSearch(topology, src, dst, mode, blocked_links=blocked).count()
                grown = DisjointSearch(topology, src, dst, mode, blocked_links=blocked)
                for k in range(1, most + 2):
                    search = DisjointSearch(topology, src, dst, mode, blocked_links=blocked)
                    try:
                        paths = search.paths(k)
                    except InsufficientDiversity as err:
                        assert k == most + 1 and err.found == most
                    else:
                        assert k <= most
                        assert grown.paths(k) == paths
                    assert search.count() == most
                assert grown.count() == most

    def test_count_stops_at_the_endpoint_cut(self, four_cycle):
        """A and C each have two links, so once paths(2) has found two the
        count needs no breadth-first search, not even a failing one."""
        search = DisjointSearch(four_cycle, "A", "C", LINK)
        search.paths(2)
        with mock.patch.object(search, "_breadth_first", wraps=search._breadth_first) as bfs:
            assert search.count() == 2
        assert bfs.call_count == 0

    def test_paths_after_count_raises(self, theta):
        search = DisjointSearch(theta, "A", "C", NODE)
        assert search.count() == 3
        with pytest.raises(RuntimeError):
            search.paths(3)

    @pytest.mark.parametrize("mode", [LINK, NODE])
    def test_no_usable_links(self, four_cycle, mode):
        """Link mode masks every arc, node mode leaves internal arcs only."""
        every = set(four_cycle.link_by_id)
        with pytest.raises(InsufficientDiversity) as caught:
            DisjointSearch(four_cycle, "A", "C", mode, blocked_links=every).paths(1)
        assert (caught.value.requested, caught.value.found) == (1, 0)
        assert DisjointSearch(four_cycle, "A", "C", mode, blocked_links=every).count() == 0

    def test_inconsistent_potentials_raise(self, theta):
        """A potential that makes a residual arc's reduced cost negative
        breaks the search's invariant; the search refuses to go on."""
        search = DisjointSearch(theta, "A", "C", LINK)
        search._potential[search._network.index["B"]] = 5
        with pytest.raises(RuntimeError, match="negative reduced cost"):
            search.paths(1)

    def test_searches_share_a_network_without_changing_it(self):
        """Interleaved searches on one topology object, differing in
        endpoints, mode and usable links, give what each gives alone on a
        separately parsed equal topology: none of them changes the compiled
        network they all copy."""
        rng = random.Random(4046)
        for _ in range(6):
            raw = random_graph_dict(rng, min_nodes=50, max_nodes=400)
            shared = validate_topology(raw)
            plans = []
            for _ in range(8):
                usable = {link.id for link in shared.links if rng.random() < 0.8}
                plans.append((*rng.sample(sorted(shared.nodes), 2), rng.choice((LINK, NODE)),
                              rng.choice((None, usable)), rng.randint(1, 3)))
            # Each plan runs paths(k), then count() for about half of them.
            steps = [i for i in range(len(plans)) for _ in range(rng.randint(1, 2))]
            rng.shuffle(steps)
            searches: dict[int, DisjointSearch] = {}
            outcomes: dict[int, list] = {}
            for i in steps:
                src, dst, mode, usable, k = plans[i]
                if i not in searches:
                    searches[i] = DisjointSearch(shared, src, dst, mode,
                                                 blocked_links=blocked_by(shared, usable))
                    outcomes[i] = [_paths_or_found(searches[i], k)]
                else:
                    outcomes[i].append(searches[i].count())
            for i, outcome in outcomes.items():
                src, dst, mode, usable, k = plans[i]
                fresh = validate_topology(raw)
                alone = DisjointSearch(fresh, src, dst, mode,
                                       blocked_links=blocked_by(fresh, usable))
                expected = [_paths_or_found(alone, k)]
                if len(outcome) == 2:
                    expected.append(alone.count())
                assert outcome == expected, plans[i]


def _paths_or_found(search, k):
    try:
        return search.paths(k)
    except InsufficientDiversity as err:
        return err.found


class TestNetworkMemo:
    """Each topology object's network is compiled once per mode and lives
    exactly as long as the topology does."""

    def test_entry_goes_with_its_topology(self):
        topology = complete_graph("ABCD")
        for mode in (LINK, NODE):
            DisjointSearch(topology, "A", "C", mode).count()
        key = id(topology)
        assert {(key, False), (key, True)} <= pathfind._NETWORKS.keys()
        alive = weakref.ref(topology)
        del topology
        gc.collect()
        assert alive() is None
        assert not [entry for entry in pathfind._NETWORKS if entry[0] == key]

    def test_scenario_compiles_once_per_mode(self, monkeypatch):
        compiled = []
        original = pathfind._Network

        def counting(topology, split):
            compiled.append(split)
            return original(topology, split)

        monkeypatch.setattr(pathfind, "_Network", counting)
        scenario = load_scenario(str(FilePath(__file__).parent / "data"
                                     / "five_node_failure.json"))
        report = run_scenario(scenario)
        assert report.entries
        assert compiled == [True]

    def test_interleaved_destinations_match_a_fresh_copy(self):
        """Searches towards several destinations, interleaved on one
        topology object, give what the same searches give on a separately
        parsed copy, and leave each destination's memo entry as a fresh
        network would build it: no search writes into the shared start."""
        rng = random.Random(4047)
        for _ in range(4):
            raw = random_graph_dict(rng, min_nodes=50, max_nodes=400)
            shared, fresh = validate_topology(raw), validate_topology(raw)
            names = sorted(shared.nodes)
            targets = rng.sample(names, 3)
            for _ in range(9):
                dst = rng.choice(targets)
                src = rng.choice([name for name in names if name != dst])
                mode, k = rng.choice((LINK, NODE)), rng.randint(1, 3)
                got = DisjointSearch(shared, src, dst, mode)
                want = DisjointSearch(fresh, src, dst, mode)
                assert _paths_or_found(got, k) == _paths_or_found(want, k)
                assert got.count() == want.count()
            for split in (False, True):
                network = pathfind._NETWORKS[(id(shared), split)]
                rebuilt = pathfind._Network(shared, split)
                for dst in network.starts:
                    assert network.starts[dst] == rebuilt.start_potential(dst)

    def test_destination_entries_go_with_their_topology(self):
        topology = complete_graph("ABCDE")
        for dst in "BCD":
            DisjointSearch(topology, "A", dst, NODE).paths(1)
        network = pathfind._NETWORKS[(id(topology), True)]
        assert sorted(network.starts) == [1, 2, 3]
        alive = weakref.ref(network)
        del topology, network
        gc.collect()
        assert alive() is None

    def test_ingestion_builds_no_destination_entry(self, monkeypatch):
        built = []
        original = pathfind._Network.start_potential

        def counting(network, dst):
            built.append(dst)
            return original(network, dst)

        monkeypatch.setattr(pathfind._Network, "start_potential", counting)
        text = (FilePath(__file__).parent / "data" / "five_node_failure.json").read_text()
        scenario = parse_scenario(text)
        Controller(scenario.topology, scenario.bounds, scenario.mode, scenario.policy)
        assert built == []
        assert not [key for key in pathfind._NETWORKS if key[0] == id(scenario.topology)]


def hop_counts(topology, dst):
    """Hop distance from each node that reaches ``dst``, by a plain
    breadth-first search over the topology's adjacency."""
    adjacent = adjacency(topology)
    hops = {dst: 0}
    queue = [dst]
    for node in queue:
        for neighbor, _ in adjacent[node]:
            if neighbor not in hops:
                hops[neighbor] = hops[node] + 1
                queue.append(neighbor)
    return hops


def ring_with_chords(size, step):
    names = [f"r{i:02d}" for i in range(size)]
    links = [(f"L{i:02d}", names[i], names[(i + 1) % size]) for i in range(size)]
    links += [(f"C{i:02d}", names[i], names[(i + step) % size])
              for i in range(0, size, step // 2)]
    return make_topology(names, links)


class TestStartPotential:
    """A fresh search starts from minus each node's hop distance to the
    destination over every link, which keeps every reduced cost
    non-negative and turns the first path search into A*."""

    def start_cases(self):
        """Seeded connected graphs of 50 to 400 nodes, each with a
        disconnected node pair added, and a usable subset per search."""
        rng = random.Random(5150)
        for _ in range(10):
            raw = random_graph_dict(rng, min_nodes=50, max_nodes=400)
            raw = dict(raw, nodes=raw["nodes"] + ["island_a", "island_b"],
                       links=raw["links"] + [{"id": "island", "a": "island_a",
                                              "b": "island_b"}])
            topology = validate_topology(raw)
            main = raw["nodes"][:-2]
            pairs = [tuple(rng.sample(sorted(topology.nodes), 2)) for _ in range(3)]
            pairs += [("island_a", rng.choice(main)), (rng.choice(main), "island_b")]
            for src, dst in pairs:
                for mode in (LINK, NODE):
                    usable = rng.choice((None, {link.id for link in topology.links
                                                if rng.random() < 0.7}))
                    yield topology, src, dst, mode, usable

    def test_start_is_minus_the_hop_distance(self):
        for topology, src, dst, mode, usable in self.start_cases():
            search = DisjointSearch(topology, src, dst, mode,
                                    blocked_links=blocked_by(topology, usable))
            names = sorted(topology.nodes)
            hops = hop_counts(topology, dst)
            width = 2 if mode is NODE else 1
            expected = [-hops.get(names[v // width], len(names))
                        for v in range(width * len(names))]
            assert search._potential == expected, (src, dst, mode)

    def test_start_reduced_costs_are_non_negative(self):
        for topology, src, dst, mode, usable in self.start_cases():
            search = DisjointSearch(topology, src, dst, mode,
                                    blocked_links=blocked_by(topology, usable))
            potential = search._potential
            for arc in filter(None, search._residual):
                tail, head, cost, _ = arc
                assert cost + potential[tail] - potential[head] >= 0, (src, dst, arc)

    def test_first_search_pops_fewer_nodes_on_the_same_path(self, monkeypatch):
        popped = []

        def counting(heap):
            popped.append(heap[0])
            return heapq.heappop(heap)

        monkeypatch.setattr(pathfind, "heapq", SimpleNamespace(
            heappop=counting, heappush=heapq.heappush))
        search = DisjointSearch(ring_with_chords(48, 8), "r00", "r21", LINK)
        chains = {}
        for name, start in (("zeros", [0] * len(search._potential)),
                            ("hops", list(search._potential))):
            popped.clear()
            pred = pathfind._residual_shortest(search._residual, search._outgoing,
                                               start, search._source, search._sink)
            chain, node = [], search._sink
            while node != search._source:
                chain.append(pred[node])
                node = search._residual[pred[node]][0]
            chains[name] = (chain, len(popped))
        assert chains["hops"][0] == chains["zeros"][0]
        assert chains["hops"][1] < chains["zeros"][1]


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
            if a == b or link_between(adjacency(topology), a, b) is not None:
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


def _mutations(topology, paths, rng, foreign):
    """Broken variants of the path set ``paths``, each a valid ``Path``
    list: a hop relabelled with a neighbouring link, a skipped node, a hop
    to a node off the path's links, one path reversed, and a path swapped
    for ``foreign``, a path between other endpoints."""
    which = rng.randrange(len(paths))
    path = paths[which]
    nodes, links = list(path.nodes), list(path.links)
    variants = []
    hop = rng.randrange(len(links))
    adjacent = adjacency(topology)
    neighbours = [link_id for node in nodes[hop:hop + 2]
                  for _, link_id in adjacent[node] if link_id != links[hop]]
    if neighbours:
        variants.append((nodes, links[:hop] + [rng.choice(neighbours)] + links[hop + 1:]))
    if len(nodes) > 2:
        cut = rng.randrange(1, len(nodes) - 1)
        variants.append((nodes[:cut] + nodes[cut + 1:], links[:cut - 1] + links[cut:]))
        off = rng.choice(sorted(topology.nodes - set(nodes)))
        variants.append((nodes[:cut] + [off] + nodes[cut + 1:], links))
    variants.append((nodes[::-1], links[::-1]))
    mutated = [[*paths[:which], Path(tuple(n), tuple(l)), *paths[which + 1:]]
               for n, l in variants]
    return mutated + [[*paths[:which], foreign, *paths[which + 1:]]]


class TestVerifyDisjointReference:
    """``verify_disjoint`` looks each hop's link up by id; the reference
    finds it by its endpoints. They must agree on every set."""

    def test_matches_reference_on_found_and_broken_sets(self):
        rng = random.Random(7301)
        cases = rejected = 0
        for _ in range(24):
            raw = random_graph_dict(rng, min_nodes=50, max_nodes=400)
            for link in raw["links"]:
                link["srlgs"] = sorted({rng.randrange(80) for _ in range(rng.randint(0, 2))})
            topology = validate_topology(raw)
            sets = []
            for mode in (LINK, NODE):
                for _ in range(2):
                    src, dst = rng.sample(sorted(topology.nodes), 2)
                    search = DisjointSearch(topology, src, dst, mode)
                    k = _paths_or_found(search, 3)
                    sets.append(k if isinstance(k, list) else search.paths(max(k, 1)))
            for paths in sets:
                foreign = rng.choice([p for other in sets if other is not paths
                                      for p in other])
                for candidate in [paths, paths + paths[:1], *_mutations(
                        topology, paths, rng, foreign)]:
                    for mode in (LINK, NODE, SRLG):
                        expected = reference_verify_disjoint(topology, candidate, mode)
                        assert verify_disjoint(topology, candidate, mode) == expected
                        cases += 1
                        rejected += not expected
        assert cases > 1000 and 0 < rejected < cases


class TestBlockedLinksTypes:
    """``blocked_links`` may be any iterable of link ids: the search sees
    the same set whatever its container."""

    CONTAINERS = (list, tuple, set, frozenset)

    @pytest.mark.parametrize("mode", [LINK, NODE, SRLG])
    def test_containers_give_identical_results(self, mode):
        rng = random.Random(7401)
        for _ in range(20):
            topology = (random_connected_topology(rng, max_nodes=9, srlg_pool=4)
                        if mode is SRLG else
                        validate_topology(random_graph_dict(rng, max_nodes=60)))
            src, dst = rng.sample(sorted(topology.nodes), 2)
            ids = [link.id for link in topology.links if rng.random() < 0.2]
            rng.shuffle(ids)
            outcomes = []
            for container in self.CONTAINERS:
                blocked = container(ids + ids[:2])  # repeats are harmless
                search = DisjointSearch(topology, src, dst, mode, blocked_links=blocked)
                try:
                    paths = search.paths(2)
                except InsufficientDiversity as err:
                    paths = err.detail()
                outcomes.append((paths, search.count()))
            assert outcomes == [outcomes[0]] * len(self.CONTAINERS)

    def test_unknown_ids_raise_the_same_error(self, four_cycle):
        """The ids are checked once the network is compiled, so after each
        refusal a valid search must still find what it finds on a freshly
        parsed copy of the topology."""
        fresh = make_topology("ABCD", [(link.id, link.a, link.b)
                                       for link in four_cycle.links])
        messages = set()
        for container in self.CONTAINERS:
            for mode in (LINK, NODE, SRLG):
                with pytest.raises(ValidationError) as caught:
                    DisjointSearch(four_cycle, "A", "C", mode, blocked_links=container(
                        ["L_ZZ", "L_AB", "L_XY", "L_ZZ"]))
                messages.add((caught.value.element, caught.value.message))
                found = [(DisjointSearch(topology, "A", "C", mode,
                                         blocked_links=["L_AB"]).paths(1),
                          max_disjoint_count(topology, "A", "C", mode))
                         for topology in (four_cycle, fresh)]
                assert found[0] == found[1], (container, mode)
        assert messages == {("blocked_links", "unknown links ['L_XY', 'L_ZZ']")}
