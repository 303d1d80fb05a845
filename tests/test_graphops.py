import random
import tracemalloc

import numpy as np
import pytest

import bruteforce as bf
from graphs import digraph, layer

from diffnet import graphops
from diffnet.features import extract_layer_features
from diffnet.graphops import (
    DirectedGraph,
    average_clustering,
    density,
    main_kcore_number,
    strongly_connected_components,
    undirected_distance_stats,
    weakly_connected_components,
)


def _comp_key(comps):
    return sorted(tuple(sorted(c)) for c in comps)


def _largest(comps):
    return max(comps, key=lambda c: (len(c), -min(c)))


class TestBasics:
    def test_self_loops_and_duplicates_collapse(self):
        g = digraph([(1, 1), (1, 2), (1, 2), (2, 1)])
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 2
        # the reciprocal pair is two arcs on one undirected edge
        assert g.undirected_adj() == {1: {2}, 2: {1}}

    def test_isolated_node_kept_if_added_explicitly(self):
        # the graph has a node per id, whether or not an arc names it
        g = DirectedGraph([1, 2, 5], {(0, 1)})
        assert g.number_of_nodes() == 3
        assert _comp_key(weakly_connected_components(g)) == [(1, 2), (5,)]

    def test_reciprocal_pair_is_one_undirected_edge(self):
        # the adjacency lists hold each neighbour once, so a forest with
        # reciprocal pairs is still seen as a forest by every shortcut
        g = digraph([(1, 2), (2, 1), (2, 3), (3, 2), (4, 3)])
        assert sorted(map(sorted, g._und)) == [[0, 2], [1], [1, 3], [2]]
        assert g._is_forest()
        assert g._reciprocal_pairs() == 2

    def test_undirected_adjacency_keyed_by_id(self):
        g = digraph([(1, 2), (3, 1)], nodes=[4])
        assert g.undirected_adj() == {1: {2, 3}, 2: {1}, 3: {1}, 4: set()}


class TestComponents:
    def test_two_node_cycle_is_one_scc(self):
        g = digraph([(1, 2), (2, 1), (2, 3)])
        comps = strongly_connected_components(g)
        assert _comp_key(comps) == [(1, 2), (3,)]

    def test_chain_is_all_singleton_sccs(self):
        g = digraph([(1, 2), (2, 3), (3, 4)])
        assert len(strongly_connected_components(g)) == 4

    def test_wcc_ignores_direction(self):
        g = digraph([(1, 2), (3, 2), (4, 5)])
        comps = weakly_connected_components(g)
        assert _comp_key(comps) == [(1, 2, 3), (4, 5)]

    def test_deep_chain_no_recursion_blowup(self):
        g = digraph((i, i + 1) for i in range(30000))
        assert len(strongly_connected_components(g)) == 30001
        assert len(weakly_connected_components(g)) == 1


class TestDistances:
    def test_path_of_three_diameter_and_virality(self):
        g = digraph([(1, 2), (2, 3)])
        # ordered pair distances: 1,1,1,1,2,2
        assert undirected_distance_stats(g) == (2, 8)
        feats = extract_layer_features(layer("RT", {(1, 2): 1, (2, 3): 1}))
        assert (feats.dwcc, feats.sv) == (2, 8 / 6)

    def test_single_node_conventions(self):
        assert undirected_distance_stats(digraph(nodes=[7])) == (0, 0)

    def test_disconnected_raises(self):
        g = digraph([(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            undirected_distance_stats(g)

    @pytest.mark.parametrize("nodes", [["nope"], ["nope", 1], [1, 2, "nope"]])
    def test_unknown_node_raises(self, nodes):
        # a lone unknown node is not a single-node graph
        g = digraph([(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="node 'nope' not in graph"):
            undirected_distance_stats(g, nodes)

    def test_single_known_node_of_a_larger_graph(self):
        g = digraph([(1, 2), (2, 3)])
        assert undirected_distance_stats(g, [2]) == (0, 0)

    def test_restriction_to_component(self):
        g = digraph([(1, 2), (2, 3), (8, 9)])
        assert undirected_distance_stats(g, nodes={1, 2, 3}) == (2, 8)
        assert undirected_distance_stats(g, nodes={8, 9}) == (1, 2)

    def test_restriction_must_induce_connected_subgraph(self):
        # 1 and 3 are only linked through 2, which is excluded
        g = digraph([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            undirected_distance_stats(g, nodes={1, 3})

    def test_induced_subgraph_of_later_labels(self):
        # the set holds labels 3..5 of a 6-node graph; its induced graph
        # is the path 9 - 7 - 8, without the arcs through 1
        g = digraph([(1, 2), (2, 3), (7, 8), (9, 7), (8, 1), (1, 9)])
        assert undirected_distance_stats(g, nodes={7, 8, 9}) == (2, 8)
        assert undirected_distance_stats(g, nodes={7, 9}) == (1, 2)


def _exact_clustering(edges, nodes):
    """The graph's clustering coefficient, asserted equal to the oracle's
    float: ``nodes`` lists every node in label order, so that both add the
    coefficients in one order."""
    got = average_clustering(digraph(edges, nodes=nodes))
    assert got == bf.avg_clustering(nodes, edges)
    return got


class TestClustering:
    def test_triangle(self):
        assert _exact_clustering([(1, 2), (2, 3), (3, 1)], [1, 2, 3]) == 1.0

    def test_triangle_plus_pendant(self):
        # pendant 4 hangs off 3: coefficients 1, 1, 1/3, 0 -> mean 7/12
        got = _exact_clustering([(1, 2), (2, 3), (3, 1), (3, 4)], [1, 2, 3, 4])
        assert got == pytest.approx(7 / 12)

    def test_reciprocal_edges_do_not_double_count(self):
        assert _exact_clustering([(1, 2), (2, 1), (2, 3), (3, 1)], [1, 2, 3]) == 1.0

    def test_star_has_zero_clustering(self):
        g = digraph([(0, i) for i in range(1, 5)])
        assert average_clustering(g) == 0.0

    def test_empty_graph(self):
        assert average_clustering(digraph()) == 0.0


def _random_edges(rng, nodes, p):
    return [(u, v) for u in nodes for v in nodes if u != v and rng.random() < p]


def _hang_trees(rng, nodes, extra):
    """Edges that hang ``extra`` new nodes off ``nodes`` as random trees."""
    edges = []
    grown = list(nodes)
    for v in extra:
        u = rng.choice(grown)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
        grown.append(v)
    return edges


# node counts on either side of one and two 64-bit words
WORD_EDGES = [63, 64, 65, 127, 128, 129]


class TestClusteringKernel:
    """The packed-row kernel against triple counting, on the shapes that
    reach it: cliques, dense graphs, 2-cores under pendant trees and
    several components, with cores on both sides of word boundaries."""

    @pytest.mark.parametrize("n", [3, 4, 10] + WORD_EDGES)
    def test_cliques(self, n):
        rng = random.Random(n)
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u)]
        assert average_clustering(digraph(edges, nodes=range(n))) == 1.0

    @pytest.mark.parametrize("n", WORD_EDGES)
    def test_dense_random_graphs(self, n):
        rng = random.Random(100 + n)
        for p in (0.1, 0.3, 0.7):
            # shuffled labels: the core's rows do not follow the node ids
            nodes = rng.sample(range(n), n)
            _exact_clustering(_random_edges(rng, nodes, p), nodes)

    @pytest.mark.parametrize("n", WORD_EDGES)
    def test_cores_with_pendant_trees(self, n):
        rng = random.Random(200 + n)
        core = list(range(n // 2))
        trees = list(range(n // 2, n))
        edges = _random_edges(rng, core, 0.3) + _hang_trees(rng, core, trees)
        nodes = rng.sample(range(n), n)
        _exact_clustering(edges, nodes)
        g = digraph(edges, nodes=nodes)
        assert set(np.flatnonzero(graphops._two_core(g._und))) == {
            nodes.index(v) for v in bf.two_core(nodes, edges)
        }

    def test_several_components(self):
        rng = random.Random(300)
        parts = [list(range(0, 5)), list(range(5, 75)), list(range(75, 140)), list(range(140, 200))]
        edges = [(u, v) for u in parts[0] for v in parts[0] if u < v]  # a clique
        edges += _random_edges(rng, parts[1], 0.2)
        edges += _random_edges(rng, parts[2][:30], 0.4) + _hang_trees(rng, parts[2][:30], parts[2][30:])
        edges += _random_tree_edges(rng, parts[3])
        nodes = rng.sample(range(200), 200)
        assert _exact_clustering(edges, nodes) > 0

    def test_two_core_matches_naive_peeling(self):
        rng = random.Random(301)
        for n in range(1, 80, 3):
            nodes = list(range(n))
            edges = _random_forest_edges(rng, nodes, 0) + _random_edges(rng, nodes, 1.5 / n)
            g = digraph(edges, nodes=nodes)
            assert set(np.flatnonzero(graphops._two_core(g._und))) == bf.two_core(nodes, edges)


class TestKCore:
    def test_directed_three_cycle(self):
        g = digraph([(1, 2), (2, 3), (3, 1)])
        assert main_kcore_number(g) == 2

    def test_reciprocal_pair_counts_twice(self):
        g = digraph([(1, 2), (2, 1)])
        assert main_kcore_number(g) == 2

    def test_chain(self):
        g = digraph([(1, 2), (2, 3), (3, 4)])
        assert main_kcore_number(g) == 1

    def test_core_survives_pendant_peeling(self):
        g = digraph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
        assert main_kcore_number(g) == 2

    def test_empty(self):
        assert main_kcore_number(digraph()) == 0


class TestDensity:
    def test_single_edge_three_nodes(self):
        g = digraph([(1, 2)], nodes=[3])
        assert density(g) == pytest.approx(1 / 6)

    def test_complete_directed(self):
        g = digraph([(u, v) for u in range(3) for v in range(3) if u != v])
        assert density(g) == pytest.approx(1.0)

    def test_degenerate_sizes(self):
        assert density(digraph()) == 0.0
        assert density(digraph(nodes=[1])) == 0.0


def _random_graph(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    nodes = list(range(n))
    p = rng.uniform(0.05, 0.6)
    edges = [
        (u, v) for u in nodes for v in nodes if u != v and rng.random() < p
    ]
    g = digraph(edges, nodes=nodes)
    return nodes, edges, g


class TestOracleEquivalence:
    """Randomized cross-checks against the brute-force definitions."""

    def test_components_match(self):
        rng = random.Random(20240817)
        for _ in range(150):
            nodes, edges, g = _random_graph(rng)
            assert _comp_key(strongly_connected_components(g)) == _comp_key(
                bf.scc_sets(nodes, edges)
            )
            assert _comp_key(weakly_connected_components(g)) == _comp_key(
                bf.wcc_sets(nodes, edges)
            )

    def test_distance_metrics_match_on_largest_wcc(self):
        rng = random.Random(907)
        for _ in range(150):
            nodes, edges, g = _random_graph(rng)
            comp = _largest(weakly_connected_components(g))
            n = len(comp)
            max_dist, total = undirected_distance_stats(g, comp)
            assert max_dist == bf.diameter(nodes, edges, comp)
            # the oracle's mean times the pair count is an exact integer
            assert total == round(bf.avg_pair_distance(nodes, edges, comp) * n * (n - 1))

    def test_clustering_matches(self):
        rng = random.Random(11)
        for _ in range(150):
            # the nodes are in label order, so both sum in one order
            nodes, edges, g = _random_graph(rng)
            assert average_clustering(g) == bf.avg_clustering(nodes, edges)

    def test_kcore_matches_subset_enumeration(self):
        rng = random.Random(4242)
        for _ in range(120):
            nodes, edges, g = _random_graph(rng, max_nodes=7)
            assert main_kcore_number(g) == bf.main_kcore(nodes, edges)

    def test_density_matches(self):
        rng = random.Random(5)
        for _ in range(100):
            nodes, edges, g = _random_graph(rng)
            assert density(g) == pytest.approx(bf.density(nodes, edges))


def _random_tree_edges(rng, nodes):
    """Each node after the first hangs off an earlier one, in a random direction."""
    edges = []
    for i in range(1, len(nodes)):
        u, v = nodes[rng.randrange(i)], nodes[i]
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return edges


def _random_cyclic_edges(rng, nodes):
    """A random tree plus random chords, at least one of them new: a cycle.

    Needs three or more nodes. Chords may repeat or reverse an edge.
    """
    edges = _random_tree_edges(rng, nodes)
    linked = {frozenset(e) for e in edges}
    while True:
        u, v = rng.sample(nodes, 2)
        if frozenset((u, v)) not in linked:
            edges.append((u, v))
            break
    for _ in range(rng.randint(0, len(nodes))):
        edges.append(tuple(rng.sample(nodes, 2)))
    return edges


class TestDistanceKernelOracle:
    """Tree and general distance paths against Floyd-Warshall, n up to 60."""

    def _check(self, g, nodes, edges, comp=None):
        max_dist, total = undirected_distance_stats(g, comp)
        if comp is not None:
            # paths stay inside the node set: the oracle sees only its
            # induced subgraph
            nodes = sorted(comp)
            edges = [(u, v) for u, v in edges if u in comp and v in comp]
        n = len(nodes)
        assert max_dist == bf.diameter(nodes, edges)
        # the oracle's mean times the pair count is an exact integer
        assert total == round(bf.avg_pair_distance(nodes, edges) * n * (n - 1))

    def test_random_trees(self):
        rng = random.Random(31)
        for n in range(1, 61):
            nodes = list(range(n))
            edges = _random_tree_edges(rng, nodes)
            self._check(digraph(edges, nodes=nodes), nodes, edges)

    def test_random_graphs_with_cycles(self):
        rng = random.Random(32)
        for n in range(3, 61):
            nodes = list(range(n))
            edges = _random_cyclic_edges(rng, nodes)
            assert len({frozenset(e) for e in edges}) >= n  # not a tree
            self._check(digraph(edges, nodes=nodes), nodes, edges)

    @pytest.mark.parametrize("make", [_random_tree_edges, _random_cyclic_edges])
    def test_restricted_to_one_component(self, make):
        rng = random.Random(57)
        for n in range(3, 61, 3):
            comp = list(range(n))
            other = list(range(100, 100 + rng.randint(3, 12)))
            edges = make(rng, comp) + _random_cyclic_edges(rng, other)
            nodes = comp + other
            g = digraph(edges, nodes=nodes)
            self._check(g, nodes, edges, set(comp))
            self._check(g, nodes, edges, set(other))
            # every node hangs off an earlier one, so a head of the
            # component is connected; the rest of it lies outside the set
            self._check(g, nodes, edges, set(comp[: n // 2 + 1]))

    def test_long_path_closed_form(self):
        n = 20000
        g = digraph((i, i + 1) for i in range(n - 1))
        assert undirected_distance_stats(g) == (n - 1, n * (n * n - 1) // 3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 60, 61, *WORD_EDGES, 1500])
    def test_cycle_closed_form(self, n):
        g = digraph((i, (i + 1) % n) for i in range(n))
        assert undirected_distance_stats(g) == (n // 2, n * (n * n // 4))
        if n == 1500:
            # a cycle has 2n adjacency entries: the general path takes its
            # sources in more than one block here, each of several words
            assert 64 < graphops._BLOCK_BITS // (2 * n) < n

    @pytest.mark.parametrize("n", WORD_EDGES)
    def test_blocks_of_several_words(self, monkeypatch, n):
        # blocks of 64, 65 and 100 sources: whole words, one bit over a
        # word, and a partial second word, with a short last block
        rng = random.Random(34 + n)
        nodes = rng.sample(range(n), n)
        edges = _random_cyclic_edges(rng, nodes)
        g = digraph(edges, nodes=nodes)
        entries = 2 * len({frozenset(e) for e in edges})
        expected = bf.distance_stats_bfs(nodes, edges)
        for sources in (64, 65, 100):
            monkeypatch.setattr(graphops, "_BLOCK_BITS", sources * entries)
            assert undirected_distance_stats(g) == expected

    def test_many_source_blocks(self, monkeypatch):
        # blocks of one to a few sources, each less than a word, so every
        # block boundary is crossed
        rng = random.Random(33)
        for bits in (1, 40, 200):
            monkeypatch.setattr(graphops, "_BLOCK_BITS", bits)
            for n in range(3, 41, 4):
                nodes = list(range(n))
                edges = _random_cyclic_edges(rng, nodes)
                self._check(digraph(edges, nodes=nodes), nodes, edges)

    def test_set_sized_like_a_component_but_spanning_two_raises(self):
        # either member's component has three nodes, as the set does
        g = digraph([(1, 2), (2, 3), (7, 8), (8, 9), (9, 7)])
        for nodes in ({1, 2, 7}, {1, 8, 9}, {3, 9, 2}):
            with pytest.raises(ValueError):
                undirected_distance_stats(g, nodes=nodes)

    def test_triangle_plus_isolated_node_raises(self):
        # three edges on four nodes: n - 1 edges, yet not a tree
        g = digraph([(1, 2), (2, 3), (3, 1)], nodes=[4])
        with pytest.raises(ValueError):
            undirected_distance_stats(g)
        with pytest.raises(ValueError):
            undirected_distance_stats(g, nodes={1, 2, 3, 4})


class TestWideSparseComponent:
    """One 20,000-node component that is a tree plus 50 chords: a star whose
    hub is linked to every leaf, with the chords joining 100 of the leaves
    in pairs, so 50 triangles through the hub. Its 2-core is the hub and
    those 100 leaves."""

    N = 20000

    @pytest.fixture(scope="class")
    def star(self):
        rng = random.Random(35)
        # shuffled labels: the hub, node 0, and the core spread over them
        nodes = rng.sample(range(self.N), self.N)
        chorded = rng.sample(range(1, self.N), 100)
        edges = [(0, v) if v % 2 else (v, 0) for v in range(1, self.N)]
        edges += [(chorded[i], chorded[i + 1]) for i in range(0, 100, 2)]
        return nodes, edges, chorded, digraph(edges, nodes=nodes)

    def test_two_core_is_the_triangles(self, star):
        nodes, _, chorded, g = star
        core = graphops._two_core(g._und)
        assert {nodes[i] for i in np.flatnonzero(core)} == {0, *chorded}

    def test_clustering_closed_form_and_memory(self, star):
        nodes, _, chorded, g = star
        # the hub closes 50 of its C(19999, 2) neighbour pairs, and each
        # chorded leaf has two linked neighbours; summed in label order
        k = self.N - 1
        coefficient = {0: 100 / (k * (k - 1)), **{v: 1.0 for v in chorded}}
        expected = 0.0
        for v in nodes:
            expected += coefficient.get(v, 0.0)
        tracemalloc.start()
        try:
            got = average_clustering(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected / self.N
        # rows for the core alone; a 20,000-bit row per node would take 50 MB
        assert peak < 10 * 2**20

    def test_distances_against_breadth_first_search(self, star):
        nodes, edges, chorded, g = star
        # every leaf with a chord is the image of every other under some
        # automorphism, and so is every leaf without one: a search from the
        # hub and from one leaf of each kind gives every source's sum
        plain = min(set(range(1, self.N)) - set(chorded))
        hub, with_chord, without = (
            bf.bfs_distance_sum(nodes, edges, v) for v in (0, chorded[0], plain)
        )
        total = hub[1] + 100 * with_chord[1] + (self.N - 101) * without[1]
        diameter = max(hub[0], with_chord[0], without[0])
        assert undirected_distance_stats(g) == (diameter, total) == (2, 2 * (self.N - 1) ** 2 - 100)


def _random_forest_edges(rng, nodes, reciprocal):
    """Random trees over ``nodes`` with random orientations, plus the reverse
    of ``reciprocal`` of their edges (or of all of them, if fewer)."""
    edges = []
    for i in range(1, len(nodes)):
        if rng.random() < 0.8:  # otherwise node i starts a new tree
            u, v = nodes[rng.randrange(i)], nodes[i]
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    edges += [(v, u) for u, v in rng.sample(edges, min(reciprocal, len(edges)))]
    return edges


def _check_against_oracles(g, nodes, edges):
    assert _comp_key(strongly_connected_components(g)) == _comp_key(bf.scc_sets(nodes, edges))
    assert _comp_key(weakly_connected_components(g)) == _comp_key(bf.wcc_sets(nodes, edges))
    assert average_clustering(g) == bf.avg_clustering(nodes, edges)
    kcore = main_kcore_number(g)
    assert kcore == bf.main_kcore_peeling(nodes, edges)
    if len(nodes) <= 7:
        assert kcore == bf.main_kcore(nodes, edges)
    return kcore


class TestForestShortcuts:
    """Forest projections, where CC, SCC and k-core skip their general paths."""

    @pytest.mark.parametrize("reciprocal", [0, 1, 1000])
    def test_random_forests(self, reciprocal):
        rng = random.Random(40 + reciprocal)
        for n in range(1, 61):
            nodes = list(range(n))
            edges = _random_forest_edges(rng, nodes, reciprocal)
            # a forest: n - #WCC undirected edges
            assert len({frozenset(e) for e in edges}) == n - len(bf.wcc_sets(nodes, edges))
            g = digraph(edges, nodes=nodes)
            kcore = _check_against_oracles(g, nodes, edges)
            assert average_clustering(g) == 0.0
            if not edges:
                assert kcore == 0
            elif reciprocal:
                assert kcore == 2
            else:
                assert kcore == 1

    @pytest.mark.parametrize("n", [3, 4, 9, 40])
    def test_chord_closes_a_cycle(self, n):
        # a directed path, then one chord back to its start: one cycle
        edges = [(i, i + 1) for i in range(n - 1)]
        nodes = list(range(n))
        g = digraph(edges)
        assert len(strongly_connected_components(g)) == n
        assert main_kcore_number(g) == 1
        assert average_clustering(g) == 0.0
        edges.append((n - 1, 0))
        g = digraph(edges)
        _check_against_oracles(g, nodes, edges)
        assert len(strongly_connected_components(g)) == 1
        assert main_kcore_number(g) == 2
        assert (average_clustering(g) > 0) == (n == 3)

    def test_random_forest_plus_one_chord(self):
        rng = random.Random(41)
        for n in range(3, 61):
            nodes = list(range(n))
            edges = _random_tree_edges(rng, nodes)
            u, v = rng.sample(nodes, 2)
            while frozenset((u, v)) in {frozenset(e) for e in edges}:
                u, v = rng.sample(nodes, 2)
            edges.append((u, v))
            _check_against_oracles(digraph(edges, nodes=nodes), nodes, edges)


class TestBucketKCore:
    """Batagelj-Zaversnik peeling against closed forms and naive peeling."""

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30])
    def test_complete_digraph(self, n):
        g = digraph((u, v) for u in range(n) for v in range(n) if u != v)
        assert main_kcore_number(g) == 2 * (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 6, 13, 30])
    def test_one_way_tournament(self, n):
        rng = random.Random(n)
        g = digraph(
            (u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n) for v in range(u + 1, n)
        )
        assert main_kcore_number(g) == n - 1

    def test_cycle_with_pendant_chains(self):
        # a directed 6-cycle with chains of length 1..4 hanging off it,
        # one of them made of reciprocal pairs
        edges = [(i, (i + 1) % 6) for i in range(6)]
        nodes = list(range(6))
        nxt = 6
        for anchor, length in ((0, 1), (2, 3), (3, 4)):
            prev = anchor
            for _ in range(length):
                edges.append((prev, nxt))
                nodes.append(nxt)
                prev, nxt = nxt, nxt + 1
        edges += [(5, 100), (100, 5), (100, 101), (101, 100)]
        nodes += [100, 101]
        g = digraph(edges)
        assert main_kcore_number(g) == 2 == bf.main_kcore_peeling(nodes, edges)

    def test_random_graphs_against_peeling(self):
        rng = random.Random(42)
        for n in range(1, 61):
            nodes = list(range(n))
            p = rng.uniform(0.02, 0.5)
            edges = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < p]
            g = digraph(edges, nodes=nodes)
            assert main_kcore_number(g) == bf.main_kcore_peeling(nodes, edges)
