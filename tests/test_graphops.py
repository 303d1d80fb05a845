import random
import tracemalloc

import numpy as np
import pytest

import bruteforce as bf
from graphs import digraph, layer

from diffnet import graphops
from diffnet.features import LayerFeatures, extract_layer_features
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
        assert sorted(map(sorted, g._lists()[2])) == [[0, 2], [1], [1, 3], [2]]
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

    # a path is a forest; these two are not, so they run the general search

    def test_deep_cycle_is_one_scc(self):
        n = 30000
        g = digraph((i, (i + 1) % n) for i in range(n))
        n_scc, groups = graphops.scc_groups(g)
        assert (n_scc, list(map(len, groups))) == (1, [n])

    def test_deep_path_with_an_arc_back_to_its_middle(self):
        # the back arc closes a cycle over the second half; the first half
        # stays singletons
        n = 30000
        g = digraph([(i, i + 1) for i in range(n - 1)] + [(n - 1, n // 2)])
        assert graphops.scc_groups(g)[0] == n // 2 + 1
        assert _largest(strongly_connected_components(g)) == set(range(n // 2, n))


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
        assert set(np.flatnonzero(graphops._two_core(g._lists()[2]))) == {
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
            assert set(np.flatnonzero(graphops._two_core(g._lists()[2]))) == bf.two_core(nodes, edges)


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
        # a block holds at least 64 sources however few bits it may take:
        # 130 nodes go in blocks of 64, 64 and 2, so every block boundary
        # is crossed, and 128 in two whole blocks
        monkeypatch.setattr(graphops, "_BLOCK_BITS", 1)
        rng = random.Random(33)
        for n in (65, 127, 128, 129, 130):
            nodes = list(range(n))
            edges = _random_cyclic_edges(rng, nodes)
            g = digraph(edges, nodes=nodes)
            assert undirected_distance_stats(g) == bf.distance_stats_bfs(nodes, edges)

    def test_dense_graph_above_the_block_floor(self):
        # 8,300 edges on 130 nodes: 16,600 adjacency entries, above 2^14,
        # where _BLOCK_BITS alone would give blocks under 64 sources
        rng = random.Random(35)
        nodes = list(range(130))
        pairs = [(u, v) for u in nodes for v in nodes if u < v]
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in rng.sample(pairs, 8300)]
        g = digraph(edges, nodes=nodes)
        assert graphops._BLOCK_BITS // (2 * len(edges)) < 64
        assert undirected_distance_stats(g) == bf.distance_stats_bfs(nodes, edges)

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
        core = graphops._two_core(g._lists()[2])
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
    """Peeling by degree threshold against closed forms and naive peeling."""

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

    @pytest.mark.parametrize("top", [3, 12, 40])
    def test_core_ladder(self, top):
        # complete digraphs on 2..top nodes, each joined to the next by one
        # one-way arc: each clique of s nodes peels at its own level,
        # 2(s - 1), and the answer is the last level's
        rng = random.Random(top)
        edges, cliques, first = [], [], 0
        for s in range(2, top + 1):
            members = list(range(first, first + s))
            edges += [(u, v) for u in members for v in members if u != v]
            if cliques:
                u, v = rng.choice(cliques[-1]), rng.choice(members)
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
            cliques.append(members)
            first += s
        rng.shuffle(edges)  # labels in a random order
        g = digraph(edges)
        assert main_kcore_number(g) == 2 * (top - 1)
        assert graphops.scc_groups(g)[0] == top - 1
        assert _comp_key(strongly_connected_components(g)) == _comp_key(cliques)
        if top <= 12:
            assert main_kcore_number(g) == bf.main_kcore_peeling(range(first), edges)


class TestGeneralDirectedKernels:
    """SCCs and the main k-core of graphs with cycles, n up to 60, against
    mutual reachability and naive peeling."""

    def test_random_digraphs_with_cycles(self):
        rng = random.Random(1981)
        for n in range(1, 61):
            for _ in range(3):
                nodes = list(range(n))
                p = rng.choice((0.0, 0.02, 0.1, 0.3))
                edges = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < p]
                if n >= 3:
                    edges += _random_cyclic_edges(rng, nodes)
                g = digraph(edges, nodes=nodes)
                assert g._is_forest() == (n < 3)
                expected = bf.scc_sets(nodes, edges)
                n_scc, groups = graphops.scc_groups(g)
                assert n_scc == len(expected)
                assert _comp_key([{g._ids[v] for v in c} for c in groups]) == _comp_key(
                    [c for c in expected if len(c) > 1]
                )
                assert main_kcore_number(g) == bf.main_kcore_peeling(nodes, edges)


class TestGeneralForm:
    """A graph with a cycle builds its successors, predecessors and
    undirected lists in one walk, on first use by whichever kernel runs
    first, and that walk counts |E_und|."""

    KERNELS = {
        "pairs": lambda g: g._reciprocal_pairs(),
        "adj": lambda g: g.undirected_adj(),
        "scc": graphops.scc_groups,
        "wcc": graphops.largest_component,
        "distance": lambda g: graphops.component_distance_stats(g, graphops.largest_component(g)[1]),
        "cc": average_clustering,
        "kcore": main_kcore_number,
        "density": density,
    }

    def test_reciprocal_pair_counted_first_counts_once(self):
        # a triangle and a reciprocal pair, whose arcs run from the larger
        # label to the smaller and back
        g = digraph([(1, 2), (2, 3), (3, 1), (4, 3), (3, 4)])
        assert not g._is_forest() and g._form is None
        assert g._reciprocal_pairs() == 1
        assert g._form is not None and g._und_edges == 4
        assert g.undirected_adj() == {1: {2, 3}, 2: {1, 3}, 3: {1, 2, 4}, 4: {3}}

    def test_kernels_one_at_a_time_in_any_order(self):
        rng = random.Random(2026)
        for n in (3, 4, 6, 9, 15, 30):
            for _ in range(4):
                nodes = list(range(n))
                edges = _random_cyclic_edges(rng, nodes)
                edges += [(v, u) for u, v in rng.sample(edges, 2)]  # reciprocal pairs
                lg = layer("RT", dict.fromkeys(edges, 1))
                expected = extract_layer_features(lg)
                arcs = set(edges)
                pairs = sum((v, u) in arcs for u, v in arcs) // 2
                adj = {v: set() for v in nodes}
                for u, v in arcs:
                    adj[u].add(v)
                    adj[v].add(u)
                for first in self.KERNELS:
                    order = [first] + rng.sample([k for k in self.KERNELS if k != first], 7)
                    g = lg.to_directed_graph()
                    assert not g._is_forest() and g._form is None
                    got = {}
                    for name in order:
                        got[name] = self.KERNELS[name](g)
                        assert g._form is not None or name in ("wcc", "density")
                    assert (got["pairs"], got["adj"]) == (pairs, adj)
                    (n_scc, sccs), (n_wcc, _, size) = got["scc"], got["wcc"]
                    max_dist, dist_sum = got["distance"]
                    assert LayerFeatures(
                        scc=n_scc,
                        lscc=max(map(len, sccs), default=1),
                        wcc=n_wcc,
                        lwcc=size,
                        dwcc=max_dist,
                        cc=got["cc"],
                        kc=got["kcore"],
                        d=got["density"],
                        sv=dist_sum / (size * (size - 1)),
                    ) == expected
                assert expected.cc == bf.avg_clustering(nodes, edges)
                assert expected.kc == bf.main_kcore_peeling(nodes, edges)


def _ordered_forest(rng, n, reciprocal, new_root=0.2):
    """Arcs of a random forest on labels 0..n-1, in the order a layer makes
    them: each arc names the next unseen label as a child of a seen one,
    or the next two as a new root and its child, in a random direction.
    The reverse of ``reciprocal`` tree arcs (or all, if fewer) each come
    at a random place after the arc they reverse."""
    tree = []
    top = 0
    while top < n and n >= 2:
        if top == 0 or (top <= n - 2 and rng.random() < new_root):
            arc = (top, top + 1)
            top += 2
        else:
            arc = (rng.randrange(top), top)
            top += 1
        tree.append(arc if rng.random() < 0.5 else arc[::-1])
    # tree arc k sorts at 2k, its reverse at an odd key past it
    keyed = [(2 * k, arc) for k, arc in enumerate(tree)]
    for k in rng.sample(range(len(tree)), min(reciprocal, len(tree))):
        keyed.append((rng.randrange(2 * k + 1, 2 * len(tree) + 1, 2), tree[k][::-1]))
    return [arc for _, arc in sorted(keyed, key=lambda x: x[0])]


def _fits_pass(n, arcs):
    """Whether this arc order grows the forest without joining two trees,
    by sets: each arc names two new nodes, names one new node, or repeats
    an undirected edge that an earlier arc made; and all n nodes are
    named."""
    named, made = set(), set()
    for arc in arcs:
        edge = frozenset(arc)
        if len(edge) < 2:
            return False
        if edge <= named:
            if edge not in made:
                return False
            continue
        named |= edge
        made.add(edge)
    return len(named) == n


def _id_edges(ids, arcs):
    return [(ids[i], ids[j]) for i, j in arcs]


def _metrics(g):
    """Every kernel's result on ``g``, keyed by node ids so that two graphs
    of the same id edges compare equal whatever their labels."""
    ids = g._ids
    comps = g._components()[1]
    n_scc, groups = graphops.scc_groups(g)
    n_wcc, c, size = graphops.largest_component(g)
    return (
        n_scc,
        _comp_key([ids[v] for v in grp] for grp in groups),
        _comp_key([ids[v] for v in comp] for comp in comps),
        {
            frozenset(ids[v] for v in comp): graphops.component_distance_stats(g, k)
            for k, comp in enumerate(comps)
        },
        (n_wcc, size, min(ids[v] for v in comps[c])) if comps else None,
        average_clustering(g),
        main_kcore_number(g),
        density(g),
        g._is_forest(),
        g._reciprocal_pairs(),
    )


def _check_components_against_oracle(g, nodes, edges):
    """Components, SCCs, CC and k-core as in ``_check_against_oracles``, and
    each component's distances against one search per source."""
    _check_against_oracles(g, nodes, edges)
    ids = g._ids
    for k, comp in enumerate(g._components()[1]):
        members = {ids[v] for v in comp}
        inside = [(u, v) for u, v in edges if u in members]
        assert graphops.component_distance_stats(g, k) == bf.distance_stats_bfs(members, inside)


def _check_parents_first(g):
    """Each component lists its root first and every other node after its
    parent, and the labels name the component that lists the node."""
    label, comps, parent = g._components()
    assert sorted(v for comp in comps for v in comp) == list(range(len(g._ids)))
    for c, comp in enumerate(comps):
        assert parent[comp[0]] == -1
        place = {v: k for k, v in enumerate(comp)}
        for v in comp[1:]:
            assert place[parent[v]] < place[v]
        assert all(label[v] == c for v in comp)


class TestForestPass:
    """One pass over the arcs, in any order, grows a spanning forest: the
    kernels of a forest then build no adjacency lists, and a graph with a
    cycle builds them on first use."""

    @pytest.mark.parametrize("reciprocal", [0, 3, 1000])
    def test_random_ordered_forests(self, reciprocal):
        rng = random.Random(60 + reciprocal)
        for n in range(1, 61):
            ids = rng.sample(range(1000), n)
            arcs = _ordered_forest(rng, n, reciprocal)
            # a lone node has no arc to name it: it is isolated
            assert _fits_pass(n, arcs) == (n >= 2)
            edges = _id_edges(ids, arcs)
            g = DirectedGraph(ids, dict.fromkeys(arcs).keys())
            assert g._is_forest()
            _check_parents_first(g)
            _check_components_against_oracle(g, ids, edges)
            assert _metrics(g) == _metrics(DirectedGraph(ids, set(arcs)))
            # no kernel of a forest builds adjacency lists
            assert g._form is None
            # the same arc order on permuted labels: the pass compares no labels
            perm = rng.sample(range(n), n)
            relabelled = [None] * n
            for i, v in enumerate(ids):
                relabelled[perm[i]] = v
            h = DirectedGraph(relabelled, dict.fromkeys((perm[i], perm[j]) for i, j in arcs).keys())
            assert _metrics(h) == _metrics(g)
            assert h._form is None

    def test_every_order_of_small_forests(self):
        # the order changes nothing: no metric, and no adjacency lists
        rng = random.Random(65)
        grown = joined = 0
        for n in range(2, 7):
            for _ in range(20):
                ids = rng.sample(range(1000), n)
                # few roots: a shuffle that starts two parts of one tree
                # apart then joins them
                arcs = _ordered_forest(rng, n, rng.randrange(n), new_root=0.2)
                expected = _metrics(DirectedGraph(ids, dict.fromkeys(arcs).keys()))
                for _ in range(10):
                    order = rng.sample(arcs, len(arcs))
                    g = DirectedGraph(ids, dict.fromkeys(order).keys())
                    _check_parents_first(g)
                    assert _metrics(g) == expected
                    assert g._form is None
                    grows = _fits_pass(n, order)
                    grown += grows
                    joined += not grows
        assert grown > 100 and joined > 100

    def test_pass_lists_components_in_label_order(self):
        # two trees: 0-1 with 3 and 4 below 1, and 2-5 with a reciprocal pair
        arcs = [(0, 1), (2, 3), (3, 2), (1, 4), (4, 5)]
        g = DirectedGraph(list("abcdef"), dict.fromkeys(arcs).keys())
        label, comps, parent = g._components()
        assert comps == [[0, 1, 4, 5], [2, 3]]
        assert label == [0, 0, 1, 1, 0, 0]
        assert parent == [-1, 0, -1, 2, 1, 4]
        assert (g._und_edges, g._reciprocal_pairs()) == (4, 1)
        assert g._form is None

    @pytest.mark.parametrize("late", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_joining_tree_keeps_the_larger_root(self, late, flip):
        # a path 0-1-2 and a larger tree rooted at 3; the arc that joins
        # them names 2, the far end of the path from its root 0
        big = [(3, 4), (4, 5), (4, 6)]
        small = [(0, 1), (1, 2)]
        join = (5, 2) if flip else (2, 5)
        arcs = (small + big if late else big + small) + [join]
        g = DirectedGraph(list("abcdefg"), dict.fromkeys(arcs).keys())
        label, comps, parent = g._components()
        # the path is moved: rerooted at 2, hung under 5, listed 2, 1, 0
        assert parent[3] == -1 and parent[0] == 1
        assert parent[2] == 5 and parent[1] == 2
        assert comps == [[3, 4, 5, 6, 2, 1, 0]] and label == [0] * 7
        _check_parents_first(g)
        edges = _id_edges(g._ids, arcs)
        _check_components_against_oracle(g, g._ids, edges)
        assert g._is_forest() and g._form is None

    @pytest.mark.parametrize(
        "case", ["reversed", "shuffled", "set", "chord", "isolated", "isolated_middle", "joined"]
    )
    def test_other_orders_take_the_pass(self, case):
        rng = random.Random(70)
        for n in range(5, 41, 5):
            for reciprocal in (0, 2, n):
                ids = rng.sample(range(1000), n)
                arcs = _ordered_forest(rng, n, reciprocal, new_root=0.3)
                nodes = ids
                if case == "reversed":
                    arcs = arcs[::-1]
                elif case == "shuffled":
                    rng.shuffle(arcs)
                elif case == "chord":
                    # two nodes of one tree that no arc joins: a cycle
                    _, comps, _ = DirectedGraph(ids, dict.fromkeys(arcs).keys())._components()
                    comp = max(comps, key=len)
                    linked = {frozenset(a) for a in arcs}
                    pairs = [(u, v) for u in comp for v in comp if u < v and {u, v} not in linked]
                    if not pairs:
                        continue
                    arcs.append(rng.choice(pairs))
                elif case == "isolated":
                    nodes = ids + [1000]
                elif case in ("isolated_middle", "joined"):
                    # a directed path 0 -> 1 -> ..., then a second path
                    arcs = [(i, i + 1) for i in range(n - 1)]
                    if case == "isolated_middle":
                        # label k names no arc: the first arc past it names k + 1
                        k = rng.randrange(1, n - 1)
                        arcs = [(i + (i >= k), j + (j >= k)) for i, j in arcs]
                        nodes = ids + [1000]
                    else:
                        arcs += [(n, n + 1), (n + 1, n + 2), (n - 1, n + 2)]
                        nodes = ids + [1000, 1001, 1002]
                g = DirectedGraph(nodes, set(arcs) if case == "set" else dict.fromkeys(arcs).keys())
                assert g._is_forest() == (case != "chord")
                _check_parents_first(g)
                edges = _id_edges(nodes, arcs)
                _check_components_against_oracle(g, nodes, edges)
                # only a graph with a cycle builds adjacency lists
                assert (g._form is None) == (case != "chord")
                if case == "joined":
                    # still a forest: one path of n + 3 nodes
                    assert g._is_forest() and len(g._components()[1]) == 1

    @pytest.mark.parametrize("at", ["seen", "next"])
    def test_self_loop_is_refused(self, at):
        # a loop on a labelled node, inside its tree, or on the next label,
        # which no other arc names: a simple graph holds neither
        arcs = [(0, 1), (1, 2), (3, 1)]
        loop = (2, 2) if at == "seen" else (4, 4)
        ids = ["a", "b", "c", "d", "e"][: 4 if at == "seen" else 5]
        with pytest.raises(ValueError, match=f"self-loop at node {ids[loop[0]]!r}"):
            DirectedGraph(ids, dict.fromkeys(arcs + [loop]).keys())


class TestTreeDiameter:
    """The diameter from the reverse walk that sums subtree sizes, in the
    order the pass lists each tree, whatever order the arcs come in."""

    def test_random_trees_in_label_order(self):
        rng = random.Random(80)
        for n in range(1, 61):
            ids = rng.sample(range(1000), n)
            arcs = _ordered_forest(rng, n, n // 3, new_root=0)
            edges = _id_edges(ids, arcs)
            g = DirectedGraph(ids, dict.fromkeys(arcs).keys())
            assert g._is_forest()
            dwcc, total = graphops.component_distance_stats(g, 0)
            assert dwcc == bf.diameter(ids, edges)
            assert total == bf.distance_stats_bfs(ids, edges)[1]
            assert g._form is None

    def test_random_trees_beside_a_cycle(self):
        # the triangle makes the graph cyclic, and the tree component
        # still takes the tree path
        rng = random.Random(81)
        for n in range(1, 61):
            nodes = list(range(n))
            edges = _random_tree_edges(rng, nodes) + [(-1, -2), (-2, -3), (-3, -1)]
            g = digraph(edges, nodes=rng.sample(nodes, n))
            assert not g._is_forest()
            ids = g._ids
            (k,) = [k for k, comp in enumerate(g._components()[1]) if ids[comp[0]] >= 0]
            tree = edges[:-3]
            assert graphops.component_distance_stats(g, k) == (
                bf.diameter(nodes, tree),
                bf.distance_stats_bfs(nodes, tree)[1],
            )

    def test_long_path_grown_from_its_middle(self):
        # label 0 sits in the middle, so its height is half the diameter
        n = 20000
        lo, hi = n // 2 - 1, n // 2
        arcs = [(lo, hi)]
        while hi - lo < n - 1:
            # the two ends grow in turn
            if (hi - lo) % 2:
                arcs.append((lo, lo - 1))
                lo -= 1
            else:
                arcs.append((hi, hi + 1))
                hi += 1
        index = {}
        labelled = [(index.setdefault(u, len(index)), index.setdefault(v, len(index))) for u, v in arcs]
        g = DirectedGraph(list(index), dict.fromkeys(labelled).keys())
        assert g._is_forest()
        assert graphops.component_distance_stats(g, 0) == (n - 1, n * (n * n - 1) // 3)
        assert g._form is None
        assert extract_layer_features(layer("RT", dict.fromkeys(arcs, 1))).dwcc == n - 1
        # the same arc order under a random labelling of nodes 0..n-1
        perm = random.Random(82).sample(range(n), n)
        g = DirectedGraph(list(range(n)), dict.fromkeys((perm[u], perm[v]) for u, v in arcs).keys())
        assert g._is_forest()
        assert graphops.component_distance_stats(g, 0) == (n - 1, n * (n * n - 1) // 3)
        assert g._form is None

    def test_long_path_in_shuffled_order(self):
        # every arc may start a tree or join two: the pass reroots as it goes
        n = 20000
        rng = random.Random(83)
        perm = rng.sample(range(n), n)
        arcs = [(perm[k], perm[k + 1]) if rng.random() < 0.5 else (perm[k + 1], perm[k])
                for k in range(n - 1)]
        rng.shuffle(arcs)
        g = DirectedGraph(list(range(n)), dict.fromkeys(arcs).keys())
        assert g._is_forest() and len(g._components()[1]) == 1
        _check_parents_first(g)
        assert graphops.component_distance_stats(g, 0) == (n - 1, n * (n * n - 1) // 3)
        assert g._form is None

    @pytest.mark.parametrize("depth", [4, 7, 15])
    def test_complete_binary_tree_leaves_first(self, depth):
        # node k > 0 hangs under (k - 1) // 2; the arcs come deepest first,
        # so the pass starts a tree per pair of leaves and joins them upwards
        n = 2**depth - 1
        arcs = [((k - 1) // 2, k) for k in range(n - 1, 0, -1)]
        g = DirectedGraph(list(range(n)), dict.fromkeys(arcs).keys())
        assert g._is_forest() and len(g._components()[1]) == 1
        _check_parents_first(g)
        # 2^k subtrees of 2^(depth - k) - 1 nodes hang below depth k
        wiener = sum(2**k * (2 ** (depth - k) - 1) * (n - 2 ** (depth - k) + 1)
                     for k in range(1, depth))
        assert graphops.component_distance_stats(g, 0) == (2 * (depth - 1), 2 * wiener)
        if depth <= 7:
            assert graphops.component_distance_stats(g, 0) == bf.distance_stats_bfs(range(n), arcs)
        assert g._form is None
