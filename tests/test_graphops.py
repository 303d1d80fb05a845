import random

import pytest

import bruteforce as bf
from diffnet import graphops
from diffnet.graphops import (
    DirectedGraph,
    average_clustering,
    density,
    diameter_undirected,
    main_kcore_number,
    strongly_connected_components,
    structural_virality,
    undirected_distance_stats,
    weakly_connected_components,
)


def _comp_key(comps):
    return sorted(tuple(sorted(c)) for c in comps)


def _largest(comps):
    return max(comps, key=lambda c: (len(c), -min(c)))


class TestBasics:
    def test_self_loops_and_duplicates_collapse(self):
        g = DirectedGraph([(1, 1), (1, 2), (1, 2), (2, 1)])
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 2
        # the reciprocal pair is two arcs on one undirected edge
        assert g.undirected_adj() == {1: {2}, 2: {1}}

    def test_isolated_node_kept_if_added_explicitly(self):
        g = DirectedGraph([(1, 2)], nodes=[5])
        assert set(g.nodes) == {1, 2, 5}

    def test_reciprocal_pair_is_one_undirected_edge(self):
        # the adjacency lists hold each neighbour once, so a forest with
        # reciprocal pairs is still seen as a forest by every shortcut
        g = DirectedGraph([(1, 2), (2, 1), (2, 3), (3, 2), (4, 3)])
        assert sorted(map(sorted, g._und)) == [[0, 2], [1], [1, 3], [2]]
        assert g._is_forest()
        assert g._reciprocal_pairs() == 2

    def test_undirected_adjacency_keyed_by_id(self):
        g = DirectedGraph([(1, 2), (3, 1)], nodes=[4])
        assert g.undirected_adj() == {1: {2, 3}, 2: {1}, 3: {1}, 4: set()}


class TestComponents:
    def test_two_node_cycle_is_one_scc(self):
        g = DirectedGraph([(1, 2), (2, 1), (2, 3)])
        comps = strongly_connected_components(g)
        assert _comp_key(comps) == [(1, 2), (3,)]

    def test_chain_is_all_singleton_sccs(self):
        g = DirectedGraph([(1, 2), (2, 3), (3, 4)])
        assert len(strongly_connected_components(g)) == 4

    def test_wcc_ignores_direction(self):
        g = DirectedGraph([(1, 2), (3, 2), (4, 5)])
        comps = weakly_connected_components(g)
        assert _comp_key(comps) == [(1, 2, 3), (4, 5)]

    def test_deep_chain_no_recursion_blowup(self):
        g = DirectedGraph((i, i + 1) for i in range(30000))
        assert len(strongly_connected_components(g)) == 30001
        assert len(weakly_connected_components(g)) == 1


class TestDistances:
    def test_path_of_three_diameter_and_virality(self):
        g = DirectedGraph([(1, 2), (2, 3)])
        assert diameter_undirected(g) == 2
        # ordered pair distances: 1,1,1,1,2,2 over 6 pairs
        assert structural_virality(g) == pytest.approx(8 / 6)

    def test_single_node_conventions(self):
        g = DirectedGraph(nodes=[7])
        assert diameter_undirected(g) == 0
        assert structural_virality(g) == 0.0

    def test_disconnected_raises(self):
        g = DirectedGraph([(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            diameter_undirected(g)
        with pytest.raises(ValueError):
            structural_virality(g)

    def test_restriction_to_component(self):
        g = DirectedGraph([(1, 2), (2, 3), (8, 9)])
        assert diameter_undirected(g, nodes={1, 2, 3}) == 2
        assert structural_virality(g, nodes={8, 9}) == 1.0

    def test_restriction_must_induce_connected_subgraph(self):
        # 1 and 3 are only linked through 2, which is excluded
        g = DirectedGraph([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            undirected_distance_stats(g, nodes={1, 3})


class TestClustering:
    def test_triangle(self):
        g = DirectedGraph([(1, 2), (2, 3), (3, 1)])
        assert average_clustering(g) == pytest.approx(1.0)

    def test_triangle_plus_pendant(self):
        # pendant 4 hangs off 3: coefficients 1, 1, 1/3, 0 -> mean 7/12
        g = DirectedGraph([(1, 2), (2, 3), (3, 1), (3, 4)])
        assert average_clustering(g) == pytest.approx(7 / 12)

    def test_reciprocal_edges_do_not_double_count(self):
        g = DirectedGraph([(1, 2), (2, 1), (2, 3), (3, 1)])
        assert average_clustering(g) == pytest.approx(1.0)

    def test_star_has_zero_clustering(self):
        g = DirectedGraph([(0, i) for i in range(1, 5)])
        assert average_clustering(g) == 0.0

    def test_empty_graph(self):
        assert average_clustering(DirectedGraph()) == 0.0


class TestKCore:
    def test_directed_three_cycle(self):
        g = DirectedGraph([(1, 2), (2, 3), (3, 1)])
        assert main_kcore_number(g) == 2

    def test_reciprocal_pair_counts_twice(self):
        g = DirectedGraph([(1, 2), (2, 1)])
        assert main_kcore_number(g) == 2

    def test_chain(self):
        g = DirectedGraph([(1, 2), (2, 3), (3, 4)])
        assert main_kcore_number(g) == 1

    def test_core_survives_pendant_peeling(self):
        g = DirectedGraph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
        assert main_kcore_number(g) == 2

    def test_empty(self):
        assert main_kcore_number(DirectedGraph()) == 0


class TestDensity:
    def test_single_edge_three_nodes(self):
        g = DirectedGraph([(1, 2)], nodes=[3])
        assert density(g) == pytest.approx(1 / 6)

    def test_complete_directed(self):
        g = DirectedGraph([(u, v) for u in range(3) for v in range(3) if u != v])
        assert density(g) == pytest.approx(1.0)

    def test_degenerate_sizes(self):
        assert density(DirectedGraph()) == 0.0
        assert density(DirectedGraph(nodes=[1])) == 0.0


def _random_graph(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    nodes = list(range(n))
    p = rng.uniform(0.05, 0.6)
    edges = [
        (u, v) for u in nodes for v in nodes if u != v and rng.random() < p
    ]
    g = DirectedGraph(edges, nodes=nodes)
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
            assert diameter_undirected(g, comp) == bf.diameter(nodes, edges, comp)
            assert structural_virality(g, comp) == pytest.approx(
                bf.avg_pair_distance(nodes, edges, comp)
            )

    def test_clustering_matches(self):
        rng = random.Random(11)
        for _ in range(150):
            nodes, edges, g = _random_graph(rng)
            assert average_clustering(g) == pytest.approx(
                bf.avg_clustering(nodes, edges)
            )

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
            self._check(DirectedGraph(edges, nodes=nodes), nodes, edges)

    def test_random_graphs_with_cycles(self):
        rng = random.Random(32)
        for n in range(3, 61):
            nodes = list(range(n))
            edges = _random_cyclic_edges(rng, nodes)
            assert len({frozenset(e) for e in edges}) >= n  # not a tree
            self._check(DirectedGraph(edges, nodes=nodes), nodes, edges)

    @pytest.mark.parametrize("make", [_random_tree_edges, _random_cyclic_edges])
    def test_restricted_to_one_component(self, make):
        rng = random.Random(57)
        for n in range(3, 61, 3):
            comp = list(range(n))
            other = list(range(100, 100 + rng.randint(3, 12)))
            edges = make(rng, comp) + _random_cyclic_edges(rng, other)
            nodes = comp + other
            g = DirectedGraph(edges, nodes=nodes)
            self._check(g, nodes, edges, set(comp))
            self._check(g, nodes, edges, set(other))
            # every node hangs off an earlier one, so a head of the
            # component is connected; the rest of it lies outside the set
            self._check(g, nodes, edges, set(comp[: n // 2 + 1]))

    def test_long_path_closed_form(self):
        n = 20000
        g = DirectedGraph((i, i + 1) for i in range(n - 1))
        assert undirected_distance_stats(g) == (n - 1, n * (n * n - 1) // 3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 60, 61, 1500])
    def test_cycle_closed_form(self, n):
        g = DirectedGraph((i, (i + 1) % n) for i in range(n))
        assert undirected_distance_stats(g) == (n // 2, n * (n * n // 4))
        if n == 1500:
            # the general path takes its sources in more than one block here
            assert graphops._BLOCK_BITS // n < n

    def test_many_source_blocks(self, monkeypatch):
        # blocks of one to a few sources, so every block boundary is crossed
        rng = random.Random(33)
        for bits in (1, 40, 200):
            monkeypatch.setattr(graphops, "_BLOCK_BITS", bits)
            for n in range(3, 41, 4):
                nodes = list(range(n))
                edges = _random_cyclic_edges(rng, nodes)
                self._check(DirectedGraph(edges, nodes=nodes), nodes, edges)

    def test_set_sized_like_a_component_but_spanning_two_raises(self):
        # either member's component has three nodes, as the set does
        g = DirectedGraph([(1, 2), (2, 3), (7, 8), (8, 9), (9, 7)])
        for nodes in ({1, 2, 7}, {1, 8, 9}, {3, 9, 2}):
            with pytest.raises(ValueError):
                undirected_distance_stats(g, nodes=nodes)

    def test_triangle_plus_isolated_node_raises(self):
        # three edges on four nodes: n - 1 edges, yet not a tree
        g = DirectedGraph([(1, 2), (2, 3), (3, 1)], nodes=[4])
        with pytest.raises(ValueError):
            undirected_distance_stats(g)
        with pytest.raises(ValueError):
            undirected_distance_stats(g, nodes={1, 2, 3, 4})


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
    assert average_clustering(g) == pytest.approx(bf.avg_clustering(nodes, edges))
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
            g = DirectedGraph(edges, nodes=nodes)
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
        g = DirectedGraph(edges)
        assert len(strongly_connected_components(g)) == n
        assert main_kcore_number(g) == 1
        assert average_clustering(g) == 0.0
        edges.append((n - 1, 0))
        g = DirectedGraph(edges)
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
            _check_against_oracles(DirectedGraph(edges, nodes=nodes), nodes, edges)


class TestBucketKCore:
    """Batagelj-Zaversnik peeling against closed forms and naive peeling."""

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30])
    def test_complete_digraph(self, n):
        g = DirectedGraph((u, v) for u in range(n) for v in range(n) if u != v)
        assert main_kcore_number(g) == 2 * (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 6, 13, 30])
    def test_one_way_tournament(self, n):
        rng = random.Random(n)
        g = DirectedGraph(
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
        g = DirectedGraph(edges)
        assert main_kcore_number(g) == 2 == bf.main_kcore_peeling(nodes, edges)

    def test_random_graphs_against_peeling(self):
        rng = random.Random(42)
        for n in range(1, 61):
            nodes = list(range(n))
            p = rng.uniform(0.02, 0.5)
            edges = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < p]
            g = DirectedGraph(edges, nodes=nodes)
            assert main_kcore_number(g) == bf.main_kcore_peeling(nodes, edges)
