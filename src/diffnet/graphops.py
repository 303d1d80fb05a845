"""Directed-graph algorithms behind the global network metrics.

Everything here is weight-agnostic: parallel edges collapse, self-loops are
dropped, and metrics that call for an undirected view use the simple
undirected projection. Distances (diameter, structural virality) are
exact.

A :class:`DirectedGraph` relabels its node ids to 0..n-1 once, as it is
built, and every kernel runs on that integer adjacency; ids reappear only
in returned sets. It keeps the set of directed arcs and the undirected
adjacency; successor and predecessor sets are built only when a kernel
follows directions. With its weakly connected components cached, each
kernel can test cheaply whether the undirected projection is a forest
(|E_und| = n - #WCC) and count reciprocal pairs (|E_dir| - |E_und|):

* in a forest the clustering coefficient is 0, and the main k-core is 1,
  or 2 once there is a reciprocal pair (0 without edges);
* in a forest without reciprocal pairs (|E_dir| = |E_und|) every strongly
  connected component is a single node.

Otherwise SCCs come from an iterative Tarjan and the k-core from the
bucket peeling of Batagelj and Zaversnik (2003), both linear. Distances
run on the node set relabelled in breadth-first order: a tree (n - 1
edges) takes an O(n) path, subtree sizes for the pair sum and two
breadth-first searches for the diameter. Any other graph runs a
bit-parallel breadth-first search with one Python-int bitset of sources
per node, O(diameter * m) big-int operations per block of sources. The
sources go in blocks of ``_BLOCK_BITS // n``, so the bitsets hold
O(n * block) bits, a few times ``_BLOCK_BITS``, at once.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import xor
from typing import Hashable, Iterable, Optional

# nodes times sources in one block of the general distance path
_BLOCK_BITS = 1 << 20


class DirectedGraph:
    """Simple directed graph over arbitrary hashable node ids.

    Duplicate edges collapse and self-loops are silently dropped, matching
    the set-based metric definitions used downstream. Node ids map to
    integer labels in order of first appearance. The graph is fixed once
    built, so whatever a kernel derives from it is cached.
    """

    __slots__ = ("_index", "_ids", "_arcs", "_und", "_und_edges", "_succ", "_pred", "_wcc")

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable]] = (),
        nodes: Iterable[Hashable] = (),
    ) -> None:
        index: dict = {}
        for v in nodes:
            index.setdefault(v, len(index))
        arcs = [
            (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
            for u, v in edges
            if u != v
        ]
        und: list[set[int]] = [set() for _ in index]
        for i, j in arcs:
            und[i].add(j)
            und[j].add(i)
        self._index = index
        self._ids = list(index)
        self._arcs = set(arcs)
        self._und = und
        self._und_edges = self._succ = self._pred = self._wcc = None

    @property
    def nodes(self):
        return self._index.keys()

    def number_of_nodes(self) -> int:
        return len(self._ids)

    def number_of_edges(self) -> int:
        return len(self._arcs)

    def undirected_adj(self) -> dict:
        """Adjacency of the undirected simple projection, keyed by id."""
        ids = self._ids
        return {v: set(map(ids.__getitem__, nbrs)) for v, nbrs in zip(ids, self._und)}

    def _directed(self) -> tuple[list[set[int]], list[set[int]]]:
        """Successors and predecessors of each integer label (cached); only
        the kernels that follow directions need them."""
        if self._succ is None:
            self._succ = [set() for _ in self._ids]
            self._pred = [set() for _ in self._ids]
            for i, j in self._arcs:
                self._succ[i].add(j)
                self._pred[j].add(i)
        return self._succ, self._pred

    def _components(self) -> tuple[list[int], list[list[int]]]:
        """Component label of each node, and each component's nodes in
        breadth-first order from its first node (cached)."""
        if self._wcc is None:
            und = self._und
            label = [-1] * len(und)
            comps: list[list[int]] = []
            for root in range(len(und)):
                if label[root] >= 0:
                    continue
                c = len(comps)
                label[root] = c
                order = [root]
                for u in order:  # the list grows while it is walked: a FIFO queue
                    for w in und[u]:
                        if label[w] < 0:
                            label[w] = c
                            order.append(w)
                comps.append(order)
            self._wcc = (label, comps)
        return self._wcc

    def _undirected_edges(self) -> int:
        """|E_und|, the edge count of the undirected projection (cached)."""
        if self._und_edges is None:
            self._und_edges = sum(map(len, self._und)) // 2
        return self._und_edges

    def _reciprocal_pairs(self) -> int:
        """|E_dir| - |E_und|: each reciprocal pair is two arcs on one edge."""
        return len(self._arcs) - self._undirected_edges()

    def _is_forest(self) -> bool:
        """Whether the undirected projection has no cycle."""
        return self._undirected_edges() == len(self._ids) - len(self._components()[1])


def strongly_connected_components(g: DirectedGraph) -> list[set]:
    """Partition nodes into maximal strongly connected components.

    Iterative Tarjan; linear in nodes + edges. Cascade chains can be long,
    so no recursion.
    """
    ids = g._ids
    if g._is_forest() and not g._reciprocal_pairs():
        # a directed cycle would be a cycle of the forest or a reciprocal pair
        return [{v} for v in ids]
    succ, _ = g._directed()
    n = len(ids)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[set] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, succ_iter = work[-1]
            for w in succ_iter:
                if index[w] < 0:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.add(ids[w])
                        if w == v:
                            break
                    components.append(comp)
    return components


def weakly_connected_components(g: DirectedGraph) -> list[set]:
    """Partition nodes into connected components of the undirected projection."""
    ids = g._ids
    return [set(map(ids.__getitem__, comp)) for comp in g._components()[1]]


def _eccentricity(adj: list[list[int]], src: int) -> int:
    """Largest breadth-first distance from ``src`` within its component."""
    seen = [False] * len(adj)
    seen[src] = True
    frontier = [src]
    ecc = -1
    while frontier:
        ecc += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    nxt.append(w)
        frontier = nxt
    return ecc


def _tree_distance_stats(adj: list[list[int]]) -> tuple[int, int]:
    """Diameter and ordered-pair distance sum of a tree, in O(n).

    Nodes are labelled in breadth-first order from 0, so each node's parent
    is its smallest neighbour. Each edge lies on the paths of s * (n - s)
    unordered pairs, s being the size of the subtree below it (the Wiener
    index). The last node in breadth-first order is one end of a longest
    path, so a second search from it finds the diameter.
    """
    n = len(adj)
    size = [1] * n
    total = 0
    for u in range(n - 1, 0, -1):  # children before their parents
        s = size[u]
        total += s * (n - s)
        size[min(adj[u])] += s
    return _eccentricity(adj, n - 1), 2 * total


def _general_distance_stats(adj: list[list[int]]) -> tuple[int, int]:
    """Diameter and ordered-pair distance sum of a connected graph.

    Bit-parallel breadth-first search: bit k of ``reach[v]`` says that
    source k of the block lies within the current level of v. A node
    reached by a source at one level hands it on to its neighbours at the
    next, so each level pushes only the bits that arrived at the last one.
    The pair (k, v) adds 1 to the sum for every level it is still
    unreached at, so each level adds the unset bits. Sources go in blocks
    of ``_BLOCK_BITS // n``, so memory stays O(n * block) bits.
    """
    n = len(adj)
    block = max(1, _BLOCK_BITS // n)
    max_dist = total = 0
    for start in range(0, n, block):
        width = min(block, n - start)
        reach = [0] * n
        reach[start:start + width] = [1 << k for k in range(width)]
        new, active = reach, range(start, start + width)
        level = 0
        missing = (n - 1) * width
        while missing:
            total += missing
            level += 1
            nxt = reach[:]
            for u in active:
                bits = new[u]
                for v in adj[u]:
                    nxt[v] |= bits
            new = list(map(xor, nxt, reach))
            missing -= sum(map(int.bit_count, new))
            active = list(compress(range(n), new))
            reach = nxt
        max_dist = max(max_dist, level)
    return max_dist, total


def undirected_distance_stats(
    g: DirectedGraph, nodes: Optional[Iterable[Hashable]] = None
) -> tuple[int, int]:
    """Shortest undirected distances over the projection restricted to ``nodes``.

    Returns ``(max_distance, sum_of_ordered_pair_distances)``. The node set
    must induce a connected undirected subgraph (a single node counts as
    connected); otherwise ValueError. Shared by the diameter and structural
    virality metrics so the component is swept once per caller. Trees (n - 1
    edges) take an O(n) path; anything else the bit-parallel path.
    """
    und = g._und
    if nodes is None:
        members = list(range(len(und)))
    else:
        index = g._index
        try:
            members = [index[v] for v in set(nodes)]
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} not in graph") from None
    n = len(members)
    if n == 0:
        raise ValueError("empty node set")

    label, comps = g._components()
    c = label[members[0]]
    if len(comps[c]) == n and all(label[v] == c for v in members):
        order, nbrs = comps[c], und
    else:
        keep = set(members)
        nbrs = {v: und[v] & keep for v in members}
        order = [members[0]]
        seen = {members[0]}
        for u in order:
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        if len(order) < n:
            raise ValueError("node set does not induce a connected subgraph")
    pos = dict(zip(order, range(n)))
    adj = [list(map(pos.__getitem__, nbrs[v])) for v in order]
    if sum(map(len, adj)) == 2 * (n - 1):
        return _tree_distance_stats(adj)
    return _general_distance_stats(adj)


def diameter_undirected(
    g: DirectedGraph, nodes: Optional[Iterable[Hashable]] = None
) -> int:
    """Largest shortest-path length between any pair, ignoring directions.

    0 for a single node; ValueError if the node set is disconnected.
    """
    max_dist, _ = undirected_distance_stats(g, nodes)
    return max_dist


def structural_virality(
    g: DirectedGraph, nodes: Optional[Iterable[Hashable]] = None
) -> float:
    """Mean shortest-path distance over all ordered node pairs, undirected.

    Equals the Wiener index scaled by 2/(|V|(|V|-1)); defined as 0 for a
    single node. ValueError if the node set is disconnected.
    """
    members = set(g.nodes) if nodes is None else set(nodes)
    n = len(members)
    if n == 1:
        return 0.0
    _, total = undirected_distance_stats(g, members)
    return total / (n * (n - 1))


def average_clustering(g: DirectedGraph) -> float:
    """Mean local clustering coefficient on the undirected simple projection.

    Nodes with fewer than two neighbours contribute 0; an empty graph or a
    forest scores 0.
    """
    n = g.number_of_nodes()
    if n == 0 or g._is_forest():
        return 0.0
    und = g._und
    total = 0.0
    for nbrs in und:
        k = len(nbrs)
        if k < 2:
            continue
        # twice the number of edges among the neighbours; no self-loops, so
        # the node itself never shows up in an intersection
        links2 = sum(len(und[v] & nbrs) for v in nbrs)
        total += links2 / (k * (k - 1))
    return total / n


def main_kcore_number(g: DirectedGraph) -> int:
    """Largest k such that some nonempty subgraph has minimum total degree >= k.

    Total degree is in-degree plus out-degree on the simple directed graph
    (a reciprocal pair contributes 2). Bucket peeling in O(n + m)
    (Batagelj and Zaversnik 2003): nodes leave in order of current degree,
    and the degree a node has when it leaves is its core number. 0 for a
    graph without edges.
    """
    if g.number_of_edges() == 0:
        return 0
    if g._is_forest():
        # any subgraph of a forest has a node with at most one neighbour,
        # so at most total degree 2, which a reciprocal pair reaches
        return 2 if g._reciprocal_pairs() else 1
    succ, pred = g._directed()
    n = len(succ)
    deg = [len(s) + len(p) for s, p in zip(succ, pred)]
    # bucket sort by degree: vert lists the nodes, pos is each node's place
    # in it, start[d] is where the nodes of degree d begin
    start = [0] * (max(deg) + 2)
    for d in deg:
        start[d + 1] += 1
    for d in range(1, len(start)):
        start[d] += start[d - 1]
    vert = [0] * n
    pos = [0] * n
    fill = start[:]
    for v, d in enumerate(deg):
        pos[v] = fill[d]
        vert[fill[d]] = v
        fill[d] += 1
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        # a reciprocal neighbour shows up in both sets: two decrements
        for u in chain(succ[v], pred[v]):
            du = deg[u]
            if du > dv:
                # swap u with the first node of its bucket, then shrink the
                # bucket past it: u now has degree du - 1
                first = start[du]
                w = vert[first]
                if w != u:
                    pu = pos[u]
                    vert[pu], vert[first] = w, u
                    pos[w], pos[u] = pu, first
                start[du] += 1
                deg[u] = du - 1
    return max(deg)


def density(g: DirectedGraph) -> float:
    """|E| / (|V| (|V|-1)) with each directed pair counted once; 0 when |V| <= 1."""
    n = g.number_of_nodes()
    if n <= 1:
        return 0.0
    return g.number_of_edges() / (n * (n - 1))
