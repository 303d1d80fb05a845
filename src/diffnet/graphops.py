"""Directed-graph algorithms behind the global network metrics.

Everything here is weight-agnostic: parallel edges collapse, self-loops are
dropped, and metrics that call for an undirected view use the simple
undirected projection. Distances (diameter, structural virality) are
exact. The node set is relabelled to 0..n-1 once; a tree (n - 1 edges)
takes an O(n) path, subtree sizes for the pair sum and two breadth-first
searches for the diameter. Any other graph runs compiled unweighted
shortest paths over an integer CSR matrix in row blocks, so memory stays
O(block * n) rather than n^2.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Hashable, Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

# most distances the general path holds at once (8 MB of float64)
_BLOCK_CELLS = 1 << 20


class DirectedGraph:
    """Simple directed graph over arbitrary hashable node ids.

    Duplicate edges collapse and self-loops are silently dropped, matching
    the set-based metric definitions used downstream.
    """

    __slots__ = ("_succ", "_pred", "_und")

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable]] = (),
        nodes: Iterable[Hashable] = (),
    ) -> None:
        self._succ: dict = {}
        self._pred: dict = {}
        for n in nodes:
            self.add_node(n)
        for u, v in edges:
            self.add_edge(u, v)
        self._und: Optional[dict] = None

    def add_node(self, n: Hashable) -> None:
        if n not in self._succ:
            self._succ[n] = set()
            self._pred[n] = set()
            self._und = None

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        if u == v:
            return
        self.add_node(u)
        self.add_node(v)
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._und = None

    @property
    def nodes(self):
        return self._succ.keys()

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def number_of_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def successors(self, n: Hashable) -> set:
        return self._succ[n]

    def predecessors(self, n: Hashable) -> set:
        return self._pred[n]

    def total_degree(self, n: Hashable) -> int:
        """In-degree plus out-degree on the simple directed graph."""
        return len(self._succ[n]) + len(self._pred[n])

    def undirected_adj(self) -> dict:
        """Adjacency of the undirected simple projection (cached)."""
        if self._und is None:
            self._und = {n: self._succ[n] | self._pred[n] for n in self._succ}
        return self._und


def strongly_connected_components(g: DirectedGraph) -> list[set]:
    """Partition nodes into maximal strongly connected components.

    Iterative Tarjan; linear in nodes + edges. Cascade chains can be long,
    so no recursion.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[set] = []
    counter = 0

    for root in g.nodes:
        if root in index:
            continue
        work = [(root, iter(g.successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, succ_iter = work[-1]
            advanced = False
            for w in succ_iter:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g.successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def weakly_connected_components(g: DirectedGraph) -> list[set]:
    """Partition nodes into connected components of the undirected projection."""
    und = g.undirected_adj()
    seen: set = set()
    components: list[set] = []
    for start in g.nodes:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in und[u]:
                if v not in comp:
                    comp.add(v)
                    seen.add(v)
                    queue.append(v)
        components.append(comp)
    return components


def _bfs(adj: list[list[int]], src: int) -> tuple[list[int], list[int], list[int]]:
    """Visit order, distances and BFS-tree parents from ``src``; -1 marks
    unreached nodes (and the root's parent)."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[src] = 0
    order = [src]
    for u in order:  # the list grows while it is walked: a FIFO queue
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                parent[v] = u
                order.append(v)
    return order, dist, parent


def _tree_distance_stats(
    adj: list[list[int]], order: list[int], parent: list[int]
) -> tuple[int, int]:
    """Diameter and ordered-pair distance sum of a tree, in O(n).

    Each edge lies on the paths of s * (n - s) unordered pairs, s being the
    size of the subtree below it (the Wiener index). The node farthest from
    any start is one end of a longest path, so a second BFS from it finds
    the diameter.
    """
    n = len(adj)
    size = [1] * n
    total = 0
    for u in reversed(order[1:]):  # children before their parents
        s = size[u]
        total += s * (n - s)
        size[parent[u]] += s
    _, dist, _ = _bfs(adj, order[-1])
    return max(dist), 2 * total


def _general_distance_stats(adj: list[list[int]]) -> tuple[int, int]:
    """Diameter and ordered-pair distance sum of a connected graph.

    Unweighted shortest paths from every node in compiled code, taken in
    row blocks so at most ``_BLOCK_CELLS`` distances are held at once. The
    adjacency lists hold both directions of each edge, so the matrix is
    symmetric and is searched as directed, which skips csgraph's own
    symmetrization.
    """
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adj], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.int32, count=int(indptr[-1]))
    csr = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    block = max(1, _BLOCK_CELLS // n)
    max_dist = 0
    total = 0
    for start in range(0, n, block):
        dist = shortest_path(
            csr, method="D", directed=True, unweighted=True,
            indices=np.arange(start, min(n, start + block)),
        ).astype(np.int64)
        max_dist = max(max_dist, int(dist.max()))
        total += int(dist.sum())
    return max_dist, total


def undirected_distance_stats(
    g: DirectedGraph, nodes: Optional[Iterable[Hashable]] = None
) -> tuple[int, int]:
    """Shortest undirected distances over the projection restricted to ``nodes``.

    Returns ``(max_distance, sum_of_ordered_pair_distances)``. The node set
    must induce a connected undirected subgraph (a single node counts as
    connected); otherwise ValueError. Shared by the diameter and structural
    virality metrics so the component is swept once per caller. Trees (n - 1
    edges) take an O(n) path; anything else the compiled all-pairs path.
    """
    und = g.undirected_adj()
    if nodes is None:
        members = list(und)
    else:
        members = set(nodes)
        for n in members:
            if n not in und:
                raise ValueError(f"node {n!r} not in graph")
    n = len(members)
    if n == 0:
        raise ValueError("empty node set")

    index = {v: i for i, v in enumerate(members)}
    adj = [[index[w] for w in und[v] if w in index] for v in members]
    order, _, parent = _bfs(adj, 0)
    if len(order) < n:
        raise ValueError("node set does not induce a connected subgraph")
    if sum(map(len, adj)) == 2 * (n - 1):
        return _tree_distance_stats(adj, order, parent)
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
    und = g.undirected_adj()
    members = set(und) if nodes is None else set(nodes)
    n = len(members)
    if n == 1:
        return 0.0
    _, total = undirected_distance_stats(g, members)
    return total / (n * (n - 1))


def average_clustering(g: DirectedGraph) -> float:
    """Mean local clustering coefficient on the undirected simple projection.

    Nodes with fewer than two neighbours contribute 0; an empty graph scores 0.
    """
    und = g.undirected_adj()
    n = len(und)
    if n == 0:
        return 0.0
    total = 0.0
    for nbrs in und.values():
        k = len(nbrs)
        if k < 2:
            continue
        # twice the number of edges among the neighbours; no self-loops, so
        # v itself never shows up in the intersection
        links2 = 0
        for v in nbrs:
            vn = und[v]
            small, large = (vn, nbrs) if len(vn) < len(nbrs) else (nbrs, vn)
            links2 += sum(1 for w in small if w in large)
        total += links2 / (k * (k - 1))
    return total / n


def main_kcore_number(g: DirectedGraph) -> int:
    """Largest k such that some nonempty subgraph has minimum total degree >= k.

    Total degree is in-degree plus out-degree on the simple directed graph
    (a reciprocal pair contributes 2). Computed by iterative peeling; 0 for
    an empty graph.
    """
    alive = set(g.nodes)
    if not alive:
        return 0
    deg = {n: g.total_degree(n) for n in alive}
    k = 0
    while alive:
        k_try = k + 1
        queue = deque(n for n in alive if deg[n] < k_try)
        while queue:
            u = queue.popleft()
            if u not in alive:
                continue
            alive.discard(u)
            for v in g.successors(u):
                if v in alive:
                    deg[v] -= 1
                    if deg[v] == k_try - 1:
                        queue.append(v)
            for v in g.predecessors(u):
                if v in alive:
                    deg[v] -= 1
                    if deg[v] == k_try - 1:
                        queue.append(v)
        if alive:
            k = k_try
    return k


def density(g: DirectedGraph) -> float:
    """|E| / (|V| (|V|-1)) with each directed pair counted once; 0 when |V| <= 1."""
    n = g.number_of_nodes()
    if n <= 1:
        return 0.0
    return g.number_of_edges() / (n * (n - 1))
