"""Directed-graph algorithms behind the global network metrics.

Everything here is weight-agnostic: a graph holds each arc once and no
self-loops, and metrics that call for an undirected view use the simple
undirected projection. Distances (diameter, structural virality) are
exact.

A :class:`DirectedGraph` runs every kernel on integer labels 0..n-1. It
is built only from labelled arcs: the list of node ids, whose position is
each node's label, and the distinct label pairs, as a layer holds them
once it has labelled its users. Ids reappear only in returned sets and
lists. The featurizer picks the largest weakly connected component by
its index and hands that index to the distance kernel.

One pass over the arcs, in any order, grows a spanning forest: the
components (each one parents first), each node's parent and whether the
undirected projection has a cycle; a forest has |E_und| = n - #trees. An
arc that joins two trees reroots the smaller at its end, listing the
reversed path first, and hangs it under the other end, so no node moves
more than log2(n) times. Only a graph with a cycle builds lists, on first
use and in one walk of the arcs: successors, predecessors, undirected.

So each kernel can test cheaply whether the undirected projection is a
forest (|E_und| = n - #WCC) and count reciprocal pairs (|E_dir| -
|E_und|):

* in a forest the clustering coefficient is 0, and the main k-core is 1,
  or 2 once there is a reciprocal pair (0 without edges);
* in a forest every directed cycle is a reciprocal pair, so the strongly
  connected components are those of the pairs: n - #pairs of them, grouped
  along the tree parents.

Otherwise SCCs come from the two plain searches of Kosaraju and Sharir
(Sharir 1981), in O(n + m), and the main k-core from peeling by degree
threshold, in O(n + m log K) for main core number K. A component that is
a tree takes an O(n) distance path: one reverse walk of its nodes,
children before parents, sums subtree sizes for the pair sum and keeps
each node's height for the diameter.

The general paths run in numpy on the undirected lists in compressed
form, part of the general form: an offsets array and a flat neighbour array.
Any component that is not a tree runs a bit-parallel breadth-first
search: each node holds one bit per source of a block, packed into
``uint64`` words, and each level is one gather of the frontier words
along the neighbour array, one OR-reduction per node and one popcount,
O(diameter * m) word operations per block. The sources go in blocks of
``_BLOCK_BITS // 2m``, so the gathered words hold about ``_BLOCK_BITS``
bits, and a block holds at least 64 sources: a smaller one would still
cost a whole word per adjacency entry. The clustering
coefficient first peels the projection to its 2-core: a node outside it
lies on no triangle. The core's neighbour sets are packed into ``uint64``
rows one word of 64 columns at a time, so memory stays O(c + m) words
however wide the core, and a node's twice-triangle count is the popcount
of its row AND each neighbour's row, summed over the words.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Hashable, Iterable, Optional

import numpy as np

# adjacency entries times sources in one block of the general distance path
_BLOCK_BITS = 1 << 20
# _BIT[i] is the word with bit i set
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


class DirectedGraph:
    """Simple directed graph on integer labels 0..n-1.

    ``ids[i]`` is the node id of label i, and ``arcs`` holds the distinct
    label pairs (i, j) with i != j, as a set or a dict's keys; neither is
    copied, and a loop (i, i) raises ValueError. The graph is fixed once
    built, so whatever a kernel derives from it is cached: the forest pass
    at construction and, for a graph with a cycle, the general form of
    ``_lists()`` on first use.
    """

    __slots__ = ("_ids", "_arcs", "_und_edges", "_wcc", "_form")

    def __init__(self, ids: list, arcs) -> None:
        self._ids = ids
        self._arcs = arcs
        self._form = None
        self._grow_forest()

    def _grow_forest(self) -> None:
        """``_components()``, and |E_und| unless there is a cycle."""
        label = [-1] * len(self._ids)
        parent = [-1] * len(self._ids)
        comps, cyclic = [], False
        for i, j in self._arcs:
            a, b = label[i], label[j]
            if a < 0:
                if b >= 0:
                    label[i] = b
                    parent[i] = j
                    comps[b].append(i)
                elif i != j:
                    label[i] = label[j] = len(comps)
                    parent[j] = i
                    comps.append([i, j])
                else:
                    raise ValueError(f"self-loop at node {self._ids[i]!r}")
            elif b < 0:
                label[j] = a
                parent[j] = i
                comps[a].append(j)
            elif a == b:
                if i == j:
                    raise ValueError(f"self-loop at node {self._ids[i]!r}")
                cyclic |= parent[i] != j and parent[j] != i
            else:
                if len(comps[a]) > len(comps[b]):  # move the smaller tree
                    i, j, a, b = j, i, b, a
                # hang tree a from j by i: reverse the path up to its old root
                path = [i]
                while parent[path[-1]] >= 0:
                    path.append(parent[path[-1]])
                for up, v in zip([j] + path, path):
                    parent[v] = up
                    label[v] = b
                for v in comps[a]:
                    if label[v] == a:
                        label[v] = b
                        path.append(v)
                comps[b] += path
                comps[a] = None
        if None in comps or -1 in label:
            comps = [comp for comp in comps if comp] + [[v] for v, c in enumerate(label) if c < 0]
            for c, comp in enumerate(comps):
                for v in comp:
                    label[v] = c
        self._wcc = (label, comps, parent)
        # a forest has |E_und| = n - #trees; otherwise _lists counts it
        self._und_edges = None if cyclic else len(label) - len(comps)

    def number_of_nodes(self) -> int:
        return len(self._ids)

    def number_of_edges(self) -> int:
        return len(self._arcs)

    def undirected_adj(self) -> dict:
        """Adjacency of the undirected simple projection, keyed by id."""
        ids = self._ids
        return {v: set(map(ids.__getitem__, nbrs)) for v, nbrs in zip(ids, self._lists()[2])}

    def _lists(self) -> tuple[list, list, list, np.ndarray, np.ndarray]:
        """The general form ``(succ, pred, und, offsets, nbrs)`` (cached),
        built in one walk of the arcs that counts |E_und|: each label's
        successors, predecessors and undirected neighbours, and the last
        in compressed form, label v's being ``nbrs[offsets[v]:offsets[v + 1]]``.
        The arcs are distinct, so no list holds a repeat."""
        if self._form is None:
            arcs = self._arcs
            succ, pred, und = ([[] for _ in self._ids] for _ in range(3))
            edges = 0
            for i, j in arcs:
                succ[i].append(j)
                pred[j].append(i)
                # one entry per undirected edge; a reciprocal pair enters from i < j
                if i < j or (j, i) not in arcs:
                    und[i].append(j)
                    und[j].append(i)
                    edges += 1
            offsets = np.fromiter(accumulate(map(len, und), initial=0), np.intp, len(und) + 1)
            nbrs = np.fromiter(chain.from_iterable(und), np.intp, offsets[-1])
            self._und_edges = edges
            self._form = succ, pred, und, offsets, nbrs
        return self._form

    def _components(self) -> tuple[list[int], list[list[int]], list[int]]:
        """Per node its component label and tree parent (-1 at a root), and
        per component its nodes, parents first."""
        return self._wcc

    def _reciprocal_pairs(self) -> int:
        """|E_dir| - |E_und|: each reciprocal pair is two arcs on one edge."""
        if self._und_edges is None:
            self._lists()  # counts |E_und|
        return len(self._arcs) - self._und_edges

    def _is_forest(self) -> bool:
        """Whether the undirected projection has no cycle."""
        return self._und_edges == len(self._ids) - len(self._wcc[1])


def scc_groups(g: DirectedGraph) -> tuple[int, list[list[int]]]:
    """Number of strongly connected components, and the integer labels of
    each one with two nodes or more.

    Every directed cycle of a forest is a reciprocal pair, so there the
    components are those of the reciprocal pairs, n - #pairs of them (no
    pairs: all singletons). Each pair is an edge of the forest, so one
    walk down the component order, parents first, puts every pair's child
    in the group of its parent.

    Any other graph runs the two searches of Kosaraju and Sharir, linear in
    nodes + edges: one depth-first search along successors records the
    order in which nodes are left, then in reverse of that order each
    unplaced node collects the unplaced nodes that reach it, by a search
    along predecessors. Cascade chains can be long, so no recursion.
    """
    n = len(g._ids)
    if g._is_forest():
        top: dict[int, int] = {}  # the first node of its group, per paired child
        if g._reciprocal_pairs():
            arcs = g._arcs
            _, comps, parent = g._components()
            for v in chain.from_iterable(comps):
                p = parent[v]
                if (v, p) in arcs and (p, v) in arcs:
                    top[v] = top.get(p, p)
        groups: dict[int, list[int]] = {}
        for v, first in top.items():
            groups.setdefault(first, [first]).append(v)
        return n - len(top), list(groups.values())
    succ, pred = g._lists()[:2]
    seen = [False] * n
    left: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, succ_iter = work[-1]
            for w in succ_iter:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                left.append(v)
    # no other component reaches the last node left, so the unplaced nodes
    # that reach it are its component; seen[v] now says v is unplaced
    count = 0
    multi: list[list[int]] = []
    for root in reversed(left):
        if not seen[root]:
            continue
        seen[root] = False
        comp = [root]
        for v in comp:  # the list grows while it is walked
            for u in pred[v]:
                if seen[u]:
                    seen[u] = False
                    comp.append(u)
        count += 1
        if len(comp) > 1:
            multi.append(comp)
    return count, multi


def strongly_connected_components(g: DirectedGraph) -> list[set]:
    """Partition nodes into maximal strongly connected components."""
    ids = g._ids
    _, groups = scc_groups(g)
    grouped = set(chain.from_iterable(groups))
    singles = [{v} for i, v in enumerate(ids) if i not in grouped]
    return [set(map(ids.__getitem__, c)) for c in groups] + singles


def weakly_connected_components(g: DirectedGraph) -> list[set]:
    """Partition nodes into connected components of the undirected projection."""
    ids = g._ids
    return [set(map(ids.__getitem__, comp)) for comp in g._components()[1]]


def largest_component(g: DirectedGraph) -> tuple[int, int, int]:
    """Number of weakly connected components, and the index of the largest
    in the graph's component list and its size; a tie goes to the
    component with the smallest node id."""
    comps = g._components()[1]
    sizes = list(map(len, comps))
    size = max(sizes)
    if sizes.count(size) == 1:
        return len(comps), sizes.index(size), size
    ids = g._ids
    tied = [c for c, s in enumerate(sizes) if s == size]
    return len(comps), min(tied, key=lambda c: min(map(ids.__getitem__, comps[c]))), size


def _general_distance_stats(offsets: np.ndarray, nbrs: np.ndarray) -> tuple[int, int]:
    """Diameter and ordered-pair distance sum of a connected graph on
    labels 0..n-1 with n >= 2, given as its undirected adjacency.

    Bit-parallel breadth-first search: bit k of node v says that source k
    of the block has reached v, and the bits are packed into ``uint64``
    words, word-major, so word w of v sits at ``w * n + v``. Each level
    gathers the words that arrived at the last level along the neighbour
    array and ORs each node's segment of them together; the bits a node
    had not yet seen are the new ones. The pair (k, v) adds 1 to the sum
    for every level it is still unreached at, so each level adds the
    unset bits. Sources go in blocks of ``_BLOCK_BITS // 2m``, and at
    least 64.
    """
    n = len(offsets) - 1
    entries = len(nbrs)
    block = max(64, _BLOCK_BITS // entries)
    max_dist = total = 0
    for start in range(0, n, block):
        width = min(block, n - start)
        word = np.arange((width + 63) >> 6)[:, None]
        gather = (word * n + nbrs).ravel()
        # every node has a neighbour, so no segment is empty
        segments = (word * entries + offsets[:-1]).ravel()
        k = np.arange(width)
        new = np.zeros(len(word) * n, dtype=np.uint64)
        new[(k >> 6) * n + start + k] = _BIT[k & 63]
        unreached = ~new
        level = 0
        missing = (n - 1) * width
        while missing:
            total += missing
            level += 1
            new = np.bitwise_or.reduceat(new[gather], segments)
            new &= unreached
            unreached ^= new
            missing -= int(np.bitwise_count(new).sum())
        max_dist = max(max_dist, level)
    return max_dist, total


def component_distance_stats(g: DirectedGraph, c: int) -> tuple[int, int]:
    """Diameter and ordered-pair distance sum of weakly connected component c.

    On a tree, reverse component order puts children before their parents,
    as any order with parents first does. An edge above a subtree of s
    nodes lies on s * (n - s) unordered pair paths (the Wiener index), and
    the same walk keeps each node's height: the longest path through a node
    joins its two highest child branches.
    """
    _, comps, parent = g._components()
    order = comps[c]
    n = len(order)
    tree = g._is_forest()
    if not tree:
        und = g._lists()[2]
        tree = sum(len(und[v]) for v in order) == 2 * (n - 1)
    if tree:
        size = [1] * len(parent)
        height = [0] * len(parent)
        total = diameter = 0
        for u in order[:0:-1]:  # every node but the root
            s = size[u]
            total += s * (n - s)
            p = parent[u]
            size[p] += s
            h = height[u] + 1
            hp = height[p]
            if hp + h > diameter:
                diameter = hp + h
            if h > hp:
                height[p] = h
        return diameter, 2 * total
    offsets, nbrs = g._lists()[3:]
    if n < len(parent):
        # relabel the component 0..n-1; its nodes' neighbours all lie in it
        order = np.array(order)
        degree = offsets[order + 1] - offsets[order]
        sub = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(degree, out=sub[1:])
        entry = np.repeat(offsets[order] - sub[:-1], degree) + np.arange(sub[-1])
        pos = np.empty(len(parent), dtype=np.intp)
        pos[order] = np.arange(n)
        offsets, nbrs = sub, pos[nbrs[entry]]
    return _general_distance_stats(offsets, nbrs)


def undirected_distance_stats(
    g: DirectedGraph, nodes: Optional[Iterable[Hashable]] = None
) -> tuple[int, int]:
    """Shortest undirected distances over the projection restricted to ``nodes``.

    Returns ``(max_distance, sum_of_ordered_pair_distances)``. The node set
    must induce a connected undirected subgraph (a single node counts as
    connected); otherwise ValueError. A set that is not a whole component
    is relabelled 0..n-1 into its induced graph, which then runs the same
    component path.
    """
    ids = g._ids
    if nodes is None:
        members = range(len(ids))
    else:
        index = dict(zip(ids, range(len(ids))))
        try:
            members = [index[v] for v in set(nodes)]
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} not in graph") from None
    n = len(members)
    if n == 0:
        raise ValueError("empty node set")
    label, comps, _ = g._components()
    c = label[members[0]]
    if len(comps[c]) == n and all(label[v] == c for v in members):
        return component_distance_stats(g, c)
    pos = dict(zip(members, range(n)))
    und = g._lists()[2]
    sub = DirectedGraph(
        [ids[v] for v in members],
        {(pos[v], pos[w]) for v in members for w in und[v] if w in pos},
    )
    if len(sub._components()[1]) > 1:
        raise ValueError("node set does not induce a connected subgraph")
    return component_distance_stats(sub, 0)


def _two_core(und: list[list[int]]) -> np.ndarray:
    """Which nodes of an undirected adjacency lie in its 2-core: peel every
    node with fewer than two neighbours left, until none is left."""
    degree = list(map(len, und))
    peeled = [v for v, d in enumerate(degree) if d < 2]
    for v in peeled:  # the list grows while it is walked: a queue
        for w in und[v]:
            degree[w] -= 1
            if degree[w] == 1:
                peeled.append(w)
    core = np.ones(len(und), dtype=bool)
    core[peeled] = False
    return core


def average_clustering(g: DirectedGraph) -> float:
    """Mean local clustering coefficient on the undirected simple projection.

    Nodes with fewer than two neighbours contribute 0; an empty graph or a
    forest scores 0. A node outside the 2-core lies on no triangle, so only
    the core is packed into bit rows, one bit per core neighbour. Twice a
    node's triangle count is the sum, over its neighbours, of the popcount
    of its row AND theirs. The rows are packed one word of 64 columns at a
    time, so memory stays O(c + m) words for a core of c nodes and m
    edges. The nonzero coefficients are added in label order, the order a
    sum over all nodes takes, so the float does not depend on the packing.
    """
    n = g.number_of_nodes()
    if n == 0 or g._is_forest():
        return 0.0
    _, _, und, offsets, nbrs = g._lists()
    core = _two_core(und)
    degree = offsets[1:] - offsets[:-1]
    src = np.repeat(np.arange(n), degree)
    keep = core[src] & core[nbrs]
    label = np.cumsum(core, dtype=np.intp) - 1  # labels 0..c-1 of the core nodes
    s, t = label[src[keep]], label[nbrs[keep]]
    c = int(label[-1]) + 1
    # the core's adjacency entries run by s, two or more per core node
    starts = np.searchsorted(s, np.arange(c))
    column, bit = t >> 6, _BIT[t & 63]
    links2 = 0
    for word in range((c + 63) >> 6):
        # bit i of rows[v] says that v links to core node 64 * word + i
        rows = np.bitwise_or.reduceat(np.where(column == word, bit, 0), starts)
        links2 = links2 + np.add.reduceat(np.bitwise_count(rows[s] & rows[t]), starts, dtype=np.intp)
    nonzero = np.flatnonzero(links2)
    total = 0.0
    for l2, k in zip(links2[nonzero].tolist(), degree[core][nonzero].tolist()):
        total += l2 / (k * (k - 1))
    return total / n


def main_kcore_number(g: DirectedGraph) -> int:
    """Largest k such that some nonempty subgraph has minimum total degree >= k.

    Total degree is in-degree plus out-degree on the simple directed graph
    (a reciprocal pair contributes 2). Peeling by threshold: k is the
    least degree left, and every node of degree k leaves, along with every
    node whose degree falls to k as they go; the degrees left then all
    exceed k, and the last k is the answer. 0 for a graph without edges. A
    level of least degree k starts with at most 2m/k nodes, and k grows
    at every level, so the scans cost O(n + m log K) for the answer K.
    """
    if g.number_of_edges() == 0:
        return 0
    if g._is_forest():
        # any subgraph of a forest has a node with at most one neighbour,
        # so at most total degree 2, which a reciprocal pair reaches
        return 2 if g._reciprocal_pairs() else 1
    succ, pred = g._lists()[:2]
    deg = [len(s) + len(p) for s, p in zip(succ, pred)]
    rest = range(len(deg))
    while True:
        k = min(map(deg.__getitem__, rest))
        peel = [v for v in rest if deg[v] == k]
        for v in peel:  # the list grows while it is walked
            # a reciprocal neighbour shows up in both lists: two decrements
            for u in chain(succ[v], pred[v]):
                d = deg[u]
                if d > k:  # a node at or below k is leaving already
                    deg[u] = d - 1
                    if d == k + 1:
                        peel.append(u)
        rest = [v for v in rest if deg[v] > k]
        if not rest:
            return k


def density(g: DirectedGraph) -> float:
    """|E| / (|V| (|V|-1)) with each directed pair counted once; 0 when |V| <= 1."""
    n = g.number_of_nodes()
    if n <= 1:
        return 0.0
    return g.number_of_edges() / (n * (n - 1))
