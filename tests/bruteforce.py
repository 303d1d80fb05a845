"""Tiny-graph reference implementations used as test oracles.

Everything here trades speed for obviousness: boolean matrix closures,
Floyd-Warshall, exhaustive subset enumeration and naive repeated peeling.
The subset enumeration suits graphs of at most ~10 nodes; the cubic
closures and the peeling reach a few dozen, and a breadth-first search
per source a few hundred.
"""

from __future__ import annotations

import itertools

INF = float("inf")


def _index(nodes):
    order = sorted(nodes)
    return order, {n: i for i, n in enumerate(order)}


def _adj_matrix(n_nodes, edges, idx, symmetric):
    a = [[False] * n_nodes for _ in range(n_nodes)]
    for u, v in edges:
        if u == v:
            continue
        a[idx[u]][idx[v]] = True
        if symmetric:
            a[idx[v]][idx[u]] = True
    return a


def _reachability(a):
    n = len(a)
    r = [row[:] for row in a]
    for i in range(n):
        r[i][i] = True
    for k in range(n):
        for i in range(n):
            if r[i][k]:
                rk = r[k]
                ri = r[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return r


def scc_sets(nodes, edges):
    """Strongly connected components via mutual reachability."""
    order, idx = _index(nodes)
    r = _reachability(_adj_matrix(len(order), edges, idx, symmetric=False))
    comps = []
    assigned = set()
    for i, u in enumerate(order):
        if u in assigned:
            continue
        comp = {order[j] for j in range(len(order)) if r[i][j] and r[j][i]}
        assigned |= comp
        comps.append(comp)
    return comps


def wcc_sets(nodes, edges):
    """Weakly connected components via symmetric reachability."""
    order, idx = _index(nodes)
    r = _reachability(_adj_matrix(len(order), edges, idx, symmetric=True))
    comps = []
    assigned = set()
    for i, u in enumerate(order):
        if u in assigned:
            continue
        comp = {order[j] for j in range(len(order)) if r[i][j]}
        assigned |= comp
        comps.append(comp)
    return comps


def undirected_distances(nodes, edges):
    """Floyd-Warshall over the undirected simple projection."""
    order, idx = _index(nodes)
    n = len(order)
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        if u == v:
            continue
        i, j = idx[u], idx[v]
        d[i][j] = d[j][i] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            for j in range(n):
                alt = dik + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return order, d


def _undirected_sets(nodes, edges):
    und = {n: set() for n in nodes}
    for u, v in edges:
        if u != v:
            und[u].add(v)
            und[v].add(u)
    return und


def bfs_distance_sum(nodes, edges, source):
    """Eccentricity of ``source`` and the sum of its distances to every
    node, by one breadth-first search; ValueError if one is unreached."""
    und = _undirected_sets(nodes, edges)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in und[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if len(dist) != len(und):
        raise ValueError("disconnected")
    return max(dist.values()), sum(dist.values())


def distance_stats_bfs(nodes, edges):
    """Diameter and ordered-pair distance sum, one search per source."""
    best = total = 0
    for s in nodes:
        ecc, dist_sum = bfs_distance_sum(nodes, edges, s)
        best = max(best, ecc)
        total += dist_sum
    return best, total


def two_core(nodes, edges):
    """Nodes of the undirected 2-core: drop every node with fewer than two
    neighbours left, all at once, until none is."""
    und = _undirected_sets(nodes, edges)
    core = set(nodes)
    while True:
        low = {u for u in core if len(und[u] & core) < 2}
        if not low:
            return core
        core -= low


def diameter(nodes, edges, subset=None):
    order, d = undirected_distances(nodes, edges)
    idx = {n: i for i, n in enumerate(order)}
    members = list(subset) if subset is not None else order
    best = 0
    for u in members:
        for v in members:
            duv = d[idx[u]][idx[v]]
            if duv == INF:
                raise ValueError("disconnected")
            best = max(best, duv)
    return best


def avg_pair_distance(nodes, edges, subset=None):
    order, d = undirected_distances(nodes, edges)
    idx = {n: i for i, n in enumerate(order)}
    members = list(subset) if subset is not None else order
    n = len(members)
    if n == 1:
        return 0.0
    total = 0
    for u in members:
        for v in members:
            if u == v:
                continue
            duv = d[idx[u]][idx[v]]
            if duv == INF:
                raise ValueError("disconnected")
            total += duv
    return total / (n * (n - 1))


def avg_clustering(nodes, edges):
    """Direct triple counting on the undirected projection, summed in the
    order of ``nodes``."""
    und = _undirected_sets(nodes, edges)
    if not und:
        return 0.0
    total = 0.0
    for u, nbrs in und.items():
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(
            1 for v, w in itertools.combinations(sorted(nbrs), 2) if w in und[v]
        )
        total += 2.0 * links / (k * (k - 1))
    return total / len(und)


def main_kcore(nodes, edges):
    """Max over all nonempty node subsets of the induced min total degree.

    Exponential; the definitional gold standard for small graphs.
    """
    simple = {(u, v) for u, v in edges if u != v}
    node_list = sorted(nodes)
    best = 0
    for r in range(1, len(node_list) + 1):
        for subset in itertools.combinations(node_list, r):
            s = set(subset)
            min_deg = min(
                sum(1 for v in s if (u, v) in simple)
                + sum(1 for v in s if (v, u) in simple)
                for u in s
            )
            best = max(best, min_deg)
    return best


def main_kcore_peeling(nodes, edges):
    """Main core by naive peeling: for k = 1, 2, ... drop nodes of total
    degree below k until none is, and stop when nothing is left.

    Polynomial, so it reaches past the subset enumeration of
    :func:`main_kcore`; a reciprocal pair counts twice in total degree.
    """
    simple = {(u, v) for u, v in edges if u != v}
    nbrs = {n: [] for n in nodes}
    for u, v in simple:
        nbrs[u].append(v)
        nbrs[v].append(u)
    alive = set(nodes)
    k = 0
    while True:
        core = set(alive)
        while True:
            low = {u for u in core if sum(1 for v in nbrs[u] if v in core) < k + 1}
            if not low:
                break
            core -= low
        if not core:
            return k
        alive = core
        k += 1


def density(nodes, edges):
    n = len(set(nodes))
    if n <= 1:
        return 0.0
    simple = {(u, v) for u, v in edges if u != v}
    return len(simple) / (n * (n - 1))
