"""Independent reference for the 38-entry article vector.

Written from the metric definitions, not from ``diffnet.graphops``:
``scipy.sparse.csgraph`` gives strongly and weakly connected components
and the largest-WCC distances; clustering, k-core and density are short
plain loops. Nodes are numbered in first-appearance order over the edge
list, which is also the order ``diffnet`` iterates them, so the
clustering mean is summed in the same order and every entry must match
bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

LAYERS = ("Q", "RT", "M", "R")

# rows of the distance matrix computed at once, so memory stays
# O(block * n) on the largest components
_DISTANCE_BLOCK = 256


def build_layers(tweets) -> tuple[dict[str, dict], int, set]:
    """Directed edge sets per layer (insertion-ordered), pure count, pure authors."""
    layers: dict[str, dict] = {kind: {} for kind in LAYERS}
    pure = 0
    pure_authors: set = set()

    def add(kind, src, dst):
        if src != dst:
            layers[kind][(src, dst)] = None

    for t in tweets:
        a = t.author_id
        if t.retweet_of is None and t.quote_of is None and t.reply_to is None and not t.mentions:
            pure += 1
            pure_authors.add(a)
            continue
        if t.retweet_of is not None:
            add("RT", t.retweet_of, a)
        if t.quote_of is not None:
            add("Q", t.quote_of, a)
        if t.reply_to is not None:
            add("R", a, t.reply_to)
        for m in t.mentions:
            add("M", a, m)
    return layers, pure, pure_authors


def _kcore(n: int, edges: list[tuple[int, int]]) -> int:
    # degeneracy by min-degree peeling; a reciprocal pair counts twice
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(x) for x in nbrs]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * n
    best = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        best = max(best, d)
        for w in nbrs[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return best


def layer_metrics(edge_keys) -> tuple[tuple[float, ...], tuple[int, int, int]]:
    """SCC, LSCC, WCC, LWCC, DWCC, CC, KC, D, SV of one directed edge set,
    plus (nodes, largest-WCC nodes, largest-WCC undirected edges).
    """
    if not edge_keys:
        return (0.0,) * 9, (0, 0, 0)
    index: dict = {}
    names: list = []
    for src, dst in edge_keys:
        for node in (src, dst):
            if node not in index:
                index[node] = len(names)
                names.append(node)
    n = len(names)
    edges = [(index[s], index[d]) for s, d in edge_keys]
    rows = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
    cols = np.fromiter((v for _, v in edges), dtype=np.int64, count=len(edges))
    directed = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))

    n_scc, scc_of = connected_components(directed, directed=True, connection="strong")
    n_wcc, wcc_of = connected_components(directed, directed=True, connection="weak")
    wcc_sizes = np.bincount(wcc_of)
    biggest = int(wcc_sizes.max())
    # ties go to the component holding the smallest node id
    smallest_id: dict = {}
    for i in np.flatnonzero(wcc_sizes[wcc_of] == biggest).tolist():
        c = int(wcc_of[i])
        if c not in smallest_id or names[i] < smallest_id[c]:
            smallest_id[c] = names[i]
    lwcc = min(smallest_id, key=smallest_id.__getitem__)
    members = np.flatnonzero(wcc_of == lwcc)
    # undirected BFS from the members reaches only their own component
    far = 0
    total = 0
    for start in range(0, len(members), _DISTANCE_BLOCK):
        block = shortest_path(
            directed, directed=False, unweighted=True,
            indices=members[start:start + _DISTANCE_BLOCK],
        )[:, members]
        far = max(far, int(block.max()))
        total += int(block.sum())
    sv = 0.0 if biggest == 1 else total / (biggest * (biggest - 1))

    adj: list[set] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    cc_total = 0.0
    for nb in adj:
        k = len(nb)
        if k >= 2:
            cc_total += sum(len(adj[v] & nb) for v in nb) / (k * (k - 1))

    lwcc_edges = sum(len(adj[v]) for v in members) // 2
    metrics = (
        float(n_scc),
        float(np.bincount(scc_of).max()),
        float(n_wcc),
        float(biggest),
        float(far),
        cc_total / n,
        float(_kcore(n, edges)),
        len(edges) / (n * (n - 1)),
        sv,
    )
    return metrics, (n, biggest, lwcc_edges)


def article_vector(tweets) -> tuple[np.ndarray, int, list]:
    """The 38-entry vector, the aggregate user count and the per-layer
    sizes of one cascade.
    """
    layers, pure, pure_authors = build_layers(tweets)
    values: list[float] = []
    sizes = []
    users = set(pure_authors)
    for kind in LAYERS:
        metrics, size = layer_metrics(list(layers[kind]))
        values.extend(metrics)
        sizes.append(size)
        for src, dst in layers[kind]:
            users.add(src)
            users.add(dst)
    values += [float(pure), float(len(pure_authors))]
    return np.asarray(values, dtype=np.float64), len(users), sizes


def prefix(tweets, lifetime: int):
    """Tweets within ``lifetime`` seconds of the first (tweets are time-sorted)."""
    cutoff = tweets[0].timestamp + lifetime
    return tuple(t for t in tweets if t.timestamp <= cutoff)
