"""Per-article multi-layer network construction.

Four directed layers, one per interaction kind:

* ``RT`` retweet: a retweets b  ->  edge b -> a
* ``R``  reply:   a replies to b ->  edge a -> b
* ``Q``  quote:   a quotes b    ->  edge b -> a
* ``M``  mention: a mentions b  ->  edge a -> b

Repeated interactions between the same ordered pair give one arc.
Self-interactions are dropped. Tweets with no interaction targets at all
are "pure": the network stores their count T and their distinct authors,
whose number is U.

Each layer labels its users 0..n-1 in order of first appearance as the
tweets are read (the clustering coefficient adds its terms in label
order, so the labels fix its last bits), and keeps its distinct arcs on
those labels in first-edge order. Layers and graphs are constructed only
from such labelled arcs, which the graph kernels take as they are, in
any order; ``LayerGraph.edges`` maps them back to user ids on each read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .graphops import DirectedGraph
from .ingest import ArticleCascade

LAYER_KINDS = ("Q", "RT", "M", "R")


class LayerGraph:
    """Directed layer; users exist only as edge endpoints.

    ``ids`` lists the layer's users, labelled 0..n-1 in order of first
    appearance, and ``arcs`` holds each labelled pair (i, j), i != j, once,
    as a dict's keys in the order its first interaction came; nothing is
    copied.
    """

    __slots__ = ("layer_kind", "ids", "arcs")

    def __init__(
        self, layer_kind: str, ids: list[str], arcs: dict[tuple[int, int], None]
    ) -> None:
        self.layer_kind, self.ids, self.arcs = layer_kind, ids, arcs

    @property
    def edges(self) -> list[tuple[str, str]]:
        """The arcs as user-id pairs, in first-edge order; computed on each
        read."""
        ids = self.ids
        return [(ids[i], ids[j]) for i, j in self.arcs]

    def is_empty(self) -> bool:
        return not self.arcs

    def to_directed_graph(self) -> DirectedGraph:
        return DirectedGraph(self.ids, self.arcs)


@dataclass
class MultiLayerNetwork:
    """Layers keyed by kind, in the order the feature vector encodes them,
    plus the pure tweets' count T and their authors, U of them.
    """

    layers: dict[str, LayerGraph]
    pure_tweet_count: int
    pure_authors: frozenset[str]


def build_network(cascade: ArticleCascade) -> MultiLayerNetwork:
    """Construct the four layers plus pure-tweet counters for one article.

    The arc sets depend only on the tweet multiset; labels and arc order
    follow the cascade's time order.
    """
    if not cascade.tweets:
        raise ValueError(f"cascade {cascade.article_id!r} has no tweets")
    # per layer, in LAYER_KINDS order: each user's label, and one labelled
    # pair per interaction
    index: tuple[dict[str, int], ...] = ({}, {}, {}, {})
    pairs: tuple[list[tuple[int, int]], ...] = ([], [], [], [])
    q, rt, m, r = pairs
    qx, rtx, mx, rx = index
    pure_authors: set[str] = set()
    pure_count = 0
    for t in cascade.tweets:
        a = t.author_id
        src, quoted, dst, mentions = t.retweet_of, t.quote_of, t.reply_to, t.mentions
        if src is None and quoted is None and dst is None and not mentions:
            pure_count += 1
            pure_authors.add(a)
            continue
        # self-interactions make a tweet impure but add no edge
        if src is not None and src != a:
            rt.append((rtx.setdefault(src, len(rtx)), rtx.setdefault(a, len(rtx))))
        if quoted is not None and quoted != a:
            q.append((qx.setdefault(quoted, len(qx)), qx.setdefault(a, len(qx))))
        if dst is not None and dst != a:
            r.append((rx.setdefault(a, len(rx)), rx.setdefault(dst, len(rx))))
        for target in mentions:
            if target != a:
                m.append((mx.setdefault(a, len(mx)), mx.setdefault(target, len(mx))))
    # a dict keeps each arc where the tweets first make it
    layers = {
        kind: LayerGraph(kind, list(ix), dict.fromkeys(p))
        for kind, ix, p in zip(LAYER_KINDS, index, pairs)
    }
    return MultiLayerNetwork(layers, pure_count, frozenset(pure_authors))


def aggregate_user_count(net: MultiLayerNetwork) -> int:
    """Unique users across all layers and pure tweets."""
    users = set(net.pure_authors)
    for layer in net.layers.values():
        users.update(layer.ids)
    return len(users)


def aggregate_layer(net: MultiLayerNetwork) -> LayerGraph:
    """Union of all layer arcs as a single directed layer.

    Each layer's users take merged labels in its label order, layer by
    layer, which is their first appearance over the layers' edges in
    Q/RT/M/R order; the merged arcs keep that first-edge order too.
    """
    index: dict[str, int] = {}
    arcs: dict[tuple[int, int], None] = {}
    for kind in LAYER_KINDS:
        layer = net.layers[kind]
        to = [index.setdefault(v, len(index)) for v in layer.ids]
        for i, j in layer.arcs:
            arcs[to[i], to[j]] = None
    return LayerGraph("ALL", list(index), arcs)


def truncate_by_lifetime(cascade: ArticleCascade, lifetime: int) -> ArticleCascade:
    """Keep tweets within ``lifetime`` seconds of the article's earliest tweet.

    The tweets must be in time order, as :meth:`ArticleCascade.build` leaves
    them: the first tweet is taken as the earliest, and the kept tweets are
    the prefix up to the cut, found by binary search.
    """
    if lifetime <= 0:
        raise ValueError("lifetime must be positive")
    if not cascade.tweets:
        raise ValueError(f"cascade {cascade.article_id!r} has no tweets")
    cutoff = cascade.tweets[0].timestamp + lifetime
    end = bisect_right(cascade.tweets, cutoff, key=attrgetter("timestamp"))
    return ArticleCascade(cascade.article_id, cascade.tweets[:end], cascade.label)
