"""Per-article multi-layer network construction.

Four directed layers, one per interaction kind:

* ``RT`` retweet: a retweets b  ->  edge b -> a
* ``R``  reply:   a replies to b ->  edge a -> b
* ``Q``  quote:   a quotes b    ->  edge b -> a
* ``M``  mention: a mentions b  ->  edge a -> b

Repeated interactions between the same ordered pair increment the edge
weight. Self-interactions are dropped. Tweets with no interaction targets
at all are "pure": the network stores their count T and their distinct
authors, whose number is U.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from .graphops import DirectedGraph
from .ingest import ArticleCascade

LAYER_KINDS = ("Q", "RT", "M", "R")


@dataclass
class LayerGraph:
    """Weighted directed layer; nodes exist only as edge endpoints."""

    layer_kind: str
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def add_interaction(self, src: str, dst: str) -> None:
        if src == dst:
            return
        self.edges[(src, dst)] = self.edges.get((src, dst), 0) + 1

    def nodes(self) -> set[str]:
        out = set()
        for src, dst in self.edges:
            out.add(src)
            out.add(dst)
        return out

    def is_empty(self) -> bool:
        return not self.edges

    def to_directed_graph(self) -> DirectedGraph:
        return DirectedGraph(self.edges.keys())


@dataclass
class MultiLayerNetwork:
    """Layers keyed by kind, in the order the feature vector encodes them,
    plus the pure tweets' count T and their authors, U of them.
    """

    article_id: str
    layers: dict[str, LayerGraph]
    pure_tweet_count: int
    pure_authors: frozenset[str]


def build_network(cascade: ArticleCascade) -> MultiLayerNetwork:
    """Construct the four layers plus pure-tweet counters for one article.

    Output depends only on the tweet multiset, not on input order.
    """
    if not cascade.tweets:
        raise ValueError(f"cascade {cascade.article_id!r} has no tweets")
    layers = {kind: LayerGraph(kind) for kind in LAYER_KINDS}
    pure_authors: set[str] = set()
    pure_count = 0
    for t in cascade.tweets:
        a = t.author_id
        if t.interaction_free():
            pure_count += 1
            pure_authors.add(a)
            continue
        if t.retweet_of is not None:
            layers["RT"].add_interaction(t.retweet_of, a)
        if t.quote_of is not None:
            layers["Q"].add_interaction(t.quote_of, a)
        if t.reply_to is not None:
            layers["R"].add_interaction(a, t.reply_to)
        for m in t.mentions:
            layers["M"].add_interaction(a, m)
    return MultiLayerNetwork(
        article_id=cascade.article_id,
        layers=layers,
        pure_tweet_count=pure_count,
        pure_authors=frozenset(pure_authors),
    )


def aggregate_user_count(net: MultiLayerNetwork) -> int:
    """Unique users across all layers and pure tweets."""
    users: set[str] = set()
    for layer in net.layers.values():
        users |= layer.nodes()
    users |= net.pure_authors
    return len(users)


def aggregate_layer(net: MultiLayerNetwork) -> LayerGraph:
    """Union of all layer edges as a single directed graph (weights summed)."""
    merged = LayerGraph("ALL")
    for kind in LAYER_KINDS:
        for (src, dst), weight in net.layers[kind].edges.items():
            merged.edges[(src, dst)] = merged.edges.get((src, dst), 0) + weight
    return merged


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
