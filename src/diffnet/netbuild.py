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
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from .graphops import DirectedGraph
from .ingest import ArticleCascade

LAYER_KINDS = ("Q", "RT", "M", "R")


@dataclass
class LayerGraph:
    """Weighted directed layer; nodes exist only as edge endpoints."""

    layer_kind: str
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def nodes(self) -> set[str]:
        return set(chain.from_iterable(self.edges))

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
    pairs: tuple[list[tuple[str, str]], ...] = ([], [], [], [])
    q, rt, m, r = pairs  # LAYER_KINDS order
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
            rt.append((src, a))
        if quoted is not None and quoted != a:
            q.append((quoted, a))
        if dst is not None and dst != a:
            r.append((a, dst))
        for target in mentions:
            if target != a:
                m.append((a, target))
    # a Counter keeps each edge where the tweets first make it
    layers = {kind: LayerGraph(kind, Counter(p)) for kind, p in zip(LAYER_KINDS, pairs)}
    return MultiLayerNetwork(
        article_id=cascade.article_id,
        layers=layers,
        pure_tweet_count=pure_count,
        pure_authors=frozenset(pure_authors),
    )


def aggregate_user_count(net: MultiLayerNetwork) -> int:
    """Unique users across all layers and pure tweets."""
    users = set(net.pure_authors)
    for layer in net.layers.values():
        users.update(chain.from_iterable(layer.edges))
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
