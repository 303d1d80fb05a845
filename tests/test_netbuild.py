import dataclasses
import random
from collections import Counter

import bruteforce as bf
import pytest
from graphs import digraph, layer
from random_cascades import random_cascade, reference_layers

from diffnet.features import extract_layer_features
from diffnet.ingest import ArticleCascade, ArticleLabel, TweetRecord, group_cascades
from diffnet.netbuild import (
    LAYER_KINDS,
    LayerGraph,
    aggregate_layer,
    aggregate_user_count,
    build_network,
    truncate_by_lifetime,
)
from diffnet.synth import default_config, generate_corpus

LABEL = ArticleLabel("a1", "D", "example.org", "right")


def _tweet(i, author, ts=None, **kw):
    return TweetRecord(
        tweet_id=f"t{i}",
        author_id=author,
        timestamp=ts if ts is not None else 1000 + i,
        article_id="a1",
        **kw,
    )


def _cascade(tweets):
    return ArticleCascade.build("a1", tweets, LABEL)


def _graph_shape(g):
    """Labels, arc set, undirected edge count and sorted adjacency."""
    und = g._lists()[2]
    return g._ids, set(g._arcs), g._und_edges, [sorted(nbrs) for nbrs in und]


class TestLabelledLayers:
    """Layers labelled as they are built, against the same edges relabelled
    from their user ids by ``digraph``."""

    CASES = [(seed, n_tweets, n_users) for seed in range(12)
             for n_tweets, n_users in ((8, 3), (40, 6), (150, 14))]

    @pytest.mark.parametrize("seed,n_tweets,n_users", CASES)
    def test_graph_equals_graph_of_edges(self, seed, n_tweets, n_users):
        cascade = random_cascade(random.Random(seed), n_tweets, n_users)
        want, _ = reference_layers(cascade)
        net = build_network(cascade)
        for kind in LAYER_KINDS:
            got = net.layers[kind]
            assert got.edges == list(want[kind])
            ref = digraph(want[kind])
            assert got.ids == ref._ids
            assert _graph_shape(got.to_directed_graph()) == _graph_shape(ref)

    def test_cases_hold_every_kind_of_interaction(self):
        seen = Counter()
        for seed, n_tweets, n_users in self.CASES:
            cascade = random_cascade(random.Random(seed), n_tweets, n_users)
            for t in cascade.tweets:
                a = t.author_id
                seen["self"] += a in (t.retweet_of, t.quote_of, t.reply_to) or a in t.mentions
                seen["reply target mentioned"] += t.reply_to in t.mentions
            for edges in reference_layers(cascade)[0].values():
                seen["repeated"] += any(w > 1 for w in edges.values())
                seen["reciprocal"] += any((v, u) in edges for u, v in edges)
        assert min(seen.values()) >= 5 and len(seen) == 4

    @pytest.mark.parametrize("seed,n_tweets,n_users", CASES)
    def test_aggregate_equals_union_of_edges(self, seed, n_tweets, n_users):
        cascade = random_cascade(random.Random(seed), n_tweets, n_users)
        want, pure = reference_layers(cascade)
        union = dict.fromkeys(edge for kind in LAYER_KINDS for edge in want[kind])
        net = build_network(cascade)
        merged = aggregate_layer(net)
        assert merged.layer_kind == "ALL"
        assert merged.edges == list(union)
        ref = digraph(union)
        assert merged.ids == ref._ids
        assert _graph_shape(merged.to_directed_graph()) == _graph_shape(ref)
        assert aggregate_user_count(net) == len(set(ref._ids) | set(pure))

    def test_merged_labels_follow_layer_order_not_tweet_order(self):
        # u3 is first in the tweets but only in the M layer, after Q and RT
        net = build_network(
            _cascade(
                [
                    _tweet(1, "u3", mentions=("u4",)),
                    _tweet(2, "u2", retweet_of="u1"),
                    _tweet(3, "u5", quote_of="u2"),
                ]
            )
        )
        merged = aggregate_layer(net)
        assert merged.ids == ["u2", "u5", "u1", "u3", "u4"]
        assert merged.edges == [("u2", "u5"), ("u1", "u2"), ("u3", "u4")]

    def test_layer_from_edges_drops_self_loops(self):
        # x appears first in its self-loop, then in an edge: it takes its
        # label where the edge first names it; a repeated pair is one arc
        rt = layer("RT", [("x", "x"), ("a", "b"), ("b", "x"), ("a", "b"), ("y", "y")])
        assert rt.ids == ["a", "b", "x"]
        assert list(rt.arcs) == [(0, 1), (1, 2)]
        assert rt.edges == [("a", "b"), ("b", "x")]
        assert layer("RT", [("x", "x")]).is_empty()
        assert layer("RT").is_empty() and layer("RT").edges == []

    def test_edges_is_a_view_computed_on_read(self):
        m = layer("M", [("a", "b"), ("b", "a")])
        m.edges.append(("c", "d"))
        assert m.edges == [("a", "b"), ("b", "a")]
        assert list(m.arcs) == [(0, 1), (1, 0)]


class TestBuildNetwork:
    def test_single_pure_tweet(self):
        net = build_network(_cascade([_tweet(1, "u1")]))
        assert all(net.layers[k].is_empty() for k in LAYER_KINDS)
        assert net.pure_tweet_count == 1
        assert net.pure_authors == {"u1"}

    def test_retweet_direction_and_repeats(self):
        # u2 retweets u1 twice: one RT arc u1 -> u2
        net = build_network(
            _cascade([_tweet(1, "u2", retweet_of="u1"), _tweet(2, "u2", retweet_of="u1")])
        )
        assert net.layers["RT"].edges == [("u1", "u2")]
        assert net.pure_tweet_count == 0

    def test_reply_direction(self):
        net = build_network(_cascade([_tweet(1, "u1", reply_to="u2")]))
        assert net.layers["R"].edges == [("u1", "u2")]

    def test_quote_direction(self):
        net = build_network(_cascade([_tweet(1, "u1", quote_of="u2")]))
        assert net.layers["Q"].edges == [("u2", "u1")]

    def test_mention_direction(self):
        net = build_network(_cascade([_tweet(1, "u1", mentions=("u2", "u3"))]))
        assert net.layers["M"].edges == [("u1", "u2"), ("u1", "u3")]

    def test_quote_with_mention_feeds_two_layers(self):
        net = build_network(
            _cascade([_tweet(1, "u1", quote_of="u2", mentions=("u3",))])
        )
        assert net.layers["Q"].edges == [("u2", "u1")]
        assert net.layers["M"].edges == [("u1", "u3")]
        assert net.pure_tweet_count == 0

    def test_self_interaction_dropped_but_not_pure(self):
        net = build_network(_cascade([_tweet(1, "u1", retweet_of="u1")]))
        assert net.layers["RT"].is_empty()
        assert net.pure_tweet_count == 0

    def test_pure_user_count_distinct_authors(self):
        net = build_network(
            _cascade([_tweet(1, "u1"), _tweet(2, "u1"), _tweet(3, "u2")])
        )
        assert net.pure_tweet_count == 3
        assert net.pure_authors == {"u1", "u2"}

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            build_network(ArticleCascade("a1", (), LABEL))

    def test_no_isolated_nodes(self):
        net = build_network(
            _cascade(
                [
                    _tweet(1, "u1"),
                    _tweet(2, "u2", retweet_of="u1"),
                    _tweet(3, "u3", mentions=("u4",)),
                ]
            )
        )
        for kind in LAYER_KINDS:
            g = net.layers[kind].to_directed_graph()
            assert all(g.undirected_adj().values())

    def test_order_invariance(self):
        rng = random.Random(77)
        tweets = [_tweet(1, "u0")]
        for i in range(2, 60):
            kind = rng.choice(["rt", "r", "q", "m", "pure"])
            author = f"u{rng.randint(0, 20)}"
            target = f"u{rng.randint(0, 20)}"
            kw = {}
            if kind == "rt":
                kw["retweet_of"] = target
            elif kind == "r":
                kw["reply_to"] = target
            elif kind == "q":
                kw["quote_of"] = target
            elif kind == "m":
                kw["mentions"] = (target,)
            tweets.append(_tweet(i, author, ts=rng.randint(1, 10_000), **kw))
        base = build_network(_cascade(tweets))
        shuffled = list(tweets)
        rng.shuffle(shuffled)
        other = build_network(_cascade(shuffled))
        for kind in LAYER_KINDS:
            assert base.layers[kind].edges == other.layers[kind].edges
        assert base.pure_tweet_count == other.pure_tweet_count
        assert base.pure_authors == other.pure_authors

    def test_matches_one_interaction_at_a_time(self):
        # the reference adds each interaction to a dict as the tweet makes
        # it; the layers must hold the same arcs in the same order
        rng = random.Random(78)
        users = [f"u{k}" for k in range(12)]
        tweets = []
        for i in range(1, 400):
            kw = {}
            for field, p in (("retweet_of", 0.3), ("quote_of", 0.2), ("reply_to", 0.3)):
                if rng.random() < p:
                    kw[field] = rng.choice(users)
            if rng.random() < 0.3:
                kw["mentions"] = tuple(rng.sample(users, rng.randint(1, 3)))
            tweets.append(_tweet(i, rng.choice(users), ts=rng.randint(1, 500), **kw))
        cascade = _cascade(tweets)
        want, pure = reference_layers(cascade)
        net = build_network(cascade)
        assert list(net.layers) == list(LAYER_KINDS)
        users = set(pure)
        for kind in LAYER_KINDS:
            ends = {v for edge in want[kind] for v in edge}
            users |= ends
            assert net.layers[kind].layer_kind == kind
            assert net.layers[kind].edges == list(want[kind])
            assert set(net.layers[kind].ids) == ends
        assert net.pure_tweet_count == len(pure)
        assert net.pure_authors == frozenset(pure)
        assert aggregate_user_count(net) == len(users)

    def test_repeats_give_one_arc_self_interactions_none(self):
        tweets = [
            _tweet(1, "u1", retweet_of="u2"),
            _tweet(2, "u1", retweet_of="u2"),
            _tweet(3, "u3", retweet_of="u3"),  # self, dropped
            _tweet(4, "u4", mentions=("u5", "u6")),
            _tweet(5, "u4", mentions=("u4", "u5")),  # self-mention dropped, u5 repeated
        ]
        net = build_network(_cascade(tweets))
        assert net.layers["RT"].edges == [("u2", "u1")]
        assert net.layers["RT"].ids == ["u2", "u1"]
        assert net.layers["M"].edges == [("u4", "u5"), ("u4", "u6")]


class TestAggregates:
    def test_user_count_unions_layers_and_pure_authors(self):
        net = build_network(
            _cascade(
                [
                    _tweet(1, "u2", retweet_of="u1"),
                    _tweet(2, "u2", mentions=("u3",)),
                    _tweet(3, "u9"),
                ]
            )
        )
        # layers: {u1,u2} and {u2,u3}; pure: {u9}
        assert aggregate_user_count(net) == 4

    def test_pure_author_overlapping_layer_not_double_counted(self):
        net = build_network(
            _cascade([_tweet(1, "u2", retweet_of="u1"), _tweet(2, "u2")])
        )
        assert aggregate_user_count(net) == 2

    def test_aggregate_layer_unions_edges(self):
        net = build_network(
            _cascade(
                [
                    _tweet(1, "u2", retweet_of="u1"),
                    _tweet(2, "u1", mentions=("u2",)),
                    _tweet(3, "u2", quote_of="u1"),
                ]
            )
        )
        merged = aggregate_layer(net)
        assert merged.edges == [("u1", "u2")]

    def test_every_merged_forest_builds_no_adjacency(self, monkeypatch):
        # the merged layer labels users layer by layer, so a later layer's
        # arcs join trees of earlier layers; the graph's one pass grows
        # the forest from that order as from any other
        config = default_config(seed=0)
        config = dataclasses.replace(
            config,
            disinformation=dataclasses.replace(config.disinformation, n_articles=20),
            mainstream=dataclasses.replace(config.mainstream, n_articles=20),
        )
        records, labels = generate_corpus(config)
        cascades, _ = group_cascades(records, {lab.article_id: lab for lab in labels})
        graphs = []
        build = LayerGraph.to_directed_graph

        def record(lg):
            graphs.append(build(lg))
            return graphs[-1]

        monkeypatch.setattr(LayerGraph, "to_directed_graph", record)
        forests = joined = 0
        for cascade in cascades:
            merged = aggregate_layer(build_network(cascade))
            extract_layer_features(merged)  # all nine metrics
            edges = merged.edges
            forest = len({frozenset(e) for e in edges}) == len(merged.ids) - len(
                bf.wcc_sets(merged.ids, edges)
            )
            assert (graphs[-1]._form is None) == forest
            forests += forest
            # in a forest, an arc between two named users that no earlier
            # arc linked joins two trees
            named, linked = set(), set()
            for edge in map(frozenset, edges):
                if forest and edge <= named and edge not in linked:
                    joined += 1
                    break
                named |= edge
                linked.add(edge)
        assert len(graphs) == len(cascades)
        assert forests > len(cascades) // 2 and joined > 10


class TestTruncate:
    def test_cutoff_is_inclusive(self):
        c = _cascade([_tweet(1, "u1", ts=100), _tweet(2, "u2", ts=160), _tweet(3, "u3", ts=161)])
        out = truncate_by_lifetime(c, 60)
        assert [t.timestamp for t in out.tweets] == [100, 160]

    def test_full_span_unchanged(self):
        c = _cascade([_tweet(i, f"u{i}", ts=100 + i) for i in range(5)])
        assert truncate_by_lifetime(c, 10_000) == c

    def test_single_tweet_always_survives(self):
        c = _cascade([_tweet(1, "u1", ts=100)])
        assert truncate_by_lifetime(c, 1) == c

    def test_monotone_in_lifetime(self):
        rng = random.Random(9)
        c = _cascade([_tweet(i, f"u{i}", ts=rng.randint(1, 5000)) for i in range(1, 80)])
        previous = set()
        for lifetime in (10, 100, 1000, 2500, 6000):
            ids = {t.tweet_id for t in truncate_by_lifetime(c, lifetime).tweets}
            assert previous <= ids
            previous = ids

    def test_matches_linear_scan(self):
        # runs of equal timestamps, and cutoffs that land on a run
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 40)
            stamps = [rng.choice((100, 101, 105, 110, 130, 200)) + rng.randint(0, 2)
                      for _ in range(n)]
            c = _cascade([_tweet(i, f"u{i % 7}", ts=ts) for i, ts in enumerate(stamps)])
            first = c.tweets[0].timestamp
            # every gap from the first tweet puts the cutoff on a timestamp
            gaps = {t.timestamp - first for t in c.tweets} - {0}
            for lifetime in gaps | {1, 3, 7, 50, 150}:
                scan = tuple(t for t in c.tweets if t.timestamp <= first + lifetime)
                assert truncate_by_lifetime(c, lifetime).tweets == scan

    def test_rejects_bad_input(self):
        c = _cascade([_tweet(1, "u1")])
        with pytest.raises(ValueError):
            truncate_by_lifetime(c, 0)
        with pytest.raises(ValueError):
            truncate_by_lifetime(ArticleCascade("a1", (), LABEL), 60)
