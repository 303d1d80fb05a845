import random

import pytest

from diffnet.ingest import ArticleCascade, ArticleLabel, TweetRecord
from diffnet.netbuild import (
    LAYER_KINDS,
    aggregate_layer,
    aggregate_user_count,
    build_network,
    truncate_by_lifetime,
)

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


class TestBuildNetwork:
    def test_single_pure_tweet(self):
        net = build_network(_cascade([_tweet(1, "u1")]))
        assert all(net.layers[k].is_empty() for k in LAYER_KINDS)
        assert net.pure_tweet_count == 1
        assert net.pure_tweet_users == 1

    def test_retweet_direction_and_weight(self):
        # u2 retweets u1 twice: one RT edge u1 -> u2 with weight 2
        net = build_network(
            _cascade([_tweet(1, "u2", retweet_of="u1"), _tweet(2, "u2", retweet_of="u1")])
        )
        assert net.layers["RT"].edges == {("u1", "u2"): 2}
        assert net.pure_tweet_count == 0

    def test_reply_direction(self):
        net = build_network(_cascade([_tweet(1, "u1", reply_to="u2")]))
        assert net.layers["R"].edges == {("u1", "u2"): 1}

    def test_quote_direction(self):
        net = build_network(_cascade([_tweet(1, "u1", quote_of="u2")]))
        assert net.layers["Q"].edges == {("u2", "u1"): 1}

    def test_mention_direction(self):
        net = build_network(_cascade([_tweet(1, "u1", mentions=("u2", "u3"))]))
        assert net.layers["M"].edges == {("u1", "u2"): 1, ("u1", "u3"): 1}

    def test_quote_with_mention_feeds_two_layers(self):
        net = build_network(
            _cascade([_tweet(1, "u1", quote_of="u2", mentions=("u3",))])
        )
        assert net.layers["Q"].edges == {("u2", "u1"): 1}
        assert net.layers["M"].edges == {("u1", "u3"): 1}
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
        assert net.pure_tweet_users == 2

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

    def test_weight_sums_match_interaction_counts(self):
        tweets = [
            _tweet(1, "u1", retweet_of="u2"),
            _tweet(2, "u1", retweet_of="u2"),
            _tweet(3, "u3", retweet_of="u3"),  # self, dropped
            _tweet(4, "u4", mentions=("u5", "u6")),
            _tweet(5, "u4", mentions=("u4", "u5")),  # one self-mention dropped
        ]
        net = build_network(_cascade(tweets))
        assert sum(net.layers["RT"].edges.values()) == 2
        assert sum(net.layers["M"].edges.values()) == 3


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
        assert merged.edges == {("u1", "u2"): 3}


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
