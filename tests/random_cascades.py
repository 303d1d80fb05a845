"""Seeded random cascades and a one-interaction-at-a-time reference for
their layers, shared by the network and feature tests."""

from diffnet.ingest import ArticleCascade, ArticleLabel, TweetRecord
from diffnet.netbuild import LAYER_KINDS

LABEL = ArticleLabel("a1", "D", "example.org", "right")


def _tweet(i, author, ts, **kw):
    return TweetRecord(tweet_id=f"t{i}", author_id=author, timestamp=ts, article_id="a1", **kw)


def reference_layers(cascade):
    """Each layer as a dict of weighted user-id pairs, filled one
    interaction at a time in tweet order, and the pure tweets' authors."""
    want = {kind: {} for kind in LAYER_KINDS}
    pure = []

    def add(kind, src, dst):
        if src != dst:
            want[kind][(src, dst)] = want[kind].get((src, dst), 0) + 1

    for t in cascade.tweets:
        if t.retweet_of is None and t.quote_of is None and t.reply_to is None and not t.mentions:
            pure.append(t.author_id)
            continue
        if t.retweet_of is not None:
            add("RT", t.retweet_of, t.author_id)
        if t.quote_of is not None:
            add("Q", t.quote_of, t.author_id)
        if t.reply_to is not None:
            add("R", t.author_id, t.reply_to)
        for m in t.mentions:
            add("M", t.author_id, m)
    return want, pure


def random_cascade(rng, n_tweets, n_users):
    """A cascade over a few users, so that interactions repeat and pairs
    turn reciprocal; it has self-interactions, reciprocal replies, and
    mentions of the reply target."""
    users = [f"u{k}" for k in rng.sample(range(1000), n_users)]
    tweets = []
    for i in range(1, n_tweets + 1):
        author = rng.choice(users)
        kw = {}
        if rng.random() < 0.4:
            kw["retweet_of"] = rng.choice(users)  # sometimes the author
        if rng.random() < 0.2:
            kw["quote_of"] = rng.choice(users)
        if rng.random() < 0.4:
            kw["reply_to"] = rng.choice(users)
        if rng.random() < 0.4:
            mentions = rng.sample(users, rng.randint(1, min(3, n_users)))
            if "reply_to" in kw and rng.random() < 0.5:
                mentions[0] = kw["reply_to"]
            kw["mentions"] = tuple(dict.fromkeys(mentions))
        if "reply_to" in kw and kw["reply_to"] != author and rng.random() < 0.3:
            # the target replies back: a reciprocal pair in R
            tweets.append(_tweet(-i, kw["reply_to"], rng.randint(1, 500), reply_to=author))
        tweets.append(_tweet(i, author, rng.randint(1, 500), **kw))
    return ArticleCascade.build("a1", tweets, LABEL)
