import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import bruteforce as bf

from diffnet.features import (
    FEATURE_NAMES,
    N_FEATURES,
    LayerFeatures,
    assemble_vector,
    extract_layer_features,
    featurize_article,
    read_features_file,
    write_features_file,
)
from diffnet.ingest import ArticleCascade, ArticleLabel, TweetRecord
from diffnet.netbuild import LayerGraph, build_network

LABEL = ArticleLabel("a1", "M", "paper.com", "left")


def _tweet(i, author, **kw):
    return TweetRecord(f"t{i}", author, 1000 + i, "a1", **kw)


def _cascade(tweets, label=LABEL):
    return ArticleCascade.build("a1", tweets, label)


def _layer(edges):
    return LayerGraph("RT", Counter((src, dst) for src, dst in edges if src != dst))


class TestLayerFeatures:
    def test_empty_layer_all_zeros(self):
        feats = extract_layer_features(_layer([]))
        assert feats.as_tuple() == (0.0,) * 9

    def test_single_edge(self):
        feats = extract_layer_features(_layer([("u1", "u2")]))
        assert feats.scc == 2
        assert feats.lscc == 1
        assert feats.wcc == 1
        assert feats.lwcc == 2
        assert feats.dwcc == 1
        assert feats.cc == 0.0
        assert feats.kc == 1
        assert feats.d == pytest.approx(0.5)
        assert feats.sv == pytest.approx(1.0)

    def test_directed_three_cycle(self):
        feats = extract_layer_features(
            _layer([("u1", "u2"), ("u2", "u3"), ("u3", "u1")])
        )
        assert (feats.scc, feats.lscc, feats.wcc, feats.lwcc) == (1, 3, 1, 3)
        assert feats.dwcc == 1
        assert feats.cc == pytest.approx(1.0)
        assert feats.kc == 2
        assert feats.d == pytest.approx(0.5)
        assert feats.sv == pytest.approx(1.0)

    def test_dwcc_and_sv_use_largest_wcc_only(self):
        # chain of 4 in one component, single edge in another
        feats = extract_layer_features(
            _layer([("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")])
        )
        assert feats.wcc == 2
        assert feats.lwcc == 4
        assert feats.dwcc == 3
        # distances on the 4-chain: sum of ordered pairs = 2*(1+2+3+1+2+1) = 20
        assert feats.sv == pytest.approx(20 / 12)

    def test_kc_on_whole_layer_not_lwcc(self):
        # largest WCC is a 4-chain (core 1); the smaller component is a
        # reciprocal pair (core 2)
        feats = extract_layer_features(
            _layer([("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "x")])
        )
        assert feats.lwcc == 4
        assert feats.kc == 2

    def test_component_invariants_hold_randomized(self):
        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(2, 12)
            edges = [
                (f"u{rng.randint(0, n)}", f"u{rng.randint(0, n)}")
                for _ in range(rng.randint(1, 3 * n))
            ]
            layer = _layer(edges)
            if layer.is_empty():
                continue
            feats = extract_layer_features(layer)
            total = len(layer.nodes())
            assert feats.lscc <= feats.lwcc <= total
            assert feats.scc >= feats.wcc
            assert 0.0 <= feats.cc <= 1.0
            assert 0.0 <= feats.d <= 1.0
            if feats.lwcc <= 1:
                assert feats.dwcc == 0
            if feats.lwcc >= 2:
                assert feats.sv >= 1.0


def _oracle_features(edges):
    """The nine metrics from the brute-force definitions in ``bruteforce``."""
    nodes = {v for edge in edges for v in edge}
    sccs = bf.scc_sets(nodes, edges)
    wccs = bf.wcc_sets(nodes, edges)
    lwcc = min(wccs, key=lambda c: (-len(c), min(c)))
    return LayerFeatures(
        scc=len(sccs),
        lscc=max(map(len, sccs)),
        wcc=len(wccs),
        lwcc=len(lwcc),
        dwcc=bf.diameter(nodes, edges, lwcc),
        cc=bf.avg_clustering(nodes, edges),
        kc=bf.main_kcore_peeling(nodes, edges),
        d=bf.density(nodes, edges),
        sv=bf.avg_pair_distance(nodes, edges, lwcc),
    )


def _assert_matches_oracle(edges):
    got = extract_layer_features(_layer(edges))
    want = _oracle_features(edges)
    assert replace(got, cc=0.0) == replace(want, cc=0.0)
    assert got.cc == pytest.approx(want.cc)
    return got


def _names(rng, n):
    """n distinct user ids in random order, so that their string order and
    their order of first use mostly disagree."""
    ids = [f"u{k}" for k in rng.sample(range(1000), n)]
    rng.shuffle(ids)
    return ids


def _random_tree(rng, users):
    """Randomly oriented edges of a random tree over ``users``: edge i - 1
    joins users[i] to an earlier user, its parent."""
    edges = []
    for i in range(1, len(users)):
        u, v = users[rng.randrange(i)], users[i]
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return edges


def _reciprocal_chain(users, edges, length):
    """Reverse arcs for up to ``length`` tree edges on the path from the
    last user towards the first, one reciprocal chain."""
    pos = {u: i for i, u in enumerate(users)}
    extra, node = [], users[-1]
    while len(extra) < length and pos[node]:
        u, v = edges[pos[node] - 1]
        extra.append((v, u))
        node = u if v == node else v
    return extra


class TestLayerFeaturesOracle:
    """Every metric of the featurizer path against brute force, n <= 40."""

    def test_random_trees(self):
        rng = random.Random(71)
        for n in range(2, 41):
            edges = _random_tree(rng, _names(rng, n))
            got = _assert_matches_oracle(edges)
            assert (got.scc, got.wcc, got.lwcc) == (n, 1, n)

    def test_forests_with_reciprocal_chains(self):
        rng = random.Random(72)
        spans = []
        for n in range(3, 41):
            users = _names(rng, n)
            edges = []
            for tree in (users[: n // 2 + 1], users[n // 2 + 1 :]):
                tree_edges = _random_tree(rng, tree)
                edges += tree_edges + _reciprocal_chain(tree, tree_edges, rng.randint(1, n))
            rng.shuffle(edges)  # any user may come first, or a chain's middle last
            got = _assert_matches_oracle(edges)
            spans.append(got.lscc)
        # chains of two or more reciprocal pairs join three or more users
        assert sum(span >= 3 for span in spans) >= 10

    def test_graphs_with_cycles(self):
        rng = random.Random(73)
        for n in range(3, 41):
            users = _names(rng, n)
            edges = _random_tree(rng, users)
            edges += [tuple(rng.sample(users, 2)) for _ in range(rng.randint(1, n))]
            rng.shuffle(edges)
            _assert_matches_oracle(edges)

    @pytest.mark.parametrize("star_first", [True, False])
    def test_tied_largest_wccs_differ_in_diameter(self, star_first):
        # a path and a star of five users each: the component holding the
        # smallest user id is the largest WCC, wherever it appears
        path = [("p3", "p1"), ("p1", "p4"), ("p4", "p0"), ("p0", "p2")]
        star = [("s9", f"s{k}") for k in range(4)]
        for low, high in (("a", "b"), ("b", "a")):
            edges = [(low + u, low + v) for u, v in path]
            edges += [(high + u, high + v) for u, v in star]
            if star_first:
                edges = edges[4:] + edges[:4]
            got = _assert_matches_oracle(edges)
            assert (got.wcc, got.lwcc) == (2, 5)
            assert got.dwcc == (4 if low == "a" else 2)

    def test_random_tied_components(self):
        rng = random.Random(74)
        for n in range(2, 21):
            users = _names(rng, 2 * n)
            edges = _random_tree(rng, users[:n]) + _random_tree(rng, users[n:])
            if rng.random() < 0.5:
                edges.append(tuple(rng.sample(users[n:], 2)))
            got = _assert_matches_oracle(edges)
            assert (got.wcc, got.lwcc) == (2, n)


class TestVector:
    def test_names_layout(self):
        assert N_FEATURES == 38
        assert len(FEATURE_NAMES) == 38
        assert FEATURE_NAMES[0] == "Q_SCC"
        assert FEATURE_NAMES[8] == "Q_SV"
        assert FEATURE_NAMES[9] == "RT_SCC"
        assert FEATURE_NAMES[18] == "M_SCC"
        assert FEATURE_NAMES[27] == "R_SCC"
        assert FEATURE_NAMES[36] == "T"
        assert FEATURE_NAMES[37] == "U"

    def test_all_layers_empty_vector(self):
        tweets = [_tweet(i, f"u{i % 4}") for i in range(1, 6)]
        vec = assemble_vector(build_network(_cascade(tweets)))
        assert vec.shape == (38,)
        assert np.all(vec[:36] == 0.0)
        assert vec[36] == 5.0
        assert vec[37] == 4.0

    def test_layer_blocks_land_in_their_slots(self):
        net = build_network(
            _cascade(
                [
                    _tweet(1, "u2", retweet_of="u1"),
                    _tweet(2, "u3", quote_of="u1"),
                    _tweet(3, "u4", reply_to="u1"),
                    _tweet(4, "u5", mentions=("u1",)),
                ]
            )
        )
        vec = assemble_vector(net)
        # every layer is one directed edge: identical 9-metric block
        single_edge = vec[0:9]
        for start in (9, 18, 27):
            assert np.array_equal(vec[start : start + 9], single_edge)
        assert vec[36] == 0.0 and vec[37] == 0.0

    def test_relabel_invariance(self):
        rng = random.Random(42)
        tweets = [_tweet(1, "u0")]
        for i in range(2, 80):
            a, b = f"u{rng.randint(0, 25)}", f"u{rng.randint(0, 25)}"
            choice = rng.random()
            if choice < 0.3:
                tweets.append(_tweet(i, a, retweet_of=b))
            elif choice < 0.5:
                tweets.append(_tweet(i, a, reply_to=b))
            elif choice < 0.7:
                tweets.append(_tweet(i, a, quote_of=b, mentions=(f"u{rng.randint(0, 25)}",)))
            elif choice < 0.9:
                tweets.append(_tweet(i, a, mentions=(b,)))
            else:
                tweets.append(_tweet(i, a))
        mapping = {f"u{k}": f"w{(k * 7 + 3) % 26}" for k in range(26)}

        def relabel(t: TweetRecord) -> TweetRecord:
            return TweetRecord(
                t.tweet_id,
                mapping[t.author_id],
                t.timestamp,
                t.article_id,
                retweet_of=mapping.get(t.retweet_of),
                quote_of=mapping.get(t.quote_of),
                reply_to=mapping.get(t.reply_to),
                mentions=tuple(mapping[m] for m in t.mentions),
            )

        base = assemble_vector(build_network(_cascade(tweets)))
        relabeled = assemble_vector(build_network(_cascade([relabel(t) for t in tweets])))
        assert np.array_equal(base, relabeled)


class TestFeaturesFile:
    def test_roundtrip_and_column_count(self, tmp_path):
        rng = random.Random(5)
        rows = []
        for i in range(6):
            tweets = [_tweet(1, "u0")] + [
                _tweet(j, f"u{rng.randint(0, 6)}", retweet_of=f"u{rng.randint(0, 6)}")
                for j in range(2, 12)
            ]
            label = ArticleLabel(f"a{i}", "D" if i % 2 else "M", "s.org", "")
            cascade = ArticleCascade.build(
                f"a{i}",
                [replace(t, article_id=f"a{i}") for t in tweets],
                label,
            )
            rows.append(featurize_article(cascade))
        path = tmp_path / "features.csv"
        write_features_file(path, rows)
        header = path.read_text().splitlines()[0]
        assert len(header.split(",")) == 43
        back = read_features_file(path)
        assert back == sorted(rows, key=lambda r: r.article_id)

    def test_featurize_article_n_users(self):
        cascade = _cascade(
            [_tweet(1, "u1"), _tweet(2, "u2", retweet_of="u1"), _tweet(3, "u3")]
        )
        row = featurize_article(cascade)
        assert row.n_users == 3
        assert row.vector.shape == (38,)

    def test_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("article_id,label\nx,D\n")
        with pytest.raises(ValueError):
            read_features_file(path)
