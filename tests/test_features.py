import random
import re
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import bruteforce as bf
from graphs import digraph, layer
from random_cascades import random_cascade, reference_layers

from diffnet import graphops
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
from diffnet.netbuild import LAYER_KINDS, aggregate_layer, build_network

LABEL = ArticleLabel("a1", "M", "paper.com", "left")


def _tweet(i, author, **kw):
    return TweetRecord(f"t{i}", author, 1000 + i, "a1", **kw)


def _cascade(tweets, label=LABEL):
    return ArticleCascade.build("a1", tweets, label)


def _layer(edges):
    return layer("RT", Counter(edges))


class TestLayerFeatures:
    def test_empty_layer_all_zeros(self):
        feats = extract_layer_features(_layer([]))
        assert tuple(feats) == (0.0,) * 9

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
            total = len(layer.ids)
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
    assert got._replace(cc=0.0) == want._replace(cc=0.0)
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


def _features_via_ids(edges):
    """The nine metrics of ``digraph(edges)`` through the functions that
    return or take node ids: the largest WCC as a set of ids, the one with
    the smallest id on a tie, and the distances restricted to it."""
    g = digraph(edges)
    sccs = graphops.strongly_connected_components(g)
    wccs = graphops.weakly_connected_components(g)
    n_wcc, lwcc = len(wccs), min(wccs, key=lambda c: (-len(c), min(c)))
    max_dist, total = graphops.undirected_distance_stats(g, lwcc)
    n = len(lwcc)
    return LayerFeatures(
        scc=len(sccs),
        lscc=max(map(len, sccs)),
        wcc=n_wcc,
        lwcc=n,
        dwcc=max_dist,
        cc=graphops.average_clustering(g),
        kc=graphops.main_kcore_number(g),
        d=graphops.density(g),
        sv=0.0 if n == 1 else total / (n * (n - 1)),
    )


class TestLabelledLayers:
    """Layers labelled as they are built give, bit for bit, the features of
    their edges relabelled from user ids."""

    @pytest.mark.parametrize("seed", range(16))
    def test_cascade_layers_match_features_via_ids(self, seed):
        rng = random.Random(seed)
        cascade = random_cascade(rng, rng.choice((10, 40, 150)), rng.randint(3, 15))
        net = build_network(cascade)
        for layer in [net.layers[kind] for kind in LAYER_KINDS] + [aggregate_layer(net)]:
            if layer.is_empty():
                continue
            got = extract_layer_features(layer)
            assert got == _features_via_ids(layer.edges)
            want = _oracle_features(list(layer.edges))
            assert got._replace(cc=0.0) == want._replace(cc=0.0)
            assert got.cc == pytest.approx(want.cc)

    @pytest.mark.parametrize("path_first", [True, False])
    def test_tie_goes_to_smallest_id_not_first_label(self, path_first):
        # two five-user components, a path (diameter 4) and a star
        # (diameter 2); the one that comes first in the tweets holds the
        # larger ids, so label order and id order disagree
        path = [("1", "3"), ("3", "0"), ("0", "4"), ("4", "2")]
        star = [("9", k) for k in "0123"]
        first, second = (path, star) if path_first else (star, path)
        retweets = [("b" + u, "b" + v) for u, v in first] + [("a" + u, "a" + v) for u, v in second]
        tweets = [
            TweetRecord(f"t{i}", author, 1000 + i, "a1", retweet_of=src)
            for i, (src, author) in enumerate(retweets)
        ]
        rt = build_network(_cascade(tweets)).layers["RT"]
        assert rt.ids[0].startswith("b")
        g = rt.to_directed_graph()
        n_wcc, c, size = graphops.largest_component(g)
        assert (n_wcc, size) == (2, 5)
        assert min(g._ids[v] for v in g._components()[1][c]).startswith("a")
        got = extract_layer_features(rt)
        assert got.dwcc == (2 if path_first else 4)
        assert got == _features_via_ids(rt.edges)
        assert got == extract_layer_features(layer("RT", rt.edges))
        assert got._replace(cc=0.0) == _oracle_features(retweets)._replace(cc=0.0)

    def test_self_loops_give_the_features_without_them(self):
        rng = random.Random(75)
        for n in range(3, 25):
            users = _names(rng, n)
            edges = _random_tree(rng, users)
            edges += [tuple(rng.sample(users, 2)) for _ in range(rng.randint(1, n))]
            loops = [(u, u) for u in rng.sample(users, rng.randint(1, n))]
            mixed = list(edges)
            for loop in loops:  # a user may first show up in its self-loop
                mixed.insert(rng.randint(0, len(mixed)), loop)
            weighted = Counter(mixed)
            got = extract_layer_features(layer("RT", weighted))
            assert got == _features_via_ids(weighted)
            assert got == extract_layer_features(layer("RT", Counter(edges)))
            want = _oracle_features(edges)
            assert got._replace(cc=0.0) == want._replace(cc=0.0)
            assert got.cc == pytest.approx(want.cc)

    def test_layer_of_self_loops_only_is_empty(self):
        assert tuple(extract_layer_features(layer("RT", {("u1", "u1"): 3}))) == (0.0,) * 9


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

    def test_t_and_u_count_only_pure_tweets_and_their_authors(self):
        """T counts the interaction-free tweets, not all tweets; U counts
        their distinct authors, not all users, which n_users counts."""
        tweets = [
            _tweet(1, "u1"),
            _tweet(2, "u1"),
            _tweet(3, "u2"),
            _tweet(4, "u3", retweet_of="u1"),
        ]
        row = featurize_article(_cascade(tweets))
        assert row.vector[36] == 3.0  # 4 tweets in all
        assert row.vector[37] == 2.0  # u1 and u2
        assert row.n_users == 3  # u1, u2 and u3

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


def _reply_chain(n):
    """u1 replies to u0, u2 to u1, and so on: an R path over n users."""
    return [_tweet(0, "u0")] + [_tweet(i, f"u{i}", reply_to=f"u{i - 1}") for i in range(1, n)]


def _star(n):
    """n - 1 users retweet one hub: an RT star."""
    return [_tweet(0, "u0")] + [_tweet(i, f"u{i}", retweet_of="u0") for i in range(1, n)]


def _mention_list(n):
    """One tweet that mentions n - 1 users: an M star from one tweet."""
    return [_tweet(0, "u0", mentions=tuple(f"u{i}" for i in range(1, n)))]


def _clique(n):
    """Every user mentions every other: a complete M layer."""
    users = [f"u{i}" for i in range(n)]
    return [_tweet(i, u, mentions=tuple(v for v in users if v != u)) for i, u in enumerate(users)]


def _tree_with_chords(n):
    """A random reply tree plus n // 20 + 1 replies between users it does
    not join yet: one R layer with cycles."""
    rng = random.Random(n)
    tweets = [_tweet(0, "u0")]
    linked = set()
    for i in range(1, n):
        j = rng.randrange(i)
        tweets.append(_tweet(i, f"u{i}", reply_to=f"u{j}"))
        linked.add(frozenset((i, j)))
    while len(linked) < n + n // 20:
        a, b = rng.sample(range(n), 2)
        if frozenset((a, b)) not in linked:
            tweets.append(_tweet(len(tweets), f"u{a}", reply_to=f"u{b}"))
            linked.add(frozenset((a, b)))
    return tweets


def _reciprocal(n):
    """A reply chain where each reply but the last is answered: all R arcs
    but one are reciprocal."""
    answers = [_tweet(n + i, f"u{i - 1}", reply_to=f"u{i}") for i in range(1, n - 1)]
    return _reply_chain(n) + answers


def _star_features(n):
    """The layer of a star whose hub points at n - 1 users."""
    return LayerFeatures(n, 1, 1, n, 2, 0.0, 1, 1 / n, 2 * (n - 1) / n)


# name: (builder, the one layer it fills, a hostile size, the closed form
# of that layer at size n, or None where the test checks distances by BFS)
SHAPES = {
    "reply_chain": (
        _reply_chain, "R", 5000,
        lambda n: LayerFeatures(n, 1, 1, n, n - 1, 0.0, 1, 1 / n, (n + 1) / 3),
    ),
    "star": (_star, "RT", 5000, _star_features),
    "mention_list": (_mention_list, "M", 5000, _star_features),
    # 130 users: 16,770 adjacency entries, above 2^14, so a distance block
    # holds the floor of 64 sources
    "clique": (
        _clique, "M", 130,
        lambda n: LayerFeatures(1, n, 1, n, 1, 1.0, 2 * (n - 1), 1.0, 1.0),
    ),
    "tree_with_chords": (_tree_with_chords, "R", 600, None),
    "reciprocal": (
        _reciprocal, "R", 5000,
        lambda n: LayerFeatures(
            2, n - 1, 1, n, n - 1, 0.0, 2, (2 * n - 3) / (n * (n - 1)), (n + 1) / 3
        ),
    ),
}


def _oracle_vector(cascade):
    """The article vector from the brute-force layers and metrics."""
    layers, pure = reference_layers(cascade)
    values = []
    for kind in LAYER_KINDS:
        values += _oracle_features(list(layers[kind])) if layers[kind] else (0.0,) * 9
    return np.array(values + [len(pure), len(set(pure))], dtype=np.float64)


class TestHostileShapes:
    """Hand-built cascades of shapes a corpus rarely holds, small against
    the brute-force oracle and large within a wall bound."""

    @pytest.mark.parametrize("name", SHAPES)
    def test_small_shape_matches_the_oracle(self, name):
        build, kind, _, closed = SHAPES[name]
        for n in (3, 4, 12):
            cascade = _cascade(build(n))
            got = featurize_article(cascade).vector
            want = _oracle_vector(cascade)
            assert got == pytest.approx(want, rel=1e-12)
            if closed is not None:
                start = 9 * LAYER_KINDS.index(kind)
                assert got[start : start + 9] == pytest.approx(closed(n), rel=1e-12)

    @pytest.mark.parametrize("name", SHAPES)
    def test_hostile_size_within_a_wall_bound(self, name):
        build, kind, n, closed = SHAPES[name]
        cascade = _cascade(build(n))
        start = time.perf_counter()
        row = featurize_article(cascade)
        wall = time.perf_counter() - start
        assert wall < 5.0, f"{name}: {wall:.2f} s"
        layers, pure = reference_layers(cascade)
        assert row.n_users == n
        at = 9 * LAYER_KINDS.index(kind)
        block = LayerFeatures(*row.vector[at : at + 9])
        if closed is None:
            edges = list(layers[kind])
            assert (block.wcc, block.lwcc, block.d) == (1, n, len(edges) / (n * (n - 1)))
            dwcc, total = bf.distance_stats_bfs([f"u{i}" for i in range(n)], edges)
            assert (block.dwcc, block.sv) == (dwcc, total / (n * (n - 1)))
        else:
            assert block == pytest.approx(closed(n), rel=1e-12)
        assert not np.any(np.delete(row.vector[:36], np.s_[at : at + 9]))
        assert tuple(row.vector[36:]) == (len(pure), len(set(pure)))


def _feature_rows():
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
    return rows


class TestFeaturesFile:
    def test_roundtrip_and_column_count(self, tmp_path):
        rows = _feature_rows()
        path = tmp_path / "features.csv"
        write_features_file(path, rows)
        header = path.read_text().splitlines()[0]
        assert len(header.split(",")) == 43
        back = read_features_file(path)
        assert back == sorted(rows, key=lambda r: r.article_id)

    def test_reader_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features_file(path, _feature_rows())
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_features_file(bom) == read_features_file(path)

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

    @pytest.mark.parametrize(
        "column,text,problem",
        [
            ("Q_SCC", "nan", "is not a finite number"),
            ("R_SV", "inf", "is not a finite number"),
            ("M_D", "-inf", "is not a finite number"),
            ("T", "NaN", "is not a finite number"),
            ("U", "", "is not a finite number"),
            ("RT_CC", "0.5x", "is not a finite number"),
            ("n_users", "-1", "is not a count"),
            ("n_users", "2.5", "is not a count"),
            ("n_users", "nan", "is not a count"),
        ],
    )
    def test_reader_names_the_row_and_column_of_a_bad_value(
        self, tmp_path, column, text, problem
    ):
        path = tmp_path / "features.csv"
        write_features_file(path, _feature_rows())
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index(column)] = text
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        # the file line, as csv_rows counts it: the header is line 1
        message = f"features line 4, column {column}: {text!r} {problem}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_features_file(path)

    def test_reader_rejects_a_repeated_article(self, tmp_path):
        # a repeated article could sit on both sides of one fold
        path = tmp_path / "features.csv"
        write_features_file(path, _feature_rows())
        lines = path.read_text().splitlines()
        lines[5] = "a1" + lines[5][2:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="features line 6, column article_id: 'a1' repeats line 3"):
            read_features_file(path)

    def test_reader_accepts_negative_and_zero_finite_values(self, tmp_path):
        # only non-finite values are refused; the format has no sign rule
        path = tmp_path / "features.csv"
        rows = _feature_rows()
        rows[0] = replace(rows[0], n_users=0, vector=-rows[0].vector)
        write_features_file(path, rows)
        assert read_features_file(path) == rows
