import math
import random

import numpy as np
import pytest

from diffnet.experiments import (
    LIFETIME_LADDER,
    SINGLE_LAYER_FEATURE_NAMES,
    bias_restricted_eval,
    chi2_ranking,
    chi2_scores,
    featurize_cascades,
    ks_two_sample,
    layer_ablation,
    layer_feature_indices,
    minmax_scale_columns,
    rank_features_ks,
    single_layer_baseline,
    single_layer_samples,
    temporal_sweep,
)
import diffnet.experiments as experiments
import diffnet.features as features
from diffnet.features import (
    FEATURE_NAMES,
    ArticleFeatures,
    extract_layer_features,
    featurize,
    read_features_file,
    write_features_file,
)
from diffnet.ingest import ArticleCascade, ArticleLabel, TweetRecord
from diffnet.model import fold_test_indices, stratified_shuffle_cv
from diffnet.netbuild import (
    aggregate_layer,
    aggregate_user_count,
    build_network,
    truncate_by_lifetime,
)
from fake_pool import record_pools
from reference_stats import chi2_class_sum_statistic, kolmogorov_sf_series, ks_statistic


def _sample(i, label, vector, bias="", n_users=10, source=""):
    article_id = f"a{i:04d}"
    return ArticleFeatures(
        article_id,
        ArticleLabel(article_id, label, source, bias),
        n_users,
        np.asarray(vector, dtype=np.float64),
    )


def _tree_cascade(article_id, label, rng, n_spreaders, depth_bias, bias="", source="x.org"):
    """Root posts, spreaders retweet an existing user; deeper with higher bias."""
    authors = [f"{article_id}_u0"]
    tweets = [TweetRecord(f"{article_id}_t0", authors[0], 1000, article_id)]
    ts = 1000
    for i in range(1, n_spreaders + 1):
        if rng.random() < depth_bias and len(authors) > 1:
            target = authors[rng.randrange(1, len(authors))]
        else:
            target = authors[0]
        author = f"{article_id}_u{i}"
        ts += rng.randint(1, 600)
        tweets.append(
            TweetRecord(f"{article_id}_t{i}", author, ts, article_id, retweet_of=target)
        )
        authors.append(author)
    return ArticleCascade.build(
        article_id, tweets, ArticleLabel(article_id, label, source, bias)
    )


def _mini_corpus(rng, n_per_class=12):
    cascades = []
    for i in range(n_per_class):
        cascades.append(
            _tree_cascade(f"d{i:03d}", "D", rng, rng.randint(20, 40), 0.8)
        )
        cascades.append(
            _tree_cascade(f"m{i:03d}", "M", rng, rng.randint(4, 10), 0.1)
        )
    return cascades


class TestLayerIndices:
    def test_offsets(self):
        assert layer_feature_indices("Q") == list(range(0, 9))
        assert layer_feature_indices("RT") == list(range(9, 18))
        assert layer_feature_indices("M") == list(range(18, 27))
        assert layer_feature_indices("R") == list(range(27, 36))

    def test_names_align(self):
        for kind in ("Q", "RT", "M", "R"):
            for i in layer_feature_indices(kind):
                assert FEATURE_NAMES[i].startswith(f"{kind}_")

    def test_unknown_layer(self):
        with pytest.raises(ValueError):
            layer_feature_indices("ALL")


class TestAblation:
    def _signal_samples(self, rng, layer_idx, n=60):
        samples = []
        for i in range(n):
            label = "D" if i % 2 else "M"
            vec = rng.normal(0, 1, 38)
            vec[layer_idx] += 2.5 if label == "D" else -2.5
            samples.append(_sample(i, label, vec))
        return samples

    def test_informative_layer_beats_empty_layer(self):
        rng = np.random.default_rng(10)
        samples = self._signal_samples(rng, layer_idx=9)  # RT_SCC
        for s in samples:
            s.vector[0:9] = 0.0  # Q layer empty everywhere
        rt = layer_ablation(samples, "RT", folds=5, seed=1)
        q = layer_ablation(samples, "Q", folds=5, seed=1)
        assert rt.mean("AUROC") > 0.9
        # constant features carry no ranking information: exactly the tie value
        assert q.mean("AUROC") == pytest.approx(0.5)

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            layer_ablation([], "XX")


class TestBiasRestricted:
    def _biased_samples(self, rng, n_left=25, n_right=25):
        # left sources carry a +signal, right sources an inverted one
        samples = []
        for i in range(n_left):
            label = "D" if i % 2 else "M"
            x = (1.0 if label == "D" else -1.0) + rng.normal(0, 0.2)
            samples.append(_sample(i, label, [x], bias="left", source="l.org"))
        for i in range(n_right):
            label = "D" if i % 2 else "M"
            x = (-1.0 if label == "D" else 1.0) + rng.normal(0, 0.2)
            samples.append(
                _sample(n_left + i, label, [x], bias="right", source="r.org")
            )
        return samples

    def test_training_is_restricted_to_requested_bias(self):
        # signals are inverted between biases, so a restricted model is
        # anti-correlated with the opposite-bias majority of its test pool;
        # a model trained on the union would sit near 0.5 instead
        rng = np.random.default_rng(3)
        samples = self._biased_samples(rng)
        left = bias_restricted_eval(samples, "left", folds=4, seed=7)
        right = bias_restricted_eval(samples, "right", folds=4, seed=7)
        assert left.mean("AUROC") < 0.35
        assert right.mean("AUROC") < 0.35

    def test_excluded_sources_absent_everywhere(self):
        rng = np.random.default_rng(4)
        samples = self._biased_samples(rng)
        # dropping the right-source pool flips the left-trained result
        report = bias_restricted_eval(
            samples, "left", folds=4, seed=7, excluded_sources=["r.org"]
        )
        assert report.mean("AUROC") > 0.7

    def test_missing_bias_rejected(self):
        samples = [_sample(0, "D", [0.0], bias="right"), _sample(1, "M", [0.0], bias="right")]
        with pytest.raises(ValueError):
            bias_restricted_eval(samples, "left")

    def test_single_class_bias_subset_rejected(self):
        samples = [
            _sample(0, "D", [0.0], bias="left"),
            _sample(1, "D", [1.0], bias="left"),
            _sample(2, "M", [0.0], bias="right"),
            _sample(3, "M", [1.0], bias="right"),
        ]
        with pytest.raises(ValueError):
            bias_restricted_eval(samples, "left")

    def test_bad_bias_value(self):
        with pytest.raises(ValueError):
            bias_restricted_eval([], "center")


class TestFoldPolicy:
    """bias-eval and the chi-square ranking split through fold_test_indices."""

    @staticmethod
    def _samples():
        rng = np.random.default_rng(9)
        return [
            _sample(i, "D" if i % 3 else "M", rng.uniform(0, 1, 38),
                    bias="left" if i % 2 else "right")
            for i in range(30)
        ]

    @pytest.mark.parametrize(
        "run",
        [
            lambda s: chi2_ranking(s, folds=0),
            lambda s: bias_restricted_eval(s, "left", folds=0),
            lambda s: bias_restricted_eval(s, "left", train_fraction=1.0),
            lambda s: bias_restricted_eval(s, "left", train_fraction=-0.5),
        ],
    )
    def test_bad_fold_settings_rejected(self, run):
        with pytest.raises(ValueError, match="folds must be|test fraction must be"):
            run(self._samples())

    @pytest.mark.parametrize(
        "run",
        [
            lambda c: temporal_sweep(c, folds=0),
            lambda c: temporal_sweep(c, test_fraction=1.5),
            lambda c: temporal_sweep(c, C=0.0),
            lambda c: temporal_sweep(c, C=math.nan, jobs=2),
            lambda c: single_layer_baseline(c, folds=-1),
            lambda c: single_layer_baseline(c, test_fraction=0.0),
            lambda c: single_layer_baseline(c, C=math.inf),
        ],
    )
    def test_bad_settings_rejected_before_featurizing(self, monkeypatch, run):
        def featurized(*args):
            raise AssertionError("featurized before the CV settings were checked")

        monkeypatch.setattr(features, "featurize_article", featurized)
        monkeypatch.setattr(experiments, "build_network", featurized)
        with pytest.raises(ValueError, match="folds must be|test fraction must be|C must be"):
            run(_mini_corpus(random.Random(3), n_per_class=3))

    def test_bias_eval_trains_on_biased_rows_outside_each_fold(self, monkeypatch):
        samples = self._samples()
        seen = []

        def record(X_train, y_train, X_test, y_test, C, class_weights):
            seen.append((X_train[:, 0].tolist(), X_test[:, 0].tolist(), class_weights))
            return real(X_train, y_train, X_test, y_test, C=C, class_weights=class_weights)

        real = experiments.evaluate_split
        monkeypatch.setattr(experiments, "evaluate_split", record)
        bias_restricted_eval(samples, "left", folds=3, train_fraction=0.75, seed=4)
        left = [i for i, s in enumerate(samples) if s.label.bias == "left"]
        labels = [samples[i].label.class_label for i in left]
        folds = fold_test_indices(labels, 3, 1.0 - 0.75, 4)
        assert len(seen) == 3
        for held, (train, test, weights) in zip(folds, seen):
            trained = sorted(set(left) - {left[i] for i in held})
            assert train == [samples[i].vector[0] for i in trained]
            assert test == [s.vector[0] for i, s in enumerate(samples) if i not in trained]
            assert weights == "balanced"

    def test_chi2_scores_each_fold_on_its_training_rows(self):
        samples = self._samples()
        X = np.stack([s.vector for s in samples])
        labels = [s.label.class_label for s in samples]
        positive = np.array([label == "D" for label in labels])
        accum = np.zeros(X.shape[1])
        for idx in fold_test_indices(labels, 4, 0.3, 5):
            train = np.ones(len(samples), dtype=bool)
            train[idx] = False
            accum += chi2_scores(minmax_scale_columns(X[train]), positive[train])
        expected = dict(zip(FEATURE_NAMES, (accum / 4).tolist()))
        assert dict(chi2_ranking(samples, folds=4, test_fraction=0.3, seed=5)) == expected


class TestChi2:
    def test_identical_feature_scores_zero(self):
        X = np.array([[1.0], [1.0], [1.0], [1.0]])
        pos = np.array([True, True, False, False])
        assert chi2_scores(X, pos)[0] == pytest.approx(0.0)

    def test_indicator_fixture_by_hand(self):
        # observed sums: pos 2, neg 0; expected 1 and 1 -> chi2 = 2
        X = np.array([[1.0], [1.0], [0.0], [0.0]])
        pos = np.array([True, True, False, False])
        assert chi2_scores(X, pos)[0] == pytest.approx(2.0)

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            X = rng.uniform(0, 3, size=(n, 4))
            pos = rng.random(n) < 0.5
            if pos.all() or (~pos).all():
                pos[0] = ~pos[0]
            got = chi2_scores(X, pos)
            for j in range(4):
                assert got[j] == pytest.approx(
                    chi2_class_sum_statistic(X[:, j], pos), abs=1e-9
                )

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            chi2_scores(np.array([[-1.0]]), np.array([True]))

    def test_minmax_scaling(self):
        X = np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]])
        Z = minmax_scale_columns(X)
        assert Z[:, 0].tolist() == [0.0, 1.0, 0.5]
        assert np.all(Z[:, 1] == 0.0)  # constant column

    def test_ranking_indicator_on_top_and_scale_invariance(self):
        rng = np.random.default_rng(6)
        n = 40
        labels = ["D" if i % 2 else "M" for i in range(n)]
        indicator = np.array([1.0 if l == "D" else 0.0 for l in labels])
        noise = rng.uniform(0, 1, n)
        samples = [
            _sample(i, labels[i], [indicator[i], noise[i]]) for i in range(n)
        ]
        names = ("ind", "noise")
        ranking = chi2_ranking(samples, folds=5, seed=2, feature_names=names)
        assert ranking[0][0] == "ind"
        scaled = [
            _sample(i, labels[i], [indicator[i] * 1000.0, noise[i]])
            for i in range(n)
        ]
        ranking_scaled = chi2_ranking(scaled, folds=5, seed=2, feature_names=names)
        assert [r[0] for r in ranking_scaled] == [r[0] for r in ranking]
        assert ranking_scaled[0][1] == pytest.approx(ranking[0][1])

    def test_ranking_covers_all_features_sorted(self):
        rng = np.random.default_rng(7)
        samples = [
            _sample(i, "D" if i % 2 else "M", rng.uniform(0, 1, 38))
            for i in range(30)
        ]
        ranking = chi2_ranking(samples, folds=3, seed=0)
        assert len(ranking) == 38
        assert {name for name, _ in ranking} == set(FEATURE_NAMES)
        scores = [s for _, s in ranking]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= 0 for s in scores)


class TestKS:
    def test_identical_samples(self):
        d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d == 0.0
        assert p == pytest.approx(1.0)

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([0.0, 0.1, 0.2], [5.0, 6.0])
        assert d == pytest.approx(1.0)

    def test_hand_tabulated_fixture(self):
        d, _ = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert d == pytest.approx(0.25)

    def test_statistic_matches_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            a = rng.normal(0, 1, int(rng.integers(2, 40)))
            b = rng.normal(rng.uniform(-1, 1), 1.3, int(rng.integers(2, 40)))
            d, _ = ks_two_sample(a, b)
            assert d == pytest.approx(ks_statistic(a, b), abs=1e-12)

    def test_pvalue_matches_series(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            a = rng.normal(0, 1, int(rng.integers(5, 50)))
            b = rng.normal(0.5, 1, int(rng.integers(5, 50)))
            d, p = ks_two_sample(a, b)
            x = d * math.sqrt(len(a) * len(b) / (len(a) + len(b)))
            assert p == pytest.approx(kolmogorov_sf_series(x), abs=1e-10)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_rank_features_ks_orders_by_statistic(self):
        rng = np.random.default_rng(10)
        n = 60
        samples = []
        for i in range(n):
            label = "D" if i % 2 else "M"
            strong = 3.0 if label == "D" else -3.0
            samples.append(
                _sample(i, label, [strong + rng.normal(0, 0.1), rng.normal()])
            )
        rows = rank_features_ks(samples, feature_names=("strong", "noise"))
        assert rows[0][0] == "strong"
        assert rows[0][1] > rows[1][1]
        assert rows[0][3] is True  # rejected at alpha
        for _, d, p, _ in rows:
            assert 0.0 <= d <= 1.0
            assert 0.0 <= p <= 1.0


class TestTemporalSweep:
    def test_ladder_and_full_lifetime_equals_untruncated(self):
        rng = random.Random(11)
        cascades = _mini_corpus(rng, n_per_class=8)
        results = temporal_sweep(cascades, folds=3, seed=5)
        assert [lt for lt, _ in results] == list(LIFETIME_LADDER)
        assert len(results) == 7
        samples = featurize(cascades)
        untruncated = stratified_shuffle_cv(samples, folds=3, seed=5)
        # max span in the mini corpus is far below 7 days
        assert results[-1][1].to_text() == untruncated.to_text()

    def test_each_distinct_prefix_featurized_once(self, monkeypatch):
        cascades = _mini_corpus(random.Random(13), n_per_class=6)
        calls = []
        original = features.assemble_vector

        def counting(net):
            calls.append(net)
            return original(net)

        monkeypatch.setattr(features, "assemble_vector", counting)
        temporal_sweep(cascades, folds=3, seed=5)
        distinct = {
            (i, len(truncate_by_lifetime(c, lifetime).tweets))
            for lifetime in LIFETIME_LADDER
            for i, c in enumerate(cascades)
        }
        assert len(calls) == len(distinct) < len(LIFETIME_LADDER) * len(cascades)

    def test_jobs_give_the_same_reports(self):
        cascades = _mini_corpus(random.Random(14), n_per_class=6)
        lifetimes = (600, 1800, 3600, 86400)
        serial = temporal_sweep(cascades, lifetimes, folds=3, seed=5, jobs=1)
        parallel = temporal_sweep(cascades, lifetimes, folds=3, seed=5, jobs=2)
        assert [lt for lt, _ in parallel] == list(lifetimes)
        assert [r.to_metric_rows() for _, r in parallel] == [
            r.to_metric_rows() for _, r in serial
        ]

    def test_unsorted_and_repeated_lifetimes_match_single_calls(self):
        cascades = _mini_corpus(random.Random(15), n_per_class=6)
        lifetimes = (3600, 600, 86400, 600, 1800)
        swept = temporal_sweep(cascades, lifetimes, folds=3, seed=5)
        assert [lt for lt, _ in swept] == list(lifetimes)
        for lifetime, report in swept:
            [(alone_lifetime, alone)] = temporal_sweep(cascades, (lifetime,), folds=3, seed=5)
            assert alone_lifetime == lifetime
            assert report.to_metric_rows() == alone.to_metric_rows()

    def test_tweet_sets_monotone_across_ladder(self):
        rng = random.Random(12)
        cascades = _mini_corpus(rng, n_per_class=3)
        for cascade in cascades:
            previous: set = set()
            for lifetime in LIFETIME_LADDER:
                ids = {t.tweet_id for t in truncate_by_lifetime(cascade, lifetime).tweets}
                assert previous <= ids
                previous = ids


class TestSingleLayer:
    def test_eleven_features_and_names(self):
        assert len(SINGLE_LAYER_FEATURE_NAMES) == 11
        assert SINGLE_LAYER_FEATURE_NAMES[0] == "ALL_SCC"
        assert SINGLE_LAYER_FEATURE_NAMES[-2:] == ("T", "U")
        rng = random.Random(13)
        cascades = _mini_corpus(rng, n_per_class=3)
        samples = single_layer_samples(cascades)
        assert all(s.vector.shape == (11,) for s in samples)

    def test_rt_only_article_matches_rt_block(self):
        rng = random.Random(14)
        cascade = _tree_cascade("d001", "D", rng, 15, 0.5)
        multi = featurize([cascade])[0]
        single = single_layer_samples([cascade])[0]
        assert np.array_equal(single.vector[0:9], multi.vector[9:18])
        assert np.array_equal(single.vector[9:], multi.vector[36:])

    def test_aggregate_node_identity(self):
        # aggregate graph nodes = all users minus those seen only in pure tweets
        tweets = [
            TweetRecord("t1", "u1", 1000, "a1"),
            TweetRecord("t2", "u2", 1001, "a1", retweet_of="u1"),
            TweetRecord("t3", "u3", 1002, "a1"),
            TweetRecord("t4", "u2", 1003, "a1"),
        ]
        cascade = ArticleCascade.build("a1", tweets, ArticleLabel("a1", "D"))
        net = build_network(cascade)
        merged = aggregate_layer(net)
        sample = single_layer_samples([cascade])[0]
        pure_only = net.pure_authors - merged.nodes()
        assert len(merged.nodes()) == sample.n_users - len(pure_only)

    @staticmethod
    def _reference(cascade):
        # the merged layer's nine metrics, then T and U, and the users of
        # the four-layer network
        net = build_network(cascade)
        values = extract_layer_features(aggregate_layer(net)).as_tuple() + (
            float(net.pure_tweet_count),
            float(len(net.pure_authors)),
        )
        return np.asarray(values, dtype=np.float64), aggregate_user_count(net)

    def _assert_matches_reference(self, cascades):
        samples = single_layer_samples(cascades)
        assert [s.article_id for s in samples] == [c.article_id for c in cascades]
        for cascade, sample in zip(cascades, samples):
            vector, n_users = self._reference(cascade)
            assert np.array_equal(sample.vector, vector)
            assert sample.n_users == n_users
            assert sample.label == cascade.label

    def test_matches_merged_layer_reference_on_mini_corpus(self):
        self._assert_matches_reference(_mini_corpus(random.Random(18), n_per_class=6))

    def test_matches_merged_layer_reference_across_a_cycle(self):
        # u1 -M-> u2 -R-> u3 -M-> u1 closes a cycle only in the merged graph;
        # u1 also replies to u2, so that merged edge carries weight 2
        tweets = [
            TweetRecord("t1", "u1", 1000, "a1", mentions=("u2",)),
            TweetRecord("t2", "u2", 1001, "a1", reply_to="u3"),
            TweetRecord("t3", "u3", 1002, "a1", mentions=("u1",)),
            TweetRecord("t4", "u1", 1003, "a1", reply_to="u2"),
            TweetRecord("t5", "u4", 1004, "a1", retweet_of="u1"),
            TweetRecord("t6", "u5", 1005, "a1", quote_of="u4"),
            TweetRecord("t7", "u2", 1006, "a1"),
            TweetRecord("t8", "u9", 1007, "a1"),
        ]
        cascade = ArticleCascade.build(
            "a1", tweets, ArticleLabel("a1", "M", "x.org", "left")
        )
        net = build_network(cascade)
        for kind in ("M", "R"):
            assert extract_layer_features(net.layers[kind]).lscc == 1
        assert extract_layer_features(aggregate_layer(net)).lscc == 3
        self._assert_matches_reference([cascade])
        assert single_layer_samples([cascade])[0].n_users == 6

    def test_baseline_report_runs(self):
        rng = random.Random(15)
        cascades = _mini_corpus(rng, n_per_class=6)
        report = single_layer_baseline(cascades, folds=3, seed=1)
        assert len(report.folds) == 3


class TestCorpusQualitative:
    def test_broader_deeper_trees_show_in_rt_features(self):
        rng = random.Random(16)
        cascades = _mini_corpus(rng, n_per_class=10)
        samples = featurize(cascades)
        rt_lwcc = FEATURE_NAMES.index("RT_LWCC")
        rt_dwcc = FEATURE_NAMES.index("RT_DWCC")
        d = [s.vector for s in samples if s.label.class_label == "D"]
        m = [s.vector for s in samples if s.label.class_label == "M"]
        d_mean = np.mean([v[rt_lwcc] for v in d])
        m_mean = np.mean([v[rt_lwcc] for v in m])
        assert d_mean > m_mean
        d_depth = np.mean([v[rt_dwcc] for v in d])
        m_depth = np.mean([v[rt_dwcc] for v in m])
        assert d_depth > m_depth

    def test_featurize_cascades_propagates_metadata(self):
        rng = random.Random(17)
        cascade = _tree_cascade("d001", "D", rng, 5, 0.5, bias="right", source="s.org")
        sample = featurize_cascades([cascade])[0]
        assert sample.label == ArticleLabel("d001", "D", "s.org", "right")
        assert sample.n_users == 6  # root plus 5 spreaders


class TestFeaturize:
    def test_jobs_give_the_same_features(self):
        cascades = _mini_corpus(random.Random(19), n_per_class=4)
        assert featurize(cascades, 2) == featurize(cascades, 1)

    def test_featurize_cascades_is_featurize(self):
        assert featurize_cascades is featurize

    def test_features_file_rows_feed_every_experiment_alike(self, tmp_path):
        # the CLI reads its rows back from the features file; the library
        # passes featurize's rows on: both must be the same record
        rng = random.Random(20)
        cascades = [
            _tree_cascade(f"{c.lower()}{i:03d}", c, rng, rng.randint(4, 30),
                          0.8 if c == "D" else 0.1, bias=("left", "right", "")[i % 3],
                          source=f"s{i % 2}.org")
            for i in range(9) for c in "DM"
        ]
        rows = sorted(featurize(cascades), key=lambda r: r.article_id)
        path = tmp_path / "features.csv"
        write_features_file(path, rows)
        read = read_features_file(path)
        assert read == rows
        cv = dict(folds=3, test_fraction=0.3, seed=2)
        assert (stratified_shuffle_cv(read, **cv).to_metric_rows()
                == stratified_shuffle_cv(rows, **cv).to_metric_rows())
        bias = dict(folds=3, seed=2, excluded_sources=("s1.org",))
        assert (bias_restricted_eval(read, "left", **bias).to_metric_rows()
                == bias_restricted_eval(rows, "left", **bias).to_metric_rows())
        assert chi2_ranking(read, **cv) == chi2_ranking(rows, **cv)

    @pytest.mark.parametrize(
        "jobs, n_cascades, cpus, workers",
        [
            (100_000, 6, 64, 6),
            (100_000, 24, 2, 2),
            (3, 24, 64, 3),
            (100_000, 1, 64, None),
            (4, 0, 64, None),
            (4, 24, 1, None),
            (4, 24, None, None),
            (0, 24, 64, None),
        ],
    )
    def test_workers_capped_by_articles_and_cpus(
        self, monkeypatch, jobs, n_cascades, cpus, workers
    ):
        cascades = _mini_corpus(random.Random(21), n_per_class=12)[:n_cascades]
        serial = featurize(cascades)
        asked = record_pools(monkeypatch, features, cpus)
        assert featurize(cascades, jobs) == serial
        assert asked == ([] if workers is None else [workers])
