import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from diffnet.features import ArticleFeatures
from diffnet.ingest import ArticleLabel, CorpusFormatError
from diffnet.model import (
    EvaluationReport,
    FoldMetrics,
    LabeledSample,
    fit_standardizer,
    fold_test_indices,
    logistic_gradient,
    logistic_objective,
    metrics,
    predict_proba,
    rank_auroc,
    resolve_sample_weights,
    samples_to_xy,
    size_class_of,
    stratified_shuffle_cv,
    stratified_test_indices,
    train_logistic,
    transform,
)
from reference_stats import central_difference_gradient, trapezoid_auroc


def _sample(i, label, vector, bias="", n_users=10):
    article_id = f"a{i:04d}"
    return ArticleFeatures(
        article_id,
        ArticleLabel(article_id, label, "", bias),
        n_users,
        np.asarray(vector, dtype=np.float64),
    )


def _blob_samples(rng, n_per_class=30, dim=4, gap=2.0):
    samples = []
    for i in range(n_per_class):
        samples.append(_sample(i, "D", rng.normal(gap, 1.0, dim)))
    for i in range(n_per_class):
        samples.append(_sample(n_per_class + i, "M", rng.normal(-gap, 1.0, dim)))
    return samples


class TestLabeledSample:
    def test_is_the_article_features_row(self):
        vector = np.array([1.0, 2.5])
        got = LabeledSample(article_id="a1", vector=vector, label="D",
                            bias="left", n_users=7, source="x.org")
        assert type(got) is ArticleFeatures
        assert got == ArticleFeatures("a1", ArticleLabel("a1", "D", "x.org", "left"),
                                      7, vector.copy())

    @pytest.mark.parametrize("label,bias", [("X", "left"), ("d", ""), ("D", "center")])
    def test_bad_label_or_bias_rejected(self, label, bias):
        with pytest.raises(CorpusFormatError):
            LabeledSample("a1", np.zeros(1), label, bias, 3)


class TestSizeClass:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, "0-100"), (50, "0-100"), (99, "0-100"), (100, "100-1000"),
         (999, "100-1000"), (1000, "1000+"), (50_000, "1000+")],
    )
    def test_bins(self, n, expected):
        assert size_class_of(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            size_class_of(-1)


class TestStandardizer:
    def test_two_point_column(self):
        X = np.array([[1.0], [3.0]])
        params = fit_standardizer(X)
        assert params.mean[0] == pytest.approx(2.0)
        assert params.std[0] == pytest.approx(1.0)  # population std
        assert transform(params, X).ravel() == pytest.approx([-1.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        Z = transform(fit_standardizer(X), X)
        assert np.all(Z[:, 0] == 0.0)

    def test_refit_on_standardized_is_identity(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(40, 5))
        Z = transform(fit_standardizer(X), X)
        Z2 = transform(fit_standardizer(Z), Z)
        assert np.allclose(Z, Z2, atol=1e-12)

    def test_transform_applies_train_statistics_to_test(self):
        train = np.array([[0.0], [2.0]])
        params = fit_standardizer(train)
        assert transform(params, np.array([[4.0]]))[0, 0] == pytest.approx(3.0)


class TestWeights:
    def test_default_is_ones(self):
        y = np.array([1.0, -1.0, -1.0])
        assert np.all(resolve_sample_weights(y, None) == 1.0)

    def test_balanced_class_mass_equal(self):
        y = np.array([1.0] * 90 + [-1.0] * 10)
        w = resolve_sample_weights(y, "balanced")
        assert w[y > 0].sum() == pytest.approx(w[y < 0].sum())
        assert w.sum() == pytest.approx(len(y))

    def test_unsupported_form_rejected(self):
        # "balanced" is the only weighting; a per-class map is not accepted
        for form in ("Balanced", {"D": 2.0, "M": 0.5}):
            with pytest.raises(ValueError, match="unsupported class_weights"):
                resolve_sample_weights(np.array([1.0, -1.0]), form)


class TestTraining:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d = rng.integers(4, 30), rng.integers(1, 6)
            X = rng.normal(size=(n, d))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            if np.all(y > 0) or np.all(y < 0):
                y[0] = -y[0]
            omega = rng.uniform(0.5, 2.0, n)
            C = float(rng.uniform(0.1, 3.0))
            theta = rng.normal(size=d + 1)
            analytic = logistic_gradient(theta, X, y, C, omega)
            numeric = central_difference_gradient(
                lambda t: logistic_objective(t, X, y, C, omega), theta
            )
            denom = max(np.max(np.abs(analytic)), 1.0)
            assert np.max(np.abs(analytic - numeric)) / denom <= 1e-5

    def test_objective_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            X = rng.normal(size=(40, 5))
            y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            model = train_logistic(X, y, C=float(rng.uniform(0.2, 2.0)))
            history = np.array(model.objective_history)
            assert np.all(np.diff(history) <= 0.0)

    def test_separable_fixture_perfect_training_auroc(self):
        X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        y = np.array([1.0] * 10 + [-1.0] * 10)  # D at -1, M at +1
        model = train_logistic(X, y)
        scores = predict_proba(model, X)
        assert rank_auroc(scores, y > 0) == pytest.approx(1.0)
        assert model.converged

    def test_zero_features_recover_class_prior(self):
        X = np.zeros((10, 3))
        y = np.array([1.0] * 8 + [-1.0] * 2)
        model = train_logistic(X, y)
        assert np.allclose(model.weights, 0.0, atol=1e-6)
        p = predict_proba(model, X[:1])[0]
        assert p == pytest.approx(0.8, abs=1e-3)

    def test_single_class_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
            train_logistic(X, np.ones(4))

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_C_rejected(self, C):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        with pytest.raises(ValueError, match="C must be finite and > 0"):
            train_logistic(X, np.array([1.0, -1.0, 1.0, -1.0]), C=C)

    def test_converges_within_budget_on_easy_data(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(1, 1, (50, 4)), rng.normal(-1, 1, (50, 4))])
        y = np.array([1.0] * 50 + [-1.0] * 50)
        model = train_logistic(X, y, class_weights="balanced")
        assert model.converged
        assert model.n_iterations < 100


class TestPredict:
    def test_zero_score_is_half(self):
        model = train_logistic(
            np.array([[-1.0], [1.0], [-1.0], [1.0]]),
            np.array([1.0, -1.0, 1.0, -1.0]),
        )
        model.weights[:] = 0.0
        model.intercept = 0.0
        assert predict_proba(model, np.array([[123.0]]))[0] == pytest.approx(0.5)

    def test_monotone_in_score(self):
        model = train_logistic(
            np.array([[-1.0], [1.0], [-2.0], [2.0]]),
            np.array([1.0, -1.0, 1.0, -1.0]),
        )
        xs = np.linspace(-5, 5, 21).reshape(-1, 1)
        p = predict_proba(model, xs)
        assert np.all(np.diff(p * np.sign(model.weights[0])) >= 0)

    def test_equal_features_equal_probability(self):
        model = train_logistic(
            np.array([[-1.0, 3.0], [1.0, -3.0]]), np.array([1.0, -1.0])
        )
        p = predict_proba(model, np.array([[0.3, 0.4], [0.3, 0.4]]))
        assert p[0] == p[1]


class TestMetrics:
    def test_perfect_separation(self):
        assert rank_auroc(
            np.array([0.9, 0.8, 0.4, 0.1]), np.array([True, True, False, False])
        ) == pytest.approx(1.0)

    def test_hand_counted_pairs(self):
        # pairs: (0.8 vs 0.5) ok, (0.8 vs 0.1) ok, (0.3 vs 0.5) bad, (0.3 vs 0.1) ok
        assert rank_auroc(
            np.array([0.8, 0.3, 0.5, 0.1]), np.array([True, True, False, False])
        ) == pytest.approx(0.75)

    def test_ties_count_half(self):
        assert rank_auroc(
            np.array([0.5, 0.5]), np.array([True, False])
        ) == pytest.approx(0.5)

    def test_one_class_rejected(self):
        with pytest.raises(ValueError):
            rank_auroc(np.array([0.5, 0.6]), np.array([True, True]))

    def test_rank_equals_trapezoid_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 6, n) / 5.0
            positive = rng.random(n) < 0.5
            if positive.all() or (~positive).all():
                positive[0] = ~positive[0]
            assert abs(
                rank_auroc(scores, positive) - trapezoid_auroc(scores, positive)
            ) <= 1e-12

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(4)
        scores = rng.random(50)
        positive = rng.random(50) < 0.4
        positive[0], positive[1] = True, False
        assert rank_auroc(scores, positive) == pytest.approx(
            rank_auroc(1.0 - scores, ~positive), abs=1e-12
        )

    def test_midranks_match_scipy_rankdata_exactly(self):
        rng = np.random.default_rng(31)
        for trial in range(2000):
            n = int(rng.integers(2, 60))
            if trial % 2:
                scores = rng.integers(0, int(rng.integers(1, 8)), n) / 7.0  # tie-heavy
            else:
                scores = rng.random(n)
            positive = rng.random(n) < 0.5
            positive[0], positive[1] = True, False
            n_pos, n_neg = int(positive.sum()), int((~positive).sum())
            expected = (
                float(rankdata(scores)[positive].sum()) - n_pos * (n_pos + 1) / 2.0
            ) / (n_pos * n_neg)
            assert rank_auroc(scores, positive) == expected

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(99)
        positive = np.array([True] * 100 + [False] * 100)
        values = [
            rank_auroc(rng.random(200), positive) for _ in range(300)
        ]
        assert abs(np.mean(values) - 0.5) < 0.05

    def test_macro_from_confusion_fixture(self):
        # class D: TP=2 FP=1 FN=1; class M mirrors it
        true = ["D", "D", "D", "M", "M", "M"]
        pred = ["D", "D", "M", "M", "M", "D"]
        scores = [0.9, 0.8, 0.4, 0.3, 0.2, 0.7]
        result = metrics(true, pred, scores)
        assert result.macro_precision == pytest.approx(2 / 3)
        assert result.macro_recall == pytest.approx(2 / 3)
        assert result.macro_f1 == pytest.approx(2 / 3)

    def test_zero_denominator_scores_zero(self):
        # nothing predicted D: precision_D = 0 by convention
        true = ["D", "M"]
        pred = ["M", "M"]
        result = metrics(true, pred, [0.4, 0.3])
        assert result.macro_precision == pytest.approx((0.0 + 0.5) / 2)


class TestCV:
    def test_fold_count_and_determinism(self):
        rng = np.random.default_rng(8)
        # overlapping classes so per-fold numbers actually vary with the seed
        samples = _blob_samples(rng, gap=0.2)
        r1 = stratified_shuffle_cv(samples, folds=10, seed=5)
        r2 = stratified_shuffle_cv(samples, folds=10, seed=5)
        assert len(r1.folds) == 10
        assert r1.to_text() == r2.to_text()
        r3 = stratified_shuffle_cv(samples, folds=10, seed=6)
        assert r3.to_text() != r1.to_text()

    def test_stratification_arithmetic(self):
        labels = ["D"] * 50 + ["M"] * 50
        rng = np.random.default_rng(0)
        idx = stratified_test_indices(labels, 0.2, rng)
        assert len(idx) == 20
        assert sum(1 for i in idx if i < 50) == 10

    def test_small_class_rejected(self):
        labels = ["D", "M", "M", "M"]
        with pytest.raises(ValueError):
            stratified_test_indices(["D"] + ["M"] * 9, 0.2, np.random.default_rng(0))
        del labels

    def test_separable_blobs_score_high(self):
        rng = np.random.default_rng(13)
        samples = _blob_samples(rng, n_per_class=40, gap=3.0)
        report = stratified_shuffle_cv(samples, folds=5, seed=1)
        assert report.mean("AUROC") > 0.95

    def test_feature_subset(self):
        rng = np.random.default_rng(14)
        samples = []
        for i in range(40):
            label = "D" if i % 2 else "M"
            signal = 1.0 if label == "D" else -1.0
            vec = [signal + rng.normal(0, 0.3), rng.normal(0, 1.0)]
            samples.append(_sample(i, label, vec))
        informative = stratified_shuffle_cv(samples, folds=5, seed=2, feature_indices=[0])
        noise = stratified_shuffle_cv(samples, folds=5, seed=2, feature_indices=[1])
        assert informative.mean("AUROC") > noise.mean("AUROC")

    def test_report_rendering(self):
        rng = np.random.default_rng(16)
        samples = _blob_samples(rng, n_per_class=15)
        report = stratified_shuffle_cv(samples, folds=4, seed=9)
        text = report.to_text()
        assert text.count("\n") >= 10
        rows = report.to_metric_rows()
        assert rows[0] == ["metric", "mean", "std", "fold_1", "fold_2", "fold_3", "fold_4"]
        assert [line.split()[0] for line in text.splitlines()[1:5]] == ["1", "2", "3", "4"]
        assert len(rows) == 5
        assert len(rows[1]) == 3 + 4
        # full-precision values survive a float round-trip
        assert float(rows[1][1]) == report.mean("AUROC")
        assert "AUROC" in report.summary_line()

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(17)
        samples = _blob_samples(rng, n_per_class=12, gap=0.3)
        report = stratified_shuffle_cv(samples, folds=6, seed=4)
        for key in ("AUROC", "macro_precision", "macro_recall", "macro_f1"):
            assert np.all((report.values(key) >= 0.0) & (report.values(key) <= 1.0))


class TestFoldPolicy:
    LABELS = ["D"] * 12 + ["M"] * 9

    @pytest.mark.parametrize("folds", [0, -1])
    def test_fold_count_below_one_rejected(self, folds):
        with pytest.raises(ValueError, match="folds must be >= 1"):
            fold_test_indices(self.LABELS, folds, 0.2, 0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="test fraction must be in"):
            fold_test_indices(self.LABELS, 3, fraction, 0)

    def test_one_spawned_seed_per_fold(self):
        got = fold_test_indices(self.LABELS, 4, 0.3, 11)
        assert len(got) == 4
        for idx, ss in zip(got, np.random.SeedSequence(11).spawn(4)):
            expected = stratified_test_indices(self.LABELS, 0.3, np.random.default_rng(ss))
            assert idx.tolist() == expected.tolist()


def test_import_leaves_scipy_stats_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import diffnet; "
        "print('scipy.stats' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestSamplesToXY:
    def test_label_mapping(self):
        samples = [_sample(0, "D", [1.0]), _sample(1, "M", [2.0])]
        X, y = samples_to_xy(samples)
        assert y.tolist() == [1.0, -1.0]
        assert X.shape == (2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            samples_to_xy([])


def test_evaluation_report_mean_std_population():
    report = EvaluationReport(
        folds=tuple(
            FoldMetrics(auroc=v, macro_precision=v, macro_recall=v, macro_f1=v)
            for v in [0.5, 0.7]
        )
    )
    assert report.mean("AUROC") == pytest.approx(0.6)
    assert report.std("AUROC") == pytest.approx(0.1)  # population std
