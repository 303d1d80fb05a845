"""Experiments: bias-restricted training, layer ablation, chi-square / KS
feature analyses, temporal sweep, and the single-layer baseline. Each
reads :class:`~diffnet.features.ArticleFeatures` rows, as
:func:`~diffnet.features.featurize` returns them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .features import (
    FEATURE_NAMES,
    N_FEATURES,
    ArticleFeatures,
    feature_columns,
    featurize,
    featurize_network,
)
from .ingest import ArticleCascade
from .model import (
    EvaluationReport,
    StandardizerParams,
    check_settings,
    evaluate_split,
    fold_test_indices,
    samples_to_xy,
    stratified_shuffle_cv,
    transform,
)
from .netbuild import LAYER_KINDS, aggregate_layer, build_network, truncate_by_lifetime

LIFETIME_LADDER = (
    3600,  # 1h
    6 * 3600,
    12 * 3600,
    86400,  # 1d
    2 * 86400,
    3 * 86400,
    7 * 86400,
)

SINGLE_LAYER_FEATURE_NAMES = feature_columns(("ALL",))


def layer_feature_indices(layer: str) -> list[int]:
    """Positions of one layer's nine metrics inside the 38-entry vector."""
    indices = [i for i, name in enumerate(FEATURE_NAMES) if name.startswith(f"{layer}_")]
    if not indices:
        raise ValueError(f"unknown layer {layer!r}; expected one of {LAYER_KINDS}")
    return indices


def layer_ablation(
    samples: Sequence[ArticleFeatures],
    layer: str,
    folds: int = 10,
    test_fraction: float = 0.2,
    seed: int = 0,
    C: float = 1.0,
) -> EvaluationReport:
    """Cross-validate on a single layer's nine features; T and U excluded."""
    return stratified_shuffle_cv(
        samples,
        folds=folds,
        test_fraction=test_fraction,
        seed=seed,
        C=C,
        feature_indices=layer_feature_indices(layer),
    )


def bias_restricted_eval(
    samples: Sequence[ArticleFeatures],
    train_bias: str,
    folds: int = 10,
    train_fraction: float = 0.8,
    seed: int = 0,
    C: float = 1.0,
    excluded_sources: Sequence[str] = (),
) -> EvaluationReport:
    """Train only on networks of one political bias, test on the rest.

    Per fold, a stratified random train_fraction of the biased subset is
    used for training (class-weighted model); every sample not trained on,
    of any bias, lands in the test set. Excluded sources are removed from
    the whole pool before anything else, and each must be the source of
    some sample: a mistyped source would exclude nothing.
    """
    check_settings(train_fraction=train_fraction)
    if train_bias not in ("left", "right"):
        raise ValueError("train_bias must be 'left' or 'right'")
    excluded = set(excluded_sources)
    unknown = excluded.difference(s.label.source for s in samples)
    if unknown:
        raise ValueError(f"no sample has excluded source {sorted(unknown)}")
    pool = [s for s in samples if s.label.source not in excluded]
    biased = np.flatnonzero([s.label.bias == train_bias for s in pool])
    if not biased.size:
        raise ValueError(f"no samples with bias {train_bias!r}")
    labels = [pool[i].label.class_label for i in biased]
    if len(set(labels)) < 2:
        raise ValueError(f"bias {train_bias!r} subset contains one class")
    X, y = samples_to_xy(pool)
    results = []
    for held in fold_test_indices(labels, folds, 1.0 - train_fraction, seed):
        train = np.zeros(len(y), dtype=bool)
        train[biased] = True
        train[biased[held]] = False
        results.append(
            evaluate_split(X[train], y[train], X[~train], y[~train], C=C,
                           class_weights="balanced")
        )
    return EvaluationReport(folds=tuple(results))


def minmax_scale_columns(X: np.ndarray) -> np.ndarray:
    """Per-column (x - min)/(max - min); constant columns map to 0, as in
    :func:`~diffnet.model.transform`."""
    lo = X.min(axis=0)
    return transform(StandardizerParams(mean=lo, std=X.max(axis=0) - lo), X)


def chi2_scores(X: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Feature-selection chi-square of nonnegative features vs the class.

    Observed: per-class column sums. Expected: column total split by class
    frequency. Columns with zero total mass score 0.
    """
    if np.any(X < 0):
        raise ValueError("chi2 requires nonnegative features")
    n = X.shape[0]
    frac_pos = positive.sum() / n
    obs_pos = X[positive].sum(axis=0)
    obs_neg = X[~positive].sum(axis=0)
    total = obs_pos + obs_neg
    exp_pos = total * frac_pos
    exp_neg = total * (1.0 - frac_pos)
    with np.errstate(invalid="ignore", divide="ignore"):
        stat = np.where(exp_pos > 0, (obs_pos - exp_pos) ** 2 / exp_pos, 0.0)
        stat = stat + np.where(exp_neg > 0, (obs_neg - exp_neg) ** 2 / exp_neg, 0.0)
    return stat


def chi2_ranking(
    samples: Sequence[ArticleFeatures],
    folds: int = 10,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> list[tuple[str, float]]:
    """Rank the 38 features by mean chi-square over CV folds, best first.

    Each fold min-max scales its training portion and scores features
    there; the held-out part plays no role in the statistic.
    """
    X, y = samples_to_xy(samples)
    if X.shape[1] != N_FEATURES:
        raise ValueError(f"rows have {X.shape[1]} features, not {N_FEATURES}")
    positive = y > 0
    accum = np.zeros(X.shape[1])
    labels = [s.label.class_label for s in samples]
    for idx in fold_test_indices(labels, folds, test_fraction, seed):
        train = np.ones(len(y), dtype=bool)
        train[idx] = False
        accum += chi2_scores(minmax_scale_columns(X[train]), positive[train])
    means = accum / folds
    order = sorted(range(len(means)), key=lambda i: (-means[i], i))
    return [(FEATURE_NAMES[i], float(means[i])) for i in order]


# at or below this x, exp(-pi^2 / (8 x^2)) underflows and the survival
# function is 1.0; 708.39... is -log of the smallest normal double
_KOLMOGOROV_SMALL_X = math.pi / math.sqrt(8 * 708.3964185322641)


def kolmogorov(x: float) -> float:
    """Survival function of the Kolmogorov distribution, P(K > x).

    The two-branch series of scipy.special.kolmogorov, term for term and
    in the same operation order, so the result is bit-identical to it.
    """
    if x <= _KOLMOGOROV_SMALL_X:
        return 1.0
    if x <= 0.82:  # the cutover between the two series
        # 1 - sqrt(2 pi)/x * (u + u^9 + u^25 + u^49), u = exp(-pi^2 / (8 x^2))
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        u8 = math.exp(logu8)
        sf = 1 - w * u * (1 + u8 * (1 + u8 * u8 * (1 + math.pow(u8, 3))))
    else:
        # 2 (v - v^4 + v^9 - v^16), v = exp(-2 x^2)
        v = math.exp(-2 * x * x)
        v3 = math.pow(v, 3)
        p = 1 - v3 * v3 * v
        p = 1 - v3 * v * v * p
        sf = 2 * v * (1 - v3 * p)
    return min(max(sf, 0.0), 1.0)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample KS: (sup ECDF gap, asymptotic two-sided p-value)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n
    cdf_b = np.searchsorted(b, pooled, side="right") / m
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = n * m / (n + m)
    return d, kolmogorov(d * math.sqrt(effective))


def rank_features_ks(
    samples: Sequence[ArticleFeatures],
    alpha: float = 0.05,
) -> list[tuple[str, float, float, bool]]:
    """Per-feature KS test of class D values against class M values, over
    the 38 features.

    Returns (name, D_statistic, p_value, rejected_at_alpha) sorted by
    decreasing D. ValueError unless 0 < alpha < 1.
    """
    check_settings(alpha=alpha)
    X, y = samples_to_xy(samples)
    if X.shape[1] != N_FEATURES:
        raise ValueError(f"rows have {X.shape[1]} features, not {N_FEATURES}")
    pos = y > 0
    if pos.all() or (~pos).all():
        raise ValueError("need both classes")
    rows = []
    for i, name in enumerate(FEATURE_NAMES):
        d, p = ks_two_sample(X[pos, i], X[~pos, i])
        rows.append((name, d, p, p < alpha))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def _check_jobs(jobs: int) -> None:
    # ``jobs`` stays only because perfbench/worker.py passes ``jobs=1``;
    # every article is featurized in the calling process
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")


def featurize_cascades(
    cascades: Sequence[ArticleCascade], jobs: int = 1
) -> list[ArticleFeatures]:
    """:func:`~diffnet.features.featurize`, under the name perfbench/worker.py
    calls and perfbench/tracing.py wraps."""
    _check_jobs(jobs)
    return featurize(cascades)


def temporal_sweep(
    cascades: Sequence[ArticleCascade],
    lifetimes: Sequence[int] = LIFETIME_LADDER,
    folds: int = 10,
    test_fraction: float = 0.2,
    seed: int = 0,
    C: float = 1.0,
    jobs: int = 1,
) -> list[tuple[int, EvaluationReport]]:
    """Cross-validate on each lifetime truncation of the corpus, in the
    order given.

    Each cut keeps a prefix of its time-sorted cascade, and many cuts of an
    article keep the same prefix, so every distinct (article, prefix length)
    is featurized once, through :func:`~diffnet.features.featurize`, and CV
    then runs once per distinct row of shared vectors: lifetimes that keep
    the same prefix of every article share one report. The article set never
    shrinks (the earliest tweet always survives) and every cell reuses the
    same master seed, so the longest lifetime on a fully covered corpus
    reproduces the untruncated report. ``jobs`` must be 1; it and bad CV
    settings raise ValueError before anything is featurized.
    """
    _check_jobs(jobs)
    check_settings(folds=folds, test_fraction=test_fraction, seed=seed, C=C)
    prefixes: list[ArticleCascade] = []
    slot: dict[tuple[int, int], int] = {}
    rows = []
    for lifetime in lifetimes:
        row = []
        for pos, cascade in enumerate(cascades):
            cut = truncate_by_lifetime(cascade, lifetime)
            key = (pos, len(cut.tweets))
            if key not in slot:
                slot[key] = len(prefixes)
                prefixes.append(cut)
            row.append(slot[key])
        rows.append(tuple(row))
    samples = featurize(prefixes)
    # lifetimes past every cascade's span keep the same prefixes, so equal
    # rows share one (frozen) report
    reports: dict[tuple[int, ...], EvaluationReport] = {}
    for row in rows:
        if row not in reports:
            reports[row] = stratified_shuffle_cv(
                [samples[i] for i in row],
                folds=folds, test_fraction=test_fraction, seed=seed, C=C,
            )
    return [(lifetime, reports[row]) for lifetime, row in zip(lifetimes, rows)]


def single_layer_samples(cascades: Sequence[ArticleCascade]) -> list[ArticleFeatures]:
    """11-feature rows: the article featurizer over a one-layer network
    whose only layer is the all-interactions aggregate graph.
    """
    rows = []
    for cascade in cascades:
        net = build_network(cascade)
        merged = dataclasses.replace(net, layers={"ALL": aggregate_layer(net)})
        rows.append(featurize_network(cascade, merged))
    return rows


def single_layer_baseline(
    cascades: Sequence[ArticleCascade],
    folds: int = 10,
    test_fraction: float = 0.2,
    seed: int = 0,
    C: float = 1.0,
) -> EvaluationReport:
    """The comparison row: same CV protocol on the 11 aggregate features.
    Bad CV settings raise ValueError before any network is built.
    """
    check_settings(folds=folds, test_fraction=test_fraction, seed=seed, C=C)
    return stratified_shuffle_cv(
        single_layer_samples(cascades),
        folds=folds,
        test_fraction=test_fraction,
        seed=seed,
        C=C,
    )
