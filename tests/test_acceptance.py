"""Acceptance gate.

Each test runs one published criterion at its stated tolerance and prints
a single `ACCEPTANCE n: PASS|FAIL` line. The synthetic-corpus criteria
(6-8) share one module-scoped pipeline run so the gate stays fast.
"""

import json
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

import bruteforce as bf
import reference_stats as ref
from graphs import digraph, layer
from diffnet.cli import main as cli_main
from diffnet.experiments import (
    chi2_ranking,
    rank_features_ks,
    single_layer_baseline,
    temporal_sweep,
)
from diffnet.features import (
    FEATURE_NAMES,
    extract_layer_features,
    featurize,
    featurize_article,
)
from diffnet.graphops import (
    average_clustering,
    density,
    main_kcore_number,
    strongly_connected_components,
    undirected_distance_stats,
    weakly_connected_components,
)
from diffnet.ingest import (
    ArticleCascade,
    ArticleLabel,
    TweetRecord,
    filter_min_tweets,
    group_cascades,
)
from diffnet.model import (
    logistic_gradient,
    logistic_objective,
    metrics,
    predict_proba,
    rank_auroc,
    stratified_shuffle_cv,
    train_logistic,
)
from diffnet.netbuild import truncate_by_lifetime
from diffnet.synth import default_config, generate_corpus


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _comp_key(comps):
    return sorted(tuple(sorted(c)) for c in comps)


@pytest.fixture(scope="module")
def pipeline():
    """Default shipped corpus through filter, features and both models."""
    t0 = time.perf_counter()
    config = default_config(seed=0)
    records, labels = generate_corpus(config)
    label_map = {lab.article_id: lab for lab in labels}
    cascades, _ = group_cascades(records, label_map)
    kept = filter_min_tweets(cascades, 50)
    samples = featurize(kept)
    multi = stratified_shuffle_cv(samples, folds=10, test_fraction=0.2, seed=0)
    single = single_layer_baseline(kept, folds=10, test_fraction=0.2, seed=0)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        kept=kept, samples=samples, multi=multi, single=single, elapsed=elapsed
    )


def test_criterion_1_graph_metric_oracle_equivalence():
    rng = random.Random(424242)
    t0 = time.perf_counter()
    failures = []
    for trial in range(120):
        n = rng.randint(1, 8)
        nodes = list(range(n))
        p = rng.uniform(0.05, 0.6)
        edges = [
            (u, v) for u in nodes for v in nodes if u != v and rng.random() < p
        ]
        g = digraph(edges, nodes=nodes)
        wccs = weakly_connected_components(g)
        comp = max(wccs, key=lambda c: (len(c), -min(c)))
        max_dist, dist_sum = undirected_distance_stats(g, comp)
        pairs = len(comp) * (len(comp) - 1)
        checks = [
            ("scc", _comp_key(strongly_connected_components(g))
             == _comp_key(bf.scc_sets(nodes, edges))),
            ("wcc", _comp_key(wccs) == _comp_key(bf.wcc_sets(nodes, edges))),
            ("diameter", max_dist == bf.diameter(nodes, edges, subset=comp)),
            ("virality", abs((dist_sum / pairs if pairs else 0.0)
             - bf.avg_pair_distance(nodes, edges, subset=comp)) <= 1e-9),
            ("clustering", abs(average_clustering(g)
             - bf.avg_clustering(nodes, edges)) <= 1e-9),
            ("kcore", main_kcore_number(g) == bf.main_kcore(nodes, edges)),
            ("density", abs(density(g) - bf.density(nodes, edges)) <= 1e-9),
        ]
        failures += [f"trial {trial}: {name}" for name, good in checks if not good]
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s")
    _line(1, not failures,
          f"120 random graphs, 7 metrics vs brute force, {elapsed:.1f}s"
          + (f"; failures: {failures[:5]}" if failures else ""))


def test_criterion_2_hand_derived_fixtures():
    path3 = layer("RT", [(1, 2), (2, 3)])
    cycle3 = digraph([(1, 2), (2, 3), (3, 1)])
    k4 = digraph([(u, v) for u in range(4) for v in range(4) if u != v])
    lonely = digraph([], nodes=[7])
    checks = {
        "path-of-3 SV": extract_layer_features(path3).sv == 8 / 6,
        "3-cycle KC": main_kcore_number(cycle3) == 2,
        "triangle CC": average_clustering(cycle3) == 1.0,
        "complete density": density(k4) == 1.0,
        "empty layer zeros": tuple(extract_layer_features(layer("RT")))
        == (0.0,) * 9,
        "single-node SV": undirected_distance_stats(lonely) == (0, 0),
    }
    bad = [name for name, good in checks.items() if not good]
    _line(2, not bad, "six pinned fixtures" + (f"; failed: {bad}" if bad else ""))


def _toy_cascade(article_id: str, prefix: str) -> ArticleCascade:
    def u(i):
        return f"{prefix}{i}"

    tweets = [
        TweetRecord("t1", u(1), 100, article_id),
        TweetRecord("t2", u(2), 110, article_id, retweet_of=u(1)),
        TweetRecord("t3", u(3), 120, article_id, quote_of=u(1),
                    mentions=(u(2),)),
        TweetRecord("t4", u(4), 130, article_id, reply_to=u(2)),
        TweetRecord("t5", u(5), 140, article_id),
    ]
    label = ArticleLabel(article_id, "D", "src.example", "left")
    return ArticleCascade.build(article_id, tweets, label)


def test_criterion_3_vector_contract():
    expected_names = tuple(
        f"{layer}_{metric}"
        for layer in ("Q", "RT", "M", "R")
        for metric in ("SCC", "LSCC", "WCC", "LWCC", "DWCC", "CC", "KC", "D", "SV")
    ) + ("T", "U")
    a = featurize_article(_toy_cascade("a1", "user"))
    b = featurize_article(_toy_cascade("a1", "zz"))
    ok = (
        FEATURE_NAMES == expected_names
        and a.vector.shape == (38,)
        and np.array_equal(a.vector, b.vector)
    )
    _line(3, ok, "38 entries in documented order; relabeling users is a no-op")


def test_criterion_4_auroc_and_macro_f1():
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
        pos = rng.random(n) < 0.5
        if pos.all() or not pos.any():
            pos[0] = not pos[0]
        worst = max(
            worst, abs(rank_auroc(scores, pos) - ref.trapezoid_auroc(scores, pos))
        )
    big = rng.random(20000)
    coin = rng.random(20000) < 0.5
    drift = abs(rank_auroc(big, coin) - 0.5)
    truth = ["D", "D", "D", "D", "M", "M"]
    pred = ["D", "D", "M", "M", "M", "M"]
    scores = [0.9, 0.8, 0.4, 0.3, 0.2, 0.1]
    f1 = metrics(truth, pred, scores).macro_f1
    ok = worst <= 1e-12 and drift <= 0.05 and f1 == 2 / 3
    _line(4, ok,
          f"rank vs trapezoid worst gap {worst:.2e}; random drift {drift:.4f}; "
          f"macro F1 {f1:.6f} == 2/3")


def test_criterion_5_optimizer():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    for _ in range(12):
        X = rng.normal(size=(12, 4))
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        omega = rng.uniform(0.5, 2.0, size=12)
        theta = rng.normal(size=5)
        grad = logistic_gradient(theta, X, y, 0.7, omega)
        fd = ref.central_difference_gradient(
            lambda th: logistic_objective(th, X, y, 0.7, omega), theta
        )
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_rel = max(worst_rel, rel)

    X = rng.normal(size=(60, 3))
    y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    noisy = train_logistic(X, y)
    h = noisy.objective_history
    monotone = all(b <= a + 1e-12 for a, b in zip(h, h[1:]))

    X_sep = np.vstack([rng.normal(size=(30, 2)) + 6.0, rng.normal(size=(30, 2))])
    y_sep = np.array([1.0] * 30 + [-1.0] * 30)
    model = train_logistic(X_sep, y_sep)
    train_auroc = rank_auroc(predict_proba(model, X_sep), y_sep > 0)

    ok = worst_rel <= 1e-5 and monotone and train_auroc == 1.0
    _line(5, ok,
          f"gradient rel err {worst_rel:.2e}; monotone objective {monotone}; "
          f"separable training AUROC {train_auroc:.3f}")


def test_criterion_6_end_to_end_synthetic(pipeline):
    auroc = pipeline.multi.mean("AUROC")
    gap = auroc - pipeline.single.mean("AUROC")
    ok = auroc >= 0.85 and gap >= 0.03 and pipeline.elapsed < 120.0
    _line(6, ok,
          f"multi AUROC {auroc:.4f} (>=0.85), gap over single-layer "
          f"{gap:+.4f} (>=0.03), pipeline {pipeline.elapsed:.1f}s (<120s)")


def test_criterion_7_feature_ranking(pipeline):
    top5 = [name for name, _ in chi2_ranking(pipeline.samples)[:5]]
    family = {
        f"{layer}_{metric}"
        for layer in ("RT", "Q", "M")
        for metric in ("LWCC", "SCC")
    }
    hits = sorted(family.intersection(top5))
    ks = {name: rejected
          for name, _, _, rejected in rank_features_ks(pipeline.samples, 0.05)}
    rejected = all(ks[name] for name in hits)
    ok = bool(hits) and rejected
    _line(7, ok,
          f"chi2 top-5 {top5}; LWCC/SCC hits {hits}; KS rejects at 0.05: "
          f"{rejected}")


def test_criterion_8_temporal_sweep(pipeline):
    series = temporal_sweep(pipeline.kept, seed=0)
    aurocs = {lifetime: rep.mean("AUROC") for lifetime, rep in series}
    nested = True
    for cascade in pipeline.kept[:100]:
        previous = set()
        for lifetime, _ in series:
            ids = {t.tweet_id for t in truncate_by_lifetime(cascade, lifetime).tweets}
            nested &= previous <= ids
            previous = ids
    ok = (
        len(series) == 7
        and aurocs[604800] >= aurocs[3600]
        and nested
    )
    _line(8, ok,
          f"7 lifetimes; AUROC 7d {aurocs[604800]:.4f} >= 1h "
          f"{aurocs[3600]:.4f}; tweet sets monotone: {nested}")


def test_criterion_9_cli_determinism(tmp_path):
    config = {
        "disinformation": {
            "n_articles": 20, "cascade_mean": 2.5, "size_exponent": 2.1,
            "size_min": 6, "size_max": 50, "depth_bias": 0.6,
            "mention_rate": 0.5,
        },
        "mainstream": {
            "n_articles": 20, "cascade_mean": 2.3, "size_exponent": 2.4,
            "size_min": 6, "size_max": 50, "depth_bias": 0.4,
            "mention_rate": 0.1,
        },
        "reply_rate": 1.0, "quote_rate": 0.15, "pure_rate": 0.08, "seed": 5,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    def run(*argv):
        assert cli_main(list(argv)) == 0

    run("synth", "--config", str(cfg), "--out", str(tmp_path / "c1"))
    run("synth", "--config", str(cfg), "--out", str(tmp_path / "c2"))
    run("ingest", "--tweets", str(tmp_path / "c1" / "tweets.jsonl"),
        "--labels", str(tmp_path / "c1" / "labels.csv"),
        "--min-tweets", "5", "--out", str(tmp_path / "casc"))
    run("featurize", "--cascades", str(tmp_path / "casc"),
        "--out", str(tmp_path / "f1.csv"))
    run("featurize", "--cascades", str(tmp_path / "casc"),
        "--out", str(tmp_path / "f2.csv"))
    run("evaluate", "--features", str(tmp_path / "f1.csv"),
        "--out", str(tmp_path / "e1"))
    run("evaluate", "--features", str(tmp_path / "f1.csv"),
        "--out", str(tmp_path / "e2"))
    run("temporal", "--cascades", str(tmp_path / "casc"),
        "--lifetimes", "1h,7d", "--out", str(tmp_path / "t1"))
    run("temporal", "--cascades", str(tmp_path / "casc"),
        "--lifetimes", "1h,7d", "--out", str(tmp_path / "t2"))

    same = {
        "synth": (tmp_path / "c1" / "tweets.jsonl").read_bytes()
        == (tmp_path / "c2" / "tweets.jsonl").read_bytes(),
        "featurize": (tmp_path / "f1.csv").read_bytes()
        == (tmp_path / "f2.csv").read_bytes(),
        "evaluate": (tmp_path / "e1" / "report.txt").read_bytes()
        == (tmp_path / "e2" / "report.txt").read_bytes()
        and (tmp_path / "e1" / "metrics.csv").read_bytes()
        == (tmp_path / "e2" / "metrics.csv").read_bytes(),
        "temporal": (tmp_path / "t1" / "series.csv").read_bytes()
        == (tmp_path / "t2" / "series.csv").read_bytes(),
    }
    bad = [name for name, good in same.items() if not good]
    _line(9, not bad,
          "byte-identical outputs across reruns for synth/featurize/evaluate/temporal"
          + (f"; differed: {bad}" if bad else ""))
