"""One measured pass over a workload's input files, in a fresh process.

Run by ``run.py``; writes its findings as JSON to ``--out``. Timed steps:

* classify: load_tweets_file -> load_labels_file -> group_cascades ->
  filter_min_tweets(50) -> featurize_cascades -> stratified_shuffle_cv
  (10 folds, 0.2) for the multi-layer report -> single_layer_baseline,
  run in two rounds from the files, one at the start and one at the end;
  it counts at the mean of the rounds, and both rounds must compute the
  same outputs;
* sweep (``default`` only): temporal_sweep over LIFETIME_LADDER, between
  the rounds;
* per-article latency: featurize_article on each kept article alone, in
  passes for ``--seconds`` in all, a third after the first classify round,
  a third after the sweep and a third after the second round (see
  :class:`ArticleLatencies`).

Peak resident memory is read before the correctness check, which runs
untimed afterwards. With ``--trace 1`` the classify step runs once
untraced, then classify (and the sweep) run again under the tracer.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from diffnet import experiments, features, ingest, model
from diffnet.experiments import LIFETIME_LADDER
from diffnet.features import ArticleFeatures, write_features_file
from diffnet.model import LabeledSample, size_class_of

import reference
from tracing import Tracer

MIN_TWEETS = 50
FOLDS = 10
TEST_FRACTION = 0.2
CV_SEED = 0
SWEEP_WORKLOADS = ("default",)
PERCENTILES = (50, 75, 80, 90, 95, 98, 99, 99.5, 99.9)
DIGESTS = Path(__file__).with_name("digests.json")


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    return max(q for q in PERCENTILES if n * (1 - q / 100) >= 10 or q == 50)


def classify(in_dir: Path) -> dict:
    stage = {}
    gc.collect()
    t0 = time.perf_counter()
    parsed = ingest.load_tweets_file(in_dir / "tweets.jsonl")
    t1 = time.perf_counter()
    labels = ingest.load_labels_file(in_dir / "labels.csv")
    cascades, _ = ingest.group_cascades(parsed.records, labels)
    kept = ingest.filter_min_tweets(cascades, MIN_TWEETS)
    t2 = time.perf_counter()
    samples = experiments.featurize_cascades(kept, jobs=1)
    t3 = time.perf_counter()
    report = model.stratified_shuffle_cv(
        samples, folds=FOLDS, test_fraction=TEST_FRACTION, seed=CV_SEED
    )
    t4 = time.perf_counter()
    baseline = experiments.single_layer_baseline(
        kept, folds=FOLDS, test_fraction=TEST_FRACTION, seed=CV_SEED
    )
    t5 = time.perf_counter()
    stage.update(parse=t1 - t0, group=t2 - t1, featurize=t3 - t2, cv=t4 - t3, baseline=t5 - t4)
    return {
        "seconds": t5 - t0,
        "stages": stage,
        "parsed": parsed,
        "grouped": len(cascades),
        "kept": kept,
        "samples": samples,
        "report": report,
        "baseline": baseline,
    }


def sweep(kept) -> tuple[float, list]:
    gc.collect()
    t0 = time.perf_counter()
    series = experiments.temporal_sweep(
        kept, LIFETIME_LADDER, folds=FOLDS, test_fraction=TEST_FRACTION,
        seed=CV_SEED, jobs=1,
    )
    return time.perf_counter() - t0, series


class ArticleLatencies:
    """Per-article latency of featurize_article on each kept article alone.

    Timing runs in passes, each over every article in a fresh random order;
    the first pass always completes, later ones stop when the time is up.
    An article's latency is the median of its times. On a shared host the
    speed drifts by a factor of 1.3 or more for seconds at a time, so the
    passes are split into phases, tens of seconds apart. The fastest time
    would not do: it keeps falling as samples are added, so it would follow
    how many passes fit in the run rather than the program.
    """

    def __init__(self, n: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.results: list = [None] * n
        self.errors: dict[str, str] = {}
        self.rng = np.random.default_rng(0)
        self.spent = 0.0
        self.passes = 0

    def run(self, kept, until: float) -> None:
        """Pass over ``kept`` until the phases have timed ``until`` seconds
        in all."""
        while self.passes == 0 or self.spent < until:
            first = self.passes == 0
            self.passes += 1
            start = time.perf_counter()
            for i in self.rng.permutation(len(kept)):
                if not first and self.spent + time.perf_counter() - start >= until:
                    break
                cascade = kept[i]
                t0 = time.perf_counter()
                try:
                    out = features.featurize_article(cascade)
                except Exception as exc:  # a raising article is a failed op
                    self.errors[cascade.article_id] = repr(exc)
                    continue
                self.times[i].append(time.perf_counter() - t0)
                if self.results[i] is None:
                    self.results[i] = out
            self.spent += time.perf_counter() - start

    def summary(self) -> dict:
        per_article_ms = [float(np.median(t)) * 1e3 for t in self.times if t]
        q = tail_percentile(len(per_article_ms))
        return {
            "passes": self.passes,
            "seconds": self.spent,
            "samples": sum(len(t) for t in self.times),
            "p50_ms": float(np.percentile(per_article_ms, 50)),
            "tail_ms": float(np.percentile(per_article_ms, q)),
            "tail_percentile": q,
            "articles": len(per_article_ms),
            "max_ms": max(per_article_ms),
        }


# ---------------------------------------------------------------- outputs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_text(report) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(report.to_metric_rows())
    return report.to_text() + buf.getvalue()


def series_text(series) -> str:
    # the series.csv layout of `diffnet temporal`
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["lifetime_seconds", "auroc_mean", "auroc_std", "macro_f1_mean", "macro_f1_std"]
    )
    for lifetime, report in series:
        writer.writerow(
            [str(lifetime), repr(report.mean("AUROC")), repr(report.std("AUROC")),
             repr(report.mean("macro_f1")), repr(report.std("macro_f1"))]
        )
    return buf.getvalue()


def features_text(rows, work: Path) -> str:
    path = work / "features.csv"
    write_features_file(path, rows)
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


# ---------------------------------------------------------------- checks


def _sample(cascade, vector, n_users) -> LabeledSample:
    lab = cascade.label
    return LabeledSample(
        article_id=cascade.article_id, vector=vector, label=lab.class_label,
        bias=lab.bias, n_users=n_users, source=lab.source,
    )


def _cv(samples):
    return model.stratified_shuffle_cv(
        samples, folds=FOLDS, test_fraction=TEST_FRACTION, seed=CV_SEED
    )


def compare_rounds(earlier: dict, last: dict) -> list[str]:
    """What an earlier classify round computed differently from the last."""
    out = []
    ids = [s.article_id for s in earlier["samples"]]
    if ids != [c.article_id for c in last["kept"]]:
        return ["classify rounds kept different articles"]
    for a, b in zip(earlier["samples"], last["samples"]):
        if not np.array_equal(a.vector, b.vector) or a.n_users != b.n_users:
            out.append(f"article {a.article_id} differs between classify rounds")
    for name in ("report", "baseline"):
        if earlier[name].to_metric_rows() != last[name].to_metric_rows():
            out.append(f"{name} differs between classify rounds")
    return out


def check(run: dict, article_results, article_errors, series, work: Path,
          workload: str, seed: int, repeat_mismatches: list[str]) -> dict:
    """Compare outputs with the reference; every mismatch is a failed op."""
    kept = run["kept"]
    failed = len(repeat_mismatches)
    mismatches: list[str] = list(repeat_mismatches)
    ref = {}
    size_classes: Counter = Counter()
    largest_layer = 0
    lwccs = cyclic = 0
    for i, cascade in enumerate(kept):
        vector, n_users, info = reference.article_vector(cascade.tweets)
        ref[(cascade.article_id, len(cascade.tweets))] = (vector, n_users)
        for nodes, lwcc_nodes, lwcc_edges in info:
            largest_layer = max(largest_layer, nodes)
            if lwcc_nodes:
                lwccs += 1
                cyclic += lwcc_edges >= lwcc_nodes
        sample = run["samples"][i]
        ok = sample.article_id == cascade.article_id and np.array_equal(sample.vector, vector)
        ok = ok and sample.n_users == n_users
        if article_results is not None:
            got = article_results[i]
            ok = ok and cascade.article_id not in article_errors and got == ArticleFeatures(
                cascade.article_id, cascade.label, n_users, vector
            )
        if not ok:
            failed += 1
            mismatches.append(f"article {cascade.article_id}")
        size_classes[size_class_of(n_users)] += 1

    ref_samples = [_sample(c, *ref[(c.article_id, len(c.tweets))]) for c in kept]
    if _cv(ref_samples).to_metric_rows() != run["report"].to_metric_rows():
        failed += 1
        mismatches.append("multi-layer report")

    # A sweep cell whose prefix is the whole cascade reuses the article's
    # reference vector; a lifetime made only of such cells is checked by
    # cross-validating the reference vectors. Lifetimes that truncate some
    # article are left to the recorded series digest: a reference vector
    # per truncated prefix would cost more than the sweep's own check is
    # worth in run time.
    cells = 0
    swept: set = set()
    full_lifetimes = 0
    if series is not None:
        for lifetime, report in series:
            keys = [(c.article_id, len(reference.prefix(c.tweets, lifetime))) for c in kept]
            swept.update(keys)
            cells += len(kept)
            if not all(key in ref for key in keys):
                continue
            full_lifetimes += 1
            cut_samples = [_sample(c, *ref[key]) for c, key in zip(kept, keys)]
            if _cv(cut_samples).to_metric_rows() != report.to_metric_rows():
                failed += len(kept)
                mismatches.append(f"sweep cells at lifetime {lifetime}")

    digests = {
        "report": _sha(report_text(run["report"])),
        "baseline": _sha(report_text(run["baseline"])),
    }
    if article_results is not None:
        done = [r for r in article_results if r is not None]
        digests["features_csv"] = _sha(features_text(done, work))
    if series is not None:
        digests["series"] = _sha(series_text(series))
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if recorded is not None:
        for name, value in digests.items():
            if recorded.get(name) != value:
                failed += 1
                mismatches.append(f"digest {name}")
    return {
        "ops": len(kept) + cells,
        "ops_failed": failed,
        "mismatches": mismatches,
        "digests": digests,
        "digests_recorded": recorded is not None,
        "properties": {
            "articles_per_size_class": {**dict(sorted(size_classes.items())), "base": len(kept)},
            "largest_layer_nodes": largest_layer,
            "cyclic_lwcc_share": {"value": cyclic / lwccs if lwccs else 0.0,
                                  "cyclic": cyclic, "base": lwccs},
            "sweep_cells": cells,
            "sweep_lifetimes_checked_by_reference": full_lifetimes,
            "sweep_distinct_prefixes": len(swept),
        },
    }


# ---------------------------------------------------------------- traced


def per_layer(tracer: Tracer) -> dict:
    totals = tracer.totals()
    counters = tracer.counters

    def span(name):
        return totals.get(name, 0.0)

    out = {
        "ingest.parse_s": span("ingest.parse"),
        "ingest.group_s": span("ingest.group"),
        "ingest.tweets": counters["ingest.tweets"],
        "ingest.malformed": counters["ingest.malformed"],
        "ingest.duplicates": counters["ingest.duplicates"],
        "netbuild.build_s": span("netbuild.build"),
        "netbuild.aggregate_s": span("netbuild.aggregate"),
        "netbuild.truncate_s": span("netbuild.truncate"),
    }
    for kind in reference.LAYERS:
        out[f"netbuild.nodes.{kind}"] = counters[f"netbuild.nodes.{kind}"]
        out[f"netbuild.edges.{kind}"] = counters[f"netbuild.edges.{kind}"]
    for part in ("to_graph", "scc", "wcc", "distance", "clustering", "kcore", "density"):
        out[f"graphops.{part}_s"] = span(f"graphops.{part}")
    lwccs = counters["graphops.lwccs"]
    out["graphops.distance_pairs"] = counters["graphops.distance_pairs"]
    out["graphops.lwccs"] = lwccs
    out["graphops.cyclic_lwcc_share"] = counters["graphops.cyclic_lwccs"] / lwccs if lwccs else 0.0
    out["features.featurize_s"] = span("features.featurize")
    for kind in reference.LAYERS + ("ALL",):
        out[f"features.layer_s.{kind}"] = span(f"features.layer.{kind}")
    out["features.networks"] = counters["features.networks"]
    out["model.cv_s"] = span("model.cv")
    out["model.train_s"] = span("model.train")
    out["model.fits"] = counters["model.fits"]
    out["model.newton_iters"] = counters["model.newton_iters"]
    out["model.unconverged_fits"] = counters["model.unconverged_fits"]
    out["experiments.baseline_s"] = span("experiments.baseline")
    out["experiments.sweep_cells"] = counters["experiments.sweep_cells"]
    out["experiments.sweep_distinct_prefixes"] = len(tracer.prefixes)
    return out


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    work = args.out.parent
    with_sweep = args.workload in SWEEP_WORKLOADS
    result: dict = {"jobs": 1, "with_sweep": with_sweep}

    series = None
    article_results = None
    article_errors: dict = {}
    repeat_mismatches: list[str] = []
    run = classify(args.inputs)
    if args.trace:
        result["classify_s"] = run["seconds"]
        result["stages"] = dict(run["stages"])
        del run
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("classify"):
                run = classify(args.inputs)
            if with_sweep:
                with tracer.span("sweep"):
                    result["traced_sweep_s"], series = sweep(run["kept"])
        finally:
            tracer.uninstall()
        result["traced_classify_s"] = run["seconds"]
        result["tracing_overhead_s"] = run["seconds"] - result["classify_s"]
        result["per_layer"] = per_layer(tracer)
        result["self_by_module"] = tracer.self_by_module()
        tracer.write(work / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        # classify runs in two rounds, one at each end of the run, and
        # counts at their mean, so that one fast or slow stretch of a
        # shared host moves it by half; the first round's articles serve
        # two latency phases and the sweep between them, and are dropped
        # before the second round loads its own
        latencies = ArticleLatencies(len(run["kept"]))
        latencies.run(run["kept"], args.seconds / 3)
        if with_sweep:
            result["sweep_s"], series = sweep(run["kept"])
        latencies.run(run["kept"], args.seconds * 2 / 3)
        first = {k: v for k, v in run.items() if k not in ("parsed", "kept")}
        del run
        run = classify(args.inputs)
        result["stages"] = {
            name: (first["stages"][name] + run["stages"][name]) / 2 for name in run["stages"]
        }
        result["classify_s"] = sum(result["stages"].values())
        result["classify_rounds_s"] = [first["seconds"], run["seconds"]]
        repeat_mismatches = compare_rounds(first, run)
        del first
        latencies.run(run["kept"], args.seconds)
        article_results = latencies.results
        article_errors = latencies.errors
        result["article_latency"] = latencies.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["tweets_parsed"] = len(run["parsed"].records)
    result["articles_grouped"] = run["grouped"]
    result["articles_kept"] = len(run["kept"])
    check_start = time.perf_counter()
    result["check"] = check(
        run, article_results, article_errors, series, work, args.workload, args.seed,
        repeat_mismatches,
    )
    result["check_s"] = time.perf_counter() - check_start
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
