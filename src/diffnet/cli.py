"""Command-line front end: one subcommand per pipeline stage.

    diffnet synth    --out DIR [--config F] [--seed N] [--jobs N]
    diffnet ingest   --tweets F --labels F --out DIR [--start TS]
                     [--window 14d] [--min-tweets 50]
    diffnet featurize --cascades DIR --out FILE [--jobs N]
    diffnet evaluate --features F --out DIR [--size-class X] [CV]
    diffnet ablate   --features F --layer {Q,RT,M,R} --out DIR [CV]
    diffnet baseline-single-layer --cascades DIR --out DIR [CV]
    diffnet bias-eval --features F --train-bias {left,right}
                     [--exclude-source S]... [--train-fraction 0.8]
                     [--folds 10] [--C 1.0] [--seed 0] --out DIR
    diffnet rank-features --features F --method {chi2,ks} [--top K]
                     [--alpha 0.05] --out DIR [CV]
    diffnet temporal --cascades DIR [--lifetimes 1h,...,7d] --out DIR
                     [--jobs N] [CV]

where CV is [--folds 10] [--test-fraction 0.2] [--C 1.0] [--seed 0].

A cascades directory is what `ingest` (or `synth`) writes: `tweets.jsonl`
plus `labels.csv`. Every run first writes a `manifest.json` recording the
command, resolved options, sha256 digests of its inputs, the seed and the
output names, then produces the outputs; reruns with the same inputs and
seed are byte-identical at any `--jobs` setting (the default jobs count
comes from the DIFFNET_JOBS environment variable).

Failures print a single `E_<CODE>: message` line on stderr. The exit
status follows the code alone: `E_USAGE` exits 2, and every other code
(`E_INPUT_MISSING`, `E_FORMAT`, `E_INVARIANT`) exits 1. A `--folds` below
1, a `--test-fraction` outside (0, 1) or a `--C` that is not finite and
positive is `E_INVARIANT`, raised before any network is built and before
any report or ranking is written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .experiments import (
    LIFETIME_LADDER,
    bias_restricted_eval,
    chi2_ranking,
    layer_ablation,
    rank_features_ks,
    single_layer_baseline,
    temporal_sweep,
)
from .features import featurize, read_features_file, write_features_file
from .ingest import (
    CorpusFormatError,
    apply_censoring,
    filter_min_tweets,
    group_cascades,
    load_labels_file,
    load_tweets_file,
    write_labels_file,
    write_tweets_file,
)
from .model import SIZE_CLASSES, size_class_of, stratified_shuffle_cv
from .netbuild import LAYER_KINDS
from .synth import GeneratorConfig, default_config, generate_corpus, load_config


class CliError(Exception):
    """Carries a machine-parsable error code alongside the message."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse wants to print usage and exit; route everything through
    # the one-line error contract instead
    def error(self, message):
        raise CliError("E_USAGE", message)


_DURATION_RE = re.compile(r"^(\d+)([smhd]?)$")
_DURATION_UNITS = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400}


def parse_duration(text: str) -> int:
    """`45s`, `30m`, `12h`, `14d`, or bare seconds, as an int > 0."""
    match = _DURATION_RE.match(text.strip())
    if not match or int(match.group(1)) == 0:
        raise CliError("E_USAGE", f"bad duration {text!r} (use e.g. 30m, 12h, 14d)")
    return int(match.group(1)) * _DURATION_UNITS[match.group(2)]


def _jobs(args) -> int:
    """`--jobs` if given, else DIFFNET_JOBS, else 1."""
    if args.jobs is not None:
        return args.jobs
    raw = os.environ.get("DIFFNET_JOBS", "1").strip()
    try:
        jobs = int(raw)
    except ValueError:
        raise CliError("E_USAGE", f"DIFFNET_JOBS must be an integer, got {raw!r}")
    return max(1, jobs)


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError("E_INPUT_MISSING", f"no such file: {path}")
    return p


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def write_manifest(
    path: Path,
    command: str,
    config: dict,
    inputs: Sequence[Path],
    seed: Optional[int],
    outputs: Sequence[str],
) -> None:
    """Reproducibility record, written before any result file."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _digest(p) for p in sorted(inputs)},
        "outputs": list(outputs),
        "seed": seed,
        "tool_version": __version__,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_cascades(directory: str):
    d = Path(directory)
    tweets, labels = d / "tweets.jsonl", d / "labels.csv"
    if not tweets.is_file() or not labels.is_file():
        raise CliError(
            "E_INPUT_MISSING",
            f"cascades directory must hold tweets.jsonl and labels.csv: {directory}",
        )
    parsed = load_tweets_file(tweets)
    label_map = load_labels_file(labels)
    cascades, _ = group_cascades(parsed.records, label_map)
    if not cascades:
        raise CliError("E_INVARIANT", f"no labeled cascades in {directory}")
    return cascades, [tweets, labels]


def _load_samples(features: str):
    path = _require_file(features)
    try:
        rows = read_features_file(path)
    except ValueError as exc:
        raise CliError("E_FORMAT", f"{features}: {exc}") from exc
    if not rows:
        raise CliError("E_INVARIANT", f"features file is empty: {features}")
    return rows, path


def _write_report(out_dir: Path, command, config, inputs, seed, report) -> None:
    write_manifest(
        out_dir / "manifest.json", command, config, inputs, seed,
        ["metrics.csv", "report.txt"],
    )
    with open(out_dir / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    with open(out_dir / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(report.to_metric_rows())


def _cv_config(args) -> dict:
    return {
        "folds": args.folds,
        "test_fraction": args.test_fraction,
        "C": args.C,
    }


# ------------------------------------------------------------ subcommands

def cmd_synth(args) -> int:
    jobs = _jobs(args)
    inputs = []
    if args.config is not None:
        config_path = _require_file(args.config)
        inputs.append(config_path)
        try:
            config = load_config(config_path)
        except (json.JSONDecodeError, ValueError) as exc:
            raise CliError("E_FORMAT", f"{args.config}: {exc}") from exc
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    else:
        config = default_config(seed=0 if args.seed is None else args.seed)
    out = Path(args.out)
    write_manifest(
        out / "manifest.json", "synth", config.to_json_dict(), inputs,
        config.seed, ["config.json", "labels.csv", "tweets.jsonl"],
    )
    records, labels = generate_corpus(config, jobs=jobs)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_labels_file(out / "labels.csv", labels)
    write_tweets_file(out / "tweets.jsonl", records)
    print(f"synth: {len(records)} tweets across {len(labels)} articles -> {out}")
    return 0


def cmd_ingest(args) -> int:
    tweets_path = _require_file(args.tweets)
    labels_path = _require_file(args.labels)
    window = parse_duration(args.window)
    if args.min_tweets < 1:
        raise CliError("E_USAGE", "--min-tweets must be >= 1")
    parsed = load_tweets_file(tweets_path)
    label_map = load_labels_file(labels_path)
    cascades, unlabeled = group_cascades(parsed.records, label_map)
    if not cascades:
        raise CliError("E_INVARIANT", "no labeled records to ingest")
    start = args.start
    if start is None:
        start = min(c.tweets[0].timestamp for c in cascades)
    censored = apply_censoring(cascades, start, window)
    kept = filter_min_tweets(censored, args.min_tweets)
    if not kept:
        raise CliError("E_INVARIANT", "no article passed the window and size filters")

    out = Path(args.out)
    config = {
        "tweets": args.tweets,
        "labels": args.labels,
        "start": start,
        "window": window,
        "min_tweets": args.min_tweets,
    }
    write_manifest(
        out / "manifest.json", "ingest", config, [tweets_path, labels_path],
        None, ["labels.csv", "tweets.jsonl"],
    )
    write_labels_file(out / "labels.csv", [c.label for c in kept])
    write_tweets_file(out / "tweets.jsonl", [t for c in kept for t in c.tweets])
    n_tweets = sum(len(c.tweets) for c in kept)
    print(
        f"ingest: kept {len(kept)}/{len(cascades)} articles ({n_tweets} tweets); "
        f"skipped {parsed.malformed} malformed, {parsed.duplicates} duplicate, "
        f"{unlabeled} unlabeled records; dropped "
        f"{len(cascades) - len(censored)} emptied, "
        f"{len(censored) - len(kept)} under-min articles"
    )
    return 0


def cmd_featurize(args) -> int:
    jobs = _jobs(args)
    cascades, inputs = _load_cascades(args.cascades)
    out = Path(args.out)
    write_manifest(
        Path(str(out) + ".manifest.json"), "featurize",
        {"cascades": args.cascades}, inputs, None, [out.name],
    )
    rows = featurize(cascades, jobs)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_features_file(out, rows)
    print(f"featurize: {len(rows)} articles -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    samples, path = _load_samples(args.features)
    if args.size_class != "all":
        samples = [s for s in samples if size_class_of(s.n_users) == args.size_class]
        if not samples:
            raise CliError(
                "E_INVARIANT", f"no articles in size class {args.size_class}"
            )
    report = stratified_shuffle_cv(
        samples, folds=args.folds, test_fraction=args.test_fraction,
        seed=args.seed, C=args.C,
    )
    config = {**_cv_config(args), "features": args.features,
              "size_class": args.size_class}
    _write_report(Path(args.out), "evaluate", config, [path], args.seed, report)
    print(report.summary_line())
    return 0


def cmd_ablate(args) -> int:
    samples, path = _load_samples(args.features)
    report = layer_ablation(
        samples, args.layer, folds=args.folds,
        test_fraction=args.test_fraction, seed=args.seed, C=args.C,
    )
    config = {**_cv_config(args), "features": args.features, "layer": args.layer}
    _write_report(Path(args.out), "ablate", config, [path], args.seed, report)
    print(f"{args.layer}: {report.summary_line()}")
    return 0


def cmd_baseline(args) -> int:
    cascades, inputs = _load_cascades(args.cascades)
    report = single_layer_baseline(
        cascades, folds=args.folds, test_fraction=args.test_fraction,
        seed=args.seed, C=args.C,
    )
    config = {**_cv_config(args), "cascades": args.cascades}
    _write_report(
        Path(args.out), "baseline-single-layer", config, inputs, args.seed, report
    )
    print(f"single-layer: {report.summary_line()}")
    return 0


def cmd_bias_eval(args) -> int:
    samples, path = _load_samples(args.features)
    excluded = tuple(args.exclude_source or ())
    if not 0.0 < args.train_fraction < 1.0:
        raise CliError("E_USAGE", "--train-fraction must be in (0, 1)")
    report = bias_restricted_eval(
        samples, args.train_bias, folds=args.folds,
        train_fraction=args.train_fraction, seed=args.seed, C=args.C,
        excluded_sources=excluded,
    )
    config = {
        "features": args.features,
        "train_bias": args.train_bias,
        "train_fraction": args.train_fraction,
        "excluded_sources": list(excluded),
        "folds": args.folds,
        "C": args.C,
    }
    _write_report(Path(args.out), "bias-eval", config, [path], args.seed, report)
    print(f"train-bias={args.train_bias}: {report.summary_line()}")
    return 0


def cmd_rank_features(args) -> int:
    samples, path = _load_samples(args.features)
    if args.top < 1:
        raise CliError("E_USAGE", "--top must be >= 1")
    out = Path(args.out)
    config = {"features": args.features, "method": args.method, "top": args.top}
    if args.method == "chi2":
        config.update(_cv_config(args))
        ranking = chi2_ranking(
            samples, folds=args.folds, test_fraction=args.test_fraction,
            seed=args.seed,
        )
        header = ["rank", "feature", "chi2_mean"]
        rows = [
            [str(i), name, repr(score)]
            for i, (name, score) in enumerate(ranking, start=1)
        ]
    else:
        config["alpha"] = args.alpha
        ranking = rank_features_ks(samples, alpha=args.alpha)
        header = ["rank", "feature", "ks_d", "p_value", "rejected"]
        rows = [
            [str(i), name, repr(d), repr(p), str(rejected).lower()]
            for i, (name, d, p, rejected) in enumerate(ranking, start=1)
        ]
    write_manifest(
        out / "manifest.json", "rank-features", config, [path], args.seed,
        ["ranking.csv"],
    )
    with open(out / "ranking.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    for row in rows[: args.top]:
        print(" ".join(row[:3]))
    return 0


def cmd_temporal(args) -> int:
    jobs = _jobs(args)
    cascades, inputs = _load_cascades(args.cascades)
    raw = [part.strip() for part in args.lifetimes.split(",")]
    if not any(raw):
        raise CliError("E_USAGE", "--lifetimes must list at least one duration")
    lifetimes = [parse_duration(part) for part in raw if part]
    results = temporal_sweep(
        cascades, lifetimes, folds=args.folds,
        test_fraction=args.test_fraction, seed=args.seed, C=args.C,
        jobs=jobs,
    )
    out = Path(args.out)
    config = {
        **_cv_config(args),
        "cascades": args.cascades,
        "lifetimes": lifetimes,
    }
    write_manifest(
        out / "manifest.json", "temporal", config, inputs, args.seed,
        ["report.txt", "series.csv"],
    )
    with open(out / "series.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["lifetime_seconds", "auroc_mean", "auroc_std",
             "macro_f1_mean", "macro_f1_std"]
        )
        for lifetime, report in results:
            writer.writerow(
                [str(lifetime), repr(report.mean("AUROC")),
                 repr(report.std("AUROC")), repr(report.mean("macro_f1")),
                 repr(report.std("macro_f1"))]
            )
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        for lifetime, report in results:
            fh.write(f"lifetime {lifetime}s\n")
            fh.write(report.to_text())
            fh.write("\n")
    for lifetime, report in results:
        print(f"temporal {lifetime:>8d}s {report.summary_line()}")
    return 0


# ----------------------------------------------------------------- parser

def _add_cv_flags(sub, seed_default: Optional[int] = 0) -> None:
    sub.add_argument("--folds", type=int, default=10)
    sub.add_argument("--test-fraction", type=float, default=0.2)
    sub.add_argument("--C", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=seed_default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffnet", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"diffnet {__version__}"
    )
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("synth", help="generate a labeled synthetic corpus")
    sub.add_argument("--config", default=None, help="generator config JSON")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--jobs", type=int, default=None)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_synth)

    sub = subs.add_parser("ingest", help="clean, censor and filter a corpus")
    sub.add_argument("--tweets", required=True)
    sub.add_argument("--labels", required=True)
    sub.add_argument("--start", type=int, default=None,
                     help="observation window start (default: first tweet)")
    sub.add_argument("--window", default="14d")
    sub.add_argument("--min-tweets", type=int, default=50)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_ingest)

    sub = subs.add_parser("featurize", help="compute the 38-feature table")
    sub.add_argument("--cascades", required=True)
    sub.add_argument("--jobs", type=int, default=None)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_featurize)

    sub = subs.add_parser("evaluate", help="cross-validate the classifier")
    sub.add_argument("--features", required=True)
    sub.add_argument("--size-class", choices=SIZE_CLASSES + ("all",),
                     default="all")
    _add_cv_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_evaluate)

    sub = subs.add_parser("ablate", help="cross-validate one layer's features")
    sub.add_argument("--features", required=True)
    sub.add_argument("--layer", choices=LAYER_KINDS, required=True)
    _add_cv_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_ablate)

    sub = subs.add_parser("baseline-single-layer",
                          help="cross-validate the merged-graph baseline")
    sub.add_argument("--cascades", required=True)
    _add_cv_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_baseline)

    sub = subs.add_parser("bias-eval",
                          help="train on one political bias, test on the rest")
    sub.add_argument("--features", required=True)
    sub.add_argument("--train-bias", choices=("left", "right"), required=True)
    sub.add_argument("--exclude-source", action="append", default=None)
    sub.add_argument("--train-fraction", type=float, default=0.8)
    sub.add_argument("--folds", type=int, default=10)
    sub.add_argument("--C", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_bias_eval)

    sub = subs.add_parser("rank-features",
                          help="order features by class separation")
    sub.add_argument("--features", required=True)
    sub.add_argument("--method", choices=("chi2", "ks"), required=True)
    sub.add_argument("--top", type=int, default=10)
    sub.add_argument("--alpha", type=float, default=0.05)
    _add_cv_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_rank_features)

    sub = subs.add_parser("temporal",
                          help="evaluate across lifetime truncations")
    sub.add_argument("--cascades", required=True)
    sub.add_argument("--lifetimes",
                     default=",".join(str(s) for s in LIFETIME_LADDER))
    _add_cv_flags(sub)
    sub.add_argument("--jobs", type=int, default=None)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_temporal)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 2 if exc.code == "E_USAGE" else 1
    except CorpusFormatError as exc:
        print(f"E_FORMAT: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"E_INPUT_MISSING: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"E_INVARIANT: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
