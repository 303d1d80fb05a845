"""Command-line front end: one subcommand per pipeline stage.

    diffnet synth    --out DIR [--config F] [--seed N]
    diffnet ingest   --tweets F --labels F --out DIR [--start TS]
                     [--window 14d] [--min-tweets 50]
    diffnet featurize --cascades DIR --out FILE
    diffnet evaluate --features F --out DIR [--size-class X] [CV]
    diffnet ablate   --features F --layer {Q,RT,M,R} --out DIR [CV]
    diffnet baseline-single-layer --cascades DIR --out DIR [CV]
    diffnet bias-eval --features F --train-bias {left,right}
                     [--exclude-source S]... [--train-fraction 0.8]
                     [--folds 10] [--C 1.0] [--seed 0] --out DIR
    diffnet rank-features --features F --method {chi2,ks} [--top K]
                     [--alpha 0.05] --out DIR [CV]
    diffnet temporal --cascades DIR [--lifetimes 1h,...,7d] --out DIR [CV]

where CV is [--folds 10] [--test-fraction 0.2] [--C 1.0] [--seed 0].

A cascades directory is what `ingest` (or `synth`) writes: `tweets.jsonl`
plus `labels.csv`. Every run, after its work and before its first output,
writes a `manifest.json` recording the command, its config, sha256
digests of its inputs, the seed and the output names, then writes the
outputs; reruns with the same inputs and seed are byte-identical. A run
that fails during its work writes nothing. The config is the run's
resolved flags other than `--out` and `--seed`, with three exceptions:
`synth` records its generator config, `ingest` records the `--start` it
resolved, and `rank-features` leaves out the flags its other method reads
(`--alpha` for `chi2`; `--folds`, `--test-fraction` and `--C` for `ks`).

Failures print a single `E_<CODE>: message` line on stderr. The exit
status follows the code alone: `E_USAGE` exits 2, and every other code
(`E_INPUT_MISSING`, `E_FORMAT`, `E_INVARIANT`, `E_LIMIT`) exits 1. A
missing input file is `E_INPUT_MISSING`, and one that cannot be read or
parsed is `E_FORMAT` naming the file; running out of memory is
`E_LIMIT`. Every setting is checked before any input is read. A bad
`--folds`, `--test-fraction`, `--C`, `--seed` or `--alpha` is
`E_INVARIANT`, and so is a `--C` so large that the fit overflows; any
other bad setting is `E_USAGE`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

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
    write_csv,
    write_labels_file,
    write_tweets_file,
)
from .model import SETTING_RULES, SIZE_CLASSES, size_class_of, stratified_shuffle_cv
from .netbuild import LAYER_KINDS
from .synth import default_config, generate_corpus, load_config


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
    """`45s`, `30m`, `12h`, `14d`, or bare seconds, as an int > 0. A `type=`
    callable: argparse turns its error into `E_USAGE` naming the flag."""
    match = _DURATION_RE.match(text.strip())
    if not match or int(match.group(1)) == 0:
        raise argparse.ArgumentTypeError(f"bad duration {text!r} (use e.g. 30m, 12h, 14d)")
    return int(match.group(1)) * _DURATION_UNITS[match.group(2)]


def _setting(convert, rule, message: str, code: str = "E_INVARIANT"):
    """A `type=` callable that checks a flag as argparse reads it: text that
    ``convert`` rejects is argparse's usage error, and a value outside
    ``rule`` is ``code`` with ``message``."""
    def parse(text: str):
        value = convert(text)
        if not rule(value):
            raise CliError(code, f"{message}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it: "invalid int value"
    return parse


_FOLDS = _setting(int, *SETTING_RULES["folds"])
_TEST_FRACTION = _setting(float, *SETTING_RULES["test_fraction"])
_C = _setting(float, *SETTING_RULES["C"])
_SEED = _setting(int, *SETTING_RULES["seed"])
_ALPHA = _setting(float, *SETTING_RULES["alpha"])
_TRAIN_FRACTION = _setting(float, SETTING_RULES["train_fraction"][0],
                           "--train-fraction must leave a test share in (0, 1)", "E_USAGE")
_TOP = _setting(int, lambda v: v >= 1, "--top must be >= 1", "E_USAGE")
_MIN_TWEETS = _setting(int, lambda v: v >= 1, "--min-tweets must be >= 1", "E_USAGE")
_LIFETIMES = _setting(  # durations in seconds; empty entries are skipped
    lambda text: [parse_duration(part) for part in text.split(",") if part.strip()],
    bool, "--lifetimes must list at least one duration", "E_USAGE",
)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def publish(
    manifest_path: Path,
    command: str,
    config: dict,
    inputs: Sequence[Path],
    seed: Optional[int],
    outputs: dict[Path, Callable[[Path], object]],
) -> None:
    """Write the manifest, naming the outputs in sorted order, then each output
    path by its writer. A command calls it once, after its work: a run that
    fails before leaves nothing, and one that fails writing an output leaves
    the manifest."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _digest(p) for p in sorted(inputs)},
        "outputs": sorted(path.name for path in outputs),
        "seed": seed,
        "tool_version": __version__,
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    _json(manifest)(manifest_path)
    for path, write in outputs.items():
        write(path)


def _text(text: str):
    return lambda path: path.write_text(text, encoding="utf-8")


def _json(obj):
    return _text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv(rows):
    return lambda path: write_csv(path, rows)


def _load_corpus(tweets: Path, labels: Path):
    """Cascades, parse result and unlabeled count; labels first, so bad labels fail fast."""
    label_map = load_labels_file(labels)
    parsed = load_tweets_file(tweets)
    cascades, unlabeled = group_cascades(parsed.records, label_map)
    if not cascades:
        raise CliError("E_INVARIANT", f"no record in {tweets} has a label in {labels}")
    return cascades, parsed, unlabeled


def _load_cascades(directory: str):
    inputs = [Path(directory) / "tweets.jsonl", Path(directory) / "labels.csv"]
    return _load_corpus(*inputs)[0], inputs


def _load_samples(features: str):
    path = Path(features)
    rows = read_features_file(path)
    if not rows:
        raise CliError("E_INVARIANT", f"features file is empty: {features}")
    return rows, path


_CV_FLAGS = ("folds", "test_fraction", "seed", "C")


def _cv(args, *drop: str) -> dict:
    """The CV flags other than ``drop``, as keywords for a library call."""
    return {name: getattr(args, name) for name in _CV_FLAGS if name not in drop}


def _config(args, *drop: str) -> dict:
    """A manifest's config: the run's resolved flags other than --out,
    --seed (the manifest's own field) and ``drop``."""
    skip = {"subcommand", "func", "out", "seed", *drop}
    return {name: value for name, value in vars(args).items() if name not in skip}


def _publish_report(args, inputs, report) -> None:
    out = Path(args.out)
    publish(out / "manifest.json", args.subcommand, _config(args), inputs, args.seed, {
        out / "metrics.csv": _csv(report.to_metric_rows()),
        out / "report.txt": _text(report.to_text()),
    })


# ------------------------------------------------------------ subcommands

def cmd_synth(args) -> int:
    inputs = []
    if args.config is not None:
        inputs.append(Path(args.config))
        config = load_config(inputs[0])
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    else:
        config = default_config(seed=0 if args.seed is None else args.seed)
    records, labels = generate_corpus(config)
    out = Path(args.out)
    resolved = config.to_json_dict()
    # the generator config, seed included, stands in for the flags
    publish(out / "manifest.json", args.subcommand, resolved, inputs, config.seed, {
        out / "config.json": _json(resolved),
        out / "labels.csv": lambda path: write_labels_file(path, labels),
        out / "tweets.jsonl": lambda path: write_tweets_file(path, records),
    })
    print(f"synth: {len(records)} tweets across {len(labels)} articles -> {out}")
    return 0


def cmd_ingest(args) -> int:
    inputs = [Path(args.tweets), Path(args.labels)]
    cascades, parsed, unlabeled = _load_corpus(*inputs)
    if args.start is None:  # resolved in place, so the manifest records the start used
        args.start = min(c.tweets[0].timestamp for c in cascades)
    censored = apply_censoring(cascades, args.start, args.window)
    kept = filter_min_tweets(censored, args.min_tweets)
    if not kept:
        raise CliError("E_INVARIANT", "no article passed the window and size filters")

    out = Path(args.out)
    tweets = [t for c in kept for t in c.tweets]
    publish(out / "manifest.json", args.subcommand, _config(args), inputs, None, {
        out / "labels.csv": lambda path: write_labels_file(path, [c.label for c in kept]),
        out / "tweets.jsonl": lambda path: write_tweets_file(path, tweets),
    })
    print(
        f"ingest: kept {len(kept)}/{len(cascades)} articles ({len(tweets)} tweets); "
        f"skipped {parsed.malformed} malformed, {parsed.duplicates} duplicate, "
        f"{unlabeled} unlabeled records; dropped "
        f"{len(cascades) - len(censored)} emptied, "
        f"{len(censored) - len(kept)} under-min articles"
    )
    return 0


def cmd_featurize(args) -> int:
    cascades, inputs = _load_cascades(args.cascades)
    rows = featurize(cascades)
    out = Path(args.out)
    publish(Path(f"{out}.manifest.json"), args.subcommand, _config(args), inputs, None,
            {out: lambda path: write_features_file(path, rows)})
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
    report = stratified_shuffle_cv(samples, **_cv(args))
    _publish_report(args, [path], report)
    print(report.summary_line())
    return 0


def cmd_ablate(args) -> int:
    samples, path = _load_samples(args.features)
    report = layer_ablation(samples, args.layer, **_cv(args))
    _publish_report(args, [path], report)
    print(f"{args.layer}: {report.summary_line()}")
    return 0


def cmd_baseline(args) -> int:
    cascades, inputs = _load_cascades(args.cascades)
    report = single_layer_baseline(cascades, **_cv(args))
    _publish_report(args, inputs, report)
    print(f"single-layer: {report.summary_line()}")
    return 0


def cmd_bias_eval(args) -> int:
    samples, path = _load_samples(args.features)
    report = bias_restricted_eval(
        samples, args.train_bias, train_fraction=args.train_fraction,
        excluded_sources=args.excluded_sources, **_cv(args, "test_fraction"),
    )
    _publish_report(args, [path], report)
    print(f"train-bias={args.train_bias}: {report.summary_line()}")
    return 0


def cmd_rank_features(args) -> int:
    samples, path = _load_samples(args.features)
    # each method records only the flags it reads
    if args.method == "chi2":
        config = _config(args, "alpha")
        ranking = chi2_ranking(samples, **_cv(args, "C"))
        header = ["rank", "feature", "chi2_mean"]
        rows = [
            [str(i), name, repr(score)]
            for i, (name, score) in enumerate(ranking, start=1)
        ]
    else:
        config = _config(args, *_CV_FLAGS)
        ranking = rank_features_ks(samples, alpha=args.alpha)
        header = ["rank", "feature", "ks_d", "p_value", "rejected"]
        rows = [
            [str(i), name, repr(d), repr(p), str(rejected).lower()]
            for i, (name, d, p, rejected) in enumerate(ranking, start=1)
        ]
    out = Path(args.out)
    publish(out / "manifest.json", args.subcommand, config, [path], args.seed,
            {out / "ranking.csv": _csv([header, *rows])})
    for row in rows[: args.top]:
        print(" ".join(row[:3]))
    return 0


def cmd_temporal(args) -> int:
    cascades, inputs = _load_cascades(args.cascades)
    results = temporal_sweep(cascades, args.lifetimes, **_cv(args))
    out = Path(args.out)
    series = [["lifetime_seconds", "auroc_mean", "auroc_std", "macro_f1_mean", "macro_f1_std"]]
    series += [
        [str(lifetime), repr(report.mean("AUROC")), repr(report.std("AUROC")),
         repr(report.mean("macro_f1")), repr(report.std("macro_f1"))]
        for lifetime, report in results
    ]
    text = "".join(f"lifetime {lifetime}s\n{report.to_text()}\n"
                   for lifetime, report in results)
    publish(out / "manifest.json", args.subcommand, _config(args), inputs, args.seed, {
        out / "report.txt": _text(text),
        out / "series.csv": _csv(series),
    })
    for lifetime, report in results:
        print(f"temporal {lifetime:>8d}s {report.summary_line()}")
    return 0


# ----------------------------------------------------------------- parser

def _add_cv_flags(sub) -> None:
    sub.add_argument("--folds", type=_FOLDS, default=10)
    sub.add_argument("--test-fraction", type=_TEST_FRACTION, default=0.2)
    sub.add_argument("--C", type=_C, default=1.0)
    sub.add_argument("--seed", type=_SEED, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffnet", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"diffnet {__version__}"
    )
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("synth", help="generate a labeled synthetic corpus")
    sub.add_argument("--config", default=None, help="generator config JSON")
    sub.add_argument("--seed", type=_SEED, default=None)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_synth)

    sub = subs.add_parser("ingest", help="clean, censor and filter a corpus")
    sub.add_argument("--tweets", required=True)
    sub.add_argument("--labels", required=True)
    sub.add_argument("--start", type=int, default=None,
                     help="observation window start (default: first tweet)")
    sub.add_argument("--window", type=parse_duration, default="14d")
    sub.add_argument("--min-tweets", type=_MIN_TWEETS, default=50)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_ingest)

    sub = subs.add_parser("featurize", help="compute the 38-feature table")
    sub.add_argument("--cascades", required=True)
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
    sub.add_argument("--exclude-source", action="append", dest="excluded_sources",
                     default=[])
    sub.add_argument("--train-fraction", type=_TRAIN_FRACTION, default=0.8)
    sub.add_argument("--folds", type=_FOLDS, default=10)
    sub.add_argument("--C", type=_C, default=1.0)
    sub.add_argument("--seed", type=_SEED, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_bias_eval)

    sub = subs.add_parser("rank-features",
                          help="order features by class separation")
    sub.add_argument("--features", required=True)
    sub.add_argument("--method", choices=("chi2", "ks"), required=True)
    sub.add_argument("--top", type=_TOP, default=10)
    sub.add_argument("--alpha", type=_ALPHA, default=0.05)
    _add_cv_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_rank_features)

    sub = subs.add_parser("temporal",
                          help="evaluate across lifetime truncations")
    sub.add_argument("--cascades", required=True)
    sub.add_argument("--lifetimes", type=_LIFETIMES, default=list(LIFETIME_LADDER))
    _add_cv_flags(sub)
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
    except MemoryError:
        print("E_LIMIT: out of memory", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
