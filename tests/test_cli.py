"""End-to-end CLI tests: the pipeline chain, manifests, determinism across
reruns, the one-line error contract, and the README's agreement with the
parser."""

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import diffnet.cli as cli
import diffnet.experiments as experiments
import diffnet.features as features
from diffnet.cli import main, parse_duration
from diffnet.ingest import (
    BIAS_RIGHT,
    ArticleLabel,
    TweetRecord,
    group_cascades,
    write_labels_file,
    write_tweets_file,
)
from diffnet.netbuild import LAYER_KINDS, build_network
from diffnet.synth import GeneratorConfig, generate_corpus

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = {
    "disinformation": {
        "n_articles": 30, "cascade_mean": 2.5, "size_exponent": 2.1,
        "size_min": 6, "size_max": 60, "depth_bias": 0.6, "mention_rate": 0.5,
    },
    "mainstream": {
        "n_articles": 30, "cascade_mean": 2.3, "size_exponent": 2.4,
        "size_min": 6, "size_max": 60, "depth_bias": 0.4, "mention_rate": 0.1,
    },
    "reply_rate": 1.0,
    "quote_rate": 0.15,
    "pure_rate": 0.08,
    "seed": 12,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> ingest -> featurize chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(config), "--out", str(root / "corpus")]) == 0
    assert main([
        "ingest",
        "--tweets", str(root / "corpus" / "tweets.jsonl"),
        "--labels", str(root / "corpus" / "labels.csv"),
        "--window", "14d", "--min-tweets", "10",
        "--out", str(root / "cascades"),
    ]) == 0
    assert main([
        "featurize", "--cascades", str(root / "cascades"),
        "--out", str(root / "features.csv"),
    ]) == 0
    return root


def test_every_long_option_is_documented():
    subparsers = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    missing = []
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                # --help is argparse's own, on every subcommand
                if not option.startswith("--") or option == "--help":
                    continue
                pattern = re.escape(option) + r"(?![\w-])"
                for doc_name, text in (("README.md", readme), ("cli.__doc__", cli.__doc__)):
                    if not re.search(pattern, text):
                        missing.append((command, option, doc_name))
    assert missing == []


def _usage_lines(text):
    """Each `diffnet <subcommand> ...` line of ``text``, its indented
    continuation lines joined to it."""
    lines, current = [], None
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["diffnet"]:
            current = [line]
            lines.append(current)
        elif current is not None and line.startswith("  ") and words:
            current.append(line)
        else:
            current = None
    return [" ".join(" ".join(parts).replace("\\", " ").split()) for parts in lines]


def _usages(doc):
    """``{subcommand: flags}`` from the usage lines of ``doc``, the README's
    "Command line" section or the cli docstring, with `CV` expanded."""
    if doc == "README.md":
        text = (SRC.parent / "README.md").read_text(encoding="utf-8")
        text = re.search(r"## Command line\n(.*?)\n## ", text, re.S).group(1)
        lines = _usage_lines(re.search(r"```sh\n(.*?)```", text, re.S).group(1))
    else:
        text = cli.__doc__
        lines = _usage_lines(text)
    cv = re.search(r"where `?CV`? is (.*)", text).group(1)
    usages = {}
    for line in lines:
        flags = re.findall(r"--[A-Za-z][\w-]*", line.replace("[CV]", cv))
        usages.setdefault(line.split()[1], set()).update(flags)
    return usages


def _parser_flags():
    """``{subcommand: long options}`` of ``build_parser()``, without --help."""
    subparsers = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        command: {o for o in sub._option_string_actions if o.startswith("--")} - {"--help"}
        for command, sub in subparsers.choices.items()
    }


def test_every_usage_flag_is_accepted():
    """The README command block and the cli docstring show a subcommand only
    the flags its parser takes."""
    parser = _parser_flags()
    for doc in ("README.md", "cli.__doc__"):
        usages = _usages(doc)
        assert set(usages) == set(parser), doc
        unknown = {c: flags - parser[c] for c, flags in usages.items()}
        assert unknown == {c: set() for c in parser}, doc


@pytest.mark.parametrize("doc", ["README.md", "cli.__doc__"])
def test_every_parser_flag_is_in_its_usage_line(doc):
    """Each flag a subcommand's parser takes is shown on that subcommand's
    usage line in the README's "Command line" section and in the cli
    docstring."""
    usages, parser = _usages(doc), _parser_flags()
    assert {c: flags - usages.get(c, set()) for c, flags in parser.items()} == {
        c: set() for c in parser
    }


# ------------------------------------------------------------- durations

@pytest.mark.parametrize(
    "text,seconds",
    [("45s", 45), ("30m", 1800), ("12h", 43200), ("14d", 1209600),
     ("90", 90), (" 1h ", 3600)],
)
def test_parse_duration(text, seconds):
    assert parse_duration(text) == seconds


@pytest.mark.parametrize("text", ["", "0h", "-5m", "3x", "h", "1.5d"])
def test_parse_duration_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_duration(text)


# ------------------------------------------------------------- the chain

def test_chain_outputs_exist(workspace):
    assert (workspace / "corpus" / "manifest.json").is_file()
    assert (workspace / "corpus" / "config.json").is_file()
    assert (workspace / "cascades" / "tweets.jsonl").is_file()
    assert (workspace / "cascades" / "labels.csv").is_file()
    assert (workspace / "features.csv").is_file()
    assert (workspace / "features.csv.manifest.json").is_file()


def test_features_file_has_43_columns(workspace):
    header = (workspace / "features.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == 43


def test_manifest_contents(workspace):
    manifest = json.loads((workspace / "corpus" / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 12
    assert manifest["outputs"] == ["config.json", "labels.csv", "tweets.jsonl"]
    assert all(d.startswith("sha256:") for d in manifest["inputs"].values())
    assert manifest["tool_version"]
    featmani = json.loads((workspace / "features.csv.manifest.json").read_text())
    assert len(featmani["inputs"]) == 2


def test_evaluate_writes_report(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--features", str(workspace / "features.csv"),
        "--out", str(out),
    ]) == 0
    assert "AUROC" in capsys.readouterr().out
    assert (out / "manifest.json").is_file()
    report = (out / "report.txt").read_text()
    assert "AUROC" in report
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0].startswith("metric,mean,std,fold_1")
    assert len(rows) == 5  # header + four metrics


def test_evaluate_size_class_filter_can_empty(workspace, tmp_path, capsys):
    code = main([
        "evaluate", "--features", str(workspace / "features.csv"),
        "--size-class", "1000+", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("E_INVARIANT")


def test_ablate_layer(workspace, tmp_path, capsys):
    out = tmp_path / "abl"
    assert main([
        "ablate", "--features", str(workspace / "features.csv"),
        "--layer", "M", "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out.startswith("M:")
    assert (out / "report.txt").is_file()


def test_baseline_single_layer(workspace, tmp_path, capsys):
    out = tmp_path / "base"
    assert main([
        "baseline-single-layer", "--cascades", str(workspace / "cascades"),
        "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out.startswith("single-layer:")
    assert (out / "metrics.csv").is_file()


def test_bias_eval(workspace, tmp_path, capsys):
    out = tmp_path / "bias"
    assert main([
        "bias-eval", "--features", str(workspace / "features.csv"),
        "--train-bias", "left", "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out.startswith("train-bias=left:")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train_bias"] == "left"


def _right_sources(workspace):
    """The distinct right-leaning sources of the workspace corpus, sorted:
    excluding any of them leaves a left-trained run both classes."""
    rows = (workspace / "corpus" / "labels.csv").read_text().splitlines()[1:]
    return sorted({row.split(",")[2] for row in rows if row.split(",")[3] == "right"})


def test_bias_eval_records_the_excluded_sources(workspace, tmp_path):
    # the golden chain never passes --exclude-source; the second run checks
    # that the first one's sources do not leak into a shared default
    def excluded(out, *flags):
        assert main([
            "bias-eval", "--features", str(workspace / "features.csv"),
            "--train-bias", "left", *flags, "--out", str(out),
        ]) == 0
        return json.loads((out / "manifest.json").read_text())["config"]["excluded_sources"]

    a, b = _right_sources(workspace)[:2]
    flags = ["--exclude-source", a, "--exclude-source", b]
    assert excluded(tmp_path / "ab", *flags) == [a, b]
    assert excluded(tmp_path / "none") == []


def test_bias_eval_rejects_a_source_no_article_carries(workspace, tmp_path, capsys):
    known = _right_sources(workspace)[0]
    assert main([
        "bias-eval", "--features", str(workspace / "features.csv"), "--train-bias", "left",
        "--exclude-source", known, "--exclude-source", known + "x",
        "--out", str(tmp_path / "x"),
    ]) == 1
    err = capsys.readouterr().err
    assert err == f"E_INVARIANT: no sample has excluded source [{known + 'x'!r}]\n"
    assert not (tmp_path / "x").exists()


def test_rank_features_chi2(workspace, tmp_path, capsys):
    out = tmp_path / "rank"
    assert main([
        "rank-features", "--features", str(workspace / "features.csv"),
        "--method", "chi2", "--top", "5", "--out", str(out),
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split()[0] == "1"
    rows = (out / "ranking.csv").read_text().splitlines()
    assert rows[0] == "rank,feature,chi2_mean"
    assert len(rows) == 39  # header + every feature


def test_rank_features_ks(workspace, tmp_path, capsys):
    out = tmp_path / "rank-ks"
    assert main([
        "rank-features", "--features", str(workspace / "features.csv"),
        "--method", "ks", "--top", "3", "--out", str(out),
    ]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    rows = (out / "ranking.csv").read_text().splitlines()
    assert rows[0] == "rank,feature,ks_d,p_value,rejected"
    assert rows[1].endswith(("true", "false"))


@pytest.mark.parametrize("alpha", ["nan", "-1", "0", "1", "2"])
def test_rank_features_ks_alpha_outside_the_unit_interval(workspace, tmp_path, capsys, alpha):
    out = tmp_path / "rank-ks"
    assert main([
        "rank-features", "--features", str(workspace / "features.csv"),
        "--method", "ks", "--alpha", alpha, "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_INVARIANT: alpha must be in (0, 1)"), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "manifest.json").exists()
    assert not (out / "ranking.csv").exists()


def test_temporal_emits_seven_rows(workspace, tmp_path, capsys):
    out = tmp_path / "temporal"
    assert main([
        "temporal", "--cascades", str(workspace / "cascades"),
        "--out", str(out),
    ]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7
    rows = (out / "series.csv").read_text().splitlines()
    assert len(rows) == 8  # header + 7 lifetimes
    assert rows[1].split(",")[0] == "3600"
    assert rows[7].split(",")[0] == "604800"


# ----------------------------------------------------------- determinism

def test_synth_reruns_are_byte_identical(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    for name in ("tweets.jsonl", "labels.csv", "config.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "tweets.jsonl").read_bytes() == (
        workspace / "corpus" / "tweets.jsonl"
    ).read_bytes()


@pytest.mark.parametrize("command", ["synth", "featurize", "temporal"])
def test_no_command_has_a_jobs_flag(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    cascades = ["--cascades", str(workspace / "cascades")]
    argv = {
        "synth": ["synth"],
        "featurize": ["featurize", *cascades],
        "temporal": ["temporal", *cascades, "--lifetimes", "1h"],
    }[command]
    assert main(argv + ["--jobs", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "E_USAGE: unrecognized arguments: --jobs 2\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_featurize_reruns_are_byte_identical(workspace, tmp_path):
    out = tmp_path / "features.csv"
    assert main([
        "featurize", "--cascades", str(workspace / "cascades"), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (workspace / "features.csv").read_bytes()
    assert (tmp_path / "features.csv.manifest.json").read_bytes() == (
        workspace / "features.csv.manifest.json"
    ).read_bytes()


def test_bad_jobs_env_breaks_no_command(workspace, tmp_path, capsys, monkeypatch):
    # DIFFNET_JOBS=abc is not read: every command runs and gives the same bytes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    cascades = str(workspace / "cascades")
    temporal = ["temporal", "--cascades", cascades, "--lifetimes", "1h,7d", "--out"]
    assert main(temporal + [str(tmp_path / "t0")]) == 0
    capsys.readouterr()
    monkeypatch.setenv("DIFFNET_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("diffnet ")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
    assert main(["featurize", "--cascades", cascades,
                 "--out", str(tmp_path / "f.csv")]) == 0
    assert main(temporal + [str(tmp_path / "t")]) == 0
    assert (tmp_path / "s" / "tweets.jsonl").read_bytes() == (
        workspace / "corpus" / "tweets.jsonl"
    ).read_bytes()
    assert (tmp_path / "f.csv").read_bytes() == (workspace / "features.csv").read_bytes()
    for name in ("series.csv", "report.txt"):
        assert (tmp_path / "t" / name).read_bytes() == (tmp_path / "t0" / name).read_bytes()


def test_evaluate_rerun_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([
            "evaluate", "--features", str(workspace / "features.csv"),
            "--seed", "3", "--out", str(out),
        ]) == 0
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_temporal_reruns_are_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["temporal", "--cascades", str(workspace / "cascades"),
                     "--lifetimes", "1h,7d", "--out", str(out)]) == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()


# every command once, both rank methods, with paths relative to the run
# directory so that the manifests hold no temporary path
_GOLDEN_CHAIN = [
    ["synth", "--config", "config.json", "--out", "corpus"],
    ["ingest", "--tweets", "corpus/tweets.jsonl", "--labels", "corpus/labels.csv",
     "--min-tweets", "10", "--out", "cascades"],
    ["featurize", "--cascades", "cascades", "--out", "features.csv"],
    ["evaluate", "--features", "features.csv", "--out", "evaluate"],
    ["ablate", "--features", "features.csv", "--layer", "M", "--out", "ablate"],
    ["baseline-single-layer", "--cascades", "cascades", "--out", "baseline"],
    ["bias-eval", "--features", "features.csv", "--train-bias", "left", "--out", "bias"],
    ["rank-features", "--features", "features.csv", "--method", "chi2", "--out", "chi2"],
    ["rank-features", "--features", "features.csv", "--method", "ks", "--out", "ks"],
    ["temporal", "--cascades", "cascades", "--out", "temporal"],
]
# sha256 of each file the chain writes, and of all it prints
_GOLDEN_SHA256 = {
    "ablate/manifest.json": "95f8ab97ea943cd08c2187268d242ff5307853a0df3b3978a9eed8669da3ad65",
    "ablate/metrics.csv": "ca0c94cd8983bc13710704d0af8ee3f1eb669dc35d12c735f74a799900248d20",
    "ablate/report.txt": "c97e51c7cdbe11a02a27dab2e80df532e72522fbb4b5074d165d484d17da8454",
    "baseline/manifest.json": "42c053f888f45c87c287cb40048acdb474616dd289330465675fbb79c142cde0",
    "baseline/metrics.csv": "98866f21698fb18c9714f61ee6b10f866d1ddfe4feacb999be8ed0cfb6e1da07",
    "baseline/report.txt": "24af37bc118d395a82ef7bab4ff01a97f6250893b2bb644f12345aeae8421381",
    "bias/manifest.json": "ff60934be79f2c40a55fdef9828b750ad86861e348589abd9e0a473febdf6b3f",
    "bias/metrics.csv": "80ac9f42722fdc0e1dde1d67aa7cf5f5b33ca1597f04156c97e8c3e39a2261f2",
    "bias/report.txt": "b7ba5f61a131bd9eb8fb7ae95a7c05d573169efe38049a410d4eefb3f3e4bb52",
    "cascades/labels.csv": "7a1297bdfa6e8c82b1a2075852f25eab66ad6a8dffc40fd18c1c40a1afbef2a2",
    "cascades/manifest.json": "39be1629f48623b0920eb3b864a587bc02f96d5032243167b9c4fff89df92010",
    "cascades/tweets.jsonl": "11f903f3188e25a70acb69a62738581320d0e46828784a384a45c514377ec042",
    "chi2/manifest.json": "e533e44643664c5e87d7c5128fc28fd09ea3c953e6ec00dd44b4115ac8cba027",
    "chi2/ranking.csv": "c54ad37657aa5ca156cdb1b1b693321da6229b7bb90b5aa186060f7c14a95958",
    "config.json": "c9eff821c77c269f93ec4c4877c0125da5179e8e811b113ac7cc6a409d406e0d",
    "corpus/config.json": "12db0969043f657a441d20bdd3f317b6a1e787187d90c450e57a2ccce6d26836",
    "corpus/labels.csv": "7a1297bdfa6e8c82b1a2075852f25eab66ad6a8dffc40fd18c1c40a1afbef2a2",
    "corpus/manifest.json": "1e85906021bd8d5fe5349576477b2ebf3ba0b7296724a73b0c6c46da06dc4564",
    "corpus/tweets.jsonl": "fcdd71bcceee486668af81e646b752ebf56bf3d33f5c0c3968ee6589ab61190c",
    "evaluate/manifest.json": "5bf06cf7a5536bd7205906e7189fcb22fafe5289eef6e6cdc2a13805e756b2f5",
    "evaluate/metrics.csv": "ae6d457014ea12a0e1d21b9af1ccbd704063a965ddd456f1f8ef14b9bf3c498b",
    "evaluate/report.txt": "2811702da3f356e6acab147422a872dc5cfa7905e872da4499184b6a3c45e24c",
    "features.csv": "94cc71e619331f3ed138d499fc881add3bfe5d7ed42644b68adf99590d304c30",
    "features.csv.manifest.json": "204bd5550568146456ae23f1d4e26fbb43ec748b54bc1df7d80303f7dc61026f",
    "ks/manifest.json": "481ee55974940a8814df9565f24638c9b66ab7b251fb57931abdac6f880b68da",
    "ks/ranking.csv": "a59b5a953e91a635aca3c4530af66688724ed4b003ba57f36172cad732da277b",
    "stdout": "8499252087f4b49f8be4f5c0ba7de8efa52f923d12eb830f7b46fe48d812892a",
    "temporal/manifest.json": "7ebf37063b03bd667f0056009cc6c64b6b86960ca63c2d77e869ea2579b62195",
    "temporal/report.txt": "16744c793699046b78b4f55878437ea7ca5ff2735d43bbc48c83bf526a0f884c",
    "temporal/series.csv": "e444575acc190752c6b3fd05302486229518f59d003f0da9a3d28b58adbe2e6e",
}


def _run_chain(tmp_path, capsys, chain) -> dict[str, str]:
    """Run each command of ``chain`` in ``tmp_path``, check that every
    manifest lists the files beside it, and return the sha256 of each file
    there and of all the chain printed."""
    for argv in chain:
        assert main(argv) == 0, argv
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for manifest in tmp_path.rglob("*manifest.json"):
        if manifest.name == "manifest.json":
            beside = sorted(p.name for p in manifest.parent.iterdir() if p != manifest)
        else:
            beside = [manifest.name.removesuffix(".manifest.json")]
        assert json.loads(manifest.read_text())["outputs"] == beside, manifest
    return digests


def test_chain_writes_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(CONFIG))
    assert _run_chain(tmp_path, capsys, _GOLDEN_CHAIN) == _GOLDEN_SHA256


def _add_cycles(records: list[TweetRecord]) -> list[TweetRecord]:
    """Each article's tweets in time order, rewritten so that every layer
    gains cycles, each rewritten tweet followed by the tweets it adds.

    The targets drawn are earlier authors of the article other than the
    tweet's own. A reply's author replies to a second target with
    probability 0.3, and its target replies back with probability 0.3. A
    retweet or quote gains 1-3 mentions with probability 0.5; its author
    retweets a second target and quotes one, each with probability 0.3;
    and its target retweets or quotes it back, in kind, with probability
    0.2.
    """
    rng = np.random.default_rng(19)

    def draw(others: list[str]) -> str:
        return others[int(rng.integers(len(others)))]

    by_article: dict[str, list[TweetRecord]] = {}
    for r in records:
        by_article.setdefault(r.article_id, []).append(r)
    out = []
    for tweets in by_article.values():
        seen: dict[str, None] = {}  # the article's authors so far, in time order
        for t in sorted(tweets, key=attrgetter("timestamp", "tweet_id")):
            author = t.author_id
            others = [u for u in seen if u != author]
            seen[author] = None
            added = []  # (id suffix, author, target)
            if others and t.reply_to is not None:
                if rng.random() < 0.3:
                    added.append(("r", author, {"reply_to": draw(others)}))
                if rng.random() < 0.3:
                    added.append(("back", t.reply_to, {"reply_to": author}))
            elif others and (t.retweet_of or t.quote_of):
                if rng.random() < 0.5:
                    extra = (draw(others) for _ in range(int(rng.integers(1, 4))))
                    t = replace(t, mentions=tuple(dict.fromkeys((*t.mentions, *extra))))
                if rng.random() < 0.3:
                    added.append(("rt", author, {"retweet_of": draw(others)}))
                if rng.random() < 0.3:
                    added.append(("q", author, {"quote_of": draw(others)}))
                if rng.random() < 0.2:
                    if t.retweet_of:
                        added.append(("back", t.retweet_of, {"retweet_of": author}))
                    else:
                        added.append(("back", t.quote_of, {"quote_of": author}))
            out.append(t)
            for suffix, who, target in added:
                when = t.timestamp + int(rng.integers(1, 61))
                tweet_id = f"{t.tweet_id}_{suffix}"
                out.append(TweetRecord(tweet_id, who, when, t.article_id, **target))
    return out


def _mention_clique(article_id: str, n: int, start: int) -> list[TweetRecord]:
    """One tweet a minute from each of ``n`` users, each mentioning all the
    others: n (n - 1) arcs in the M layer."""
    users = [f"{article_id}_u{k:05d}" for k in range(1, n + 1)]
    return [
        TweetRecord(f"{article_id}_t{k:05d}", user, start + 60 * k, article_id,
                    mentions=tuple(u for u in users if u != user))
        for k, user in enumerate(users, 1)
    ]


# the golden corpus rewritten by _add_cycles, plus a 130-user mention
# clique: the general paths of the graph kernels, which the first chain's
# forests never take (Kosaraju, peeling, the clustering bit rows, and
# 64-source distance blocks over more than 2^14 adjacency entries)
_CYCLIC_CHAIN = [
    ["ingest", "--tweets", "tweets.jsonl", "--labels", "labels.csv",
     "--min-tweets", "10", "--out", "cascades"],
    ["featurize", "--cascades", "cascades", "--out", "features.csv"],
    ["evaluate", "--features", "features.csv", "--out", "evaluate"],
    ["baseline-single-layer", "--cascades", "cascades", "--out", "baseline"],
    ["temporal", "--cascades", "cascades", "--out", "temporal"],
]
_CYCLIC_SHA256 = {
    "baseline/manifest.json": "5981eb5d8e2bd303566ab3d3ffbb36afa25bf15f15cf48bbb5a2917af4ffd1e0",
    "baseline/metrics.csv": "097776bd9cee77b2d1e81a7c03aa6f64bc91b4e6b34fc0d340f822e3b491cfae",
    "baseline/report.txt": "3af5e638b4938901f0769fd7a7f3c768b1c4faa1b73a4e84d7efeffdf773cf65",
    "cascades/labels.csv": "b29b03c2cb7621e09eb5f7e36239863e2498b399f4a4449a32876a23c2bfac2a",
    "cascades/manifest.json": "12e77132554af8ec9e1bcc31d733c538c01706af6fcb6ef942d84fdfdd61daa1",
    "cascades/tweets.jsonl": "2dcfc92549d1e617f416aaa3f60efe523f14ef2bdeede35b40efedcfa0d8d8ec",
    "evaluate/manifest.json": "c55b1cbfa651325e7092d2b0c7f573f1f2b21fafc7b26a2ff85c39a0b7bdfc8e",
    "evaluate/metrics.csv": "b0bc46f40ca7c57ef0e8d3ffe7219729d056aae5eaae6d0ff4906de9d896f34d",
    "evaluate/report.txt": "b9ab1c977ff7f8a1f8d2632b7d576fa7e0a6153fa6cc675a3f3e42d9569203d4",
    "features.csv": "0f914f1f1bd0ef88594c8e4fa9d770a35eb08759002aa041bad40b11a6486043",
    "features.csv.manifest.json": "36e514ddc0acc4f8cc5954d9376aee7d239a8ff0cf2983b17617b9e5a7746862",
    "labels.csv": "b29b03c2cb7621e09eb5f7e36239863e2498b399f4a4449a32876a23c2bfac2a",
    "stdout": "777315a7164af59a164d3e753c7d2d8e8d1260a45e36aab534c4b1bcfb9fa5f3",
    "temporal/manifest.json": "41f9919239d0e422c17808c7a7d3f7347b4ffbe5accca96cdc9cc8e9a9c75320",
    "temporal/report.txt": "32009da06d47c15ee9b0daf9873a744a10bde877c0103005acd5656eba530966",
    "temporal/series.csv": "adbc629924cf7cbd162111fef4b690319690ea236a09c45a20889ff3c35208de",
    "tweets.jsonl": "6690d59c4117142947e7e065de631f4412f784c5a40c743ad90ca11cd38307d6",
}


def test_cyclic_chain_writes_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    records, labels = generate_corpus(GeneratorConfig.from_json_dict(CONFIG))
    records = _add_cycles(records) + _mention_clique("c0000", 130, records[0].timestamp)
    labels.append(ArticleLabel("c0000", "D", "src-d2.example", BIAS_RIGHT))
    # the corpus holds what the chain is meant to pin
    cascades, _ = group_cascades(records, {label.article_id: label for label in labels})
    nets = {cascade.article_id: build_network(cascade) for cascade in cascades}
    for kind in LAYER_KINDS:
        graphs = [net.layers[kind].to_directed_graph() for net in nets.values()]
        assert not all(g._is_forest() for g in graphs), kind
    assert len(nets["c0000"].layers["M"].arcs) == 130 * 129
    write_tweets_file("tweets.jsonl", records)
    write_labels_file("labels.csv", labels)
    digests = _run_chain(tmp_path, capsys, _CYCLIC_CHAIN)
    with open("features.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(labels)
    for kind in LAYER_KINDS:
        assert any(float(row[f"{kind}_CC"]) > 0 for row in rows), kind
        assert any(float(row[f"{kind}_KC"]) >= 2 for row in rows), kind
        assert any(float(row[f"{kind}_LSCC"]) > 1 for row in rows), kind
    assert digests == _CYCLIC_SHA256


# ---------------------------------------------------------- error contract

def test_missing_input_file(tmp_path, capsys):
    code = main(["evaluate", "--features", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_INPUT_MISSING:")
    assert err.count("\n") == 1


def test_unknown_flag(workspace, tmp_path, capsys):
    code = main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--out", str(tmp_path / "x"), "--bogus"])
    assert code == 2
    assert capsys.readouterr().err.startswith("E_USAGE:")


def test_missing_subcommand(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("E_USAGE:")


def test_bad_window_duration(workspace, tmp_path, capsys):
    code = main([
        "ingest",
        "--tweets", str(workspace / "corpus" / "tweets.jsonl"),
        "--labels", str(workspace / "corpus" / "labels.csv"),
        "--window", "2x", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("E_USAGE:")


def test_ingest_counts_undecodable_lines_as_malformed(workspace, tmp_path, capsys):
    tweets = tmp_path / "tweets.jsonl"
    clean = (workspace / "corpus" / "tweets.jsonl").read_bytes()
    tweets.write_bytes(b'{"tweet_id": "\xff"}\n' + clean + b"[" * 200_000 + b"\n")
    code = main([
        "ingest", "--tweets", str(tweets),
        "--labels", str(workspace / "corpus" / "labels.csv"),
        "--window", "14d", "--min-tweets", "10", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert "skipped 2 malformed" in capsys.readouterr().out
    for name in ("tweets.jsonl", "labels.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (
            workspace / "cascades" / name
        ).read_bytes()


def test_ingest_skips_byte_order_marks(workspace, tmp_path, capsys):
    corpus = workspace / "corpus"
    for name in ("tweets.jsonl", "labels.csv"):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (corpus / name).read_bytes())
    code = main([
        "ingest", "--tweets", str(tmp_path / "tweets.jsonl"),
        "--labels", str(tmp_path / "labels.csv"),
        "--window", "14d", "--min-tweets", "10", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert "skipped 0 malformed" in capsys.readouterr().out
    for name in ("tweets.jsonl", "labels.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (
            workspace / "cascades" / name
        ).read_bytes()


@pytest.mark.parametrize("name,edit", [
    ("labels", lambda row: "\ufeff" + row),
    ("labels", lambda row: row.replace(",", ",\ufeff", 1)),
    ("features", lambda row: "\ufeff" + row),
], ids=["labels-id", "labels-label", "features-id"])
def test_byte_order_mark_inside_a_field_is_refused(workspace, tmp_path, capsys, name, edit):
    """A U+FEFF inside a labels or features field would become part of an
    id, and that article's tweets would be dropped as unlabeled."""
    shutil.copytree(workspace / "cascades", tmp_path / "cascades")
    shutil.copy(workspace / "features.csv", tmp_path)
    bad = tmp_path / ("features.csv" if name == "features" else "cascades/labels.csv")
    lines = bad.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = edit(lines[2])
    bad.write_text("".join(lines), encoding="utf-8")
    argv = {"labels": ["featurize", "--cascades", str(tmp_path / "cascades")],
            "features": ["evaluate", "--features", str(bad)]}[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"E_FORMAT: {bad}: {name} line 3: byte-order mark inside a field\n"
    )
    assert not out.exists() and not (tmp_path / "out.manifest.json").exists()


@pytest.mark.parametrize("text,key", [
    (json.dumps(CONFIG)[:-1] + ', "seed": 9}', "seed"),
    (json.dumps(CONFIG).replace('"size_min": 6,', '"size_min": 6, "size_min": 7,', 1), "size_min"),
], ids=["top-level", "in-a-profile"])
def test_repeated_generator_config_key(tmp_path, capsys, text, key):
    """json.load keeps the last of a repeated key; the config refuses it
    rather than run with one of two values."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "x"
    assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"E_FORMAT: {bad}: config key {key!r} is repeated\n"
    assert not out.exists()


def test_bad_generator_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nonsense": true}')
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("E_FORMAT:")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", [
    "disinformation.cascade_mean", "disinformation.size_exponent",
    "mainstream.depth_bias", "mainstream.mention_rate",
    "reply_rate", "quote_rate", "pure_rate", "inter_arrival_mean",
])
def test_non_finite_generator_config(tmp_path, capsys, field, literal):
    # the JSON reader accepts these literals; the config must not
    config = json.loads(json.dumps(CONFIG))
    *profile, name = field.split(".")
    (config[profile[0]] if profile else config)[name] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config).replace('"@"', literal))
    out = tmp_path / "x"
    code = main(["synth", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:") and f"{name} must be a finite number" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("literal", ["9" * 400, "-" + "9" * 400])
@pytest.mark.parametrize("field", [
    "disinformation.cascade_mean", "disinformation.size_exponent",
    "mainstream.depth_bias", "reply_rate", "inter_arrival_mean",
])
def test_huge_integer_in_a_float_generator_setting(tmp_path, capsys, field, literal):
    """An integer too large for a float is refused with the config, before
    the manifest is written, not in an OverflowError mid-run."""
    config = json.loads(json.dumps(CONFIG))
    *profile, name = field.split(".")
    (config[profile[0]] if profile else config)[name] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config).replace('"@"', literal))
    out = tmp_path / "x"
    assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:") and f"{name} must be a finite number" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("disinformation.n_articles", 3.5), ("mainstream.size_min", 6.0),
    ("mainstream.size_max", True), ("sources_per_class", 2.5), ("seed", 1.5),
    ("seed", False),
])
def test_non_integer_generator_config(tmp_path, capsys, field, value):
    config = json.loads(json.dumps(CONFIG))
    *profile, name = field.split(".")
    (config[profile[0]] if profile else config)[name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "x"
    code = main(["synth", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:") and f"{name} must be an integer" in err
    assert not (out / "manifest.json").exists()


def test_negative_seed_in_generator_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(CONFIG, seed=-1)))
    out = tmp_path / "x"
    code = main(["synth", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:") and "seed must be >= 0, got -1" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("with_config", [False, True])
def test_negative_synth_seed(tmp_path, capsys, with_config):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(CONFIG))
    out = tmp_path / "x"
    code = main(["synth", "--seed", "-1", "--out", str(out)]
                + ["--config", str(good)] * with_config)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "E_INVARIANT: seed must be >= 0, got -1\n"
    assert not (out / "manifest.json").exists()


def _small_config(**edits):
    """CONFIG with two articles a class, and the fields named as profile.field
    or field set to the values given."""
    config = json.loads(json.dumps(CONFIG))
    for profile in ("disinformation", "mainstream"):
        config[profile]["n_articles"] = 2
    for field, value in edits.items():
        *profile, name = field.split(".")
        (config[profile[0]] if profile else config)[name] = value
    return config


def test_steep_size_exponent_runs_to_the_end(tmp_path, capsys):
    """A size draw that leaves the float range is clipped to size_max, not
    an OverflowError."""
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps(_small_config(**{"mainstream.size_exponent": 1.0000001})))
    out = tmp_path / "x"
    assert main(["synth", "--config", str(steep), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "labels.csv").read_text().splitlines()) == 5


def test_gap_that_overflows_ends_in_one_invariant_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_small_config(inter_arrival_mean=1e308)))
    out = tmp_path / "x"
    assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "E_INVARIANT: inter_arrival_mean=1e+308 is too large: a gap overflows\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("pure_rate", [0.0, 0.08])
def test_time_past_int64_ends_in_one_invariant_line(tmp_path, capsys, pure_rate):
    """Gaps that stay in the float range but add up past int64: no
    timestamp column could hold the times, so the run writes nothing."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_small_config(inter_arrival_mean=1e20, pure_rate=pure_rate)))
    out = tmp_path / "x"
    assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "E_INVARIANT: inter_arrival_mean=1e+20 is too large: a gap overflows\n"
    assert captured.out == ""
    assert not out.exists()


def test_synth_seed_flag_replaces_the_config_seed(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_small_config()))
    reseeded = tmp_path / "reseeded.json"
    reseeded.write_text(json.dumps(_small_config(seed=5)))
    flag, file = tmp_path / "flag", tmp_path / "file"
    assert main(["synth", "--config", str(config), "--seed", "5", "--out", str(flag)]) == 0
    assert main(["synth", "--config", str(reseeded), "--out", str(file)]) == 0
    manifest = json.loads((flag / "manifest.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == 5
    assert json.loads((flag / "config.json").read_text())["seed"] == 5
    for name in ("config.json", "labels.csv", "tweets.jsonl"):
        assert (flag / name).read_bytes() == (file / name).read_bytes()


def test_unknown_generator_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(CONFIG, reply_rat=0.5)))
    out = tmp_path / "x"
    code = main(["synth", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:") and "reply_rat" in err
    assert not (out / "manifest.json").exists()


def test_ingest_that_keeps_no_article_writes_nothing(workspace, tmp_path, capsys):
    out = tmp_path / "x"
    code = main([
        "ingest",
        "--tweets", str(workspace / "corpus" / "tweets.jsonl"),
        "--labels", str(workspace / "corpus" / "labels.csv"),
        "--min-tweets", "100000", "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "E_INVARIANT: no article passed the window and size filters\n"
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_on_a_header_only_features_file(workspace, tmp_path, capsys):
    header = (workspace / "features.csv").read_text().splitlines()[0]
    empty = tmp_path / "features.csv"
    empty.write_text(header + "\n")
    out = tmp_path / "x"
    assert main(["evaluate", "--features", str(empty), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"E_INVARIANT: features file is empty: {empty}\n"
    assert captured.out == ""
    assert not out.exists()


def test_malformed_features_file(tmp_path, capsys):
    broken = tmp_path / "features.csv"
    broken.write_text("not,a,features,header\n1,2,3,4\n")
    code = main(["evaluate", "--features", str(broken),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("E_FORMAT:")


@pytest.mark.parametrize(
    "edit,message",
    [
        # the first bad cell is named
        ({"Q_LWCC": "nan", "R_SV": "inf"}, "line 3, column Q_LWCC: 'nan' is not a finite number"),
        ({"RT_SCC": "inf"}, "line 3, column RT_SCC: 'inf' is not a finite number"),
        ({"n_users": "-3"}, "line 3, column n_users: '-3' is not a count"),
        ({"article_id": None}, "line 3, column article_id: '{first}' repeats line 2"),
    ],
)
def test_bad_value_in_features_file(workspace, tmp_path, capsys, edit, message):
    lines = (workspace / "features.csv").read_text().splitlines()
    header = lines[0].split(",")
    first = lines[1].split(",")[0]
    cells = lines[2].split(",")
    for column, text in edit.items():
        cells[header.index(column)] = first if text is None else text
    lines[2] = ",".join(cells)
    bad = tmp_path / "features.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--features", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:")
    assert f"features {message.format(first=first)}" in err
    assert not (tmp_path / "x").exists()


def test_bias_eval_needs_both_classes(workspace, tmp_path, capsys):
    # excluding every mainstream left-leaning source leaves one class
    labels = (workspace / "corpus" / "labels.csv").read_text().splitlines()[1:]
    left_m = sorted({
        row.split(",")[2] for row in labels
        if row.split(",")[1] == "M" and row.split(",")[3] == "left"
    })
    args = ["bias-eval", "--features", str(workspace / "features.csv"),
            "--train-bias", "left", "--out", str(tmp_path / "x")]
    for source in left_m:
        args += ["--exclude-source", source]
    code = main(args)
    assert code == 1
    assert capsys.readouterr().err.startswith("E_INVARIANT:")


_CV_COMMANDS = {
    "evaluate": ["evaluate", "--features", "{ws}/features.csv"],
    "ablate": ["ablate", "--features", "{ws}/features.csv", "--layer", "RT"],
    "bias-eval": ["bias-eval", "--features", "{ws}/features.csv", "--train-bias", "left"],
    "rank-features": ["rank-features", "--features", "{ws}/features.csv", "--method", "chi2"],
    "rank-features-ks": ["rank-features", "--features", "{ws}/features.csv", "--method", "ks"],
    "temporal": ["temporal", "--cascades", "{ws}/cascades", "--lifetimes", "1d"],
    "baseline-single-layer": ["baseline-single-layer", "--cascades", "{ws}/cascades"],
}
# every setting on every command that takes it: the bad value, its code and
# the words of the message that name it
_SETTING_COMMANDS = {
    **_CV_COMMANDS,
    "ingest": ["ingest", "--tweets", "{ws}/tweets.jsonl", "--labels", "{ws}/labels.csv"],
    "synth": ["synth", "--config", "{ws}/config.json"],
}
_BAD_SETTINGS = (
    [(cmd, ["--folds", v], "E_INVARIANT", "folds must") for cmd in _CV_COMMANDS
     for v in ("0", "-1", "1001")]
    + [(cmd, ["--test-fraction", "1.5"], "E_INVARIANT", "test fraction must")
       for cmd in _CV_COMMANDS if cmd != "bias-eval"]
    + [(cmd, ["--C", v], "E_INVARIANT", "C must") for cmd in _CV_COMMANDS
       for v in ("0", "-1", "nan", "inf")]
    + [(cmd, ["--seed", "-1"], "E_INVARIANT", "seed must") for cmd in _CV_COMMANDS]
    + [("synth", ["--seed", "-1"], "E_INVARIANT", "seed must")]
    + [(cmd, ["--alpha", "2"], "E_INVARIANT", "alpha must")
       for cmd in ("rank-features", "rank-features-ks")]
    + [(cmd, ["--top", "0"], "E_USAGE", "--top must")
       for cmd in ("rank-features", "rank-features-ks")]
    + [("bias-eval", ["--train-fraction", v], "E_USAGE", "--train-fraction must")
       for v in ("2", "1", "0", "1e-300")]
    + [("ingest", ["--min-tweets", "0"], "E_USAGE", "--min-tweets must"),
       ("ingest", ["--window", "2x"], "E_USAGE", "argument --window: bad duration '2x'"),
       ("temporal", ["--lifetimes", "1x"], "E_USAGE", "argument --lifetimes: bad duration '1x'"),
       ("temporal", ["--lifetimes", "1h,2x"], "E_USAGE", "argument --lifetimes: bad duration '2x'"),
       ("temporal", ["--lifetimes", ","], "E_USAGE", "--lifetimes must"),
       ("evaluate", ["--folds", "abc"], "E_USAGE", "argument --folds: invalid int value"),
       ("ablate", ["--C", "x"], "E_USAGE", "argument --C: invalid float value")]
)


@pytest.mark.parametrize(
    "command,bad,code,named", _BAD_SETTINGS,
    ids=[f"{c} {' '.join(b)}" for c, b, _, _ in _BAD_SETTINGS],
)
def test_bad_cv_values_end_in_one_invariant_line(
    tmp_path, capsys, monkeypatch, command, bad, code, named
):
    """Every bad setting ends in its own code, on every command that takes
    it, before any input is read: the inputs are missing, and reading one
    fails the test."""
    def touched(*args):
        raise AssertionError("read an input before the settings were checked")

    for module, name in [(cli, "load_tweets_file"), (cli, "load_labels_file"),
                         (cli, "read_features_file"), (cli, "load_config"),
                         (features, "featurize_article"), (experiments, "build_network")]:
        monkeypatch.setattr(module, name, touched)
    args = [a.format(ws=tmp_path / "missing") for a in _SETTING_COMMANDS[command]]
    status = main(args + bad + ["--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert status == (2 if code == "E_USAGE" else 1)
    assert err.startswith(code + ":"), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert named in err, err
    # no output and no manifest
    assert out == ""
    assert list(tmp_path.iterdir()) == []


# the commands that featurize cascades, with the settings of the table that
# they check before featurizing
_EARLY_CV_CHECKS = [
    (cmd, bad, code) for cmd, bad, code, _ in _BAD_SETTINGS
    if cmd in ("temporal", "baseline-single-layer")
    and " ".join(bad) in ("--folds 0", "--test-fraction 1.5", "--C 0", "--seed -1",
                          "--lifetimes 1x", "--lifetimes ,")
]


@pytest.mark.parametrize(
    "command,bad,code", _EARLY_CV_CHECKS,
    ids=[f"{c} {' '.join(b)}" for c, b, _ in _EARLY_CV_CHECKS],
)
def test_bad_cv_values_rejected_before_featurizing(
    workspace, tmp_path, capsys, monkeypatch, command, bad, code
):
    """The same settings with the cascades present: still nothing is read
    or featurized before the settings are checked."""
    def featurized(*args):
        raise AssertionError("featurized before the CV settings were checked")

    def loaded(*args):
        raise AssertionError("read the cascades before the settings were checked")

    monkeypatch.setattr(features, "featurize_article", featurized)
    monkeypatch.setattr(experiments, "build_network", featurized)
    monkeypatch.setattr(cli, "load_tweets_file", loaded)
    args = [a.format(ws=workspace) for a in _CV_COMMANDS[command]]
    assert main(args + bad + ["--out", str(tmp_path / "out")]) == (
        2 if code == "E_USAGE" else 1
    )
    assert capsys.readouterr().err.startswith(code + ":")
    assert not (tmp_path / "out").exists()


def test_C_whose_fit_overflows_ends_in_one_invariant_line(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--C", "1e308", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "E_INVARIANT: C=1e+308 is too large: the fit overflows\n"
    assert captured.out == ""
    assert not out.exists()


def test_folds_bound_is_accepted_and_one_more_is_not(tmp_path, capsys):
    """The parser takes MAX_FOLDS folds and rejects one more; the bound
    itself is parsed, not run."""
    args = ["evaluate", "--features", str(tmp_path / "f.csv"), "--out", str(tmp_path / "out")]
    assert cli.build_parser().parse_args(args + ["--folds", "1000"]).folds == 1000
    assert main(args + ["--folds", "1001"]) == 1
    assert capsys.readouterr().err == (
        "E_INVARIANT: folds must be >= 1 and <= 1000, got 1001\n"
    )
    assert list(tmp_path.iterdir()) == []


# a field one character over the csv module's default size limit
_OVERSIZE = "x" * 131_073
_CSV_COMMANDS = {
    **_CV_COMMANDS,
    "ingest": ["ingest", "--tweets", "{ws}/cascades/tweets.jsonl",
               "--labels", "{ws}/cascades/labels.csv", "--window", "14d", "--min-tweets", "10"],
    "featurize": ["featurize", "--cascades", "{ws}/cascades"],
}


@pytest.mark.parametrize("command", sorted(_CSV_COMMANDS))
def test_oversize_csv_field_ends_in_one_format_line(workspace, tmp_path, capsys, command):
    # labels.csv feeds the commands that read cascades; the others read a
    # features file. Either way the oversize field sits in the second row
    given = tmp_path / "in"
    (given / "cascades").mkdir(parents=True)
    for name in ("tweets.jsonl", "labels.csv"):
        (given / "cascades" / name).write_bytes((workspace / "cascades" / name).read_bytes())
    for name in ("cascades/labels.csv", "features.csv"):
        lines = (workspace / name).read_text().splitlines()
        lines[2] = _OVERSIZE + lines[2][lines[2].index(","):]
        (given / name).write_text("\n".join(lines) + "\n")
    args = [a.format(ws=given) for a in _CSV_COMMANDS[command]]
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:"), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "line 3: field larger than field limit" in err, err
    # no output and no manifest
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


@pytest.mark.parametrize("where", ["top", "disinformation"])
def test_deeply_nested_generator_config(tmp_path, capsys, where):
    nested = "[" * 200_000
    bad = tmp_path / "deep.json"
    bad.write_text(nested if where == "top" else '{"disinformation": ' + nested)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_FORMAT:") and "nested too deeply" in err, err[:200]
    assert err.count("\n") == 1
    assert not out.exists()


# each input file, the command that reads it, and the path of the file
# under the directory the command is given
_INPUTS = {
    "tweets": (["featurize", "--cascades", "{given}/cascades"], "cascades/tweets.jsonl"),
    "labels": (["featurize", "--cascades", "{given}/cascades"], "cascades/labels.csv"),
    "features": (["evaluate", "--features", "{given}/features.csv"], "features.csv"),
    "config": (["synth", "--config", "{given}/config.json"], "config.json"),
}


def _break_input(path, fault):
    """Put ``fault`` into the input file at ``path``."""
    name = path.name
    if fault == "missing":
        path.unlink()
    elif fault == "directory":
        path.unlink()
        path.mkdir()
    elif fault == "invalid byte" and name == "tweets.jsonl":
        # an undecodable byte spoils only its own line: spoil most lines
        first = path.read_bytes().splitlines()[0]
        path.write_bytes(b"\n".join([first, b'{"tweet_id": "\xff"}', b"\xff"]) + b"\n")
    elif fault == "invalid byte":
        # in the last field of the second line: a label's bias, a feature, the seed
        data = path.read_bytes()
        cut = data.index(b"\n", data.index(b"\n") + 1) - 1
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    elif name == "config.json":
        path.write_text('{"nonsense": true}')
    elif name == "tweets.jsonl":
        path.write_text("not json\n" * 3)
    else:
        path.write_text("article,label\na1,D\n")


_INPUT_FAULTS = [
    (given, fault) for given in _INPUTS
    for fault in ("invalid byte", "directory", "malformed", "missing")
]


@pytest.mark.parametrize(
    "given,fault", _INPUT_FAULTS, ids=[f"{g}-{f.replace(' ', '-')}" for g, f in _INPUT_FAULTS]
)
def test_each_input_fault_ends_in_one_line_naming_the_file(
    workspace, tmp_path, capsys, given, fault
):
    root = tmp_path / "in"
    (root / "cascades").mkdir(parents=True)
    for name in ("cascades/tweets.jsonl", "cascades/labels.csv", "features.csv"):
        (root / name).write_bytes((workspace / name).read_bytes())
    (root / "config.json").write_text(json.dumps(CONFIG, indent=1))
    args, name = _INPUTS[given]
    path = root / name
    _break_input(path, fault)
    code = main([a.format(given=root) for a in args] + ["--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("E_INPUT_MISSING:" if fault == "missing" else "E_FORMAT:"), err
    assert str(path) in err, err
    assert err.count("\n") == 1 and "Traceback" not in err
    # no output and no manifest
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


def test_labels_are_read_before_the_tweets(workspace, tmp_path, capsys, monkeypatch):
    # a broken labels file fails before the tweets file is parsed
    def parsed(*args):
        raise AssertionError("parsed the tweets before reading the labels")

    monkeypatch.setattr(cli, "load_tweets_file", parsed)
    cascades = tmp_path / "cascades"
    cascades.mkdir()
    (cascades / "tweets.jsonl").write_bytes((workspace / "cascades" / "tweets.jsonl").read_bytes())
    (cascades / "labels.csv").write_bytes(b"article_id,label,source,bias\na1,X,,\n")
    out = tmp_path / "features.csv"
    assert main(["featurize", "--cascades", str(cascades), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"E_FORMAT: {cascades / 'labels.csv'}: "), err
    assert not out.exists()


def test_manifest_written_before_failing_result(workspace, tmp_path, capsys):
    # out path collides with a directory: the features write fails, the
    # manifest is already on disk
    out = tmp_path / "features.csv"
    out.mkdir()
    code = main(["featurize", "--cascades", str(workspace / "cascades"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("E_INVARIANT:")
    assert (tmp_path / "features.csv.manifest.json").is_file()


@pytest.mark.parametrize("command", ["synth", "featurize"])
def test_run_that_fails_during_its_work_writes_nothing(
    workspace, tmp_path, capsys, monkeypatch, command
):
    """The manifest is written after the work, so a run that fails during
    it leaves no manifest without its outputs."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_corpus", exhausted)
    monkeypatch.setattr(features, "featurize_article", exhausted)
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "out")],
        "featurize": ["featurize", "--cascades", str(workspace / "cascades"),
                      "--out", str(tmp_path / "out" / "f.csv")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == "E_LIMIT: out of memory\n"
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_ends_in_one_limit_line(workspace, tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(features, "featurize_article", exhausted)
    code = main(["featurize", "--cascades", str(workspace / "cascades"),
                 "--out", str(tmp_path / "features.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_LIMIT:")
    assert err.count("\n") == 1 and "Traceback" not in err


# Runs ``python -m diffnet`` under an address-space limit set after the
# imports, at the child's own VmSize plus HEADROOM bytes, so the test does
# not depend on how much numpy and the package take to load.
_LIMITED_CHILD = """
import resource, runpy, sys
import diffnet.cli
with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (vm + HEADROOM, vm + HEADROOM))
sys.argv = ["diffnet", *sys.argv[1:]]
runpy.run_module("diffnet", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_featurize_under_a_memory_limit_ends_in_one_limit_line(tmp_path):
    # 300,000 tweets take 64 to 128 MB once parsed, two to four times the headroom
    cascades = tmp_path / "cascades"
    cascades.mkdir()
    with open(cascades / "tweets.jsonl", "w") as fh:
        for i in range(300_000):
            fh.write(f'{{"article_id":"a{i % 40:02d}","author_id":"u{i:09d}",'
                     f'"timestamp":{1000 + i},"tweet_id":"t{i:09d}"}}\n')
    with open(cascades / "labels.csv", "w") as fh:
        fh.write("article_id,label,source,bias\n")
        fh.writelines(f"a{a:02d},{'DM'[a % 2]},s.org,\n" for a in range(40))
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD.replace("HEADROOM", str(32 * 2**20)),
         "featurize", "--cascades", str(cascades), "--out", str(tmp_path / "f.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("E_LIMIT:"), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "f.csv").exists()


def test_console_script_version():
    proc = subprocess.run(
        ["diffnet", "--version"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("diffnet ")


def _run_module(*args):
    """``python -m diffnet ARGS`` from the source tree, without installing."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "diffnet", *args],
        capture_output=True, text=True, env=env,
    )


def test_module_version():
    proc = _run_module("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("diffnet ")


def test_module_synth_writes_corpus(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "corpus"
    proc = _run_module("synth", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "tweets.jsonl").is_file()
    assert (out / "labels.csv").is_file()
