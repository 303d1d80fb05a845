"""End-to-end CLI tests: the pipeline chain, manifests, determinism at any
jobs count, and the one-line error contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffnet.experiments as experiments
import diffnet.features as features
from diffnet.cli import CliError, main, parse_duration

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
    with pytest.raises(CliError):
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

def test_synth_reruns_and_jobs_are_byte_identical(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", str(config), "--out", str(a)]) == 0
    assert main(["synth", "--config", str(config), "--jobs", "2",
                 "--out", str(b)]) == 0
    assert (a / "tweets.jsonl").read_bytes() == (b / "tweets.jsonl").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "tweets.jsonl").read_bytes() == (
        workspace / "corpus" / "tweets.jsonl"
    ).read_bytes()


def test_featurize_jobs_byte_identical(workspace, tmp_path):
    out = tmp_path / "features.csv"
    assert main([
        "featurize", "--cascades", str(workspace / "cascades"),
        "--jobs", "2", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (workspace / "features.csv").read_bytes()


def test_jobs_env_default(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("DIFFNET_JOBS", "2")
    out = tmp_path / "features.csv"
    assert main([
        "featurize", "--cascades", str(workspace / "cascades"),
        "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (workspace / "features.csv").read_bytes()


def test_bad_jobs_env_only_breaks_commands_with_jobs(
    workspace, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("DIFFNET_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("diffnet ")
    assert main([
        "evaluate", "--features", str(workspace / "features.csv"),
        "--out", str(tmp_path / "eval"),
    ]) == 0
    assert main([
        "evaluate", "--features", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "nope"),
    ]) == 1
    assert capsys.readouterr().err.startswith("E_INPUT_MISSING:")
    cascades = str(workspace / "cascades")
    for argv in (
        ["featurize", "--cascades", cascades, "--out", str(tmp_path / "f" / "x.csv")],
        ["temporal", "--cascades", cascades, "--out", str(tmp_path / "t")],
        ["synth", "--out", str(tmp_path / "s")],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "E_USAGE: DIFFNET_JOBS must be an integer"
        )
    # nothing was written, not even a manifest
    assert not any((tmp_path / d).exists() for d in ("f", "t", "s"))
    # an explicit --jobs is used without reading the environment
    out = tmp_path / "features.csv"
    assert main(["featurize", "--cascades", cascades, "--jobs", "1",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "features.csv").read_bytes()


def test_evaluate_rerun_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([
            "evaluate", "--features", str(workspace / "features.csv"),
            "--seed", "3", "--out", str(out),
        ]) == 0
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_temporal_jobs_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["temporal", "--cascades", str(workspace / "cascades"),
                 "--lifetimes", "1h,7d", "--out", str(a)]) == 0
    assert main(["temporal", "--cascades", str(workspace / "cascades"),
                 "--lifetimes", "1h,7d", "--jobs", "2", "--out", str(b)]) == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()


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


def test_bad_generator_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nonsense": true}')
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("E_FORMAT:")


def test_malformed_features_file(tmp_path, capsys):
    broken = tmp_path / "features.csv"
    broken.write_text("not,a,features,header\n1,2,3,4\n")
    code = main(["evaluate", "--features", str(broken),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("E_FORMAT:")


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
    "temporal": ["temporal", "--cascades", "{ws}/cascades", "--lifetimes", "1d"],
    "baseline-single-layer": ["baseline-single-layer", "--cascades", "{ws}/cascades"],
}
_BAD_CV_VALUES = (
    [(cmd, ["--folds", v]) for cmd in _CV_COMMANDS for v in ("0", "-1")]
    + [(cmd, ["--test-fraction", "1.5"]) for cmd in _CV_COMMANDS if cmd != "bias-eval"]
    + [(cmd, ["--C", v]) for cmd in _CV_COMMANDS if cmd != "rank-features"
       for v in ("0", "-1", "nan", "inf")]
)


@pytest.mark.parametrize(
    "command,bad", _BAD_CV_VALUES, ids=[f"{c} {' '.join(b)}" for c, b in _BAD_CV_VALUES]
)
def test_bad_cv_values_end_in_one_invariant_line(workspace, tmp_path, capsys, command, bad):
    args = [a.format(ws=workspace) for a in _CV_COMMANDS[command]]
    out = tmp_path / "out"
    assert main(args + bad + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_INVARIANT:"), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "report.txt").exists()
    assert not (out / "ranking.csv").exists()


_EARLY_CV_CHECKS = [
    (cmd, bad) for cmd in ("temporal", "baseline-single-layer")
    for bad in (["--folds", "0"], ["--test-fraction", "1.5"], ["--C", "0"])
]


@pytest.mark.parametrize(
    "command,bad", _EARLY_CV_CHECKS, ids=[f"{c} {' '.join(b)}" for c, b in _EARLY_CV_CHECKS]
)
def test_bad_cv_values_rejected_before_featurizing(
    workspace, tmp_path, capsys, monkeypatch, command, bad
):
    def featurized(*args):
        raise AssertionError("featurized before the CV settings were checked")

    monkeypatch.setattr(features, "featurize_article", featurized)
    monkeypatch.setattr(experiments, "build_network", featurized)
    args = [a.format(ws=workspace) for a in _CV_COMMANDS[command]]
    assert main(args + bad + ["--jobs", "1"] * (command == "temporal")
                + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("E_INVARIANT:")


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


def test_console_script_version():
    proc = subprocess.run(
        ["diffnet", "--version"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("diffnet ")


def _run_module(*args):
    """``python -m diffnet ARGS`` from the source tree, without installing."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
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
