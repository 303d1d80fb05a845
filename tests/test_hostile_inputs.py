"""Hostile inputs: seeded mutations of a small synthetic corpus, run through
``cli.main`` in process.

Each case mutates one input (``tweets.jsonl``, ``labels.csv``, a features
CSV or a generator config) and runs every command that reads it; each
command exits 0 on the unmutated inputs. Whatever
the mutation, a run must end in a result or in one ``E_*`` line: exit 0, 1
or 2, stderr empty or one line starting ``E_``, no warning, no output file
without its manifest, and within a generous wall bound.

Mutations never make a count or size of the config huge: a config that asks
for a huge corpus is a valid request that would simply run for long.
"""

import json
import random
import re
import time
import warnings

import pytest

from diffnet.cli import main

CONFIG = {
    "disinformation": {
        "n_articles": 4, "cascade_mean": 2.0, "size_exponent": 2.2,
        "size_min": 5, "size_max": 30, "depth_bias": 0.5, "mention_rate": 0.5,
    },
    "mainstream": {
        "n_articles": 4, "cascade_mean": 2.0, "size_exponent": 2.2,
        "size_min": 5, "size_max": 30, "depth_bias": 0.5, "mention_rate": 0.1,
    },
    "reply_rate": 0.8, "quote_rate": 0.2, "pure_rate": 0.1, "seed": 7,
}
WALL_BOUND_S = 30.0
OVERSIZE = 131_073  # one character over the csv module's field limit
DEEP = 100_000


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The four unmutated inputs, as bytes."""
    root = tmp_path_factory.mktemp("hostile")
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(root / "config.json"), "--out", str(root / "c")]) == 0
    assert main(["featurize", "--cascades", str(root / "c"), "--out", str(root / "f.csv")]) == 0
    features = (root / "f.csv").read_bytes()
    return {
        "tweets": (root / "c" / "tweets.jsonl").read_bytes(),
        "labels": (root / "c" / "labels.csv").read_bytes(),
        "features": features,
        # the synth output: pretty-printed, one key a line
        "config": (root / "c" / "config.json").read_bytes(),
        "bias-features": _alternating_biases(features),
    }


def _alternating_biases(features: bytes) -> bytes:
    """The features CSV with its rows' biases left, right, left, ...: the 4+4
    articles sorted by id then give each bias two articles of each class,
    which bias-eval needs to train on one bias (the synth biases do not)."""
    header, *rows = features.splitlines(keepends=True)
    for i, row in enumerate(rows):
        fields = row.split(b",")
        fields[3] = (b"left", b"right")[i % 2]
        rows[i] = b",".join(fields)
    return b"".join([header, *rows])


# ------------------------------------------------------------ mutations
# each takes (rng, data, kind) and returns the mutated bytes; kind is the
# input's name, which picks JSON or CSV for the field-level mutations
CSV_KINDS = ("labels", "features", "bias-features")

def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def _truncated_line(rng, data, kind):
    lines = _lines(data)
    i = rng.randrange(len(lines))
    lines[i] = lines[i][: rng.randrange(1, len(lines[i]))] + b"\n"
    return b"".join(lines)


def _flipped_byte(rng, data, kind):
    out = bytearray(data)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def _inserted(payload: bytes):
    def mutate(rng, data, kind):
        at = rng.randrange(len(data))
        return data[:at] + payload + data[at:]
    return mutate


def _mid_file_bom(rng, data, kind):
    lines = _lines(data)
    i = rng.randrange(1, len(lines))
    lines[i] = b"\xef\xbb\xbf" + lines[i]
    return b"".join(lines)


def _unbalanced_quote(rng, data, kind):
    lines = _lines(data)
    i = rng.randrange(len(lines))
    at = rng.randrange(len(lines[i]))
    lines[i] = lines[i][:at] + b'"' + lines[i][at:]
    return b"".join(lines)


def _repeated_row(rng, data, kind):
    lines = _lines(data)
    i = rng.randrange(1, len(lines))
    return b"".join(lines[: i + 1] + [lines[i]] + lines[i + 1:])


def _empty(rng, data, kind):
    return b""


def _json_leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_leaves(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _json_leaves(value, path + (i,))
    else:
        yield path, obj


def _with_field(choose_payload, config_floats_only=False):
    """Replace one field with raw text: a leaf of one JSON line (tweets), of
    the JSON document (config), or one field of a CSV data row. With
    ``config_floats_only``, a config leaf is one of its floats, so that its
    counts and sizes stay small (see the module docstring)."""
    def mutate(rng, data, kind):
        payload = choose_payload(rng, kind)
        if kind in CSV_KINDS:
            lines = _lines(data)
            i = rng.randrange(1, len(lines))
            fields = lines[i].rstrip(b"\n").split(b",")
            fields[rng.randrange(len(fields))] = payload.encode()
            lines[i] = b",".join(fields) + b"\n"
            return b"".join(lines)
        lines = _lines(data) if kind == "tweets" else [data]
        i = rng.randrange(len(lines))
        obj = json.loads(lines[i])
        leaves = [
            (path, value) for path, value in _json_leaves(obj)
            if not (kind == "config" and config_floats_only and not isinstance(value, float))
        ]
        path, _ = rng.choice(leaves)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "\0marker\0"
        if kind == "tweets":
            text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        else:
            text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        lines[i] = text.replace(json.dumps("\0marker\0"), payload).encode()
        return b"".join(lines)
    return mutate


def _oversize(rng, kind):
    field = "x" * OVERSIZE
    return field if kind in CSV_KINDS else json.dumps(field)


def _deep(rng, kind):
    if kind in CSV_KINDS:
        return "[" * DEEP
    return "[" * DEEP + "1" + "]" * DEEP


def _non_finite(rng, kind):
    if kind in CSV_KINDS:
        return rng.choice(["nan", "inf", "-inf", "1e999"])
    return rng.choice(["NaN", "Infinity", "-Infinity", "1e999"])


def _huge_integer(rng, kind):
    return rng.choice(["", "-"]) + "9" * 400


def _wrong_type(rng, kind):
    if kind in CSV_KINDS:
        return rng.choice(["true", "[]", "-3", "1.5", "", "x"])
    return rng.choice(['"12"', "12", "1.5", "true", "null", "[]", "{}", '["x"]'])


MUTATIONS = {
    "truncated-line": _truncated_line,
    "flipped-byte": _flipped_byte,
    "invalid-utf8": _inserted(b"\xc3\x28\xff\xfe"),
    "nul": _inserted(b"\x00"),
    "mid-file-bom": _mid_file_bom,
    "oversize-field": _with_field(_oversize),
    "unbalanced-quote": _unbalanced_quote,
    "repeated-row": _repeated_row,
    "empty": _empty,
    "deep-nesting": _with_field(_deep),
    "non-finite": _with_field(_non_finite, config_floats_only=True),
    "huge-integer": _with_field(_huge_integer, config_floats_only=True),
    "wrong-type": _with_field(_wrong_type),
}
SEEDS = (1, 2)


# -------------------------------------------------------------- commands

# where each input lives in a case's directory
PATHS = {
    "tweets": "cascades/tweets.jsonl",
    "labels": "cascades/labels.csv",
    "features": "features.csv",
    "config": "config.json",
    "bias-features": "bias-features.csv",
}
# the commands that read each input; {root} is the case's directory
COMMANDS = {
    "tweets": [
        ["ingest", "--tweets", "{root}/cascades/tweets.jsonl",
         "--labels", "{root}/cascades/labels.csv", "--min-tweets", "1", "--out", "{root}/out/ingest"],
        ["featurize", "--cascades", "{root}/cascades", "--out", "{root}/out/featurize/f.csv"],
        ["temporal", "--cascades", "{root}/cascades", "--lifetimes", "1h,1d", "--folds", "2",
         "--out", "{root}/out/temporal"],
        ["baseline-single-layer", "--cascades", "{root}/cascades", "--folds", "2",
         "--out", "{root}/out/baseline"],
    ],
    "features": [
        ["evaluate", "--features", "{root}/features.csv", "--folds", "2",
         "--out", "{root}/out/evaluate"],
        ["rank-features", "--features", "{root}/features.csv", "--method", "ks",
         "--out", "{root}/out/rank"],
        ["ablate", "--features", "{root}/features.csv", "--layer", "M", "--folds", "2",
         "--out", "{root}/out/ablate"],
        ["rank-features", "--features", "{root}/features.csv", "--method", "chi2", "--folds", "2",
         "--out", "{root}/out/chi2"],
    ],
    "config": [["synth", "--config", "{root}/config.json", "--out", "{root}/out/synth"]],
    "bias-features": [
        ["bias-eval", "--features", "{root}/bias-features.csv", "--train-bias", "left",
         "--folds", "2", "--out", "{root}/out/bias"],
    ],
}
COMMANDS["labels"] = COMMANDS["tweets"]


CASES = [
    (kind, name, seed)
    for kind in PATHS
    for name in MUTATIONS
    for seed in (SEEDS if name != "empty" else SEEDS[:1])
]


def _write_inputs(root, corpus):
    (root / "cascades").mkdir()
    for name, path in PATHS.items():
        (root / path).write_bytes(corpus[name])


def test_every_command_runs_on_the_unmutated_inputs(corpus, tmp_path, capsys):
    """Each command succeeds before any mutation, so a mutation is what
    reaches its failure paths."""
    _write_inputs(tmp_path, corpus)
    for command in dict.fromkeys(tuple(c) for commands in COMMANDS.values() for c in commands):
        argv = [arg.format(root=tmp_path) for arg in command]
        assert main(argv) == 0, (argv[0], capsys.readouterr().err)


def _unmanifested(out):
    """Output files with no manifest beside them."""
    return [
        p for p in out.rglob("*")
        if p.is_file() and not p.name.endswith("manifest.json")
        and not (p.parent / "manifest.json").is_file()
        and not p.with_name(p.name + ".manifest.json").is_file()
    ]


@pytest.mark.parametrize("kind,mutation,seed", CASES,
                         ids=[f"{k}-{m}-{s}" for k, m, s in CASES])
def test_mutated_input_ends_in_a_result_or_one_error_line(
    corpus, tmp_path, capsys, kind, mutation, seed
):
    _write_inputs(tmp_path, corpus)
    rng = random.Random(f"{kind}-{mutation}-{seed}")
    (tmp_path / PATHS[kind]).write_bytes(MUTATIONS[mutation](rng, corpus[kind], kind))
    for command in COMMANDS[kind]:
        argv = [arg.format(root=tmp_path) for arg in command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            status = main(argv)
            wall = time.perf_counter() - start
        err = capsys.readouterr().err
        assert status in (0, 1, 2), (argv[0], status)
        assert err == "" or re.fullmatch(r"E_[A-Z_]+: [^\n]*\n", err), (argv[0], err[:300])
        assert (status == 0) == (err == ""), (argv[0], status, err[:300])
        assert not caught, (argv[0], [str(w.message) for w in caught])
        assert not _unmanifested(tmp_path / "out"), argv[0]
        assert wall < WALL_BOUND_S, (argv[0], wall)
