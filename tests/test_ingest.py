import dataclasses
import gc
import inspect
import json
import pickle
import random
import re
import tracemalloc
from operator import attrgetter

import pytest

import reference_ingest as ref
import diffnet.ingest as ingest
from diffnet.ingest import (
    ArticleCascade,
    ArticleLabel,
    CorpusFormatError,
    TweetRecord,
    apply_censoring,
    filter_min_tweets,
    group_cascades,
    load_labels_file,
    load_tweets_file,
    parse_labels,
    parse_records,
    record_to_json,
    write_labels_file,
    write_tweets_file,
)
from diffnet.synth import default_config, generate_corpus


def _canonical(obj):
    """The bytes record_to_json writes for a record's fields."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _line(i=1, dumps=json.dumps, **overrides):
    obj = {
        "tweet_id": f"t{i}",
        "author_id": f"u{i}",
        "timestamp": 1000 + i,
        "article_id": "a1",
    }
    obj.update(overrides)
    return dumps(obj)


def _records(lines):
    return parse_records(lines).records


class TestParseRecords:
    def test_empty_stream(self):
        result = parse_records([])
        assert result.records == []
        assert result.malformed == 0

    def test_mentions_dedup(self):
        recs = _records([_line(mentions=["u2", "u2"])])
        assert recs[0].mentions == ("u2",)

    def test_reply_target_removed_from_mentions(self):
        recs = _records([_line(reply_to="u9", mentions=["u9", "u3"])])
        assert recs[0].mentions == ("u3",)
        assert recs[0].reply_to == "u9"

    def test_one_malformed_of_three(self):
        result = parse_records([_line(1), "not json", _line(2)])
        assert len(result.records) == 2
        assert result.malformed == 1

    def test_missing_field_is_malformed(self):
        obj = json.loads(_line(1))
        del obj["author_id"]
        result = parse_records([json.dumps(obj), _line(2), _line(3)])
        assert result.malformed == 1

    @pytest.mark.parametrize("ts", [0, -5, 1.5, True, "100"])
    def test_bad_timestamp_is_malformed(self, ts):
        result = parse_records([_line(timestamp=ts), _line(2), _line(3)])
        assert result.malformed == 1

    def test_duplicate_tweet_id_keeps_first(self):
        result = parse_records([_line(1, author_id="first"), _line(1, author_id="second")])
        assert len(result.records) == 1
        assert result.records[0].author_id == "first"
        assert result.duplicates == 1

    def test_majority_malformed_is_fatal(self):
        with pytest.raises(CorpusFormatError):
            parse_records([_line(1), "x", "y"])

    def test_half_malformed_is_tolerated(self):
        result = parse_records([_line(1), "x"])
        assert result.malformed == 1

    def test_blank_lines_ignored(self):
        result = parse_records(["", "   ", _line(1), "\n"])
        assert len(result.records) == 1
        assert result.malformed == 0

    def test_roundtrip_is_stable(self):
        lines = [
            _line(1),
            _line(2, retweet_of="u1"),
            _line(3, quote_of="u1", mentions=["u4", "u5"]),
            _line(4, reply_to="u2", mentions=["u2", "u6"]),
        ]
        first = _records(lines)
        second = _records([record_to_json(r) for r in first])
        assert first == second


class TestParsePausesCollector:
    """The cyclic GC is off while the lines are parsed and comes back in
    the caller's state, whether the parse ends, fails or is interrupted."""

    @pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_paused_inside_and_restored_after(self, gc_state):
        seen = []

        def lines():
            for i in range(3):
                seen.append(gc.isenabled())
                yield _line(i)

        assert len(parse_records(lines()).records) == 3
        assert seen == [False] * 3
        assert gc.isenabled() is gc_state

    def test_restored_when_the_lines_raise(self, gc_state):
        def lines():
            yield _line(1)
            raise OSError("read failed")

        with pytest.raises(OSError):
            parse_records(lines())
        assert gc.isenabled() is gc_state

    def test_restored_when_the_corpus_is_rejected(self, gc_state):
        with pytest.raises(CorpusFormatError):
            parse_records(["not json", "{", _line(1)])
        assert gc.isenabled() is gc_state


record_fields = attrgetter(*ref.FIELDS)


def _assert_matches_reference(lines):
    """parse_records agrees with the reference validator on records and counts."""
    expected, malformed, duplicates = ref.parse_lines(lines)
    # below the majority-malformed rule, so the records are compared too
    assert 2 * malformed <= sum(1 for line in lines if line.strip())
    result = parse_records(lines)
    assert [record_fields(r) for r in result.records] == expected
    assert (result.malformed, result.duplicates) == (malformed, duplicates)


_BASE = {"tweet_id": "t0", "author_id": "u0", "timestamp": 1000, "article_id": "a1"}

# one line each; every case is parsed between two well-formed lines
_VALIDATOR_OBJECTS = [
    dict(_BASE, **extra)
    for extra in (
        {},
        {"mentions": None},
        {"mentions": []},
        {"mentions": ""},
        {"mentions": {}},
        {"mentions": 0},
        {"mentions": ["u2", "u3", "u2"]},
        {"mentions": ["u9", "u2"], "reply_to": "u9"},
        {"mentions": ["u9"], "reply_to": "u9"},
        {"mentions": ["u2", ""]},
        {"mentions": ["u2", None]},
        {"mentions": [1]},
        {"mentions": [["u2"]]},
        {"mentions": ["u0"]},
        {"timestamp": True},
        {"timestamp": False},
        {"timestamp": 1.0},
        {"timestamp": 1.5},
        {"timestamp": 0},
        {"timestamp": -5},
        {"timestamp": "100"},
        {"timestamp": None},
        {"timestamp": 10**30},
        {"retweet_of": None, "quote_of": None, "reply_to": None},
        {"retweet_of": "u1", "quote_of": "u2", "reply_to": "u3"},
        {"retweet_of": ""},
        {"quote_of": 7},
        {"reply_to": ["u1"]},
        {"reply_to": False},
        {"tweet_id": ""},
        {"author_id": ""},
        {"article_id": ""},
        {"tweet_id": 5},
        {"author_id": None},
        {"article_id": ["a1"]},
        {"text": "hello", "lang": "en", "retweet_count": 3},
    )
] + [{k: v for k, v in _BASE.items() if k != missing} for missing in _BASE]
VALIDATOR_CASES = [json.dumps(obj) for obj in _VALIDATOR_OBJECTS] + [
    "[1, 2]", "42", '"a string"', "null", "true", "{", "not json",
    '{"tweet_id": "t0", "tweet_id": "t5", "author_id": "u0", '
    '"timestamp": 9, "article_id": "a1"}',
    '{"tweet_id": "t\udcff", "author_id": "u0", "timestamp": 9, "article_id": "a1"}',
    '{"tweet_id": "t\\udcff", "author_id": "u0", "timestamp": 9, "article_id": "a1"}',
    "[" * 200_000,
    '{"a": ' * 100_000,
]

# lines that json.loads and the scanner path must treat alike: JSON
# whitespace (space, tab, CR, LF) around the value only, and no value at all
def _decode_cases(good):
    return [
        " " + good, "\t" + good, "\r" + good, " \t\r\n " + good,
        good + "\r\n", good + "\n", good + " \t\r ",
        good + "\x0c", good + "\u00a0", good + "\u2028", good + "\x0b",
        "\x0c" + good, "\u00a0" + good, "\u2028" + good,
        "\ufeff" + good, " \ufeff" + good,
        good + good, good + " x", good + " {}",
    ]


DECODE_CASES = _decode_cases(json.dumps(_BASE)) + [
    "{}{}", "{} x", "NaN", "-Infinity", "1", '"s"', "[]",
    "n", "nul", "null x", "nx", "t", "tru", "true1", "tx", "x", "xyz",
    "\x0c", "\u2028", " \u00a0 ",
]


def _fuzz_lines(dumps):
    """3,000 seeded lines: mostly valid records, some odd values and cut lines."""
    rng = random.Random(11)
    users = ["u1", "u2", "u3", "u4", "u5"]
    odd = ["", None, 0, 1, -1, 2.5, True, False, [], {}, ["u1"], "u1"]

    def valid(key):
        if key == "tweet_id":
            return f"t{rng.randint(1, 1500)}"
        if key == "timestamp":
            return rng.randint(1, 10**6)
        if key == "mentions":
            return [rng.choice(users if rng.random() < 0.95 else odd)
                    for _ in range(rng.randint(0, 4))]
        return rng.choice(users)

    lines = []
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.03:
            lines.append(dumps(rng.choice(odd)))
            continue
        obj = {
            key: valid(key) if rng.random() < 0.95 else rng.choice(odd)
            for key in ref.FIELDS + ("text",)
            if rng.random() < (0.98 if key in _BASE else 0.4)
        }
        line = dumps(obj)
        if roll < 0.06:
            line = line[: rng.randint(0, len(line))]
        lines.append(line)
    return lines


class TestValidatorMatchesReference:
    @pytest.mark.parametrize("case", VALIDATOR_CASES, ids=range(len(VALIDATOR_CASES)))
    def test_table(self, case):
        _assert_matches_reference([_line(1), case, _line(2)])

    @pytest.mark.parametrize("case", DECODE_CASES, ids=map(repr, DECODE_CASES))
    def test_decode_table(self, case):
        _assert_matches_reference([_line(1), case, _line(2)])

    def test_whole_table_with_duplicates(self):
        _assert_matches_reference(
            VALIDATOR_CASES + DECODE_CASES + [_line(i) for i in range(60)]
        )

    def test_seeded_fuzz(self):
        _assert_matches_reference(_fuzz_lines(json.dumps))


_CANONICAL_GOOD = _canonical(_BASE)
_WITH_TIMESTAMP = '{"article_id":"a1","author_id":"u0","timestamp":%s,"tweet_id":"t0"}'

# (line, whether the anchored match reads it): lines in the canonical form
# and lines one step away from it, which the JSON scanner reads
CANONICAL_EDGE_CASES = [
    (_WITH_TIMESTAMP % ("1" * 5000), False),
    (_WITH_TIMESTAMP % ("9" * 18), True),
    (_WITH_TIMESTAMP % ("1" + "0" * 18), False),
    (_WITH_TIMESTAMP % "0", False),
    (_WITH_TIMESTAMP % "01", False),
    (_WITH_TIMESTAMP % "1.0", False),
    (_canonical(dict(_BASE, mentions=[])), False),
    (_canonical(dict(_BASE, reply_to="u9", mentions=["u9", "u2"])), True),
    (_canonical(dict(_BASE, reply_to="u9", mentions=["u9"])), True),
    (_canonical(dict(_BASE, mentions=["u2", "u3", "u2", "u3"])), True),
    (_canonical(dict(_BASE, author_id="u/", retweet_of="r/", mentions=["m/"])), True),
    (_canonical(dict(_BASE, author_id="u ~!", quote_of=" ", mentions=["#[]"])), True),
    (_canonical(dict(_BASE, mentions=["a,b", ",", "a", "b", "a,b"])), True),
    (_canonical(dict(_BASE, author_id="u\x7f", retweet_of="r\x7f")), False),
    (_canonical(dict(_BASE, author_id='u"', mentions=['m"'])), False),
    (_canonical(dict(_BASE, author_id="u\\", reply_to="r\\")), False),
    (_canonical(dict(_BASE, author_id="u\x1f")), False),
    (_canonical(dict(_BASE, author_id="üser")), False),
    # raw, as json.dumps(..., ensure_ascii=False) or a hand-made file has them
    (_WITH_TIMESTAMP.replace("u0", "u\x7f") % 9, False),
    (_WITH_TIMESTAMP.replace("u0", "u\x1f") % 9, False),
    (_WITH_TIMESTAMP.replace("u0", "üser") % 9, False),
    (_WITH_TIMESTAMP.replace("u0", "u\udcff") % 9, False),
    (_CANONICAL_GOOD + "\n", True),
    (_CANONICAL_GOOD + " ", False),
    (_CANONICAL_GOOD + " \n", False),
    (_CANONICAL_GOOD + "\n\n", False),
    (_CANONICAL_GOOD + "\r\n", False),
]
CANONICAL_CASES = (
    [_canonical(obj) for obj in _VALIDATOR_OBJECTS]
    + [line for line, _ in CANONICAL_EDGE_CASES]
    + _decode_cases(_CANONICAL_GOOD)
)


def _takes_match(line):
    return ingest._match_canonical(line) is not None


class TestCanonicalLinesMatchReference:
    """The same oracle on lines in the form record_to_json writes: with
    every id printable ASCII they take the anchored match, and any other
    line takes the scanner."""

    @pytest.mark.parametrize("case", CANONICAL_CASES, ids=range(len(CANONICAL_CASES)))
    def test_table(self, case):
        _assert_matches_reference([_line(1, _canonical), case, _line(2, _canonical)])

    def test_edge_cases_take_the_stated_path(self):
        assert [_takes_match(line) for line, _ in CANONICAL_EDGE_CASES] == [
            takes for _, takes in CANONICAL_EDGE_CASES
        ]
        assert _takes_match(_CANONICAL_GOOD)

    def test_whole_table_with_duplicates(self):
        _assert_matches_reference(
            CANONICAL_CASES + [_line(i, _canonical) for i in range(60)]
        )

    def test_seeded_fuzz(self):
        lines = _fuzz_lines(_canonical)
        assert 1000 < sum(map(_takes_match, lines)) < len(lines)
        _assert_matches_reference(lines)

    def test_last_line_without_newline(self, tmp_path):
        lines = [_line(i, _canonical, mentions=[f"u{i + 1}"]) for i in range(4)]
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines))
        expected, malformed, duplicates = ref.parse_lines(lines)
        result = load_tweets_file(path)
        assert [record_fields(r) for r in result.records] == expected
        assert (result.malformed, result.duplicates) == (malformed, duplicates) == (0, 0)

    def test_ids_are_shared_across_both_paths(self):
        first, second, third = _records([
            _line(1, _canonical, author_id="u5", mentions=["u7"]),
            _line(2, author_id="u5", retweet_of="u7"),
            _line(3, _canonical, author_id="u7", reply_to="u5"),
        ])
        assert first.author_id is second.author_id is third.reply_to
        assert first.mentions[0] is second.retweet_of is third.author_id
        assert first.article_id is second.article_id is third.article_id

    def test_synth_corpus_never_reaches_the_scanner(self, tmp_path, monkeypatch):
        config = default_config(seed=4)
        config = dataclasses.replace(
            config,
            disinformation=dataclasses.replace(config.disinformation, n_articles=6),
            mainstream=dataclasses.replace(config.mainstream, n_articles=6),
        )
        records, _ = generate_corpus(config)
        path = tmp_path / "tweets.jsonl"
        write_tweets_file(path, records)

        def unreachable(*args):
            raise AssertionError("a line written by write_tweets_file left the fast path")

        monkeypatch.setattr(ingest, "_scan_once", unreachable)
        monkeypatch.setattr(ingest, "_record_from_obj", unreachable)
        result = load_tweets_file(path)
        assert (result.malformed, result.duplicates) == (0, 0)
        assert result.records == records
        assert any(r.mentions for r in records) and any(r.quote_of for r in records)


# characters the writer must escape, or pass through, exactly as json.dumps
_ID_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "a", "Z", "é",
             "\u2028", "\ufeff", "\U0001f600", "\ud800", "\udcff"]


def _odd_id(rng):
    # a high surrogate then a low one is written as a pair of escapes that
    # decodes to one astral character, so no parse gives such an id back
    while True:
        s = "".join(rng.choice(_ID_CHARS) for _ in range(rng.randint(1, 6)))
        if "\ud800\udcff" not in s:
            return s


class TestWriterMatchesReference:
    def _records(self, n=2_000):
        """Records as a parse gives them back, every mix of optional fields."""
        rng = random.Random(23)
        records = []
        for i in range(n):
            mix = i % 16
            reply_to = _odd_id(rng) if mix & 4 else None
            mentions, wanted = [], rng.randint(1, 4) if mix & 8 else 0
            while len(mentions) < wanted:
                m = _odd_id(rng)
                if m != reply_to and m not in mentions:
                    mentions.append(m)
            records.append(TweetRecord(
                f"{_odd_id(rng)}#{i}",  # '#' is not in _ID_CHARS, so ids are unique
                _odd_id(rng),
                rng.choice([1, rng.randint(2, 10**10), 10**30]),
                _odd_id(rng),
                retweet_of=_odd_id(rng) if mix & 1 else None,
                quote_of=_odd_id(rng) if mix & 2 else None,
                reply_to=reply_to,
                mentions=tuple(mentions),
            ))
        return records

    def test_fuzz_byte_equal_and_round_trip(self):
        records = self._records()
        lines = [record_to_json(r) for r in records]
        assert lines == [ref.record_to_json(r) for r in records]
        assert all(line.isascii() and "\n" not in line for line in lines)
        assert parse_records(lines).records == records

    def test_file_round_trip(self, tmp_path):
        records = self._records(300)
        path = tmp_path / "tweets.jsonl"
        write_tweets_file(path, records)
        expected = "".join(ref.record_to_json(r) + "\n" for r in records)
        assert path.read_bytes() == expected.encode("ascii")
        assert load_tweets_file(path).records == records


class TestUndecodableLines:
    def test_invalid_utf8_and_deep_nesting_are_malformed(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        # raw UTF-8 outside ASCII is fine; only undecodable bytes are malformed
        good = [
            json.dumps(dict(_BASE, tweet_id=f"t{i}", author_id="üser"), ensure_ascii=False)
            for i in range(1, 4)
        ]
        path.write_bytes(
            b"\n".join(
                [good[0].encode(), b'{"tweet_id": "t9\xff"}', good[1].encode(),
                 b"[" * 200_000, good[2].encode(), b"\xef\xbb"]
            )
        )
        result = load_tweets_file(path)
        assert result.malformed == 3
        assert result.records == parse_records(good).records

    def test_majority_rule_still_applies(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(b"\n".join([_line(1).encode(), b"\xff", b"[" * 200_000]))
        with pytest.raises(CorpusFormatError):
            load_tweets_file(path)


class TestRecordContract:
    def _record(self, **overrides):
        return _records([_line(1, retweet_of="u7", mentions=["u8", "u9"], **overrides)])[0]

    def test_constructor_signature(self):
        empty = inspect.Parameter.empty
        params = inspect.signature(TweetRecord).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
            for name, default in zip(
                ref.FIELDS, [empty] * 4 + [None, None, None, ()]
            )
        ]
        assert [f.name for f in dataclasses.fields(TweetRecord)] == list(ref.FIELDS)
        assert TweetRecord.__match_args__ == ref.FIELDS

    def test_positional_and_keyword_construction(self):
        full = ("t1", "u1", 5, "a1", "u2", "u3", "u4", ("u5", "u6"))
        assert record_fields(TweetRecord(*full)) == full
        assert record_fields(TweetRecord(**dict(zip(ref.FIELDS, full)))) == full
        assert record_fields(TweetRecord(*full[:3], article_id="a1", mentions=("u5",))) == (
            "t1", "u1", 5, "a1", None, None, None, ("u5",)
        )
        assert record_fields(TweetRecord("t1", "u1", 5, "a1")) == (
            "t1", "u1", 5, "a1", None, None, None, ()
        )

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            (("t1", "u1", 5), {}),
            ((), {"tweet_id": "t1", "author_id": "u1", "timestamp": 5}),
            (("t1", "u1", 5, "a1", None, None, None, (), "extra"), {}),
            (("t1", "u1", 5, "a1"), {"text": "hello"}),
            (("t1", "u1", 5, "a1"), {"tweet_id": "t2"}),
        ],
    )
    def test_missing_or_extra_arguments(self, args, kwargs):
        with pytest.raises(TypeError):
            TweetRecord(*args, **kwargs)

    def test_slotted(self):
        record = self._record()
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.text = "hello"
        record.author_id = "u2"
        assert record_fields(record) == ("t1", "u2", 1001, "a1", "u7", None, None, ("u8", "u9"))

    def test_eq_and_hash_follow_the_fields(self):
        a, b = self._record(), self._record()
        assert a == b and hash(a) == hash(b) == hash(record_fields(a))
        assert a != self._record(timestamp=5)

    def test_pickle_round_trip(self):
        record = self._record()
        cascade = ArticleCascade.build("a1", [record], ArticleLabel("a1", "D"))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
            assert pickle.loads(pickle.dumps(cascade, protocol)) == cascade

    def test_replace(self):
        record = self._record()
        changed = dataclasses.replace(record, reply_to="u3", mentions=("u4",))
        assert record_fields(changed) == (
            "t1", "u1", 1001, "a1", "u7", None, "u3", ("u4",)
        )
        assert record_fields(record)[6:] == (None, ("u8", "u9"))

    def test_ids_are_shared_strings(self):
        lines = [
            _line(1, author_id="u5", mentions=["u7"]),
            _line(2, author_id="u5", retweet_of="u7"),
        ]
        first, second = _records(lines)
        assert first.author_id is second.author_id
        assert first.article_id is second.article_id
        assert first.mentions[0] is second.retweet_of

    def test_retained_bytes_per_tweet(self):
        # Python 3.10-3.13 retain 221-234 B a tweet here; without slots
        # 261-329 B, and without slots or shared ids 392-481 B
        config = default_config(seed=3)
        config = dataclasses.replace(
            config,
            disinformation=dataclasses.replace(config.disinformation, n_articles=20),
            mainstream=dataclasses.replace(config.mainstream, n_articles=20),
        )
        lines = [record_to_json(r) for r in generate_corpus(config)[0]]
        tracemalloc.start()
        try:
            result = parse_records(lines)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.records) == len(lines) > 5000
        assert retained / len(lines) < 255


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is skipped, not read as data."""

    @pytest.mark.parametrize("dumps", [json.dumps, _canonical])
    def test_tweets_file(self, tmp_path, dumps):
        text = "".join(_line(i, dumps) + "\n" for i in range(1, 4))
        plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        result = load_tweets_file(bom)
        assert (len(result.records), result.malformed) == (3, 0)
        assert result == load_tweets_file(plain)

    def test_labels_file(self, tmp_path):
        text = "article_id,label,source,bias\na1,D,x.org,right\na2,M,y.org,\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_labels_file(bom) == load_labels_file(plain)
        assert list(load_labels_file(bom)) == ["a1", "a2"]


class TestLabels:
    def test_parse_and_defaults(self):
        labels = parse_labels(
            [
                "article_id,label,source,bias",
                "a1,D,example.org,right",
                "a2,M,paper.com,",
            ]
        )
        assert labels["a1"].bias == "right"
        assert labels["a2"].bias == ""
        assert labels["a2"].class_label == "M"

    def test_bad_header(self):
        with pytest.raises(CorpusFormatError):
            parse_labels(["id,label,source,bias", "a1,D,x,"])

    def test_bad_class_label(self):
        with pytest.raises(CorpusFormatError):
            parse_labels(["article_id,label,source,bias", "a1,Z,x,"])

    def test_bad_bias(self):
        with pytest.raises(CorpusFormatError):
            parse_labels(["article_id,label,source,bias", "a1,D,x,center"])

    def test_duplicate_article(self):
        # errors name the file line, the header (line 1) and blank lines counted
        message = "labels line 4: duplicate label row for 'a1'"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            parse_labels(
                ["article_id,label,source,bias", "a1,D,x,", "", "a1,M,y,"]
            )

    def test_wrong_field_count_names_its_line(self):
        message = "labels line 3 has 3 fields: ['a2', 'M', 'y']"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            parse_labels(["article_id,label,source,bias", "a1,D,x,", "a2,M,y"])

    def test_file_round_trip(self, tmp_path):
        # a field csv must quote, with line ends inside it and a non-ASCII letter
        hostile = 'h,"q"\r\nr\nsé'
        labels = [
            ArticleLabel("a2", "M", "y.org"),
            ArticleLabel(hostile, "D", hostile, "left"),
            ArticleLabel("a1", "D", "x.org", "right"),
        ]
        path = tmp_path / "labels.csv"
        write_labels_file(path, labels)
        quoted = '"h,""q""\r\nr\nsé"'
        assert path.read_bytes() == (
            "article_id,label,source,bias\na1,D,x.org,right\na2,M,y.org,\n"
            f"{quoted},D,{quoted},left\n"
        ).encode("utf-8")
        assert load_labels_file(path) == {lab.article_id: lab for lab in labels}


def _cascade(article_id, timestamps, label="D"):
    recs = [
        json.loads(_line(i, article_id=article_id, timestamp=ts))
        for i, ts in enumerate(timestamps, start=1)
    ]
    parsed = _records([json.dumps(r) for r in recs])
    return ArticleCascade.build(article_id, parsed, ArticleLabel(article_id, label))


class TestGrouping:
    def test_sorted_by_timestamp_then_id(self):
        lines = [
            _line(2, timestamp=100),
            _line(1, timestamp=100),
            _line(3, timestamp=50),
        ]
        labels = {"a1": ArticleLabel("a1", "D")}
        cascades, unlabeled = group_cascades(_records(lines), labels)
        assert unlabeled == 0
        ids = [t.tweet_id for t in cascades[0].tweets]
        assert ids == ["t3", "t1", "t2"]

    def test_unlabeled_articles_skipped_and_counted(self):
        lines = [_line(1, article_id="a1"), _line(2, article_id="zz")]
        cascades, unlabeled = group_cascades(
            _records(lines), {"a1": ArticleLabel("a1", "M")}
        )
        assert [c.article_id for c in cascades] == ["a1"]
        assert unlabeled == 1

    def test_mixed_article_ids_rejected_in_build(self):
        recs = _records([_line(1, article_id="a1"), _line(2, article_id="a2")])
        with pytest.raises(ValueError):
            ArticleCascade.build("a1", recs, ArticleLabel("a1", "D"))


class TestCensoring:
    def test_window_boundaries(self):
        c = _cascade("a1", [99, 100, 150, 200, 201])
        out = apply_censoring([c], collection_start=100, window=100)
        assert [t.timestamp for t in out[0].tweets] == [100, 150, 200]

    def test_emptied_article_removed(self):
        c = _cascade("a1", [10, 20])
        assert apply_censoring([c], collection_start=1000, window=10) == []

    def test_idempotent(self):
        c = _cascade("a1", list(range(80, 260, 7)))
        once = apply_censoring([c], 100, 100)
        twice = apply_censoring(once, 100, 100)
        assert once == twice

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            apply_censoring([], 0, 0)


class TestMinTweets:
    def test_boundary_at_threshold(self):
        small = _cascade("a1", list(range(1, 50)))
        exact = _cascade("a2", list(range(1, 51)))
        assert len(small.tweets) == 49 and len(exact.tweets) == 50
        out = filter_min_tweets([small, exact], min_count=50)
        assert [c.article_id for c in out] == ["a2"]

    def test_min_count_one_keeps_everything(self):
        cs = [_cascade("a1", [5]), _cascade("a2", [1, 2])]
        assert filter_min_tweets(cs, min_count=1) == cs

    def test_monotone_in_threshold(self):
        rng = random.Random(3)
        cs = [
            _cascade(f"a{i}", sorted(rng.sample(range(1, 500), rng.randint(1, 60))))
            for i in range(20)
        ]
        previous = None
        for threshold in (1, 5, 20, 40, 60):
            kept = {c.article_id for c in filter_min_tweets(cs, threshold)}
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_rejects_zero_threshold(self):
        with pytest.raises(ValueError):
            filter_min_tweets([], 0)
