"""Generator tests: config validation, determinism, corpus shape, and the
class gap the defaults are supposed to carry."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from diffnet.features import FEATURE_NAMES, featurize
from diffnet.ingest import (
    BIAS_LEFT,
    BIAS_RIGHT,
    BIAS_UNLABELED,
    group_cascades,
    parse_records,
    record_to_json,
)
from diffnet.netbuild import build_network
from diffnet.synth import (
    ClassProfile,
    GeneratorConfig,
    default_config,
    generate_corpus,
    load_config,
)


def small_profile(**overrides):
    base = dict(
        n_articles=4,
        cascade_mean=2.0,
        size_exponent=2.2,
        size_min=5,
        size_max=40,
        depth_bias=0.5,
        mention_rate=0.3,
    )
    base.update(overrides)
    return ClassProfile(**base)


def small_config(**overrides):
    base = dict(
        disinformation=small_profile(mention_rate=0.5),
        mainstream=small_profile(mention_rate=0.1),
        reply_rate=0.8,
        quote_rate=0.2,
        pure_rate=0.1,
        seed=7,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


# ---------------------------------------------------------------- config

def test_default_config_is_valid():
    default_config().validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_articles", 0),
        ("cascade_mean", 0.5),
        ("size_exponent", 1.0),
        ("size_min", 0),
        ("size_max", 2),
        ("depth_bias", 1.5),
        ("mention_rate", -0.1),
    ],
)
def test_profile_validation_rejects(field, value):
    profile = dataclasses.replace(small_profile(size_min=3), **{field: value})
    with pytest.raises(ValueError):
        profile.validate()


@pytest.mark.parametrize("field", ["reply_rate", "quote_rate", "pure_rate"])
def test_config_rate_bounds(field):
    config = dataclasses.replace(small_config(), **{field: 1.2})
    with pytest.raises(ValueError):
        config.validate()
    config = dataclasses.replace(small_config(), **{field: -0.2})
    with pytest.raises(ValueError):
        config.validate()


PROFILE_FLOATS = ["cascade_mean", "size_exponent", "depth_bias", "mention_rate"]
CONFIG_FLOATS = ["reply_rate", "quote_rate", "pure_rate", "inter_arrival_mean"]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", PROFILE_FLOATS + CONFIG_FLOATS)
def test_validation_rejects_non_finite(field, value):
    if field in PROFILE_FLOATS:
        config = small_config(mainstream=small_profile(**{field: value}))
    else:
        config = small_config(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        config.validate()
    # the JSON reader takes NaN and Infinity as written
    text = json.dumps(config.to_json_dict())
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        GeneratorConfig.from_json_dict(json.loads(text))


PROFILE_INTS = ["n_articles", "size_min", "size_max"]
CONFIG_INTS = ["sources_per_class", "seed"]


@pytest.mark.parametrize("value", [2.5, 6.0, True])
@pytest.mark.parametrize("field", PROFILE_INTS + CONFIG_INTS)
def test_validation_rejects_non_integer_counts(field, value):
    # each passes the range tests; range() or SeedSequence would reject it
    # only once generation has started
    if field in PROFILE_INTS:
        config = small_config(mainstream=small_profile(**{field: value}))
    else:
        config = small_config(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        config.validate()
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        GeneratorConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))


def test_validation_rejects_a_negative_seed():
    # SeedSequence would reject it only once generation has started
    config = small_config(seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        config.validate()
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        GeneratorConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))


def test_config_from_json_rejects_an_unknown_key():
    obj = small_config().to_json_dict()
    obj["reply_rat"] = 0.5
    with pytest.raises(ValueError, match="reply_rat"):
        GeneratorConfig.from_json_dict(obj)


def test_config_from_json_missing_key_takes_its_default():
    obj = small_config().to_json_dict()
    del obj["inter_arrival_mean"], obj["seed"]
    config = GeneratorConfig.from_json_dict(obj)
    assert config == small_config(inter_arrival_mean=600.0, seed=0)


def test_config_from_json_rejects_a_value_that_is_not_a_number():
    obj = small_config().to_json_dict()
    obj["disinformation"]["depth_bias"] = "deep"
    with pytest.raises(ValueError, match="bad generator config"):
        GeneratorConfig.from_json_dict(obj)


def test_config_json_round_trip():
    config = small_config()
    blob = json.dumps(config.to_json_dict())
    assert GeneratorConfig.from_json_dict(json.loads(blob)) == config


def test_load_config_skips_a_byte_order_mark(tmp_path):
    blob = json.dumps(small_config().to_json_dict()).encode()
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_bytes(blob)
    bom.write_bytes(b"\xef\xbb\xbf" + blob)
    assert load_config(bom) == load_config(plain) == small_config()


def test_config_from_json_missing_profile():
    obj = {"mainstream": dataclasses.asdict(small_profile())}
    with pytest.raises(ValueError):
        GeneratorConfig.from_json_dict(obj)


def test_config_from_json_rejects_invalid_values():
    obj = small_config().to_json_dict()
    obj["reply_rate"] = 2.0
    with pytest.raises(ValueError):
        GeneratorConfig.from_json_dict(obj)


def test_generate_rejects_invalid_config():
    config = dataclasses.replace(small_config(), quote_rate=-1.0)
    with pytest.raises(ValueError):
        generate_corpus(config)



# -------------------------------------------------------- extreme configs

def test_a_size_draw_past_the_float_range_is_size_max():
    # an exponent just above 1 passes validate(), and its power law leaves
    # the float range on nearly every draw; such a draw is size_max, and
    # it takes one uniform as any size draw does, so every other draw holds
    steep = small_profile(n_articles=2, size_exponent=1.0000001)
    fixed = small_profile(n_articles=2, size_min=40, size_max=40)
    config = small_config(disinformation=steep, mainstream=steep)
    records, labels = generate_corpus(config)
    expected = generate_corpus(small_config(disinformation=fixed, mainstream=fixed))
    assert (records, labels) == expected
    assert len(labels) == 4


def test_a_gap_past_the_float_range_names_inter_arrival_mean():
    profile = small_profile(n_articles=2)
    config = small_config(disinformation=profile, mainstream=profile, inter_arrival_mean=1e308)
    config.validate()
    with pytest.raises(ValueError) as info:
        generate_corpus(config)
    assert str(info.value) == "inter_arrival_mean=1e+308 is too large: a gap overflows"


@pytest.mark.parametrize("pure_rate", [0.0, 0.08])
def test_a_time_past_int64_names_inter_arrival_mean(pure_rate):
    # gaps of about 1e20 s stay in the float range, but the times they add
    # up to leave int64: with pure tweets the time draw could not take them,
    # and without, they would be written
    profile = small_profile(n_articles=2)
    config = small_config(disinformation=profile, mainstream=profile,
                          inter_arrival_mean=1e20, pure_rate=pure_rate)
    with pytest.raises(ValueError) as info:
        generate_corpus(config)
    assert str(info.value) == "inter_arrival_mean=1e+20 is too large: a gap overflows"


def test_times_below_int64_keep_their_recorded_bytes():
    # times near 2.7e16: the int64 check must not change a corpus that fits
    profile = small_profile(n_articles=2)
    config = small_config(disinformation=profile, mainstream=profile, inter_arrival_mean=1e15)
    records, _ = generate_corpus(config)
    text = "".join(record_to_json(r) + "\n" for r in records)
    assert (len(records), max(r.timestamp for r in records)) == (144, 26677777770502731)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ce3f2edc743d725c4a2a9e9abdf90714cddf98b81b28c1e9440e264ea58c06df"
    )


# ----------------------------------------------------------- determinism

def test_same_seed_same_corpus():
    a_records, a_labels = generate_corpus(small_config())
    b_records, b_labels = generate_corpus(small_config())
    assert a_records == b_records
    assert a_labels == b_labels


def test_different_seed_different_corpus():
    a_records, _ = generate_corpus(small_config(seed=7))
    b_records, _ = generate_corpus(small_config(seed=8))
    assert a_records != b_records


# ---------------------------------------------------------- corpus shape

def test_round_trip_parses_with_zero_skips():
    records, _ = generate_corpus(small_config())
    result = parse_records(record_to_json(r) for r in records)
    assert result.malformed == 0
    assert result.duplicates == 0
    assert result.records == records


def test_labels_cover_articles_with_expected_sources():
    config = small_config()
    records, labels = generate_corpus(config)
    by_id = {lab.article_id: lab for lab in labels}
    assert len(labels) == 8
    assert {r.article_id for r in records} == set(by_id)
    for lab in labels:
        expected = "D" if lab.article_id.startswith("d") else "M"
        assert lab.class_label == expected
        assert lab.source.startswith(f"src-{expected.lower()}")


def test_source_pools_skew_by_class():
    # enough articles that every source in both pools gets sampled
    config = small_config(
        disinformation=small_profile(n_articles=120),
        mainstream=small_profile(n_articles=120),
    )
    _, labels = generate_corpus(config)
    for class_label, majority, minority in (
        ("D", BIAS_RIGHT, BIAS_LEFT),
        ("M", BIAS_LEFT, BIAS_RIGHT),
    ):
        biases = [l.bias for l in labels if l.class_label == class_label]
        counts = {
            majority: biases.count(majority),
            minority: biases.count(minority),
            BIAS_UNLABELED: biases.count(BIAS_UNLABELED),
        }
        assert counts[majority] > counts[minority] > 0
        assert counts[BIAS_UNLABELED] > 0
        assert sum(counts.values()) == len(biases)


def test_cascade_roots_are_pure_and_timestamps_positive():
    records, labels = generate_corpus(small_config())
    label_map = {lab.article_id: lab for lab in labels}
    cascades, skipped = group_cascades(records, label_map)
    assert skipped == 0
    for cascade in cascades:
        root = cascade.tweets[0]
        assert root.retweet_of is None and root.quote_of is None
        assert root.reply_to is None and not root.mentions
        assert all(t.timestamp > 0 for t in cascade.tweets)


def test_ids_count_up_within_each_article():
    # tweets are numbered as they are made, and users as they first post
    records, labels = generate_corpus(small_config())
    for label in labels:
        tweets = [r for r in records if r.article_id == label.article_id]
        ids = [f"{label.article_id}_t{k:05d}" for k in range(1, len(tweets) + 1)]
        assert [r.tweet_id for r in tweets] == ids
        users = list(dict.fromkeys(r.author_id for r in tweets))
        assert users == [f"{label.article_id}_u{k:05d}" for k in range(1, len(users) + 1)]

def test_articles_launch_at_distinct_offsets():
    records, _ = generate_corpus(small_config())
    firsts = {}
    for r in records:
        firsts.setdefault(r.article_id, r.timestamp)
    assert len(set(firsts.values())) == len(firsts)


# ------------------------------------------------------- pinned fixtures

def test_all_rates_zero_single_tweet_article():
    profile = small_profile(
        n_articles=2, cascade_mean=1.0, size_min=1, size_max=1,
        depth_bias=0.0, mention_rate=0.0,
    )
    config = GeneratorConfig(
        disinformation=profile,
        mainstream=profile,
        reply_rate=0.0,
        quote_rate=0.0,
        pure_rate=0.0,
        seed=3,
    )
    records, labels = generate_corpus(config)
    label_map = {lab.article_id: lab for lab in labels}
    cascades, _ = group_cascades(records, label_map)
    assert len(cascades) == 4
    for cascade in cascades:
        assert len(cascade.tweets) == 1
        net = build_network(cascade)
        assert net.pure_tweet_count == 1
        assert len(net.pure_authors) == 1
        assert all(layer.is_empty() for layer in net.layers.values())


def test_zero_depth_bias_yields_stars():
    # beta=0 sends every spreader to the root: the retweet layer is a
    # star, diameter 2 through the hub, virality approaching 2
    profile = small_profile(
        n_articles=3, cascade_mean=1.0, size_min=12, size_max=12,
        depth_bias=0.0, mention_rate=0.0,
    )
    config = GeneratorConfig(
        disinformation=profile,
        mainstream=profile,
        reply_rate=0.0,
        quote_rate=0.0,
        pure_rate=0.0,
        seed=11,
    )
    records, labels = generate_corpus(config)
    label_map = {lab.article_id: lab for lab in labels}
    cascades, _ = group_cascades(records, label_map)
    i_dwcc = FEATURE_NAMES.index("RT_DWCC")
    i_sv = FEATURE_NAMES.index("RT_SV")
    i_lwcc = FEATURE_NAMES.index("RT_LWCC")
    for sample in featurize(cascades):
        assert sample.vector[i_lwcc] == 12.0
        assert sample.vector[i_dwcc] == 2.0
        assert 1.0 < sample.vector[i_sv] < 2.0


# ------------------------------------------------------ shipped class gap

def test_default_profiles_separate_retweet_structure():
    # the advertised gap: with deeper and larger disinformation cascades
    # the retweet layer's largest component and its diameter are bigger
    # on average, over at least 200 articles per class on a fixed seed
    config = default_config(seed=0)
    config = dataclasses.replace(
        config,
        disinformation=dataclasses.replace(config.disinformation, n_articles=200),
        mainstream=dataclasses.replace(config.mainstream, n_articles=200),
    )
    records, labels = generate_corpus(config)
    label_map = {lab.article_id: lab for lab in labels}
    cascades, _ = group_cascades(records, label_map)
    samples = featurize(cascades)
    X = np.stack([s.vector for s in samples])
    is_d = np.array([s.label.class_label == "D" for s in samples])
    for name in ("RT_LWCC", "RT_DWCC"):
        i = FEATURE_NAMES.index(name)
        assert X[is_d, i].mean() > X[~is_d, i].mean()


def test_mention_gap_lives_in_mention_layer_only():
    # at full reply coverage every mention pair duplicates a reply pair,
    # so the classes differ in the M layer but a merged single graph
    # carries no trace of the mention rate
    records, labels = generate_corpus(small_config(seed=5, reply_rate=1.0))
    label_map = {lab.article_id: lab for lab in labels}
    cascades, _ = group_cascades(records, label_map)
    seen_mentions = 0
    for cascade in cascades:
        net = build_network(cascade)
        m_pairs = set(net.layers["M"].edges)
        r_pairs = set(net.layers["R"].edges)
        assert m_pairs <= r_pairs
        seen_mentions += len(m_pairs)
    assert seen_mentions > 0
