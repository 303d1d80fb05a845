"""Generator tests: config validation, determinism, corpus shape, and the
class gap the defaults are supposed to carry."""

import dataclasses
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
)
from fake_pool import record_pools


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


def test_config_json_round_trip():
    config = small_config()
    blob = json.dumps(config.to_json_dict())
    assert GeneratorConfig.from_json_dict(json.loads(blob)) == config


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


def test_jobs_do_not_change_output():
    serial, labels_1 = generate_corpus(small_config(), jobs=1)
    parallel, labels_2 = generate_corpus(small_config(), jobs=2)
    assert serial == parallel
    assert labels_1 == labels_2


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(100_000, 64, 8), (100_000, 2, 2), (3, 64, 3), (4, 1, None),
     (4, None, None), (1, 64, None), (0, 64, None)],
)
def test_workers_capped_by_articles_and_cpus(monkeypatch, jobs, cpus, workers):
    import diffnet.synth as synth

    serial = generate_corpus(small_config())
    asked = record_pools(monkeypatch, synth, cpus)
    assert generate_corpus(small_config(), jobs=jobs) == serial
    assert asked == ([] if workers is None else [workers])


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
        assert cascade.tweets[0].interaction_free()
        assert all(t.timestamp > 0 for t in cascade.tweets)


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
