"""Synthetic labeled tweet corpora with a controllable class gap.

Each article grows a handful of retweet cascades. A cascade starts with a
root posting (a pure tweet) and adds spreaders one by one; a spreader
attaches to the root with probability 1 - depth_bias, otherwise to a
uniformly chosen existing non-root user, and its attachment becomes a
quote instead of a retweet at the shared quote rate. Independently of
that, a spreader replies to its parent at the shared reply rate and
mentions its parent on the attachment tweet at the per-class mention
rate; extra pure tweets appear at a shared rate.

The two class profiles ship with deliberately overlapping size
distributions; the separating signals are the mention rate (a dense
mention layer for one class, a near-empty one for the other) and the
depth bias (deeper retweet trees). Both replies and mentions point at
the spreader's parent, and the shipped reply rate is 1.0, so every
mention edge coincides with a reply edge of the same direction: the
union of all layers carries no trace of the mention rate, only a
per-layer view does. That is what keeps the multi-layer representation
ahead of the single-layer baseline.

Generation is deterministic: every article draws from its own stream
spawned from the master seed, so output is identical at any worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .ingest import (
    BIAS_LEFT,
    BIAS_RIGHT,
    BIAS_UNLABELED,
    ArticleLabel,
    TweetRecord,
)

BASE_TIME = 1_000_000

# gap between consecutive cascade launches, as a multiple of the
# within-cascade inter-arrival mean
CASCADE_GAP_FACTOR = 3.0


@dataclass(frozen=True)
class ClassProfile:
    n_articles: int
    cascade_mean: float
    size_exponent: float
    size_min: int
    size_max: int
    depth_bias: float
    mention_rate: float

    def validate(self) -> None:
        if self.n_articles < 1:
            raise ValueError("n_articles must be >= 1")
        if self.cascade_mean < 1.0:
            raise ValueError("cascade_mean must be >= 1")
        if self.size_exponent <= 1.0:
            raise ValueError("size_exponent must be > 1")
        if self.size_min < 1 or self.size_max < self.size_min:
            raise ValueError("need 1 <= size_min <= size_max")
        if not 0.0 <= self.depth_bias <= 1.0:
            raise ValueError("depth_bias must be in [0, 1]")
        if not 0.0 <= self.mention_rate <= 1.0:
            raise ValueError("mention_rate must be in [0, 1]")


@dataclass(frozen=True)
class GeneratorConfig:
    disinformation: ClassProfile
    mainstream: ClassProfile
    reply_rate: float = 0.15
    quote_rate: float = 0.15
    pure_rate: float = 0.08
    inter_arrival_mean: float = 600.0
    sources_per_class: int = 6
    seed: int = 0

    def validate(self) -> None:
        self.disinformation.validate()
        self.mainstream.validate()
        for name in ("reply_rate", "quote_rate", "pure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.inter_arrival_mean <= 0:
            raise ValueError("inter_arrival_mean must be positive")
        if self.sources_per_class < 1:
            raise ValueError("sources_per_class must be >= 1")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(obj: dict) -> "GeneratorConfig":
        try:
            d = ClassProfile(**obj["disinformation"])
            m = ClassProfile(**obj["mainstream"])
            rest = {
                k: obj[k]
                for k in (
                    "reply_rate",
                    "quote_rate",
                    "pure_rate",
                    "inter_arrival_mean",
                    "sources_per_class",
                    "seed",
                )
                if k in obj
            }
            config = GeneratorConfig(disinformation=d, mainstream=m, **rest)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad generator config: {exc}") from exc
        config.validate()
        return config


def default_config(seed: int = 0) -> GeneratorConfig:
    """Shipped defaults: 400 articles per class, overlapping sizes, the
    class gap carried by mention rate and depth bias.

    reply_rate is 1.0 on purpose: replies and mentions both target the
    spreader's parent, so at full reply coverage the mention layer adds
    no pair the union of layers does not already have, and only a
    layer-resolved view can read the mention-rate gap.
    """
    return GeneratorConfig(
        disinformation=ClassProfile(
            n_articles=400,
            cascade_mean=3.4,
            size_exponent=2.10,
            size_min=9,
            size_max=140,
            depth_bias=0.62,
            mention_rate=0.55,
        ),
        mainstream=ClassProfile(
            n_articles=400,
            cascade_mean=3.1,
            size_exponent=2.45,
            size_min=9,
            size_max=140,
            depth_bias=0.42,
            mention_rate=0.08,
        ),
        reply_rate=1.0,
        quote_rate=0.15,
        pure_rate=0.08,
        seed=seed,
    )


def load_config(path) -> GeneratorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return GeneratorConfig.from_json_dict(json.load(fh))


def _source_pool(class_label: str, n: int) -> list[tuple[str, str]]:
    """(source, bias) pool; D skews right, M skews left, one unlabeled each."""
    major = BIAS_RIGHT if class_label == "D" else BIAS_LEFT
    minor = BIAS_LEFT if class_label == "D" else BIAS_RIGHT
    tag = class_label.lower()
    pool = []
    for i in range(n):
        if i == 0 and n >= 3:
            bias = BIAS_UNLABELED
        elif i == 1 and n >= 2:
            bias = minor
        else:
            bias = major
        pool.append((f"src-{tag}{i}.example", bias))
    return pool


def _sample_cascade_size(profile: ClassProfile, rng: np.random.Generator) -> int:
    """Power-law total cascade size (root included), clipped to the bounds."""
    u = rng.random()
    size = profile.size_min * (1.0 - u) ** (-1.0 / (profile.size_exponent - 1.0))
    return min(profile.size_max, int(size))


def _generate_article(
    article_id: str,
    profile: ClassProfile,
    config: GeneratorConfig,
    seed_seq: np.random.SeedSequence,
    start_time: int,
) -> list[TweetRecord]:
    rng = np.random.default_rng(seed_seq)
    records: list[TweetRecord] = []
    tweet_n = 0
    user_n = 0

    def new_tweet_id() -> str:
        nonlocal tweet_n
        tweet_n += 1
        return f"{article_id}_t{tweet_n:05d}"

    def new_user() -> str:
        nonlocal user_n
        user_n += 1
        return f"{article_id}_u{user_n:05d}"

    def gap(mean: float) -> int:
        return max(1, int(round(rng.exponential(mean))))

    n_cascades = 1 + rng.poisson(profile.cascade_mean - 1.0)
    cascade_start = start_time
    for c in range(n_cascades):
        if c > 0:
            cascade_start += gap(CASCADE_GAP_FACTOR * config.inter_arrival_mean)
        root = new_user()
        records.append(TweetRecord(new_tweet_id(), root, cascade_start, article_id))
        authors = [root]
        t = cascade_start
        n_spreaders = _sample_cascade_size(profile, rng) - 1
        for _ in range(n_spreaders):
            author = new_user()
            t += gap(config.inter_arrival_mean)
            if len(authors) > 1 and rng.random() < profile.depth_bias:
                parent = authors[int(rng.integers(1, len(authors)))]
            else:
                parent = root
            # the mention rides on the attachment tweet and points at the
            # parent; paired with parent-directed replies this keeps
            # mention volume out of the cross-layer edge union
            mentions: tuple[str, ...] = ()
            if rng.random() < profile.mention_rate:
                mentions = (parent,)
            if rng.random() < config.quote_rate:
                records.append(
                    TweetRecord(
                        new_tweet_id(), author, t, article_id,
                        quote_of=parent, mentions=mentions,
                    )
                )
            else:
                records.append(
                    TweetRecord(
                        new_tweet_id(), author, t, article_id,
                        retweet_of=parent, mentions=mentions,
                    )
                )
            if rng.random() < config.reply_rate:
                records.append(
                    TweetRecord(
                        new_tweet_id(), author,
                        t + int(rng.integers(1, 61)), article_id,
                        reply_to=parent,
                    )
                )
            authors.append(author)
        # standalone pure tweets scattered over the cascade's span; half
        # come from users already active in it
        n_pure = rng.binomial(n_spreaders, config.pure_rate) if n_spreaders else 0
        for _ in range(n_pure):
            if rng.random() < 0.5:
                who = authors[int(rng.integers(0, len(authors)))]
            else:
                who = new_user()
            when = int(rng.integers(cascade_start, max(t, cascade_start) + 1))
            records.append(TweetRecord(new_tweet_id(), who, when, article_id))
    return records


def _article_specs(config: GeneratorConfig) -> list[tuple[str, str]]:
    specs = [("d%04d" % i, "D") for i in range(config.disinformation.n_articles)]
    specs += [("m%04d" % i, "M") for i in range(config.mainstream.n_articles)]
    return specs


def _worker(args) -> list[TweetRecord]:
    article_id, class_label, config, seed_seq, start = args
    profile = (
        config.disinformation if class_label == "D" else config.mainstream
    )
    return _generate_article(article_id, profile, config, seed_seq, start)


def generate_corpus(
    config: GeneratorConfig, jobs: int = 1
) -> tuple[list[TweetRecord], list[ArticleLabel]]:
    """All tweet records plus one label row per article.

    Same config (including seed) gives an identical corpus at any jobs
    count; articles are independent streams merged in a fixed order. At
    most one worker process per article and per CPU is started.
    """
    config.validate()
    specs = _article_specs(config)
    seeds = np.random.SeedSequence(config.seed).spawn(len(specs) + 1)
    label_rng = np.random.default_rng(seeds[-1])
    pools = {
        "D": _source_pool("D", config.sources_per_class),
        "M": _source_pool("M", config.sources_per_class),
    }
    labels = []
    for article_id, class_label in specs:
        source, bias = pools[class_label][
            int(label_rng.integers(0, config.sources_per_class))
        ]
        labels.append(ArticleLabel(article_id, class_label, source, bias))

    tasks = [
        (article_id, class_label, config, seeds[i], BASE_TIME + 97 * i)
        for i, (article_id, class_label) in enumerate(specs)
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_worker, tasks, chunksize=16))
    else:
        chunks = [_worker(task) for task in tasks]
    records = [r for chunk in chunks for r in chunk]
    return records, labels
