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
spawned from the master seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .ingest import (
    BIAS_LEFT,
    BIAS_RIGHT,
    BIAS_UNLABELED,
    ArticleLabel,
    TweetRecord,
    read_input,
)
from .model import check_settings

BASE_TIME = 1_000_000

# gap between consecutive cascade launches, as a multiple of the
# within-cascade inter-arrival mean
CASCADE_GAP_FACTOR = 3.0


def _require_finite(config) -> None:
    # JSON configs may spell NaN and Infinity, which every range test passes,
    # and integers too large for a float, which the generator cannot convert
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{field.name} must be a finite number")


def _require_int(config, names) -> None:
    # JSON configs may give a count or seed as 2.5 or true, which the range
    # tests pass and only range() or SeedSequence rejects, mid-run
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer")


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
        _require_finite(self)
        _require_int(self, ("n_articles", "size_min", "size_max"))
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
        _require_finite(self)
        _require_int(self, ("sources_per_class", "seed"))
        for name in ("reply_rate", "quote_rate", "pure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.inter_arrival_mean <= 0:
            raise ValueError("inter_arrival_mean must be positive")
        if self.sources_per_class < 1:
            raise ValueError("sources_per_class must be >= 1")
        check_settings(seed=self.seed)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(obj: dict) -> "GeneratorConfig":
        try:
            rest = {**obj}
            d = ClassProfile(**rest.pop("disinformation"))
            m = ClassProfile(**rest.pop("mainstream"))
            config = GeneratorConfig(disinformation=d, mainstream=m, **rest)
            config.validate()
        except (KeyError, TypeError) as exc:
            # a missing key, an unknown one, or a value that is not a number
            raise ValueError(f"bad generator config: {exc}") from exc
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


def _unique_keys(pairs) -> dict:
    # json.load keeps the last value of a repeated key, silently
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key {key!r} is repeated")
        obj[key] = value
    return obj


def _parse_config(fh) -> GeneratorConfig:
    try:
        return GeneratorConfig.from_json_dict(json.load(fh, object_pairs_hook=_unique_keys))
    except RecursionError:
        raise ValueError("config is nested too deeply") from None


def load_config(path) -> GeneratorConfig:
    return read_input(path, _parse_config)


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
    try:
        size = profile.size_min * (1.0 - u) ** (-1.0 / (profile.size_exponent - 1.0))
        return min(profile.size_max, int(size))
    except OverflowError:  # a draw past the float range is past size_max too
        return profile.size_max


def _generate_article(
    article_id: str,
    profile: ClassProfile,
    config: GeneratorConfig,
    seed_seq: np.random.SeedSequence,
    start_time: int,
) -> list[TweetRecord]:
    rng = np.random.default_rng(seed_seq)
    records: list[TweetRecord] = []
    users: list[str] = []

    def new_user() -> str:
        users.append(f"{article_id}_u{len(users) + 1:05d}")
        return users[-1]

    def tweet(author, when, retweet_of=None, quote_of=None, reply_to=None, mentions=()):
        # positional, so that no keyword dict is built per tweet
        tweet_id = f"{article_id}_t{len(records) + 1:05d}"
        records.append(TweetRecord(
            tweet_id, author, when, article_id, retweet_of, quote_of, reply_to, mentions
        ))

    n_cascades = 1 + rng.poisson(profile.cascade_mean - 1.0)
    cascade_start = start_time
    for c in range(n_cascades):
        if c > 0:
            mean = CASCADE_GAP_FACTOR * config.inter_arrival_mean
            cascade_start += max(1, int(round(rng.exponential(mean))))
        root = new_user()
        tweet(root, cascade_start)
        authors = [root]
        t = cascade_start
        n_spreaders = _sample_cascade_size(profile, rng) - 1
        for _ in range(n_spreaders):
            author = new_user()
            t += max(1, int(round(rng.exponential(config.inter_arrival_mean))))
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
                tweet(author, t, quote_of=parent, mentions=mentions)
            else:
                tweet(author, t, retweet_of=parent, mentions=mentions)
            if rng.random() < config.reply_rate:
                tweet(author, t + int(rng.integers(1, 61)), reply_to=parent)
            authors.append(author)
        # a reply, at most t + 60, is the cascade's last time; every time
        # written must fit in int64, as the pure-tweet draws below need
        if t + 60 >= 2**63:
            raise OverflowError
        # standalone pure tweets scattered over the cascade's span; half
        # come from users already active in it
        n_pure = rng.binomial(n_spreaders, config.pure_rate) if n_spreaders else 0
        for _ in range(n_pure):
            if rng.random() < 0.5:
                who = authors[int(rng.integers(0, len(authors)))]
            else:
                who = new_user()
            tweet(who, int(rng.integers(cascade_start, max(t, cascade_start) + 1)))
    return records


def generate_corpus(
    config: GeneratorConfig,
) -> tuple[list[TweetRecord], list[ArticleLabel]]:
    """All tweet records plus one label row per article.

    Same config (including seed) gives an identical corpus; articles are
    independent streams, generated one after another in a fixed order.
    Labels draw from a stream of their own.
    """
    config.validate()
    profiles = {"D": config.disinformation, "M": config.mainstream}
    n_total = sum(profile.n_articles for profile in profiles.values())
    seeds = np.random.SeedSequence(config.seed).spawn(n_total + 1)
    label_rng = np.random.default_rng(seeds[-1])
    records: list[TweetRecord] = []
    labels: list[ArticleLabel] = []
    for class_label, profile in profiles.items():
        pool = _source_pool(class_label, config.sources_per_class)
        for n in range(profile.n_articles):
            i = len(labels)
            article_id = "%s%04d" % (class_label.lower(), n)
            source, bias = pool[int(label_rng.integers(0, config.sources_per_class))]
            labels.append(ArticleLabel(article_id, class_label, source, bias))
            try:
                records += _generate_article(
                    article_id, profile, config, seeds[i], BASE_TIME + 97 * i
                )
            except OverflowError:  # a gap past the float range, or a time past int64
                raise ValueError(f"inter_arrival_mean={config.inter_arrival_mean!r} is too "
                                 "large: a gap overflows") from None
    return records, labels
