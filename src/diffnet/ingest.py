"""Tweet-record parsing, label tables, censoring and volume filters.

Input formats:

* Tweets file: one JSON object per line with fields ``tweet_id``,
  ``author_id``, ``timestamp`` (integer epoch seconds), ``article_id``, and
  optional ``retweet_of``, ``quote_of``, ``reply_to`` (author ids) plus
  ``mentions`` (list of author ids mentioned in the body, excluding the
  reply target).
* Labels file: CSV with header ``article_id,label,source,bias`` where
  label is ``D`` or ``M`` and bias is ``left``, ``right`` or empty
  (empty string means no bias annotation).
"""

from __future__ import annotations

import csv
import gc
import json
import re
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, Optional

CLASS_DISINFORMATION = "D"
CLASS_MAINSTREAM = "M"
CLASS_LABELS = (CLASS_DISINFORMATION, CLASS_MAINSTREAM)

BIAS_LEFT = "left"
BIAS_RIGHT = "right"
BIAS_UNLABELED = ""
BIAS_VALUES = (BIAS_LEFT, BIAS_RIGHT, BIAS_UNLABELED)

LABELS_HEADER = ["article_id", "label", "source", "bias"]


class CorpusFormatError(ValueError):
    """Raised when an input file is structurally unusable."""


@dataclass(slots=True, unsafe_hash=True)
class TweetRecord:
    tweet_id: str
    author_id: str
    timestamp: int
    article_id: str
    retweet_of: Optional[str] = None
    quote_of: Optional[str] = None
    reply_to: Optional[str] = None
    mentions: tuple[str, ...] = ()

    def __reduce__(self):
        # protocols 0 and 1 cannot pickle a slotted class without it
        return TweetRecord, (self.tweet_id, self.author_id, self.timestamp, self.article_id,
                             self.retweet_of, self.quote_of, self.reply_to, self.mentions)


@dataclass(frozen=True)
class ArticleLabel:
    article_id: str
    class_label: str
    source: str = ""
    bias: str = BIAS_UNLABELED

    def __post_init__(self):
        if self.class_label not in CLASS_LABELS:
            raise CorpusFormatError(
                f"label for {self.article_id!r} must be D or M, got {self.class_label!r}"
            )
        if self.bias not in BIAS_VALUES:
            raise CorpusFormatError(
                f"bias for {self.article_id!r} must be left/right/empty, got {self.bias!r}"
            )


@dataclass(frozen=True)
class ArticleCascade:
    """All collected tweets of one article, time-ordered."""

    article_id: str
    tweets: tuple[TweetRecord, ...]
    label: ArticleLabel

    @staticmethod
    def build(article_id: str, tweets: Iterable[TweetRecord], label: ArticleLabel):
        ordered = sorted(tweets, key=attrgetter("timestamp", "tweet_id"))
        for t in ordered:
            if t.article_id != article_id:
                raise ValueError(
                    f"tweet {t.tweet_id!r} belongs to {t.article_id!r}, not {article_id!r}"
                )
        return ArticleCascade(article_id, tuple(ordered), label)


@dataclass
class ParseResult:
    records: list[TweetRecord] = field(default_factory=list)
    malformed: int = 0
    duplicates: int = 0


def _record_from_obj(obj) -> tuple:
    """The eight fields of one decoded line in TweetRecord order, checked
    except for the entries of ``mentions``, which comes back as given."""
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    try:
        tweet_id = obj["tweet_id"]
        author_id = obj["author_id"]
        timestamp = obj["timestamp"]
        article_id = obj["article_id"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]}") from None
    if not (isinstance(tweet_id, str) and isinstance(author_id, str)
            and isinstance(article_id, str) and tweet_id and author_id and article_id):
        raise ValueError("tweet_id, author_id and article_id must be nonempty strings")
    if type(timestamp) is not int or timestamp <= 0:
        raise ValueError("timestamp must be a positive integer")
    retweet_of = obj.get("retweet_of")
    quote_of = obj.get("quote_of")
    reply_to = obj.get("reply_to")
    for target in (retweet_of, quote_of, reply_to):
        if target is not None and not (isinstance(target, str) and target):
            raise ValueError("interaction targets must be nonempty strings when present")
    mentions = obj.get("mentions", [])
    if not isinstance(mentions, list):
        raise ValueError("mentions must be a list")
    return (tweet_id, author_id, timestamp, article_id,
            retweet_of, quote_of, reply_to, mentions)


# The line record_to_json writes when every id is printable ASCII without
# '"' or '\': such an id decodes to itself, and a timestamp of at most 18
# digits stays far below int()'s digit limit. Any other line takes the scanner.
_ID_TEXT = r'[ !#-\[\]-~]+'
_ID = f'"({_ID_TEXT})"'
_match_canonical = re.compile(
    rf'{{"article_id":{_ID},"author_id":{_ID}'
    rf'(?:,"mentions":\[("{_ID_TEXT}"(?:,"{_ID_TEXT}")*)\])?'
    rf'(?:,"quote_of":{_ID})?(?:,"reply_to":{_ID})?(?:,"retweet_of":{_ID})?'
    rf',"timestamp":([1-9][0-9]{{0,17}}),"tweet_id":{_ID}}}\n?\Z'
).match


# json.loads is this scanner between a JSON-whitespace skip and a check
# that only JSON whitespace follows the value; parse_records does both inline
_scan_once = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def parse_records(lines: Iterable[str]) -> ParseResult:
    """Parse line-delimited tweet records.

    Each line is decoded exactly as ``json.loads`` decodes it: JSON
    whitespace may surround one value and nothing else may follow it.
    A line in the form ``record_to_json`` writes, with every id printable
    ASCII, is read by one anchored match instead of the JSON scanner and
    gives the record the scanner would. Malformed lines (bad JSON, nesting
    too deep to decode, text that was not valid UTF-8, missing or invalid
    fields) are counted and skipped.
    Duplicate tweet_ids keep the first occurrence. Blank lines are ignored
    entirely. Raises CorpusFormatError when more than half of the
    non-blank lines are malformed.
    """
    result = ParseResult()
    seen_ids: set[str] = set()
    ids: dict[str, str] = {}
    intern = ids.setdefault  # equal ids come back as the one str in ids
    considered = 0
    # the decoded dicts and the records hold no cycles: pause the cyclic GC
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for line in lines:
            if not line or line.isspace():
                continue
            considered += 1
            canonical = _match_canonical(line)
            try:
                if canonical is not None:
                    (article_id, author_id, mentions, quote_of, reply_to,
                     retweet_of, timestamp, tweet_id) = canonical.groups()
                    timestamp = int(timestamp)
                    mentions = mentions[1:-1].split('","') if mentions else ()
                else:
                    if not line.isascii():
                        line.encode("utf-8")  # a lone surrogate here was an invalid byte
                    obj, end = _scan_once(line, len(line) - len(line.lstrip(_JSON_SPACE)))
                    if line[end:].strip(_JSON_SPACE):
                        raise ValueError("extra data after the JSON value")
                    (tweet_id, author_id, timestamp, article_id,
                     retweet_of, quote_of, reply_to, mentions) = _record_from_obj(obj)
                if mentions:
                    # dedup preserving order; the reply target never doubles as a mention
                    seen = {reply_to}
                    kept = []
                    for m in mentions:
                        if not (isinstance(m, str) and m):
                            raise ValueError("mentions must be nonempty strings")
                        if m not in seen:
                            seen.add(m)
                            kept.append(intern(m, m))
                    mentions = kept
                record = TweetRecord(
                    tweet_id,
                    intern(author_id, author_id),
                    timestamp,
                    intern(article_id, article_id),
                    retweet_of and intern(retweet_of, retweet_of),
                    quote_of and intern(quote_of, quote_of),
                    reply_to and intern(reply_to, reply_to),
                    tuple(mentions),
                )
            except (ValueError, TypeError, RecursionError, StopIteration):
                # the scanner raises StopIteration where no value starts
                result.malformed += 1
                continue
            if record.tweet_id in seen_ids:
                result.duplicates += 1
                continue
            seen_ids.add(record.tweet_id)
            result.records.append(record)
    finally:
        if gc_was_enabled:
            gc.enable()
    if considered and 2 * result.malformed > considered:
        raise CorpusFormatError(
            f"{result.malformed} of {considered} lines malformed"
        )
    return result


_quote = json.encoder.encode_basestring_ascii


def record_to_json(record: TweetRecord) -> str:
    """One-line JSON form: keys sorted, no spaces, every id ASCII with
    ``\\u`` escapes; optional fields are omitted when unset. The bytes are
    those of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.
    """
    line = (
        f'{{"article_id":{_quote(record.article_id)}'
        f',"author_id":{_quote(record.author_id)}'
    )
    if record.mentions:
        line += f',"mentions":[{",".join(map(_quote, record.mentions))}]'
    if record.quote_of is not None:
        line += f',"quote_of":{_quote(record.quote_of)}'
    if record.reply_to is not None:
        line += f',"reply_to":{_quote(record.reply_to)}'
    if record.retweet_of is not None:
        line += f',"retweet_of":{_quote(record.retweet_of)}'
    return f'{line},"timestamp":{record.timestamp},"tweet_id":{_quote(record.tweet_id)}}}'


def read_input(path, parse, **open_args):
    """``parse`` of the file at ``path`` opened as UTF-8 after any byte-order
    mark. A missing path raises FileNotFoundError; any other OSError, and any
    ValueError from ``parse``, raises CorpusFormatError naming the path first."""
    try:
        with open(path, "r", encoding="utf-8-sig", **open_args) as fh:
            return parse(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CorpusFormatError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def load_tweets_file(path) -> ParseResult:
    # an invalid byte decodes to a lone surrogate, so only its line is malformed
    return read_input(path, parse_records, errors="surrogateescape")


def write_tweets_file(path, records: Iterable[TweetRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record_to_json(record))
            fh.write("\n")


def csv_rows(lines: Iterable[str], what: str):
    """The rows of a CSV file as (line, row) pairs, ``line`` being the file
    line the row ends on (the header is line 1), so every error names a row
    by one number. A row csv refuses, or a field holding a byte-order mark,
    which would become part of an id, raises CorpusFormatError naming its
    line."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            if any("\ufeff" in field for field in row):
                raise CorpusFormatError(
                    f"{what} line {reader.line_num}: byte-order mark inside a field"
                )
            yield reader.line_num, row
    except csv.Error as exc:
        raise CorpusFormatError(f"{what} line {reader.line_num}: {exc}") from None


def write_csv(path, rows: Iterable[Iterable]) -> None:
    """Write ``rows`` to ``path`` as UTF-8 CSV, every line ending in ``\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def parse_labels(rows: Iterable[str]) -> dict[str, ArticleLabel]:
    reader = csv_rows(rows, "labels")
    try:
        _, header = next(reader)
    except StopIteration:
        raise CorpusFormatError("labels file is empty") from None
    if [h.strip() for h in header] != LABELS_HEADER:
        raise CorpusFormatError(
            f"labels header must be {','.join(LABELS_HEADER)}"
        )
    labels: dict[str, ArticleLabel] = {}
    for line, row in reader:
        if not row:
            continue
        if len(row) != 4:
            raise CorpusFormatError(f"labels line {line} has {len(row)} fields: {row!r}")
        article_id, label, source, bias = (f.strip() for f in row)
        if article_id in labels:
            raise CorpusFormatError(f"labels line {line}: duplicate label row for {article_id!r}")
        labels[article_id] = ArticleLabel(article_id, label, source, bias)
    return labels


def load_labels_file(path) -> dict[str, ArticleLabel]:
    return read_input(path, parse_labels, newline="")


def write_labels_file(path, labels: Iterable[ArticleLabel]) -> None:
    write_csv(path, [LABELS_HEADER] + [
        [lab.article_id, lab.class_label, lab.source, lab.bias]
        for lab in sorted(labels, key=lambda l: l.article_id)
    ])


def group_cascades(
    records: Iterable[TweetRecord], labels: dict[str, ArticleLabel]
) -> tuple[list[ArticleCascade], int]:
    """Group records by article, attaching labels.

    Records whose article has no label row are skipped; the second return
    value counts them. Cascades come back sorted by article_id.
    """
    buckets: dict[str, list[TweetRecord]] = {}
    unlabeled = 0
    for record in records:
        if record.article_id not in labels:
            unlabeled += 1
            continue
        buckets.setdefault(record.article_id, []).append(record)
    cascades = [
        ArticleCascade.build(aid, tweets, labels[aid])
        for aid, tweets in sorted(buckets.items())
    ]
    return cascades, unlabeled


def apply_censoring(
    cascades: Iterable[ArticleCascade], collection_start: int, window: int
) -> list[ArticleCascade]:
    """Keep tweets with collection_start <= timestamp <= collection_start + window.

    Articles left with no tweets disappear from the output.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    end = collection_start + window
    out = []
    for cascade in cascades:
        kept = tuple(
            t for t in cascade.tweets if collection_start <= t.timestamp <= end
        )
        if kept:
            out.append(replace(cascade, tweets=kept))
    return out


def filter_min_tweets(
    cascades: Iterable[ArticleCascade], min_count: int = 50
) -> list[ArticleCascade]:
    """Keep articles with at least min_count tweets."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    return [c for c in cascades if len(c.tweets) >= min_count]
