"""Reference tweet-line codec used as a test oracle.

Lines are decoded with ``json.loads`` and written with ``json.dumps``, the
calls ``diffnet.ingest`` replaced with the decoder's scanner and direct
formatting. The validator is the straightforward one that
``diffnet.ingest._record_from_obj`` replaced: one check per field, an
``optional`` dict for the interaction targets and a separate mention
normaliser. It builds plain field tuples, so it shares no code with the
record type under test.
"""

from __future__ import annotations

import json

FIELDS = (
    "tweet_id", "author_id", "timestamp", "article_id",
    "retweet_of", "quote_of", "reply_to", "mentions",
)


def normalize_mentions(raw, reply_to):
    # dedup preserving order; the reply target never doubles as a mention
    seen = set()
    out = []
    for m in raw:
        if not isinstance(m, str) or not m:
            raise ValueError("mentions must be nonempty strings")
        if m == reply_to or m in seen:
            continue
        seen.add(m)
        out.append(m)
    return tuple(out)


def record_from_obj(obj) -> tuple:
    """The record's fields in ``FIELDS`` order, or ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    try:
        tweet_id = obj["tweet_id"]
        author_id = obj["author_id"]
        timestamp = obj["timestamp"]
        article_id = obj["article_id"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]}") from None
    for name, value in (
        ("tweet_id", tweet_id),
        ("author_id", author_id),
        ("article_id", article_id),
    ):
        if not isinstance(value, str) or not value:
            raise ValueError(f"{name} must be a nonempty string")
    if isinstance(timestamp, bool) or not isinstance(timestamp, int) or timestamp <= 0:
        raise ValueError("timestamp must be a positive integer")
    optional = {}
    for key in ("retweet_of", "quote_of", "reply_to"):
        value = obj.get(key)
        if value is not None and (not isinstance(value, str) or not value):
            raise ValueError(f"{key} must be a nonempty string when present")
        optional[key] = value
    mentions_raw = obj.get("mentions", [])
    if not isinstance(mentions_raw, list):
        raise ValueError("mentions must be a list")
    mentions = normalize_mentions(mentions_raw, optional["reply_to"])
    return (
        tweet_id, author_id, timestamp, article_id,
        optional["retweet_of"], optional["quote_of"], optional["reply_to"], mentions,
    )


def parse_lines(lines):
    """(field tuples, malformed, duplicates), counted as parse_records counts."""
    records, seen, malformed, duplicates = [], set(), 0, 0
    for line in lines:
        if not line.strip():
            continue
        try:
            line.encode("utf-8")
            fields = record_from_obj(json.loads(line))
        except (ValueError, TypeError, RecursionError):
            malformed += 1
            continue
        if fields[0] in seen:
            duplicates += 1
            continue
        seen.add(fields[0])
        records.append(fields)
    return records, malformed, duplicates


def record_to_json(record) -> str:
    """One-line JSON form of any object with the ``FIELDS`` attributes;
    optional fields are omitted when unset."""
    obj = {
        "tweet_id": record.tweet_id,
        "author_id": record.author_id,
        "timestamp": record.timestamp,
        "article_id": record.article_id,
    }
    for key in ("retweet_of", "quote_of", "reply_to"):
        value = getattr(record, key)
        if value is not None:
            obj[key] = value
    if record.mentions:
        obj["mentions"] = list(record.mentions)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
