"""Fixed-length feature encoding of a multi-layer network.

Nine structural metrics per layer, layers in the network's order, then the
pure-tweet count T and pure-author count U. :func:`build_network` gives the
four layers in Q/RT/M/R order, 9*4 + 2 = 38 entries; the merged-graph
baseline is the same encoding over a one-layer network, 9 + 2 = 11. An
empty layer contributes nine zeros.

Features file: CSV with header ``article_id,label,source,bias,n_users``
followed by the 38 feature columns; floats are written with full
round-trip precision. The reader rejects a repeated article, an ``n_users``
that is not a count and a feature that is not a finite number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import graphops
from .ingest import ArticleCascade, ArticleLabel, csv_rows, read_input, write_csv
from .netbuild import (
    LAYER_KINDS,
    LayerGraph,
    MultiLayerNetwork,
    aggregate_user_count,
    build_network,
)


class LayerFeatures(NamedTuple):
    """The nine global metrics of one layer, in feature-vector order."""

    scc: int
    lscc: int
    wcc: int
    lwcc: int
    dwcc: int
    cc: float
    kc: int
    d: float
    sv: float


METRIC_NAMES = tuple(name.upper() for name in LayerFeatures._fields)


def feature_columns(kinds: Iterable[str]) -> tuple[str, ...]:
    """Column names over layers of the given kinds: nine ``KIND_METRIC`` each, then T, U."""
    return tuple(f"{kind}_{metric}" for kind in kinds for metric in METRIC_NAMES) + ("T", "U")


FEATURE_NAMES = feature_columns(LAYER_KINDS)

N_FEATURES = len(FEATURE_NAMES)  # 38

METADATA_COLUMNS = ("article_id", "label", "source", "bias", "n_users")

_HEADER = (*METADATA_COLUMNS, *FEATURE_NAMES)


_EMPTY = LayerFeatures(0, 0, 0, 0, 0, 0.0, 0, 0.0, 0.0)


def extract_layer_features(layer: LayerGraph) -> LayerFeatures:
    """The nine global metrics of one layer; all zeros when the layer is empty.

    DWCC and SV are computed on the largest weakly connected component;
    clustering, k-core and density on the whole layer.
    """
    if layer.is_empty():
        return _EMPTY
    g = layer.to_directed_graph()
    n_scc, sccs = graphops.scc_groups(g)
    n_wcc, c, n = graphops.largest_component(g)
    max_dist, dist_sum = graphops.component_distance_stats(g, c)
    sv = 0.0 if n == 1 else dist_sum / (n * (n - 1))
    return LayerFeatures(
        scc=n_scc,
        lscc=max(map(len, sccs), default=1),
        wcc=n_wcc,
        lwcc=n,
        dwcc=max_dist,
        cc=graphops.average_clustering(g),
        kc=graphops.main_kcore_number(g),
        d=graphops.density(g),
        sv=sv,
    )


def assemble_vector(net: MultiLayerNetwork) -> np.ndarray:
    """Nine entries per layer in network order, then T and U."""
    values: list[float] = []
    for layer in net.layers.values():
        values.extend(extract_layer_features(layer))
    values += (net.pure_tweet_count, len(net.pure_authors))
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class ArticleFeatures:
    """One featurized article: id, label record, user count and feature
    vector; the one row that every experiment and report reads."""

    article_id: str
    label: ArticleLabel
    n_users: int
    vector: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, ArticleFeatures):
            return NotImplemented
        return (
            self.article_id == other.article_id
            and self.label == other.label
            and self.n_users == other.n_users
            and np.array_equal(self.vector, other.vector)
        )


def featurize_network(cascade: ArticleCascade, net: MultiLayerNetwork) -> ArticleFeatures:
    """The row of ``cascade`` read off ``net``, a network built from it: the
    users of its layers and pure tweets, and :func:`assemble_vector`."""
    return ArticleFeatures(
        cascade.article_id, cascade.label, aggregate_user_count(net), assemble_vector(net)
    )


def featurize_article(cascade: ArticleCascade) -> ArticleFeatures:
    return featurize_network(cascade, build_network(cascade))


def featurize(cascades: Sequence[ArticleCascade]) -> list[ArticleFeatures]:
    """:func:`featurize_article` over every cascade, in input order, in the
    calling process."""
    return [featurize_article(cascade) for cascade in cascades]


def write_features_file(path, rows: Iterable[ArticleFeatures]) -> None:
    """A bad vector raises ValueError before the file is opened: no file is written."""
    table = [_HEADER]
    for row in sorted(rows, key=lambda r: r.article_id):
        if row.vector.shape != (N_FEATURES,):
            raise ValueError(f"{row.article_id!r}: vector has shape {row.vector.shape}")
        label = row.label
        table.append([row.article_id, label.class_label, label.source, label.bias,
                      row.n_users, *(repr(float(v)) for v in row.vector)])
    write_csv(path, table)


def read_features_file(path) -> list[ArticleFeatures]:
    return read_input(path, _parse_features, newline="")


def _parse_features(lines: Iterable[str]) -> list[ArticleFeatures]:
    reader = csv_rows(lines, "features")
    try:
        _, header = next(reader)
    except StopIteration:
        raise ValueError("features file is empty") from None
    if tuple(header) != _HEADER:
        raise ValueError("features file header does not match")
    rows = []
    first_line: dict[str, int] = {}
    for line, row in reader:
        if len(row) != len(_HEADER):
            raise ValueError(f"features line {line} has {len(row)} columns")
        article_id, label, source, bias, n_users = row[:5]
        where = f"features line {line}, column"
        if first_line.setdefault(article_id, line) != line:
            raise ValueError(
                f"{where} article_id: {article_id!r} repeats line {first_line[article_id]}"
            )
        count = _parse(int, n_users)
        if count is None or count < 0:
            raise ValueError(f"{where} n_users: {n_users!r} is not a count")
        values = [_parse(float, v) for v in row[5:]]
        for name, text, value in zip(FEATURE_NAMES, row[5:], values):
            if value is None or not math.isfinite(value):
                raise ValueError(f"{where} {name}: {text!r} is not a finite number")
        label_row = ArticleLabel(article_id, label, source, bias)
        vector = np.array(values, dtype=np.float64)
        rows.append(ArticleFeatures(article_id, label_row, count, vector))
    return rows


def _parse(kind, text: str):
    """``kind(text)``, or None where ``text`` does not parse."""
    try:
        return kind(text)
    except ValueError:
        return None
