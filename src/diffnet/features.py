"""Fixed-length feature encoding of a multi-layer network.

Nine structural metrics per layer, layers in the network's order, then the
pure-tweet count T and pure-author count U. :func:`build_network` gives the
four layers in Q/RT/M/R order, 9*4 + 2 = 38 entries; the merged-graph
baseline is the same encoding over a one-layer network, 9 + 2 = 11. An
empty layer contributes nine zeros.

Features file: CSV with header ``article_id,label,source,bias,n_users``
followed by the 38 feature columns; floats are written with full
round-trip precision.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import graphops
from .ingest import ArticleCascade, ArticleLabel
from .netbuild import (
    LAYER_KINDS,
    LayerGraph,
    MultiLayerNetwork,
    aggregate_user_count,
    build_network,
)

METRIC_NAMES = ("SCC", "LSCC", "WCC", "LWCC", "DWCC", "CC", "KC", "D", "SV")

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{kind}_{metric}" for kind in LAYER_KINDS for metric in METRIC_NAMES
) + ("T", "U")

N_FEATURES = len(FEATURE_NAMES)  # 38

METADATA_COLUMNS = ("article_id", "label", "source", "bias", "n_users")


@dataclass(frozen=True)
class LayerFeatures:
    scc: int
    lscc: int
    wcc: int
    lwcc: int
    dwcc: int
    cc: float
    kc: int
    d: float
    sv: float

    def as_tuple(self) -> tuple[float, ...]:
        return (
            float(self.scc),
            float(self.lscc),
            float(self.wcc),
            float(self.lwcc),
            float(self.dwcc),
            self.cc,
            float(self.kc),
            self.d,
            self.sv,
        )


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
    n_wcc, lwcc_nodes = graphops.largest_wcc(g)
    max_dist, dist_sum = graphops.undirected_distance_stats(g, lwcc_nodes)
    n = len(lwcc_nodes)
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
        values.extend(extract_layer_features(layer).as_tuple())
    values.append(float(net.pure_tweet_count))
    values.append(float(len(net.pure_authors)))
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


def featurize_article(cascade: ArticleCascade) -> ArticleFeatures:
    net = build_network(cascade)
    return ArticleFeatures(
        article_id=cascade.article_id,
        label=cascade.label,
        n_users=aggregate_user_count(net),
        vector=assemble_vector(net),
    )


def featurize(
    cascades: Sequence[ArticleCascade], jobs: int = 1
) -> list[ArticleFeatures]:
    """:func:`featurize_article` over every cascade, in input order.

    Articles are independent, so any jobs count returns the same list. At
    most one worker process per article and per CPU is started, and none
    when that leaves a single worker.
    """
    workers = min(jobs, len(cascades), os.cpu_count() or 1)
    if workers <= 1:
        return [featurize_article(cascade) for cascade in cascades]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(featurize_article, cascades, chunksize=16))


def _header() -> list[str]:
    return list(METADATA_COLUMNS) + list(FEATURE_NAMES)


def write_features_file(path, rows: Iterable[ArticleFeatures]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header())
        for row in sorted(rows, key=lambda r: r.article_id):
            if row.vector.shape != (N_FEATURES,):
                raise ValueError(
                    f"{row.article_id!r}: vector has shape {row.vector.shape}"
                )
            writer.writerow(
                [
                    row.article_id,
                    row.label.class_label,
                    row.label.source,
                    row.label.bias,
                    row.n_users,
                ]
                + [repr(float(v)) for v in row.vector]
            )


def read_features_file(path) -> list[ArticleFeatures]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("features file is empty") from None
        if header != _header():
            raise ValueError("features file header does not match")
        rows = []
        for row in reader:
            if len(row) != len(METADATA_COLUMNS) + N_FEATURES:
                raise ValueError(f"features row has {len(row)} columns")
            article_id, label, source, bias, n_users = row[:5]
            vector = np.array([float(v) for v in row[5:]], dtype=np.float64)
            rows.append(
                ArticleFeatures(
                    article_id=article_id,
                    label=ArticleLabel(article_id, label, source, bias),
                    n_users=int(n_users),
                    vector=vector,
                )
            )
    return rows
