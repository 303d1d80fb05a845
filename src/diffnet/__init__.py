"""diffnet: multi-layer Twitter diffusion networks for news classification.

The pipeline runs in five stages, one module each:

- :mod:`diffnet.ingest` parses tweet/label files into per-article cascades,
- :mod:`diffnet.netbuild` turns a cascade into the four directed interaction
  layers (quote, retweet, mention, reply) plus pure-tweet counters,
- :mod:`diffnet.features` reduces each layer to nine global structure
  metrics and assembles the 38-entry article vector,
- :mod:`diffnet.model` holds standardization, L2 logistic regression and
  stratified shuffle-split cross-validation,
- :mod:`diffnet.experiments` adds layer ablations, the single-graph
  baseline, feature rankings (chi-square, KS), bias-restricted training
  and the lifetime-truncation sweep.

:mod:`diffnet.synth` generates labeled synthetic corpora with a
controllable class gap so the whole stack can be exercised without any
private data, and :mod:`diffnet.cli` exposes everything as subcommands of
a single ``diffnet`` executable.
"""

from .graphops import (
    DirectedGraph,
    average_clustering,
    density,
    diameter_undirected,
    main_kcore_number,
    strongly_connected_components,
    structural_virality,
    weakly_connected_components,
)
from .ingest import (
    BIAS_LEFT,
    BIAS_RIGHT,
    BIAS_UNLABELED,
    CLASS_DISINFORMATION,
    CLASS_LABELS,
    CLASS_MAINSTREAM,
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
    write_labels_file,
    write_tweets_file,
)
from .netbuild import (
    LAYER_KINDS,
    LayerGraph,
    MultiLayerNetwork,
    aggregate_layer,
    aggregate_user_count,
    build_network,
    truncate_by_lifetime,
)
from .features import (
    FEATURE_NAMES,
    METRIC_NAMES,
    N_FEATURES,
    ArticleFeatures,
    assemble_vector,
    extract_layer_features,
    featurize,
    featurize_article,
    read_features_file,
    write_features_file,
)
from .model import (
    EvaluationReport,
    FoldMetrics,
    LogisticModel,
    evaluate_split,
    metrics,
    predict_proba,
    rank_auroc,
    size_class_of,
    stratified_shuffle_cv,
    train_logistic,
)
from .experiments import (
    LIFETIME_LADDER,
    SINGLE_LAYER_FEATURE_NAMES,
    bias_restricted_eval,
    chi2_ranking,
    ks_two_sample,
    layer_ablation,
    rank_features_ks,
    single_layer_baseline,
    single_layer_samples,
    temporal_sweep,
)
from .synth import ClassProfile, GeneratorConfig, default_config, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "ArticleCascade",
    "ArticleFeatures",
    "ArticleLabel",
    "BIAS_LEFT",
    "BIAS_RIGHT",
    "BIAS_UNLABELED",
    "CLASS_DISINFORMATION",
    "CLASS_LABELS",
    "CLASS_MAINSTREAM",
    "ClassProfile",
    "CorpusFormatError",
    "DirectedGraph",
    "EvaluationReport",
    "FEATURE_NAMES",
    "FoldMetrics",
    "GeneratorConfig",
    "LAYER_KINDS",
    "LIFETIME_LADDER",
    "LayerGraph",
    "LogisticModel",
    "METRIC_NAMES",
    "MultiLayerNetwork",
    "N_FEATURES",
    "SINGLE_LAYER_FEATURE_NAMES",
    "TweetRecord",
    "aggregate_layer",
    "aggregate_user_count",
    "apply_censoring",
    "assemble_vector",
    "average_clustering",
    "bias_restricted_eval",
    "build_network",
    "chi2_ranking",
    "default_config",
    "density",
    "diameter_undirected",
    "evaluate_split",
    "extract_layer_features",
    "featurize",
    "featurize_article",
    "filter_min_tweets",
    "generate_corpus",
    "group_cascades",
    "ks_two_sample",
    "layer_ablation",
    "load_labels_file",
    "load_tweets_file",
    "main_kcore_number",
    "metrics",
    "parse_labels",
    "parse_records",
    "predict_proba",
    "rank_auroc",
    "rank_features_ks",
    "read_features_file",
    "single_layer_baseline",
    "single_layer_samples",
    "size_class_of",
    "stratified_shuffle_cv",
    "strongly_connected_components",
    "structural_virality",
    "temporal_sweep",
    "train_logistic",
    "truncate_by_lifetime",
    "weakly_connected_components",
    "write_features_file",
    "write_labels_file",
    "write_tweets_file",
]
