"""Spans and counters around the public functions of each diffnet module.

Nothing inside ``diffnet`` is instrumented. :meth:`Tracer.install` swaps a
timing wrapper in for each traced function under every name a diffnet
module holds it by, so the wrapper is found wherever a caller looks the
function up (``features`` calls ``graphops.density`` through the module,
``experiments`` holds its own reference to ``build_network``).
:meth:`Tracer.uninstall` puts the originals back. Spans stay in memory
until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from diffnet import experiments, features, graphops, ingest, model, netbuild

MODULES = (ingest, netbuild, graphops, features, model, experiments)


def _parse_counts(tracer, result, args):
    tracer.count("ingest.tweets", len(result.records))
    tracer.count("ingest.malformed", result.malformed)
    tracer.count("ingest.duplicates", result.duplicates)


def _network_counts(tracer, net, args):
    for kind, layer in net.layers.items():
        ends = {node for edge in layer.edges for node in edge}
        tracer.count(f"netbuild.nodes.{kind}", len(ends))
        tracer.count(f"netbuild.edges.{kind}", len(layer.edges))


def _distance_counts(tracer, result, args):
    g, members = args[0], args[1]
    n = len(members)
    und = g.undirected_adj()
    und_edges = sum(len(und[v]) for v in members) // 2
    tracer.count("graphops.distance_pairs", n * (n - 1))
    tracer.count("graphops.lwccs", 1)
    # a connected component has a cycle iff it has at least as many edges as nodes
    tracer.count("graphops.cyclic_lwccs", int(und_edges >= n))


def _fit_counts(tracer, fitted, args):
    tracer.count("model.fits", 1)
    tracer.count("model.newton_iters", fitted.n_iterations)
    tracer.count("model.unconverged_fits", int(not fitted.converged))


def _prefix_counts(tracer, truncated, args):
    tracer.count("experiments.sweep_cells", 1)
    tracer.prefixes.add((truncated.article_id, len(truncated.tweets)))


def _vector_counts(tracer, result, args):
    tracer.count("features.networks", 1)


# (module, function name, span name, counter hook)
TRACED = (
    (ingest, "load_tweets_file", "ingest.parse", _parse_counts),
    (ingest, "load_labels_file", "ingest.labels", None),
    (ingest, "group_cascades", "ingest.group", None),
    (ingest, "filter_min_tweets", "ingest.filter", None),
    (netbuild, "build_network", "netbuild.build", _network_counts),
    (netbuild, "aggregate_layer", "netbuild.aggregate", None),
    (netbuild, "aggregate_user_count", "netbuild.aggregate", None),
    (netbuild, "truncate_by_lifetime", "netbuild.truncate", _prefix_counts),
    (graphops, "strongly_connected_components", "graphops.scc", None),
    (graphops, "weakly_connected_components", "graphops.wcc", None),
    (graphops, "undirected_distance_stats", "graphops.distance", _distance_counts),
    (graphops, "average_clustering", "graphops.clustering", None),
    (graphops, "main_kcore_number", "graphops.kcore", None),
    (graphops, "density", "graphops.density", None),
    (features, "featurize_article", "features.featurize", None),
    (features, "assemble_vector", "features.assemble", _vector_counts),
    (features, "extract_layer_features", "features.layer", None),
    (model, "stratified_shuffle_cv", "model.cv", None),
    (model, "train_logistic", "model.train", _fit_counts),
    (experiments, "featurize_cascades", "features.featurize", None),
    (experiments, "single_layer_baseline", "experiments.baseline", None),
    (experiments, "temporal_sweep", "experiments.sweep", None),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.prefixes: set = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrap(self, fn, name, hook):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        per_layer = name == "features.layer"

        def traced(*args, **kwargs):
            label = f"{name}.{args[0].layer_kind}" if per_layer else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook is not None:
                hook(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for home, attr, name, hook in TRACED:
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, hook)
            for module in MODULES:
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        original = netbuild.LayerGraph.to_directed_graph
        self._saved.append((netbuild.LayerGraph, "to_directed_graph", original))
        netbuild.LayerGraph.to_directed_graph = self._wrap(original, "graphops.to_graph", None)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return {
            i: (end - start) - child_time[i]
            for i, (name, start, end, parent) in enumerate(self.spans)
        }

    def totals(self) -> dict[str, float]:
        """Summed duration per span name, counting nested same-name spans once."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            out[name] += end - start
        return out

    def self_by_module(self) -> dict[str, dict[str, float]]:
        """Root span name -> module -> self time of the spans below it."""
        roots: dict[int, int] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            roots[i] = i if parent < 0 else roots[parent]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, self_time in self.self_times().items():
            root_name = self.spans[roots[i]][0]
            module = self.spans[i][0].split(".", 1)[0] if i != roots[i] else "(bench)"
            out[root_name][module] += self_time
        return {root: dict(mods) for root, mods in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                    )
                )
                fh.write("\n")
