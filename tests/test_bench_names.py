"""The diffnet names that the benchmark under ``perfbench/`` calls, patches
or reads. ``perfbench/tracing.py`` is loaded by path and left unchanged; a
renamed function fails here rather than only in the benchmark run."""

import importlib.util
from pathlib import Path

from diffnet import experiments, model, netbuild
from diffnet.graphops import DirectedGraph
from diffnet.ingest import ArticleCascade, ArticleLabel, TweetRecord

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cascade():
    tweets = [
        TweetRecord("t1", "u2", 1000, "a1", retweet_of="u1"),
        TweetRecord("t2", "u3", 1001, "a1", reply_to="u2", mentions=("u2", "u4")),
        TweetRecord("t3", "u1", 1002, "a1", quote_of="u3"),
        TweetRecord("t4", "u5", 1003, "a1"),
    ]
    return ArticleCascade.build("a1", tweets, ArticleLabel("a1", "D", "x.org", "left"))


def test_every_traced_name_is_callable():
    tracing = _load_tracing()
    assert len(tracing.TRACED) >= 20
    for module, name, _, _ in tracing.TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert callable(netbuild.LayerGraph.to_directed_graph)


def test_names_the_worker_and_the_hooks_read():
    net = netbuild.build_network(_cascade())
    for layer in net.layers.values():
        for edge in layer.edges:
            assert isinstance(edge, tuple) and len(edge) == 2
            assert all(isinstance(v, str) for v in edge)
    assert set(net.layers["M"].edges) == {("u3", "u2"), ("u3", "u4")}
    assert callable(DirectedGraph.undirected_adj)
    assert callable(experiments.featurize_cascades)
    assert callable(model.LabeledSample)


def test_tracer_installs_counts_and_restores():
    tracing = _load_tracing()
    originals = {name: getattr(module, name) for module, name, _, _ in tracing.TRACED}
    to_graph = netbuild.LayerGraph.to_directed_graph
    tracer = tracing.Tracer()
    tracer.install()
    try:
        experiments.featurize_cascades([_cascade()], jobs=1)
    finally:
        tracer.uninstall()
    assert {name: getattr(module, name) for module, name, _, _ in tracing.TRACED} == originals
    assert netbuild.LayerGraph.to_directed_graph is to_graph
    counts = tracer.counters
    assert counts["features.networks"] == 1
    assert [counts[f"netbuild.nodes.{k}"] for k in netbuild.LAYER_KINDS] == [2, 2, 3, 2]
    assert [counts[f"netbuild.edges.{k}"] for k in netbuild.LAYER_KINDS] == [1, 1, 2, 1]
    assert {"features.featurize", "netbuild.build", "graphops.to_graph"} <= set(tracer.totals())
