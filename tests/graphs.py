"""Graphs and layers from edges keyed by node id, for the tests.

``DirectedGraph`` and ``LayerGraph`` take labelled arcs only. These build
them the way a layer labels its users: node ids take labels 0..n-1 in
order of first appearance, duplicate arcs collapse and self-loops are
dropped. They are also the oracle for that label order.
"""

from diffnet.graphops import DirectedGraph
from diffnet.netbuild import LayerGraph


def digraph(edges=(), nodes=()):
    """The graph of id pairs ``edges``; ``nodes`` come first, and may add
    isolated nodes."""
    index = {}
    for v in nodes:
        index.setdefault(v, len(index))
    arcs = {
        (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
        for u, v in edges
        if u != v
    }
    return DirectedGraph(list(index), arcs)


def layer(kind, edges=()):
    """The layer of the id pairs ``edges``, in their order."""
    index = {}
    arcs = dict.fromkeys(
        (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
        for u, v in edges
        if u != v
    )
    return LayerGraph(kind, list(index), arcs)
