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


def layer(kind, edges=None):
    """The layer of a dict of weighted id pairs, in the dict's order."""
    index = {}
    arcs = {
        (index.setdefault(u, len(index)), index.setdefault(v, len(index))): weight
        for (u, v), weight in (edges or {}).items()
        if u != v
    }
    return LayerGraph(kind, list(index), arcs)
