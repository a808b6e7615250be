"""Concrete problem plugins realizing the adapter contract."""

from __future__ import annotations

from .adversary import adversarial_wrap
from .graphs import BiweightedGraph, VertexWeightedGraph
from .min_cut import MinCutAdapter, cut_oracle
from .mst import MstAdapter, mst_oracle, mst_parametric_run
from .shortest_path import ShortestPathAdapter, sp_oracle, sp_parametric_run
from .vertex_cover import VertexCoverAdapter, vc_oracle

_ADAPTERS = {
    "mst": MstAdapter(),
    "path": ShortestPathAdapter(),
    "cut": MinCutAdapter(),
    "vc": VertexCoverAdapter(),
}


def adapter_for(instance):
    """The stateless adapter matching an instance's problem kind."""
    return _ADAPTERS[instance.kind]


__all__ = [
    "BiweightedGraph",
    "VertexWeightedGraph",
    "MstAdapter",
    "ShortestPathAdapter",
    "MinCutAdapter",
    "VertexCoverAdapter",
    "adapter_for",
    "adversarial_wrap",
    "mst_oracle",
    "mst_parametric_run",
    "sp_oracle",
    "sp_parametric_run",
    "cut_oracle",
    "vc_oracle",
]
