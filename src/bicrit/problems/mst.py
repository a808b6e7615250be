"""Bicriteria minimum spanning tree plugin.

Exact weighted-sum oracle: Kruskal, sorting the edges stably by their
scaled int weights (``ScaledWeights``), so equal weights keep edge index
order.
"""

from __future__ import annotations

from fractions import Fraction

from ..core import Bounds, ProblemAdapter, SolutionRecord, check_weight
from ..errors import DisconnectedGraph
from .graphs import BiweightedGraph, cost_bounds, union


def kruskal_run(node_count, endpoints, keys) -> frozenset:
    """Kruskal over the edges ordered by ``keys``, one sort key per edge index.

    The sort is stable, so edges whose keys are equal keep index order,
    and the chosen tree depends only on the keys' order.
    """
    order = sorted(range(len(endpoints)), key=keys.__getitem__)
    parent = list(range(node_count))
    chosen = []
    for idx in order:
        if union(parent, *endpoints[idx]):
            chosen.append(idx)
            if len(chosen) == node_count - 1:
                break
    if len(chosen) != node_count - 1:
        raise DisconnectedGraph("graph has no spanning tree")
    return frozenset(chosen)


def mst_oracle(graph: BiweightedGraph, gamma) -> SolutionRecord:
    """Exact minimum spanning tree under edge weight w1 + gamma*w2."""
    gamma = check_weight(gamma)
    token = kruskal_run(graph.node_count, graph.edges, graph.scaled.combined(gamma))
    return SolutionRecord(token=token, image=graph.scaled.image(token), produced_at=gamma)


class MstAdapter(ProblemAdapter):
    """Adapter for bicriteria spanning-tree instances (exact oracle)."""

    # perfbench's tracer wraps this name by lookup; drop it with ROADMAP item 4.
    run_parametric = None

    def alpha(self) -> Fraction:
        return Fraction(1)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return mst_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        return cost_bounds(instance.scaled, instance.relaxed, instance.node_count - 1)
