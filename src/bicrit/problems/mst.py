"""Bicriteria minimum spanning tree plugin.

Exact weighted-sum oracle: Kruskal, sorting the edges stably by their
scaled int weights (``ScaledWeights``), so equal weights keep edge index
order.  The parametric run is the same Kruskal, sorted through the
comparator: edges i and j compare by the sign of the linear form
(W1[i] - W1[j]) + (W2[i] - W2[j])*gamma, built from the same ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from ..core import Bounds, ParametricAdapter, SolutionRecord, check_weight
from ..errors import DisconnectedGraph
from .graphs import BiweightedGraph, cost_bounds, union


def kruskal_run(node_count, endpoints, key) -> frozenset:
    """Kruskal over the edges ordered by ``key``, a sort key of the edge index.

    The sort is stable, so edges whose keys compare equal keep index
    order; the chosen tree therefore depends only on the keys' comparison
    outcomes, which is the precondition for running it symbolically.
    """
    order = sorted(range(len(endpoints)), key=key)
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
    keys = graph.scaled.combined(gamma)
    token = kruskal_run(graph.node_count, graph.edges, keys.__getitem__)
    return SolutionRecord(token=token, image=graph.scaled.image(token), produced_at=gamma)


class MstAdapter(ParametricAdapter):
    """Adapter for bicriteria spanning-tree instances (exact oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(1)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return mst_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        return cost_bounds(instance.scaled, instance.relaxed, instance.node_count - 1)

    def run_parametric(self, instance, compare):
        """Kruskal with every edge-weight comparison routed through ``compare``."""
        first, second = instance.scaled.first, instance.scaled.second
        key = cmp_to_key(lambda i, j: compare(first[i] - first[j], second[i] - second[j]))
        token = kruskal_run(instance.node_count, instance.edges, key)
        return SolutionRecord(token, instance.scaled.image(token))
