"""Bicriteria minimum spanning tree plugin.

Exact weighted-sum oracle (Kruskal with deterministic tie-breaking by edge
index) and parametric execution over symbolic weights.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from ..core import Bounds, CostPair, ParametricAdapter, SolutionRecord, check_weight
from ..errors import DisconnectedGraph, InfeasibleToken
from ..exact_search import LinearValue
from .graphs import (
    BiweightedGraph,
    connected_components,
    cost_bounds,
    fraction_compare,
    sum_image,
    union,
)


def kruskal_run(node_count, endpoints, values, compare) -> frozenset:
    """Kruskal over arbitrary comparable edge values.

    The sort is stable, so edges whose values compare equal keep index
    order; the chosen tree therefore depends only on the comparator's
    outcomes, which is the precondition for running it symbolically.
    """
    order = sorted(
        range(len(endpoints)), key=cmp_to_key(lambda a, b: compare(values[a], values[b]))
    )
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
    weights = graph.weights()
    values = [w.weighted(gamma) for w in weights]
    token = kruskal_run(graph.node_count, graph.endpoints(), values, fraction_compare)
    return SolutionRecord(token=token, image=sum_image(weights, token), produced_at=gamma)


def mst_parametric_run(graph: BiweightedGraph, compare) -> frozenset:
    """Kruskal with every edge-weight comparison routed through ``compare``."""
    values = [LinearValue(w.f1, w.f2) for w in graph.weights()]
    return kruskal_run(graph.node_count, graph.endpoints(), values, compare)


class MstAdapter(ParametricAdapter):
    """Adapter for bicriteria spanning-tree instances (exact oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(1)

    def evaluate(self, instance: BiweightedGraph, token) -> CostPair:
        token = frozenset(token)
        if not all(isinstance(i, int) and 0 <= i < instance.edge_count for i in token):
            raise InfeasibleToken(f"unknown edge index in {token}")
        if len(token) != instance.node_count - 1:
            raise InfeasibleToken("wrong edge count for a spanning tree")
        endpoints = [instance.endpoints()[i] for i in sorted(token)]
        if connected_components(instance.node_count, endpoints) != 1:
            raise InfeasibleToken("edge set does not span the graph")
        return sum_image(instance.weights(), token)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return mst_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        return cost_bounds(instance.weights(), instance.relaxed, instance.node_count - 1)

    def run_parametric(self, instance, compare):
        return mst_parametric_run(instance, compare)
