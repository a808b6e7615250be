"""Bicriteria shortest s-t path plugin.

Label-setting search (Dijkstra with a linear min-scan, valid because
combined weights are nonnegative), exact and parametric-capable.  All tie
breaks are by node or edge index so runs are reproducible and the
symbolic execution follows the concrete one exactly.
"""

from __future__ import annotations

from fractions import Fraction

from ..core import Bounds, CostPair, ParametricAdapter, SolutionRecord, check_weight
from ..errors import InfeasibleToken, Unreachable
from ..exact_search import LINEAR_ZERO, LinearValue
from .graphs import BiweightedGraph, cost_bounds, fraction_compare, sum_image


def dijkstra_run(node_count, endpoints, source, sink, values, zero, compare):
    """Shortest path over arbitrary addable, comparable edge values.

    Returns the path as a tuple of edge indices from source to sink.
    Node scanning and edge relaxation happen in index order with strict
    improvement, so the result depends only on comparator outcomes.
    """
    adjacency = [[] for _ in range(node_count)]
    for idx, (u, v) in enumerate(endpoints):
        adjacency[u].append((idx, v))
        adjacency[v].append((idx, u))
    dist = [None] * node_count
    dist[source] = zero
    pred = [None] * node_count
    visited = [False] * node_count
    while True:
        current = None
        for node in range(node_count):
            if visited[node] or dist[node] is None:
                continue
            if current is None or compare(dist[node], dist[current]) < 0:
                current = node
        if current is None:
            break
        visited[current] = True
        if current == sink:
            break
        for idx, other in adjacency[current]:
            if visited[other]:
                continue
            candidate = dist[current] + values[idx]
            if dist[other] is None or compare(candidate, dist[other]) < 0:
                dist[other] = candidate
                pred[other] = (idx, current)
    if dist[sink] is None:
        raise Unreachable(f"no path from {source} to {sink}")
    path = []
    node = sink
    while node != source:
        idx, prev = pred[node]
        path.append(idx)
        node = prev
    return tuple(reversed(path))


def sp_oracle(graph: BiweightedGraph, source, sink, gamma) -> SolutionRecord:
    """Exact shortest s-t path under edge weight w1 + gamma*w2."""
    gamma = check_weight(gamma)
    weights = graph.weights()
    values = [w.weighted(gamma) for w in weights]
    token = dijkstra_run(
        graph.node_count, graph.endpoints(), source, sink, values, Fraction(0), fraction_compare
    )
    return SolutionRecord(token=token, image=sum_image(weights, token), produced_at=gamma)


class ShortestPathAdapter(ParametricAdapter):
    """Adapter for bicriteria shortest-path instances (exact oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(1)

    def evaluate(self, instance: BiweightedGraph, token) -> CostPair:
        endpoints = instance.endpoints()
        node = instance.source
        seen = {node}
        for idx in token:
            if not (isinstance(idx, int) and 0 <= idx < instance.edge_count):
                raise InfeasibleToken(f"unknown edge index {idx}")
            u, v = endpoints[idx]
            if node == u:
                node = v
            elif node == v:
                node = u
            else:
                raise InfeasibleToken("edges do not form a walk from the source")
            if node in seen:
                raise InfeasibleToken("path revisits a node")
            seen.add(node)
        if node != instance.sink:
            raise InfeasibleToken("walk does not end at the sink")
        return sum_image(instance.weights(), token)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return sp_oracle(instance, instance.source, instance.sink, gamma)

    def bounds(self, instance) -> Bounds:
        # A simple path uses at least one edge and each edge at most once.
        return cost_bounds(instance.weights(), instance.relaxed)

    def run_parametric(self, instance, compare):
        """Dijkstra with every label comparison routed through ``compare``."""
        values = [LinearValue(w.f1, w.f2) for w in instance.weights()]
        return dijkstra_run(
            instance.node_count,
            instance.endpoints(),
            instance.source,
            instance.sink,
            values,
            LINEAR_ZERO,
            compare,
        )
