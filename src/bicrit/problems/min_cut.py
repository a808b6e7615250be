"""Bicriteria minimum s-t cut plugin.

Exact oracle via max-flow (Edmonds-Karp with exact rational capacities) on
the bidirected graph; the returned token is the canonical source side, the
set of nodes residual-reachable from the source.
"""

from __future__ import annotations

from fractions import Fraction

from ..core import Bounds, CostPair, ProblemAdapter, SolutionRecord, check_weight
from ..errors import InfeasibleToken
from .graphs import BiweightedGraph, cost_bounds, sum_image


def edmonds_karp_cut(node_count, endpoints, capacities, source, sink) -> frozenset:
    """Minimum-cut source side under the given arc capacities.

    Parallel edges merge into one capacity per ordered node pair; BFS
    scans nodes in index order, so the augmenting paths and the final
    residual-reachable set are deterministic.
    """
    cap = [[Fraction(0)] * node_count for _ in range(node_count)]
    for (u, v), c in zip(endpoints, capacities):
        cap[u][v] += c
        cap[v][u] += c
    flow = [[Fraction(0)] * node_count for _ in range(node_count)]
    while True:
        parent = [None] * node_count
        parent[source] = source
        queue = [source]
        while queue and parent[sink] is None:
            u = queue.pop(0)
            for v in range(node_count):
                if parent[v] is None and cap[u][v] - flow[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] is None:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            residual = cap[u][v] - flow[u][v]
            bottleneck = residual if bottleneck is None else min(bottleneck, residual)
            v = u
        v = sink
        while v != source:
            u = parent[v]
            flow[u][v] += bottleneck
            flow[v][u] -= bottleneck
            v = u
    reachable = {source}
    queue = [source]
    while queue:
        u = queue.pop(0)
        for v in range(node_count):
            if v not in reachable and cap[u][v] - flow[u][v] > 0:
                reachable.add(v)
                queue.append(v)
    return frozenset(reachable)


def cut_image(graph: BiweightedGraph, token) -> CostPair:
    """Image of the cut with source side ``token``: the edges crossing it."""
    crossing = [i for i, (u, v, _) in enumerate(graph.edges) if (u in token) != (v in token)]
    return sum_image(graph.weights(), crossing)


def cut_oracle(graph: BiweightedGraph, source, sink, gamma) -> SolutionRecord:
    """Exact minimum s-t cut under edge capacity w1 + gamma*w2."""
    gamma = check_weight(gamma)
    capacities = [w.weighted(gamma) for w in graph.weights()]
    token = edmonds_karp_cut(graph.node_count, graph.endpoints(), capacities, source, sink)
    return SolutionRecord(token=token, image=cut_image(graph, token), produced_at=gamma)


class MinCutAdapter(ProblemAdapter):
    """Adapter for bicriteria minimum-cut instances (exact oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(1)

    def evaluate(self, instance: BiweightedGraph, token) -> CostPair:
        token = frozenset(token)
        if not all(isinstance(i, int) and 0 <= i < instance.node_count for i in token):
            raise InfeasibleToken(f"unknown node in {token}")
        if instance.source not in token or instance.sink in token:
            raise InfeasibleToken("a cut keeps the source and excludes the sink")
        return cut_image(instance, token)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return cut_oracle(instance, instance.source, instance.sink, gamma)

    def bounds(self, instance) -> Bounds:
        # A cut with positive cost crosses at least one positive edge.
        return cost_bounds(instance.weights(), instance.relaxed)
