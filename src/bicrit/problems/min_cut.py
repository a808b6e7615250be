"""Bicriteria minimum s-t cut plugin.

Exact oracle via max-flow: Edmonds-Karp over per-node neighbour lists,
with int capacities, the instance's scaled weights (``ScaledWeights``)
combined at one gamma, on the bidirected graph.  The returned token is the
canonical source side, the set of nodes residual-reachable from the
source.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from ..core import Bounds, ProblemAdapter, SolutionRecord, check_weight
from .graphs import BiweightedGraph, cost_bounds


def edmonds_karp_cut(neighbours, endpoints, capacities, source, sink) -> frozenset:
    """Minimum-cut source side under the given arc capacities.

    ``neighbours`` lists each node's distinct adjacent nodes in index
    order.  Parallel edges merge into one residual capacity per ordered
    node pair, kept in that order, so BFS scans each node's neighbours in
    index order and the augmenting paths and the final residual-reachable
    set are deterministic.
    """
    residual = [dict.fromkeys(adjacent, 0) for adjacent in neighbours]
    for (u, v), c in zip(endpoints, capacities):
        residual[u][v] += c
        residual[v][u] += c

    def reach(stop):
        """BFS parents over positive residual arcs, until ``stop`` is reached."""
        parent = {source: source}
        queue = deque([source])
        while queue and stop not in parent:
            u = queue.popleft()
            for v, left in residual[u].items():
                if left > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    while sink in (parent := reach(sink)):
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
    return frozenset(reach(None))


def cut_oracle(graph: BiweightedGraph, gamma) -> SolutionRecord:
    """Exact minimum ``graph.source``-``graph.sink`` cut under edge capacity w1 + gamma*w2."""
    gamma = check_weight(gamma)
    capacities = graph.scaled.combined(gamma)
    token = edmonds_karp_cut(graph.neighbours, graph.edges, capacities, graph.source, graph.sink)
    crossing = [i for i, (u, v) in enumerate(graph.edges) if (u in token) != (v in token)]
    return SolutionRecord(token=token, image=graph.scaled.image(crossing), produced_at=gamma)


class MinCutAdapter(ProblemAdapter):
    """Adapter for bicriteria minimum-cut instances (exact oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(1)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return cut_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        # A cut with positive cost crosses at least one positive edge.
        return cost_bounds(instance.scaled, instance.relaxed)
