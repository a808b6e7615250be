"""Bicriteria shortest s-t path plugin.

Label-setting search (Dijkstra, valid because combined weights are
nonnegative) over the instance's scaled int weights (``ScaledWeights``),
exact.  Each step takes the least (distance, node) label among the
reached, unvisited nodes with one ``min`` over them in index order.  All
tie breaks are by node or edge index, so runs are reproducible.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

from ..core import Bounds, ProblemAdapter, SolutionRecord, check_weight
from ..errors import Unreachable
from .graphs import BiweightedGraph, cost_bounds


def dijkstra_run(adjacency, source, sink, values):
    """Shortest source-sink path over int edge values, as a tuple of edge indices.

    ``adjacency`` lists each node's (edge index, other endpoint) pairs in
    edge order.  A node's label is the int tuple (distance, node), ordered
    by distance, then node, and it is replaced only on strict improvement.
    Each step scans the frontier, the reached and unvisited nodes, in index
    order and keeps the least label.  Labels are distinct per node, so the
    least one is unique, and a binary heap would settle the nodes in the
    same order with the same predecessors (ROADMAP item 2).
    """
    best = [None] * len(adjacency)
    pred = [None] * len(adjacency)
    visited = [False] * len(adjacency)
    best[source] = (0, source)
    frontier = [source]
    while frontier:
        entry = min(map(best.__getitem__, frontier))
        current = entry[1]
        frontier.remove(current)
        visited[current] = True
        if current == sink:
            break
        for idx, other in adjacency[current]:
            if visited[other]:
                continue
            candidate = (entry[0] + values[idx], other)
            if best[other] is None:
                insort(frontier, other)
            elif not candidate < best[other]:
                continue
            best[other] = candidate
            pred[other] = (idx, current)
    if best[sink] is None:
        raise Unreachable(f"no path from {source} to {sink}")
    path = []
    node = sink
    while node != source:
        idx, prev = pred[node]
        path.append(idx)
        node = prev
    return tuple(reversed(path))


def sp_oracle(graph: BiweightedGraph, gamma) -> SolutionRecord:
    """Exact shortest ``graph.source``-``graph.sink`` path under edge weight w1 + gamma*w2."""
    gamma = check_weight(gamma)
    token = dijkstra_run(graph.adjacency, graph.source, graph.sink, graph.scaled.combined(gamma))
    return SolutionRecord(token=token, image=graph.scaled.image(token), produced_at=gamma)


class ShortestPathAdapter(ProblemAdapter):
    """Adapter for bicriteria shortest-path instances (exact oracle)."""

    # perfbench's tracer wraps this name by lookup; drop it with ROADMAP item 4.
    run_parametric = None

    def alpha(self) -> Fraction:
        return Fraction(1)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return sp_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        # A simple path uses at least one edge and each edge at most once.
        return cost_bounds(instance.scaled, instance.relaxed)
