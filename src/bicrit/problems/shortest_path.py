"""Bicriteria shortest s-t path plugin.

Label-setting search (Dijkstra, valid because combined weights are
nonnegative) over the instance's scaled int weights (``ScaledWeights``),
exact and parametric-capable.  Each step takes the least (distance, node)
label among the reached, unvisited nodes with one ``min`` over them in
index order, so the concrete run compares int tuples only.  All tie breaks
are by node or edge index, so runs are reproducible and the symbolic run,
the same Dijkstra over ints that pack the same weights' constants and
slopes, follows the concrete one exactly.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

from ..core import Bounds, ParametricAdapter, SolutionRecord, check_weight
from ..errors import Unreachable
from .graphs import BiweightedGraph, cost_bounds, keyed_by


def dijkstra_run(adjacency, source, sink, values, label=tuple):
    """Shortest source-sink path over addable edge values, as a tuple of edge indices.

    ``adjacency`` lists each node's (edge index, other endpoint) pairs in
    edge order.  A node's label is ``label((distance, node))``, ordered by
    distance, then node: a plain tuple in the concrete oracle, a
    ``keyed_by(compare, k)`` tuple in the symbolic run.  A label is replaced
    only on strict improvement.  Each step scans the frontier, the reached
    and unvisited nodes, in index order and keeps the least label, so it
    compares each node's distance with the least one before it.  A binary
    heap would compare other pairs; in parametric search a comparison can
    cost an oracle call, and on budget-medium's path instances a heap's
    comparisons cost about 11% more calls than this scan's.  The path
    depends only on comparison outcomes.
    """
    best = [None] * len(adjacency)
    pred = [None] * len(adjacency)
    visited = [False] * len(adjacency)
    best[source] = label((values[0] - values[0], source))  # the zero of the values' type
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
            candidate = label((entry[0] + values[idx], other))
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


class ShortestPathAdapter(ParametricAdapter):
    """Adapter for bicriteria shortest-path instances (exact oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(1)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return sp_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        # A simple path uses at least one edge and each edge at most once.
        return cost_bounds(instance.scaled, instance.relaxed)

    def run_parametric(self, instance, compare):
        """Dijkstra with every label comparison routed through ``compare``.

        Edge i's value is the int ``W1[i] << k | W2[i]``, the linear form
        W1[i] + W2[i]*gamma packed, with k the bit length of the sum of
        every W2.  A label is the sum of the values along a path, and each
        path the run labels is simple: a node is labelled from a settled
        one, whose path holds settled nodes only, so never the unsettled
        node it reaches.  A simple path uses each edge at most once, and
        every W1 and W2 is >= 0, so its W2 part s stays within
        0 <= s < 2**k and never carries into its W1 part c >= 0: the label
        is exactly ``c << k | s``.  ``keyed_by(compare, k)`` unpacks each
        label into its (c, s), so ``compare`` is asked the same forms in
        the same order as by a run over (c, s) pairs.
        """
        scaled = instance.scaled
        k = sum(scaled.second).bit_length()
        values = [a << k | b for a, b in zip(scaled.first, scaled.second)]
        token = dijkstra_run(
            instance.adjacency, instance.source, instance.sink, values, keyed_by(compare, k)
        )
        return SolutionRecord(token, scaled.image(token))
