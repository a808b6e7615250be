"""Bicriteria minimum-weight vertex cover plugin.

The weighted-sum oracle is the local-ratio 2-approximation: walk the edges,
subtract the smaller residual combined weight from both endpoints, and
take every zero-residual vertex.  The cover's combined weight is at most
twice the minimum combined weight over all covers.
"""

from __future__ import annotations

from fractions import Fraction

from ..core import Bounds, CostPair, ProblemAdapter, SolutionRecord, check_weight
from ..errors import InfeasibleToken
from .graphs import VertexWeightedGraph, cost_bounds, sum_image


def local_ratio_cover(graph: VertexWeightedGraph, gamma) -> frozenset:
    residual = [w.weighted(gamma) for w in graph.vertex_weights]
    for u, v in graph.edges:
        delta = min(residual[u], residual[v])
        residual[u] -= delta
        residual[v] -= delta
    return frozenset(v for v in range(graph.node_count) if residual[v] == 0)


def vc_oracle(graph: VertexWeightedGraph, gamma) -> SolutionRecord:
    """Cover whose combined weight is within factor 2 of the minimum."""
    gamma = check_weight(gamma)
    token = local_ratio_cover(graph, gamma)
    return SolutionRecord(
        token=token, image=sum_image(graph.vertex_weights, token), produced_at=gamma
    )


class VertexCoverAdapter(ProblemAdapter):
    """Adapter for vertex-cover instances (2-approximate oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(2)

    def evaluate(self, instance: VertexWeightedGraph, token) -> CostPair:
        token = frozenset(token)
        if not all(isinstance(v, int) and 0 <= v < instance.node_count for v in token):
            raise InfeasibleToken(f"unknown vertex in {token}")
        for u, v in instance.edges:
            if u not in token and v not in token:
                raise InfeasibleToken(f"edge ({u},{v}) is uncovered")
        return sum_image(instance.vertex_weights, token)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return vc_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        # A cover of positive weight contains at least one positive vertex.
        return cost_bounds(instance.vertex_weights, instance.relaxed)
