"""Bicriteria minimum-weight vertex cover plugin.

The weighted-sum oracle is the local-ratio 2-approximation: walk the edges,
subtract the smaller residual combined weight from both endpoints, and
take every zero-residual vertex.  The cover's combined weight is at most
twice the minimum combined weight over all covers.

Local ratio is written once, over a comparator: the concrete oracle runs
it on the instance's scaled int weights (``ScaledWeights``) at one gamma,
and ``run_parametric`` on ``LinearValue`` residuals built from the same
ints, where the cover depends on gamma only through the signs of linear
forms.  ``sweep.solve_grid`` uses that to walk the weight grid
symbolically: one run covers a whole range of grid indices and is split
only where a comparison's critical weight falls inside it, so it makes one
run per range of equal answers instead of one call per grid weight.
"""

from __future__ import annotations

from fractions import Fraction

from ..core import Bounds, CostPair, ParametricAdapter, SolutionRecord, check_weight
from ..errors import InfeasibleToken
from .graphs import VertexWeightedGraph, cost_bounds, three_way


def local_ratio_run(graph: VertexWeightedGraph, values, compare) -> frozenset:
    """Local ratio over arbitrary vertex values, every comparison through ``compare``.

    Ties follow Python's ``min``: the residual of ``v`` is taken only when
    it is strictly below that of ``u``.
    """
    residual = list(values)
    for u, v in graph.edges:
        delta = residual[v] if compare(residual[v], residual[u]) < 0 else residual[u]
        residual[u] -= delta
        residual[v] -= delta
    zero = values[0] - values[0]  # the zero of the values' own type
    return frozenset(v for v in range(graph.node_count) if compare(residual[v], zero) == 0)


def vc_oracle(graph: VertexWeightedGraph, gamma) -> SolutionRecord:
    """Cover whose combined weight is within factor 2 of the minimum."""
    gamma = check_weight(gamma)
    token = local_ratio_run(graph, graph.scaled.combined(gamma), three_way)
    return SolutionRecord(token=token, image=graph.scaled.image(token), produced_at=gamma)


class VertexCoverAdapter(ParametricAdapter):
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
        return instance.scaled.image(token)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return vc_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        # A cover of positive weight contains at least one positive vertex.
        return cost_bounds(instance.scaled, instance.relaxed)

    def run_parametric(self, instance, compare):
        """Local ratio over the instance's scaled weights as ``LinearValue``s: int residuals."""
        token = local_ratio_run(instance, instance.scaled.linear, compare)
        return SolutionRecord(token, instance.scaled.image(token))
