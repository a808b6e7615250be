"""Bicriteria minimum-weight vertex cover plugin.

The weighted-sum oracle is the local-ratio 2-approximation: walk the edges,
subtract the smaller residual combined weight from both endpoints, and
take every zero-residual vertex.  The cover's combined weight is at most
twice the minimum combined weight over all covers.

Local ratio is written once, over the instance's scaled int weights
(``ScaledWeights``) and a comparator: each residual is the linear form
c + s*gamma, kept as an int constant and an int slope, and every
comparison asks for the sign of one such form's (c, s).  The concrete
oracle answers at its one gamma; ``run_parametric`` passes the comparator
of a symbolic search, so the cover depends on gamma only through the
signs of linear forms, and no run builds an object per residual update.
``sweep.solve_grid`` uses that to walk the weight grid symbolically: one
run covers a whole range of grid indices and is split only where a
comparison's critical weight falls inside it, so it makes one run per
range of equal answers instead of one call per grid weight.
"""

from __future__ import annotations

from fractions import Fraction

from ..core import (
    Bounds,
    ParametricAdapter,
    SolutionRecord,
    check_weight,
    ratio_of,
    sign_at,
)
from .graphs import VertexWeightedGraph, cost_bounds


def local_ratio_run(graph: VertexWeightedGraph, compare) -> frozenset:
    """Local ratio over the residuals W1 + gamma*W2, every comparison through ``compare``.

    A residual is kept as its constant and its slope, two int lists, and
    ``compare(c, s)`` gives the sign of c + s*gamma.  Ties follow Python's
    ``min``: the residual of ``v`` is taken only when it is strictly below
    that of ``u``.
    """
    constant, slope = list(graph.scaled.first), list(graph.scaled.second)
    for u, v in graph.edges:
        x = v if compare(constant[v] - constant[u], slope[v] - slope[u]) < 0 else u
        c, s = constant[x], slope[x]
        constant[u] -= c
        constant[v] -= c
        slope[u] -= s
        slope[v] -= s
    return frozenset(v for v in range(graph.node_count) if compare(constant[v], slope[v]) == 0)


def vc_oracle(graph: VertexWeightedGraph, gamma) -> SolutionRecord:
    """Cover whose combined weight is within factor 2 of the minimum."""
    gamma = check_weight(gamma)
    at = ratio_of(gamma)
    token = local_ratio_run(graph, lambda c, s: sign_at(c, s, at))
    return SolutionRecord(token=token, image=graph.scaled.image(token), produced_at=gamma)


class VertexCoverAdapter(ParametricAdapter):
    """Adapter for vertex-cover instances (2-approximate oracle)."""

    def alpha(self) -> Fraction:
        return Fraction(2)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        return vc_oracle(instance, gamma)

    def bounds(self, instance) -> Bounds:
        # A cover of positive weight contains at least one positive vertex.
        return cost_bounds(instance.scaled, instance.relaxed)

    def run_parametric(self, instance, compare):
        """Local ratio with every sign of a residual's linear form decided by ``compare``."""
        token = local_ratio_run(instance, compare)
        return SolutionRecord(token, instance.scaled.image(token))
