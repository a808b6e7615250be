"""Brute-force ground truth for small instances.

Full solution enumeration, exact Pareto curves, exact budget optima, and
guarantee verification.  Images are computed here by direct weight
summation, independent of the solver plugins, so this module can serve as
the oracle that checks them.  Everything is capped: a truncated oracle is
worse than none, so exceeding a cap raises instead of truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import CostPair, SolutionRecord, rational
from .errors import CapExceeded
from .pareto import ParetoSet, filter_dominated
from .problems.graphs import BiweightedGraph, VertexWeightedGraph


@dataclass(frozen=True)
class EnumerationCap:
    """Hard limits enforced on brute-force enumeration."""

    max_solutions: int = 100_000
    max_nodes: int = 12


DEFAULT_CAP = EnumerationCap()


def _sum_image(weights, indices) -> CostPair:
    f1 = f2 = Fraction(0)
    for i in indices:
        f1 += weights[i].f1
        f2 += weights[i].f2
    return CostPair(f1, f2)


class _CapCounter:
    def __init__(self, cap: EnumerationCap):
        self.left = cap.max_solutions

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise CapExceeded("enumeration exceeded max_solutions")


def _spanning_tree_tokens(graph: BiweightedGraph, counter: _CapCounter):
    n = graph.node_count
    endpoints = graph.endpoints()
    m = len(endpoints)

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def can_connect(parent, start):
        probe = list(parent)
        comps = len({find(probe, x) for x in range(n)})
        for j in range(start, m):
            u, v = endpoints[j]
            ru, rv = find(probe, u), find(probe, v)
            if ru != rv:
                probe[ru] = rv
                comps -= 1
        return comps == 1

    out = []

    def recurse(idx, parent, chosen):
        if len(chosen) == n - 1:
            counter.tick()
            out.append(frozenset(chosen))
            return
        if idx == m or m - idx < (n - 1) - len(chosen):
            return
        if not can_connect(parent, idx):
            return
        u, v = endpoints[idx]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            taken = list(parent)
            taken[ru] = rv
            recurse(idx + 1, taken, chosen + [idx])
        recurse(idx + 1, parent, chosen)

    recurse(0, list(range(n)), [])
    return out


def _simple_path_tokens(graph: BiweightedGraph, counter: _CapCounter):
    adjacency = graph.adjacency
    sink = graph.sink
    out = []
    path = []

    def recurse(node, visited):
        if node == sink:
            counter.tick()
            out.append(tuple(path))
            return
        for idx, other in adjacency[node]:
            if other in visited:
                continue
            path.append(idx)
            recurse(other, visited | {other})
            path.pop()

    recurse(graph.source, {graph.source})
    return out


def _cut_tokens(graph: BiweightedGraph, counter: _CapCounter):
    others = [v for v in range(graph.node_count) if v not in (graph.source, graph.sink)]
    out = []
    for mask in range(1 << len(others)):
        counter.tick()
        side = {graph.source}
        for bit, node in enumerate(others):
            if mask >> bit & 1:
                side.add(node)
        out.append(frozenset(side))
    return out


def _cover_tokens(graph: VertexWeightedGraph, counter: _CapCounter):
    n = graph.node_count
    out = []
    for mask in range(1 << n):
        if all(mask >> u & 1 or mask >> v & 1 for u, v in graph.edges):
            counter.tick()
            out.append(frozenset(v for v in range(n) if mask >> v & 1))
    return out


def enumerate_all(instance, cap: EnumerationCap = DEFAULT_CAP):
    """Every feasible solution of the instance, exactly once, with its image."""
    if instance.node_count > cap.max_nodes:
        raise CapExceeded(
            f"{instance.node_count} nodes exceeds the enumeration cap {cap.max_nodes}"
        )
    counter = _CapCounter(cap)
    if isinstance(instance, VertexWeightedGraph):
        tokens = _cover_tokens(instance, counter)
        weights = instance.vertex_weights
        members = iter
    elif isinstance(instance, BiweightedGraph):
        weights = instance.weights()
        if instance.kind == "mst":
            tokens = _spanning_tree_tokens(instance, counter)
            members = iter
        elif instance.kind == "path":
            tokens = _simple_path_tokens(instance, counter)
            members = iter
        else:
            tokens = _cut_tokens(instance, counter)
            endpoints = instance.endpoints()

            def members(side):
                return (i for i, (u, v) in enumerate(endpoints) if (u in side) != (v in side))
    else:
        raise TypeError(f"cannot enumerate {type(instance).__name__}")
    return [SolutionRecord(token=t, image=_sum_image(weights, members(t))) for t in tokens]


def exact_opt_budget(instance, budget, cap: EnumerationCap = DEFAULT_CAP) -> Optional[Fraction]:
    """Minimum f2 over solutions with f1 <= budget; None when none qualifies."""
    budget = rational(budget)
    values = [r.image.f2 for r in enumerate_all(instance, cap) if r.image.f1 <= budget]
    return min(values) if values else None


def exact_pareto(instance, cap: EnumerationCap = DEFAULT_CAP) -> ParetoSet:
    """The exact Pareto curve: the nondominated subset of all solutions."""
    records = enumerate_all(instance, cap)
    return ParetoSet(tuple(filter_dominated(records)), Fraction(1), Fraction(1))


def verify_budget(record: SolutionRecord, budget, eps, alpha, opt, factors=None) -> bool:
    """Check a budget-run record against the exact optimum, exactly.

    Default factors are (alpha*(1+2*eps), alpha*(1+2/eps)); pass explicit
    ``factors`` to check a variant such as the parametric (1+eps, 1+1/eps).
    """
    budget, eps, alpha, opt = map(rational, (budget, eps, alpha, opt))
    if factors is None:
        factors = (alpha * (1 + 2 * eps), alpha * (1 + 2 / eps))
    budget_factor, cost_factor = (rational(f) for f in factors)
    return record.image.f1 <= budget_factor * budget and record.image.f2 <= cost_factor * opt


def verify_pareto_coverage(approx, all_records, a, b) -> bool:
    """True iff every record in ``all_records`` is (a, b)-covered by ``approx``."""
    a, b = rational(a), rational(b)
    cover = approx.records if isinstance(approx, ParetoSet) else tuple(approx)
    for x in all_records:
        if not any(
            r.image.f1 <= a * x.image.f1 and r.image.f2 <= b * x.image.f2 for r in cover
        ):
            return False
    return True
