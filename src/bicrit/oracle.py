"""Brute-force ground truth for small instances.

Full solution enumeration, exact Pareto curves, exact budget optima, and
guarantee verification.  Images are computed here by direct weight
summation, independent of the solver plugins, so this module can serve as
the oracle that checks them: each call scales the weights to ints over the
lcm of their denominators with its own code, never the plugins'
``ScaledWeights``, sums every solution's members as ints and builds one
``Fraction`` pair per distinct image.

Everything is capped: a truncated oracle is worse than none, so exceeding
a cap raises instead of truncating.  The node cap is checked before any
work starts.  ``max_solutions`` bounds the work for every kind, because
the enumerators extend only partial solutions that lead to a solution:
spanning trees and simple paths are found by backtracking that prunes
dead branches before it enters them, and every side of a cut is a
solution.  Covers are a scan of the at most 2**12 node subsets that the
node cap allows.  The enumerators keep explicit stacks rather than
recursing, so no edge count reaches the recursion limit and no call
leaves a reference cycle behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


def _reach(neighbours, start, blocked=0) -> int:
    """Bitmask of the nodes reachable from ``start`` avoiding the ``blocked`` mask."""
    seen = frontier = 1 << start
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~(seen | blocked)
        seen |= frontier
    return seen


def _spans(neighbours, forest, full) -> bool:
    """True iff the forest's components joined by ``neighbours`` reach every node."""
    return _reach([a | c for a, c in zip(neighbours, forest)], 0) == full


def _spanning_trees(graph: BiweightedGraph):
    """Yield (edge-index frozenset, edge indices) per spanning tree, include-first DFS order.

    A state is (next edge, forest, chosen edges); the forest is the list
    of per-node component bitmasks.  Every state on the stack extends to a
    spanning tree: the forest plus the edges from the next one on spans the
    graph, and enough of them are left.  Taking the next edge keeps that
    true, so only skipping it needs a check, and only when the edge would
    join two components.

    Forests and suffix rows are lists, not tuples: freed length-n tuples
    pile up in CPython's tuple free lists, which only a full collection
    empties, and on the verify-small benchmark they read as resident memory.
    """
    n = graph.node_count
    endpoints = graph.endpoints()
    m = len(endpoints)
    need = n - 1
    full = (1 << n) - 1
    # suffix[idx][v]: the neighbours of v over edges idx..m-1.
    suffix = [None] * m
    masks = [0] * n
    for idx in range(m - 1, -1, -1):
        u, v = endpoints[idx]
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        suffix[idx] = masks.copy()
    forest = [1 << v for v in range(n)]
    if m < need or not _spans(suffix[0], forest, full):
        return
    stack = [(0, forest, ())]
    while stack:
        idx, forest, chosen = stack.pop()
        u, v = endpoints[idx]
        joins = not forest[u] >> v & 1
        if m - idx > need - len(chosen) and (
            not joins or _spans(suffix[idx + 1], forest, full)
        ):
            stack.append((idx + 1, forest, chosen))
        if joins:
            chosen += (idx,)
            if len(chosen) == need:
                yield frozenset(chosen), chosen
            else:
                merged = forest[u] | forest[v]
                taken = [merged if c & merged else c for c in forest]
                stack.append((idx + 1, taken, chosen))


def _simple_paths(graph: BiweightedGraph):
    """Yield (edge-index tuple, same tuple) per simple source-sink path, adjacency DFS order.

    The walk steps to a neighbour only if the sink is reachable from it
    without revisiting a node, so every partial path it holds ends in a
    solution.
    """
    adjacency = graph.adjacency
    neighbours = [sum(1 << w for w in ws) for ws in graph.neighbours]
    sink = graph.sink
    path = []
    visited = 1 << graph.source

    def frame(node):
        return iter(adjacency[node]), neighbours[node] & _reach(neighbours, sink, visited), node

    stack = [frame(graph.source)]
    while stack:
        edges, live, node = stack[-1]
        for idx, other in edges:
            if live >> other & 1:
                break
        else:
            stack.pop()
            visited ^= 1 << node
            if path:
                path.pop()
            continue
        if other == sink:
            token = (*path, idx)
            yield token, token
            continue
        path.append(idx)
        visited |= 1 << other
        stack.append(frame(other))


def _cuts(graph: BiweightedGraph):
    """Yield (source-side node frozenset, crossing edge indices) per cut, in subset-mask order."""
    others = [v for v in range(graph.node_count) if v not in (graph.source, graph.sink)]
    endpoints = graph.endpoints()
    for mask in range(1 << len(others)):
        # A frozenset copied from a set gets a compact table; one grown from an iterable may not.
        side = {graph.source}
        bits = 1 << graph.source
        for bit, node in enumerate(others):
            if mask >> bit & 1:
                side.add(node)
                bits |= 1 << node
        crossing = [i for i, (u, v) in enumerate(endpoints) if (bits >> u ^ bits >> v) & 1]
        yield frozenset(side), crossing


def _covers(graph: VertexWeightedGraph):
    """Yield (node frozenset, nodes) per vertex cover, in subset-mask order."""
    n = graph.node_count
    edge_masks = [1 << u | 1 << v for u, v in graph.edges]
    for mask in range(1 << n):
        if all(mask & e for e in edge_masks):
            nodes = [v for v in range(n) if mask >> v & 1]
            yield frozenset(nodes), nodes


_ENUMERATORS = {"mst": _spanning_trees, "path": _simple_paths, "cut": _cuts}


def enumerate_all(instance, cap: EnumerationCap = DEFAULT_CAP):
    """Every feasible solution of the instance, exactly once, with its image."""
    if instance.node_count > cap.max_nodes:
        raise CapExceeded(
            f"{instance.node_count} nodes exceeds the enumeration cap {cap.max_nodes}"
        )
    if isinstance(instance, VertexWeightedGraph):
        weights = instance.vertex_weights
        solutions = _covers(instance)
    elif isinstance(instance, BiweightedGraph):
        weights = instance.weights()
        solutions = _ENUMERATORS[instance.kind](instance)
    else:
        raise TypeError(f"cannot enumerate {type(instance).__name__}")
    # D*w1 and D*w2 per weight, D the lcm of every denominator.
    scale = lcm(*(x.denominator for w in weights for x in (w.f1, w.f2)))
    first = [w.f1.numerator * (scale // w.f1.denominator) for w in weights]
    second = [w.f2.numerator * (scale // w.f2.denominator) for w in weights]
    records = []
    images = {}  # (D*f1, D*f2) -> CostPair: records with one image share one object
    for token, members in solutions:
        if len(records) == cap.max_solutions:
            raise CapExceeded("enumeration exceeded max_solutions")
        sums = (sum(map(first.__getitem__, members)), sum(map(second.__getitem__, members)))
        image = images.get(sums)
        if image is None:
            image = images[sums] = CostPair(Fraction(sums[0], scale), Fraction(sums[1], scale))
        records.append(SolutionRecord(token=token, image=image))
    return records


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
        bound1, bound2 = a * x.image.f1, b * x.image.f2
        if not any(r.image.f1 <= bound1 and r.image.f2 <= bound2 for r in cover):
            return False
    return True
