"""Seeded instance generators and adapter wrappers shared by the tests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from bicrit.core import Bounds, CostPair, ParametricAdapter, ProblemAdapter, grid_index
from bicrit.errors import NoCertificate, ValidationError
from bicrit.oracle import enumerate_all
from bicrit.pareto import ParetoSet, filter_dominated
from bicrit.problems import (
    BiweightedGraph,
    MinCutAdapter,
    MstAdapter,
    ShortestPathAdapter,
    VertexCoverAdapter,
    VertexWeightedGraph,
)


def grid_guarantee(alpha, eps) -> tuple:
    """The README's (alpha*(1+2eps), alpha*(1+2/eps)): sweep, fixed at eps 1, binary, pareto."""
    return alpha * (1 + 2 * eps), alpha * (1 + 2 / Fraction(eps))


def parametric_guarantee(eps) -> tuple:
    """The README's (1+eps, 1+1/eps): the parametric budget search and ``pareto --parametric``."""
    return 1 + eps, 1 + 1 / Fraction(eps)


def dominates(a: CostPair, b: CostPair) -> bool:
    """True iff image a dominates image b: a <= b componentwise and a != b."""
    return a.f1 <= b.f1 and a.f2 <= b.f2 and a != b


def exact_pareto(instance) -> ParetoSet:
    """The exact Pareto curve: the nondominated subset of all solutions."""
    return ParetoSet(tuple(filter_dominated(enumerate_all(instance))), 1, 1)


def _ceil_log(eps, value) -> int:
    """ceil(log_{1+eps}(value)), the grid's ceiling index of ``value``."""
    i, exact = grid_index(eps, value)
    return i + (not exact)


def sweep_call_bound(eps, bounds: Bounds) -> int:
    """Bound ceil(log_{1+eps}(UB(2)/LB(2))) + 2 on grid calls; ``certify`` may add one."""
    return _ceil_log(eps, bounds.ub2 / bounds.lb2) + 2


def pareto_call_bound(eps, bounds: Bounds) -> int:
    """Grid-size bound ceil(log_{1+eps}(UB1*UB2/(LB1*LB2))) + 2."""
    ratio = (bounds.ub1 * bounds.ub2) / (bounds.lb1 * bounds.lb2)
    return _ceil_log(eps, ratio) + 2


def cost_pairs(instance) -> list:
    """The ``CostPair`` of each weight pair (edge, or vertex for vc), built from ``ratios``.

    The reference code's view of the weights: it reads the reduced int
    pairs only, never the plugins' ``scaled`` ints.
    """
    return [CostPair(Fraction(p1, q1), Fraction(p2, q2)) for (p1, q1), (p2, q2) in instance.ratios]


def rand_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.choice((1, 1, 1, 2)))


def rand_pair(rng: random.Random) -> CostPair:
    return CostPair(rand_weight(rng), rand_weight(rng))


def _connected_edges(rng, n, extra):
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, rand_pair(rng)))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rand_pair(rng)))
    return tuple(edges)


def random_mst_instance(rng, n, extra=1) -> BiweightedGraph:
    return BiweightedGraph(n, _connected_edges(rng, n, extra), kind="mst")


def random_path_instance(rng, n, extra=2) -> BiweightedGraph:
    return BiweightedGraph(
        n, _connected_edges(rng, n, extra), kind="path", source=0, sink=n - 1
    )


def random_cut_instance(rng, n, extra=1) -> BiweightedGraph:
    return BiweightedGraph(
        n, _connected_edges(rng, n, extra), kind="cut", source=0, sink=n - 1
    )


def random_relaxed_instance(rng, kind, n):
    """A relaxed ``kind`` instance whose weight components are each 0 with probability 1/3."""

    def pair():
        return CostPair(*(rng.choice((0, 0, 1, 2, 3, Fraction(1, 2))) for _ in range(2)))

    while True:
        try:
            if kind == "vc":
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
                weights = tuple(pair() for _ in range(n))
                return VertexWeightedGraph(n, tuple(edges or [(0, 1)]), weights, relaxed=True)
            edges = [(rng.randrange(v), v, pair()) for v in range(1, n)]
            edges += [(*rng.sample(range(n), 2), pair()) for _ in range(2)]
            ends = {} if kind == "mst" else {"source": 0, "sink": n - 1}
            return BiweightedGraph(n, tuple(edges), kind=kind, relaxed=True, **ends)
        except ValidationError:  # some dimension drew no positive weight
            continue


def random_vc_instance(rng, n) -> VertexWeightedGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    if not edges:
        edges = [(0, 1)]
    weights = tuple(rand_pair(rng) for _ in range(n))
    return VertexWeightedGraph(n, tuple(edges), weights)


class CachingAdapter(ProblemAdapter):
    """Memoizes solve_weighted_sum per weight; counts every invocation.

    The inner adapters are pure, so caching cannot change behavior; the
    invocation counter still sees every call the algorithms make.
    """

    def __init__(self, inner, instance):
        self._inner = inner
        self._instance = instance
        self._memo = {}
        self.invocations = 0

    def alpha(self):
        return self._inner.alpha()

    def evaluate(self, instance, token):
        return self._inner.evaluate(instance, token)

    def bounds(self, instance):
        return self._inner.bounds(instance)

    def solve_weighted_sum(self, instance, gamma):
        self.invocations += 1
        gamma = Fraction(gamma)
        if gamma not in self._memo:
            self._memo[gamma] = self._inner.solve_weighted_sum(instance, gamma)
        return self._memo[gamma]


class CachingParametricAdapter(CachingAdapter, ParametricAdapter):
    """Also counts the symbolic runs, each of which is one oracle call.

    ``solve_grid`` runs an approximate oracle (alpha != 1) symbolically,
    one run per grid range, and ``parametric_search`` takes its master
    run's record as the oracle's answer at the final midpoint.
    """

    def run_parametric(self, instance, compare):
        self.invocations += 1
        return self._inner.run_parametric(instance, compare)


class OncePerWeight(ProblemAdapter):
    """Passes calls on to ``inner``, and fails a second call at the same weight."""

    def __init__(self, inner):
        self._inner = inner
        self.weights = []

    def alpha(self):
        return self._inner.alpha()

    def evaluate(self, instance, token):
        return self._inner.evaluate(instance, token)

    def bounds(self, instance):
        return self._inner.bounds(instance)

    def solve_weighted_sum(self, instance, gamma):
        assert gamma not in self.weights, f"solved twice at {gamma}"
        self.weights.append(gamma)
        return self._inner.solve_weighted_sum(instance, gamma)


def search_outcome(search, adapter, instance, query):
    """A budget search's result, or the records and f1 limit of its NoCertificate."""
    try:
        return search(adapter, instance, query)
    except NoCertificate as exc:
        return "no certificate", exc.records, exc.f1_limit


@dataclass
class Case:
    kind: str
    instance: object
    adapter: object
    raw_adapter: object
    records: list
    budgets: list
    alpha: Fraction


_RAW = {
    "mst": MstAdapter(),
    "path": ShortestPathAdapter(),
    "cut": MinCutAdapter(),
    "vc": VertexCoverAdapter(),
}


def make_case(kind, instance) -> Case:
    raw = _RAW[kind]
    caching = (
        CachingParametricAdapter(raw, instance)
        if isinstance(raw, ParametricAdapter)
        else CachingAdapter(raw, instance)
    )
    records = enumerate_all(instance)
    budgets = sorted({r.image.f1 for r in records})
    return Case(kind, instance, caching, raw, records, budgets, raw.alpha())


def build_suite(seed=20250801):
    """The generated acceptance suite: 220 instances across the four kinds."""
    rng = random.Random(seed)
    cases = []
    for i in range(60):
        cases.append(make_case("mst", random_mst_instance(rng, 3 + i % 6, 1 + i % 2)))
    for i in range(60):
        cases.append(make_case("path", random_path_instance(rng, 3 + i % 6, 2)))
    for i in range(60):
        cases.append(make_case("cut", random_cut_instance(rng, 3 + i % 6, 1 + i % 2)))
    for i in range(40):
        cases.append(make_case("vc", random_vc_instance(rng, 3 + i % 8)))
    return cases


def weighted_minimum(records, gamma) -> Fraction:
    return min(r.image.weighted(gamma) for r in records)
