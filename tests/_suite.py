"""Seeded instance generators and adapter wrappers shared by the tests."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from bicrit import exact_search
from bicrit.core import (
    Bounds,
    CostPair,
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    check_epsilon,
    crossing,
    ratio_of,
    rational,
)
from bicrit.errors import ExactOracleRequired, NoCertificate, ValidationError
from bicrit.exact_search import ParametricOutcome
from bicrit.oracle import enumerate_all, token_image
from bicrit.pareto import ParetoSet, filter_dominated
from bicrit.problems import (
    BiweightedGraph,
    MinCutAdapter,
    MstAdapter,
    ShortestPathAdapter,
    VertexCoverAdapter,
    VertexWeightedGraph,
)
from bicrit.sweep import certify, index_range, parametric_factors


def grid_guarantee(alpha, eps) -> tuple:
    """The README's (alpha*(1+2eps), alpha*(1+2/eps)): sweep, fixed at eps 1, binary, pareto."""
    return alpha * (1 + 2 * eps), alpha * (1 + 2 / Fraction(eps))


def parametric_guarantee(eps) -> tuple:
    """The README's (1+eps, 1+1/eps): the parametric budget search and ``pareto --parametric``."""
    return 1 + eps, 1 + 1 / Fraction(eps)


def dominates(a: CostPair, b: CostPair) -> bool:
    """True iff image a dominates image b: a <= b componentwise and a != b."""
    return a.f1 <= b.f1 and a.f2 <= b.f2 and a != b


def image_of(instance, token) -> CostPair:
    """The ground truth's image of ``token``; raises InfeasibleToken when it is no solution."""
    scale, s1, s2 = token_image(instance, token)
    return CostPair(Fraction(s1, scale), Fraction(s2, scale))


def exact_pareto(instance) -> ParetoSet:
    """The exact Pareto curve: the nondominated subset of all solutions."""
    return ParetoSet(tuple(filter_dominated(enumerate_all(instance))), 1, 1)


# The grid code that ``core.Grid`` replaced, kept as the reference of
# tests/test_grid.py and of the reference searches below.


def reference_pow_one_plus_eps(eps, i: int) -> Fraction:
    """Exact (1 + eps)**i for a signed integer exponent."""
    return (1 + rational(eps)) ** i


def reference_grid_index(eps, value) -> tuple:
    """The largest integer i with (1+eps)**i <= value, and whether the two are equal.

    It climbs from index 0 with ``reference_climb`` on 1/value when
    value < 1: the answer is -j when base**j hits 1/value exactly, else
    -(j+1).
    """
    base = 1 + check_epsilon(eps)
    value = rational(value)
    if value <= 0:
        raise ValueError(f"grid_index requires value > 0, got {value}")
    target = value if value >= 1 else 1 / value
    i, exact = reference_climb(ratio_of(base), (1, 1), ratio_of(target), None)
    return (i if value >= 1 else -i - (not exact)), exact


def reference_grid_index_between(eps, ratio: tuple, i: int, start: tuple, j: int) -> tuple:
    """``reference_grid_index`` of n/d, ``ratio`` = (n, d), climbing from i's pair ``start``."""
    p, q = ratio_of(eps)
    k, exact = reference_climb((q + p, q), start, ratio, j - i)
    return i + k, exact


def reference_climb(base: tuple, start: tuple, target: tuple, most) -> tuple:
    """The largest t >= 0 with start * base**t <= target, and whether the two are equal.

    Galloping search that squares the base afresh on every call and pays
    up to six long multiplications per step.
    """
    (p, q), (a, b), (num, den) = base, target, start
    squares = []
    while (most is None or 1 << len(squares) <= most) and num * p * b <= a * den * q:
        squares.append((p, q))
        p, q = p * p, q * q
    t = 0
    for k in reversed(range(len(squares))):
        p, q = squares[k]
        if num * p * b <= a * den * q:
            num, den = num * p, den * q
            t += 1 << k
    return t, num * b == a * den


def reference_covering_range(eps, lo, hi) -> range:
    """The exponents of the narrowest grid covering [lo, hi], placed by ``reference_grid_index``."""
    i_max, exact = reference_grid_index(eps, hi)
    return range(reference_grid_index(eps, lo)[0], i_max + (not exact) + 1)


def _ceil_log(eps, value) -> int:
    """ceil(log_{1+eps}(value)), the grid's ceiling index of ``value``."""
    i, exact = reference_grid_index(eps, value)
    return i + (not exact)


def sweep_call_bound(eps, bounds: Bounds) -> int:
    """Bound ceil(log_{1+eps}(UB(2)/LB(2))) + 2 on grid calls; ``certify`` may add one."""
    return _ceil_log(eps, bounds.ub2 / bounds.lb2) + 2


def boundary_call_bound(n) -> int:
    """2*ceil(log2(n - 1)) + 2, the exact boundary search's calls on n >= 2 grid weights; 1 for n = 1.

    ``certify`` may add one on a relaxed instance.
    """
    return 2 * (n - 2).bit_length() + 2 if n > 1 else 1


def _least_power(x) -> int:
    """The least j >= 0 with x <= 2**j."""
    j = 0
    while x > Fraction(2) ** j:
        j += 1
    return j


def parametric_call_bound(instance, bounds: Bounds, query) -> int:
    """The parametric search's calls on m weight pairs, known before it runs.

    2 + ceil(log2(m + 1)) + 2*(G + A + 1): the walk solves both ends of the
    weight range and takes at most ceil(log2(m + 1)) crossing steps; the
    safeguard probes at most G = ceil(log2 log2(UB(2)/LB(2))) powers of
    two and A = ceil(log2(3*hi*S**2)) arithmetic midpoints, each taken as
    0 when not positive, one crossing before each and one after the last,
    and one crossing of a short bracket; hi = eps*B/LB(2) and S is the sum
    of the scaled w2.  ``certify`` adds one on a relaxed instance.
    """
    scale = math.lcm(*(q for pair in instance.ratios for _, q in pair))
    total = sum(pair.f2 for pair in cost_pairs(instance)) * scale
    hi = query.eps * query.budget / bounds.lb2
    geometric = 0
    while bounds.ub2 / bounds.lb2 > Fraction(2) ** (2**geometric):
        geometric += 1
    arithmetic = _least_power(3 * hi * total**2)
    steps = _least_power(len(instance.ratios) + 1)
    return 2 + steps + 2 * (geometric + arithmetic + 1) + instance.relaxed


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


@dataclass(frozen=True, slots=True)
class LinearValue:
    """A quantity constant + slope * gamma, linear in the symbolic weight.

    The value type of the symbolic runs before they decided plain int
    forms, kept as the references' values.  Both fields are ints, and
    ``+`` and ``-`` keep them ints.  Any other type, a bool or a Fraction
    included, raises TypeError, and so does adding or subtracting
    anything but a ``LinearValue``.
    """

    constant: int
    slope: int

    def __post_init__(self):
        if type(self.constant) is not int or type(self.slope) is not int:
            raise TypeError(f"LinearValue needs int fields, got {self}")

    def __add__(self, other: "LinearValue") -> "LinearValue":
        if not isinstance(other, LinearValue):
            return NotImplemented
        return LinearValue(self.constant + other.constant, self.slope + other.slope)

    def __sub__(self, other: "LinearValue") -> "LinearValue":
        if not isinstance(other, LinearValue):
            return NotImplemented
        return LinearValue(self.constant - other.constant, self.slope - other.slope)


def linear_values(instance) -> tuple:
    """``LinearValue(W1, W2)`` per weight pair, D times the combined weight, from ``scaled``."""
    scaled = instance.scaled
    return tuple([LinearValue(a, b) for a, b in zip(scaled.first, scaled.second)])


def reference_local_ratio_run(graph: VertexWeightedGraph, values, compare) -> frozenset:
    """Local ratio over arbitrary vertex values, the form it had before it kept int forms.

    ``compare(p, q)`` is a three-way comparison of two values; the
    symbolic run passed ``LinearValue``s, the concrete oracle ints.
    """
    residual = list(values)
    for u, v in graph.edges:
        delta = residual[v] if compare(residual[v], residual[u]) < 0 else residual[u]
        residual[u] -= delta
        residual[v] -= delta
    zero = values[0] - values[0]  # the zero of the values' own type
    return frozenset(v for v in range(graph.node_count) if compare(residual[v], zero) == 0)


def on_differences(compare):
    """A comparator of two ``LinearValue``s p, q: ``compare``'s sign of p - q as (c, s)."""

    def compare_values(p, q):
        d = p - q
        return compare(d.constant, d.slope)

    return compare_values


class ReferenceVertexCover(VertexCoverAdapter):
    """Vertex cover whose symbolic run is local ratio over ``LinearValue`` residuals."""

    def run_parametric(self, instance, compare):
        values = linear_values(instance)
        token = reference_local_ratio_run(instance, values, on_differences(compare))
        return SolutionRecord(token, instance.scaled.image(token))


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
    one run per grid range.
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

    def bounds(self, instance):
        return self._inner.bounds(instance)

    def solve_weighted_sum(self, instance, gamma):
        assert gamma not in self.weights, f"solved twice at {gamma}"
        self.weights.append(gamma)
        return self._inner.solve_weighted_sum(instance, gamma)


def reference_binary(adapter, instance, query):
    """Bisection over the grid for its last index within the f1 limit: the exact searches' reference.

    The loop the exact boundary search replaced.  It returns the record it
    solved at that index, through ``certify``, or raises NoCertificate with
    the records it solved.
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("binary search needs an exact weighted-sum oracle")
    eps, budget = query.eps, query.budget
    rng = index_range(eps, budget, adapter.bounds(instance))
    factors = grid_guarantee(1, eps)
    limit = factors[0] * budget
    lo, hi = rng[0], rng[-1]
    best = None
    probes = []
    while lo <= hi:
        mid = (lo + hi) // 2
        record = adapter.solve_weighted_sum(instance, reference_pow_one_plus_eps(eps, mid))
        probes.append(record)
        if record.image.f1 > limit:
            hi = mid - 1
        else:
            best = record
            lo = mid + 1
    return certify(adapter, instance, probes, best, limit, factors, budget)


# The four hand-written bracket loops that ``core.envelope_walk`` replaced,
# kept as the references of tests/test_envelope_walk.py.


def _reference_solve_at(adapter, instance, eps, i) -> tuple:
    weight = reference_pow_one_plus_eps(eps, i)
    return i, ratio_of(weight), adapter.solve_weighted_sum(instance, weight)


def _reference_crossing_split(eps, left, right) -> int:
    (i, start, a), (j, _, b) = left, right
    if j - i == 2:
        return i + 1
    m, _ = reference_grid_index_between(eps, crossing(a.image, b.image), i, start, j)
    return min(max(m, i + 1), j - 1)


def reference_solve_grid(adapter, instance, eps, grid) -> list:
    """``sweep.solve_grid``'s own loop, exact and midpoint branches: records in index order."""
    exact = adapter.alpha() == 1

    def solve(i):
        return _reference_solve_at(adapter, instance, eps, i)

    done = solve(grid[0])
    records = [done[2]]
    pending = [solve(grid[-1])] if len(grid) > 1 else []
    while pending:
        (left, _, a), (j, _, b) = done, pending[-1]
        if j - left < 2 or (exact and a.image == b.image):
            records.append(b)
            done = pending.pop()
        elif exact:
            pending.append(solve(_reference_crossing_split(eps, done, pending[-1])))
        else:
            pending.append(solve((left + j) // 2))
    return records


def reference_solve_grid_boundary(adapter, instance, eps, grid, limit) -> tuple:
    """``sweep.solve_grid_boundary``'s own loop: (records in call order, the record at i*)."""
    records = []

    def solve(i):
        solved = _reference_solve_at(adapter, instance, eps, i)
        records.append(solved[2])
        return solved

    below = solve(grid[0])
    if below[2].image.f1 > limit:
        return records, None
    above = solve(grid[-1]) if len(grid) > 1 else below
    if above[2].image.f1 <= limit:
        return records, above[2]
    crossings = (grid[-1] - grid[0] - 1).bit_length()
    while above[0] - below[0] > 1:
        crossings -= 1
        if crossings >= 0:
            probe = solve(_reference_crossing_split(eps, below, above))
        else:
            probe = solve((below[0] + above[0]) // 2)
        if probe[2].image.f1 <= limit:
            below = probe
        else:
            above = probe
    return records, below[2]


def reference_solve_all_weights(adapter, instance, lo, hi) -> list:
    """``ProblemAdapter.solve_all_weights``'s own loop: every record solved, in call order."""
    left = adapter.solve_weighted_sum(instance, lo)
    right = adapter.solve_weighted_sum(instance, hi)
    records = [left, right]
    pending = [(left, right)]
    while pending:
        a, b = pending.pop()
        if a.image == b.image:
            continue
        gamma = Fraction(*crossing(a.image, b.image))
        middle = adapter.solve_weighted_sum(instance, gamma)
        records.append(middle)
        if middle.image.weighted(gamma) < a.image.weighted(gamma):
            pending += [(a, middle), (middle, b)]
    return records


def reference_walk_search(adapter, instance, query):
    """``exact_search.parametric_search`` with its own envelope walk and "not strictly below" stop.

    The reference for walks that end within their steps: it returns None
    when ``exact_search.walk_step_budget`` steps leave a bracket that no
    stop rule ends, where the search goes on with its safeguard.  It reads
    the step budget at call time, so a test that patches the step budget
    patches it here too.
    """
    eps, budget = query.eps, query.budget
    bounds = adapter.bounds(instance)
    lo, hi = eps * budget / bounds.ub2, eps * budget / bounds.lb2
    factors = parametric_factors(eps)
    limit = factors[0] * budget
    walk = [adapter.solve_weighted_sum(instance, hi)]
    if walk[0].image.f1 > limit and lo != hi:
        walk.append(adapter.solve_weighted_sum(instance, lo))
    left, right = walk[-1], walk[0]
    picked = None
    if right.image.f1 <= limit:
        picked = right
    elif left.image.f1 <= limit:
        steps = exact_search.walk_step_budget(instance)
        while picked is None:
            gamma = Fraction(*crossing(left.image, right.image))
            if gamma in (left.produced_at, right.produced_at):
                picked = left
                break
            if steps == 0:
                return None
            steps -= 1
            middle = adapter.solve_weighted_sum(instance, gamma)
            walk.append(middle)
            if middle.image.weighted(gamma) == left.image.weighted(gamma):
                picked = left
            elif middle.image.f1 <= limit:
                left = middle
            else:
                right = middle
    record, certificate = certify(adapter, instance, walk, picked, limit, factors, budget)
    return ParametricOutcome(record, certificate, tuple(walk))


def search_outcome(search, adapter, instance, query):
    """A budget search's result, or the records and f1 limit of its NoCertificate."""
    try:
        return search(adapter, instance, query)
    except NoCertificate as exc:
        return "no certificate", exc.records, exc.f1_limit


def check_exact_search(search, adapter, instance, query, walked) -> int:
    """Check an exact budget search against ``walked``, the full grid walk's outcome; return its calls.

    ``walked`` is ``search_outcome``'s result for the walk.  Run with a
    ``OncePerWeight`` adapter, the search must return the walk's image
    and certificate with no more calls, and within ``boundary_call_bound``
    plus ``certify``'s call on a relaxed instance; its record must be
    ``reference_binary``'s.  When no record meets the f1 limit, its
    NoCertificate carries only the record at the grid's first weight, plus
    ``certify``'s call on a relaxed instance.
    """
    eps, budget = query.eps, query.budget
    grid = index_range(eps, budget, adapter.bounds(instance))
    got = search_outcome(search, OncePerWeight(adapter), instance, query)
    if walked[0] == "no certificate":
        first = adapter.solve_weighted_sum(instance, reference_pow_one_plus_eps(eps, grid[0]))
        relaxed_call = walked[1][-1:] if instance.relaxed else ()
        assert got == ("no certificate", (first, *relaxed_call), walked[2])
        return len(got[1])
    (record, certificate), (want_record, want_certificate) = got, walked
    assert record.image == want_record.image
    assert record == search_outcome(reference_binary, adapter, instance, query)[0]
    assert certificate.oracle_calls <= want_certificate.oracle_calls
    assert certificate.oracle_calls <= boundary_call_bound(len(grid)) + instance.relaxed
    assert replace(certificate, oracle_calls=want_certificate.oracle_calls) == want_certificate
    return certificate.oracle_calls


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


def positive_budgets(case):
    """Every positive achievable budget, and one below all of them."""
    budgets = [b for b in case.budgets if b > 0]
    return [*budgets, budgets[0] / 4]


@functools.cache
def exact_cases():
    """Every exact instance of the acceptance suite, then ten relaxed ones of each exact kind."""
    cases = [case for case in build_suite() if case.alpha == 1]
    rng = random.Random(83)
    for kind in ("mst", "path", "cut"):
        for _ in range(10):
            cases.append(make_case(kind, random_relaxed_instance(rng, kind, rng.randint(2, 7))))
    return cases


def _front_instance(rng, kind, n) -> BiweightedGraph:
    """A tree plus n random edges, weights d*10**k (d in 1..9, k in 0..3)."""

    def weight():
        return rng.randint(1, 9) * 10 ** rng.randint(0, 3)

    ends = [(rng.randrange(v), v) for v in range(1, n)]
    ends += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    edges = [(u, v, (weight(), weight())) for u, v in ends]
    terminals = {} if kind == "mst" else {"source": 0, "sink": n - 1}
    return BiweightedGraph(n, edges, kind=kind, **terminals)


@functools.cache
def front_cases():
    """Eight instances of each exact kind whose exact Pareto front has at least four points."""
    rng = random.Random(89)
    cases = []
    for kind in ("mst", "path", "cut"):
        kept = 0
        while kept < 8:
            instance = _front_instance(rng, kind, rng.randint(7, 9))
            if len(exact_pareto(instance).records) >= 4:
                cases.append(make_case(kind, instance))
                kept += 1
    return cases


def front_budgets(case):
    """Each front point's f1, the midpoints between neighbouring ones, and one below all."""
    f1s = sorted({r.image.f1 for r in exact_pareto(case.instance).records})
    return [*f1s, *((a + b) / 2 for a, b in zip(f1s, f1s[1:])), f1s[0] / 4]


def creeping_front(kind, m) -> BiweightedGraph:
    """m + 1 parallel edges from node 0 to node 1, one image each, all on the lower envelope.

    From image j to j + 1, f2 falls by 8**j and f1 rises by 8**j * 4**(j-m+1),
    so their lines cross at 4**(j-m+1); f1 starts at 3 and f2 ends at 1.
    """
    steps = [(Fraction(8) ** j * Fraction(4) ** (j - m + 1), Fraction(8) ** j) for j in range(m)]
    images = [(Fraction(3), 1 + sum(d2 for _, d2 in steps))]
    for d1, d2 in steps:
        images.append((images[-1][0] + d1, images[-1][1] - d2))
    terminals = {} if kind == "mst" else {"source": 0, "sink": 1}
    return BiweightedGraph(2, [(0, 1, pair) for pair in images], kind=kind, **terminals)
