"""Brute-force ground truth for small instances.

Full solution enumeration, token checks, exact budget optima and
guarantee verification.  The module imports nothing from the package but
``core``, ``errors`` and its enumerators, ``enumeration``, which imports
nothing, so it shares no code with the algorithms it checks: each check
takes the factors and the records it checks from its caller, and the
instance's ``kind`` picks the enumerator and the token check.
``_scaled_weights`` scales the weight ratios to ints over D, the lcm of
their denominators, never reading the plugins' ``ScaledWeights``, and
every image is summed from those ints.  The sums ride along on each
enumerator's walk, and a cut side's are updated from the previous
side's, so a solution costs its step of the walk and no more.  Only
``enumerate_all`` turns the walk's keys into tokens and builds a record
per solution; ``exact_opt_budget`` and ``verify_pareto_by_enumeration``
fold the sums and build neither.  ``token_image`` checks by this
module's own definitions that a token is a solution and re-derives its
image, in linear time at any size; both verdicts run its check on every
record they check, under one scaling per verdict.  The module holds only
what a verdict trusts: the worst-case adversary of the reproductions and
negative tests is ``marathe.adversarial_wrap``.

Everything is capped, and a truncated oracle is worse than none, so
exceeding a cap raises.  ``check_node_cap`` runs before anything is
enumerated; the CLI also calls it right after ingest, before any oracle
call.
``MAX_SOLUTIONS`` bounds the work for every kind, because the enumerators
extend only partial solutions that lead to a solution (see
``enumeration``).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import ceil, lcm
from typing import Optional

from .core import CostPair, SolutionRecord, rational
from .enumeration import _covers, _cuts, _reach, _simple_paths, _spanning_trees
from .errors import CapExceeded, InfeasibleToken

# Hard limits on brute-force enumeration, read at each call.
MAX_NODES = 12
MAX_SOLUTIONS = 100_000


def _crossing(edges, side) -> list:
    """Indices of the edges with one end in the node mask ``side``."""
    return [i for i, (u, v) in enumerate(edges) if (side >> u ^ side >> v) & 1]


_ENUMERATORS = {"mst": _spanning_trees, "path": _simple_paths, "cut": _cuts, "vc": _covers}


def _mask_nodes(mask) -> frozenset:
    # A frozenset copied from a set gets a compact table; one grown from an iterable may not.
    return frozenset({v for v in range(mask.bit_length()) if mask >> v & 1})


# The token of each enumerator's key: a path's edge tuple is its own token.
_TOKENS = {"mst": frozenset, "path": tuple, "cut": _mask_nodes, "vc": _mask_nodes}


def _indices(token, count):
    """``token``, once each member is an int in range(count); raises InfeasibleToken if not."""
    if not all(isinstance(i, int) and 0 <= i < count for i in token):
        raise InfeasibleToken(f"{token!r} holds an index outside range({count})")
    return token


def _node_mask(graph, token) -> int:
    return sum(1 << v for v in set(_indices(token, graph.node_count)))


def _tree_edges(graph, token) -> list:
    """A spanning tree's edges: n-1 of them that reach every node."""
    n, chosen = graph.node_count, _indices(token, len(graph.edges))
    neighbours = [0] * n
    for u, v in map(graph.edges.__getitem__, chosen):
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    if len(chosen) != n - 1 or _reach(neighbours, 0) != (1 << n) - 1:
        raise InfeasibleToken(f"{token!r} is not a spanning tree")
    return chosen


def _path_edges(graph, token) -> list:
    """A simple source-sink path's edges, in walk order."""
    path, node = _indices(token, len(graph.edges)), graph.source
    visited = 1 << node
    for idx in path:
        u, v = graph.edges[idx]
        other = u + v - node  # the edge's other end, when node is one of its ends
        if node not in (u, v) or visited >> other & 1:
            raise InfeasibleToken(f"edge {idx} does not extend a simple path")
        node, visited = other, visited | 1 << other
    if node != graph.sink:
        raise InfeasibleToken(f"the path ends at node {node}, not at the sink")
    return path


def _cut_edges(graph, token) -> list:
    """The edges crossing a cut, given by its source side."""
    side = _node_mask(graph, token)
    if not side >> graph.source & 1 or side >> graph.sink & 1:
        raise InfeasibleToken("a cut side holds the source and not the sink")
    return _crossing(graph.edges, side)


def _cover_nodes(graph, token) -> list:
    """A vertex cover's nodes: every edge has an end among them."""
    cover = _node_mask(graph, token)
    if any(not (cover >> u | cover >> v) & 1 for u, v in graph.edges):
        raise InfeasibleToken("an edge has no end in the cover")
    return [v for v in range(graph.node_count) if cover >> v & 1]


_TOKEN_CHECKS = {"mst": _tree_edges, "path": _path_edges, "cut": _cut_edges, "vc": _cover_nodes}


def check_node_cap(instance) -> None:
    """Raise ``CapExceeded`` if the instance has more than ``MAX_NODES`` nodes."""
    if instance.node_count > MAX_NODES:
        raise CapExceeded(f"{instance.node_count} nodes exceeds the enumeration cap {MAX_NODES}")


def _scaled_weights(instance):
    """(D, first, second): D the lcm of every weight denominator, the weights times D as ints."""
    ratios = instance.ratios  # ((p1, q1), (p2, q2)) per edge or vertex weight
    # A list, not a generator: a tuple built from a generator grows by resizing, and
    # the freed tuples of each size wait in CPython's free lists for a full collection.
    scale = lcm(*[q for pair in ratios for _, q in pair])
    first = [p * (scale // q) for (p, q), _ in ratios]
    second = [p * (scale // q) for _, (p, q) in ratios]
    return scale, first, second


def _solutions(instance, first, second):
    """Yield (key, D*f1, D*f2) per feasible solution, in enumeration order.

    ``first`` and ``second`` are the weights of ``_scaled_weights``; the
    key is the enumerator's (see ``enumeration``).  The node cap is checked
    before anything is enumerated; ``MAX_SOLUTIONS`` as the solutions come.
    """
    check_node_cap(instance)
    solutions = _ENUMERATORS[instance.kind](instance, first, second)
    yield from islice(solutions, MAX_SOLUTIONS)
    for _ in solutions:
        raise CapExceeded("enumeration exceeded max_solutions")


def enumerate_all(instance):
    """Every feasible solution of the instance, exactly once, with its image."""
    scale, first, second = _scaled_weights(instance)
    token = _TOKENS[instance.kind]
    return [
        SolutionRecord(token(key), CostPair(Fraction(s1, scale), Fraction(s2, scale)))
        for key, s1, s2 in _solutions(instance, first, second)
    ]


def token_image(instance, token):
    """(D, D*f1, D*f2): a solution token's image as ints over D; raises InfeasibleToken if not."""
    return _token_image(instance, token, _scaled_weights(instance))


def _token_image(instance, token, scaling) -> tuple:
    """``token_image`` under ``scaling``, ``_scaled_weights``'s (D, first, second)."""
    scale, first, second = scaling
    members = _TOKEN_CHECKS[instance.kind](instance, token)
    return scale, sum(map(first.__getitem__, members)), sum(map(second.__getitem__, members))


def _tokens_hold(instance, records, scaling) -> bool:
    """True iff each record's token is a solution with the record's image, compared on ints.

    ``scaling`` is the verdict's one ``_scaled_weights``, (D, first, second).
    """
    for record in records:
        try:
            d, s1, s2 = _token_image(instance, record.token, scaling)
        except InfeasibleToken:
            return False
        f1, f2 = record.image.f1, record.image.f2
        if s1 * f1.denominator != f1.numerator * d or s2 * f2.denominator != f2.numerator * d:
            return False
    return True


def exact_opt_budget(instance, budget) -> Optional[Fraction]:
    """Minimum f2 over solutions with f1 <= budget; None when none qualifies.

    D*f1 is an int, so f1 <= budget exactly when D*f1 <= floor(D*budget).
    """
    budget = rational(budget)
    scale, first, second = _scaled_weights(instance)
    limit = budget.numerator * scale // budget.denominator
    best = None
    for _, s1, s2 in _solutions(instance, first, second):
        if s1 <= limit and (best is None or s2 < best):
            best = s2
    return None if best is None else Fraction(best, scale)


def verify_budget(instance, record: SolutionRecord, budget, opt, factors) -> bool:
    """True iff the token has the record's image, f1 <= budget_factor*B, f2 <= cost_factor*OPT(B).

    ``factors`` is (budget_factor, cost_factor), the guarantee to check.
    ``opt`` is OPT(B), or None when no solution meets B; then only the f1
    half is checked.
    """
    budget_factor, cost_factor = map(rational, factors)
    within = record.image.f1 <= budget_factor * rational(budget)
    meets = within and (opt is None or record.image.f2 <= cost_factor * rational(opt))
    return meets and _tokens_hold(instance, (record,), _scaled_weights(instance))


def _positive(a, b):
    a, b = rational(a), rational(b)
    if a <= 0 or b <= 0:
        raise ValueError(f"coverage factors must be positive, got {a} and {b}")
    return a, b


def _front(pairs):
    """The staircase of ``pairs``: (firsts, seconds), firsts rising and seconds strictly falling.

    After sorting, a pair is kept iff its second is below every earlier
    one (Kung, Luccio and Preparata, JACM 22(4), 1975).  So the last step
    with first <= x1 holds the least second among all pairs with first <= x1.
    """
    firsts, seconds = [], []
    for first, second in sorted(pairs):
        if not seconds or second < seconds[-1]:
            firsts.append(first)
            seconds.append(second)
    return firsts, seconds


def _reaches(front, x1, x2) -> bool:
    """True iff some pair of the front has first <= x1 and second <= x2."""
    firsts, seconds = front
    i = bisect_right(firsts, x1)
    return i > 0 and seconds[i - 1] <= x2


def verify_pareto_coverage(approx, all_records, a, b) -> bool:
    """True iff every record in ``all_records`` is (a, b)-covered by one in ``approx``.

    ``approx`` is a sequence of records, such as a curve's ``records``.
    Record r covers x iff r.f1 <= a*x.f1 and r.f2 <= b*x.f2, that is iff
    (r.f1/a, r.f2/b) <= (x.f1, x.f2); the factors must be positive.
    """
    a, b = _positive(a, b)
    front = _front((r.image.f1 / a, r.image.f2 / b) for r in approx)
    return all(_reaches(front, x.image.f1, x.image.f2) for x in all_records)


def verify_pareto_by_enumeration(instance, approx, a, b):
    """(verdict, solutions checked): ``verify_pareto_coverage`` against every solution.

    The same check on ints, with no record built: with s1 = D*f1 and
    s2 = D*f2 a solution's int sums, r covers it iff ceil(D*r.f1/a) <= s1
    and ceil(D*r.f2/b) <= s2, and each token must have its record's image.
    Every solution is enumerated and counted, also after the first
    uncovered one, so the caps apply as in ``enumerate_all``.
    """
    a, b = _positive(a, b)
    scaling = scale, first, second = _scaled_weights(instance)
    front = _front((ceil(r.image.f1 * scale / a), ceil(r.image.f2 * scale / b)) for r in approx)
    verdict, checked = _tokens_hold(instance, approx, scaling), 0
    for _, s1, s2 in _solutions(instance, first, second):
        checked += 1
        verdict = verdict and _reaches(front, s1, s2)
    return verdict, checked
