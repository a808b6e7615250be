"""The symbolic grid walk for vertex cover against the per-index walk it replaced."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from _suite import (
    CachingAdapter,
    build_suite,
    random_relaxed_instance,
    random_vc_instance,
)
from bicrit.core import (
    Bounds,
    CostPair,
    Grid,
    ParametricAdapter,
    SolutionRecord,
    grid_index,
    pow_one_plus_eps,
)
from bicrit.errors import NoCertificate
from bicrit.marathe import adversarial_wrap
from bicrit.oracle import enumerate_all
from bicrit.pareto import approximate_pareto, pareto_index_range
from bicrit.problems import VertexCoverAdapter, VertexWeightedGraph, vc_oracle
from bicrit.sweep import (
    BudgetQuery,
    index_range,
    solve_budget_fixed,
    solve_budget_sweep,
    solve_grid,
)


def _per_index_walk(instance, eps, grid):
    """The walk the symbolic one replaced: ``vc_oracle`` at every grid weight."""
    return [vc_oracle(instance, pow_one_plus_eps(eps, i)) for i in grid]


def reference_solve_grid_symbolic(adapter, instance, eps, grid):
    """The walk that the end-sign test replaced: a critical weight per comparison.

    Each comparison with slope s != 0 and a positive critical weight -c/s
    placed that weight on the grid with ``grid_index``, through a cache of
    the weights already placed.
    """
    brackets = {}
    pending = [(grid[0], grid[-1])]
    records = []
    while pending:
        a, b = pending.pop()

        def compare(c, s) -> int:
            nonlocal b
            if s == 0:
                return (c > 0) - (c < 0)
            sign = 1 if s > 0 else -1
            if c * sign >= 0:  # no positive critical weight: d has the sign of s
                return sign
            crit = Fraction(-c, s)
            if crit not in brackets:
                brackets[crit] = grid_index(eps, crit)
            hi, exact = brackets[crit]
            lo = hi + (not exact)
            pieces = (
                (a, min(lo - 1, b), -sign),
                (max(lo, a), min(hi, b), 0),
                (max(hi + 1, a), b, sign),
            )
            (_, b, answer), *rest = [piece for piece in pieces if piece[0] <= piece[1]]
            pending.extend((x, y) for x, y, _ in reversed(rest))
            return answer

        record = adapter.run_parametric(instance, compare)
        records.append(replace(record, produced_at=pow_one_plus_eps(eps, a)))
    return records


def _firsts(records):
    """The first record of each run of equal tokens."""
    return [r for k, r in enumerate(records) if k == 0 or records[k - 1].token != r.token]


class IntegerCover(VertexCoverAdapter):
    """Vertex cover whose symbolic runs check that every compared form is two ints."""

    def run_parametric(self, instance, compare):
        def checked(c, s):
            assert type(c) is int and type(s) is int, (c, s)
            return compare(c, s)

        return super().run_parametric(instance, checked)


def _check_grid(instance, eps, grid):
    """Symbolic records: the reference walk's, and the per-index walk's first of each token run."""
    symbolic = solve_grid(IntegerCover(), instance, eps, grid)
    assert symbolic == reference_solve_grid_symbolic(IntegerCover(), instance, eps, grid)
    reference = _per_index_walk(instance, eps, grid)
    at = {r.produced_at: r for r in reference}
    assert all(at[r.produced_at] == r for r in symbolic)
    assert [r.produced_at for r in symbolic] == sorted(r.produced_at for r in symbolic)
    assert _firsts(symbolic) == _firsts(reference)
    assert len(symbolic) <= len(grid)
    return symbolic


def _vc_suite():
    return [case for case in build_suite() if case.kind == "vc"]


class TestGridRecords:
    def test_acceptance_suite(self):
        for case in _vc_suite():
            bounds = case.raw_adapter.bounds(case.instance)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                _check_grid(case.instance, eps, pareto_index_range(eps, bounds))
                budget = case.budgets[len(case.budgets) // 2]
                _check_grid(case.instance, eps, index_range(eps, budget, bounds))

    def test_random_instances_at_fine_epsilon(self):
        rng = random.Random(83)
        eps = Fraction(1, 50)
        fewer = False
        for _ in range(12):
            inst = random_vc_instance(rng, rng.randint(4, 9))
            grid = pareto_index_range(eps, VertexCoverAdapter().bounds(inst))
            fewer |= len(_check_grid(inst, eps, grid)) < len(grid)
        assert fewer

    def test_relaxed_instances(self):
        rng = random.Random(89)
        for _ in range(16):
            inst = random_relaxed_instance(rng, "vc", rng.randint(2, 7))
            for eps in (Fraction(1), Fraction(1, 4)):
                _check_grid(inst, eps, pareto_index_range(eps, VertexCoverAdapter().bounds(inst)))

    @pytest.mark.parametrize(
        "eps, edges, weights, tie",
        [
            # 1 + 2*gamma = 3 + gamma at gamma = 2 = 2**1: both endpoints join the cover.
            (Fraction(1), ((0, 1),), ((1, 2), (3, 1)), 1),
            # After the first edge vertex 1 keeps 1 + gamma, which meets
            # vertex 2's 3 + gamma/2 at gamma = 4 = 2**2.
            (Fraction(1), ((0, 1), (1, 2)), ((1, 1), (2, 2), (3, Fraction(1, 2))), 2),
            # 1 + 5*gamma = 10 + gamma at gamma = 9/4 = (3/2)**2.
            (Fraction(1, 2), ((0, 1),), ((1, 5), (10, 1)), 2),
        ],
    )
    def test_critical_weight_on_a_grid_weight(self, eps, edges, weights, tie):
        graph = VertexWeightedGraph(len(weights), edges, weights)
        records = _check_grid(graph, eps, range(tie - 3, tie + 4))
        # The tied weight's answer differs from both neighbours', so it is
        # a range of its own.
        produced = [r.produced_at for r in records]
        assert pow_one_plus_eps(eps, tie) in produced
        assert pow_one_plus_eps(eps, tie + 1) in produced
        assert len(records) == 3

    @pytest.mark.parametrize("grid", [range(1, 4), range(-1, 2)], ids=["at_a", "at_b"])
    def test_line_zero_at_an_end_weight(self, monkeypatch, grid):
        # The first comparison's line 2 - gamma is 0 at gamma = 2 = 2**1, the
        # first weight of range(1, 4) and the last of range(-1, 2): neither
        # sign test decides it, so the grid places its critical weight.
        graph = VertexWeightedGraph(2, ((0, 1),), ((1, 2), (3, 1)))
        placed = []
        index_between = Grid.index_between

        def place(weights, ratio, *bracket):
            placed.append(Fraction(*ratio))
            return index_between(weights, ratio, *bracket)

        monkeypatch.setattr(Grid, "index_between", place)
        records = _check_grid(graph, Fraction(1), grid)
        assert placed[0] == 2
        assert Fraction(2) in [r.produced_at for r in records]


class TestConsumers:
    """Sweep, fixed and Pareto results equal those of the per-index walk."""

    def _outcome(self, search, adapter, instance, query):
        try:
            return search(adapter, instance, query)
        except NoCertificate as exc:
            return "no certificate", exc.f1_limit

    def _check(self, instance, eps):
        symbolic = VertexCoverAdapter()
        per_index = CachingAdapter(symbolic, instance)  # not parametric: one call per index
        assert not isinstance(per_index, ParametricAdapter)
        searches = [solve_budget_sweep]
        if eps == 1:
            searches.append(lambda a, inst, q: solve_budget_fixed(a, inst, q.budget))
        budgets = sorted({r.image.f1 for r in enumerate_all(instance)} - {0})
        # Every achievable budget, and one below what the f1 filter can admit.
        for budget in [*budgets, budgets[0] / 8]:
            query = BudgetQuery(budget, eps)
            for search in searches:
                got = self._outcome(search, symbolic, instance, query)
                want = self._outcome(search, per_index, instance, query)
                if want[0] == "no certificate":
                    assert got == want
                else:
                    (record, cert), (want_record, want_cert) = got, want
                    assert record == want_record
                    assert (cert.budget_factor, cert.cost_factor) == (
                        want_cert.budget_factor,
                        want_cert.cost_factor,
                    )
                    assert cert.oracle_calls <= want_cert.oracle_calls
        curve = approximate_pareto(symbolic, instance, eps)
        reference = approximate_pareto(per_index, instance, eps)
        assert curve.records == reference.records
        assert (curve.factor1, curve.factor2) == (reference.factor1, reference.factor2)
        assert curve.oracle_calls <= reference.oracle_calls

    def test_acceptance_suite(self):
        for case in _vc_suite()[::2]:
            for eps in (Fraction(1), Fraction(1, 4)):
                self._check(case.instance, eps)

    def test_relaxed_instances(self):
        rng = random.Random(97)
        for _ in range(8):
            inst = random_relaxed_instance(rng, "vc", rng.randint(2, 6))
            for eps in (Fraction(1), Fraction(1, 4)):
                self._check(inst, eps)


class LineSigns(ParametricAdapter):
    """A symbolic oracle whose answer is the sign of each of its lines c + s*gamma."""

    def __init__(self, lines):
        self.lines = lines

    def alpha(self):
        return Fraction(2)

    def solve_weighted_sum(self, instance, gamma):
        token = tuple((c + s * gamma > 0) - (c + s * gamma < 0) for c, s in self.lines)
        return SolutionRecord(token, CostPair(1, 1), gamma)

    def bounds(self, instance):
        return Bounds(1, 1, 1, 1)

    def run_parametric(self, instance, compare):
        token = tuple(compare(c, s) for c, s in self.lines)
        return SolutionRecord(token, CostPair(1, 1))


@pytest.mark.parametrize(
    "lines",
    [
        # 3 - 2*gamma splits off [1, 3], whose first weight 2 zeroes 2 - gamma,
        # negative at its last weight 8; then the mirror images of both.
        ((3, -2), (2, -1)),
        ((-3, 2), (-2, 1)),
        # -5 + 2*gamma splits off [-3, 1], whose last weight 2 zeroes 2 - gamma; the mirror.
        ((-5, 2), (2, -1)),
        ((5, -2), (-2, 1)),
        # Constants, the zero line, and lines that stay off every grid weight.
        ((5, 0), (0, 0), (0, 3), (-7, 0), (-1, 3), (10, -3)),
    ],
)
def test_every_run_answers_the_signs_on_its_whole_range(lines):
    adapter, eps, grid = LineSigns(lines), Fraction(1), range(-3, 4)
    records = solve_grid(adapter, None, eps, grid)
    assert records == reference_solve_grid_symbolic(adapter, None, eps, grid)
    per_index = [adapter.solve_weighted_sum(None, pow_one_plus_eps(eps, i)) for i in grid]
    assert _firsts(records) == _firsts(per_index)
    assert all(r in per_index for r in records)


def test_adversary_keeps_one_call_per_grid_weight():
    inst = random_vc_instance(random.Random(101), 5)
    adversary = adversarial_wrap(VertexCoverAdapter(), 2, inst)
    assert not isinstance(adversary, ParametricAdapter)
    weights = []
    solve = adversary.solve_weighted_sum
    adversary.solve_weighted_sum = lambda instance, gamma: weights.append(gamma) or solve(
        instance, gamma
    )
    eps = Fraction(1, 4)
    grid = pareto_index_range(eps, adversary.bounds(inst))
    curve = approximate_pareto(adversary, inst, eps)
    assert curve.oracle_calls == len(weights) == len(grid)
    assert sorted(weights) == [pow_one_plus_eps(eps, i) for i in grid]
