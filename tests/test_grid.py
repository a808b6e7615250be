"""``core.Grid`` against the grid code it replaced, kept in tests/_suite.py.

The references square the base afresh in every search and build the
weights and range ends with Fraction arithmetic; the grid shares one
table of squares per query and works on int pairs.  Both must give the
same weights, indices, equality flags and ranges.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import (
    build_suite,
    reference_climb,
    reference_covering_range,
    reference_grid_index,
    reference_grid_index_between,
    reference_pow_one_plus_eps,
)
from bicrit.core import Grid, as_grid, ratio_of
from bicrit.pareto import approximate_pareto
from bicrit.sweep import BudgetQuery, covering_range, solve_budget_sweep

EPSILONS = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(7, 9),
            Fraction(1, 44), Fraction(1, 1000)]


def _reach(eps, bits) -> int:
    """An index whose weight's int pair has about ``bits`` bits, and at least 40."""
    return max(bits // (eps.numerator + eps.denominator).bit_length(), 40)


def _values(rng, eps, bits):
    """Targets for the searches: random rationals, exact grid weights and their neighbours."""
    top = 1 << bits
    for _ in range(12):
        yield Fraction(rng.randint(1, top), rng.randint(1, top))
    reach = _reach(eps, bits)
    for i in [-reach, reach] + [rng.randint(-reach, reach) for _ in range(4)]:
        weight = reference_pow_one_plus_eps(eps, i)
        yield weight
        yield weight + Fraction(1, top)
        yield weight * Fraction(top - 1, top)


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
@pytest.mark.parametrize("bits", [20, 3000], ids=["small", "long"])
class TestAgainstTheReference:
    def test_weights(self, eps, bits):
        rng = random.Random(f"weights/{eps}/{bits}")
        grid = Grid(eps)
        reach = _reach(eps, bits)
        for i in [0, 1, -1, reach, -reach] + [rng.randint(-reach, reach) for _ in range(20)]:
            weight = grid.weight(i)
            assert weight == reference_pow_one_plus_eps(eps, i)
            assert type(weight) is Fraction

    def test_floor_indices_with_exact_hits_and_negative_indices(self, eps, bits):
        rng = random.Random(f"index/{eps}/{bits}")
        grid = Grid(eps)
        signs = set()
        for value in _values(rng, eps, bits):
            want = reference_grid_index(eps, value)
            n, d = ratio_of(value)
            assert grid.index((n, d)) == want
            assert grid.index((6 * n, 6 * d)) == want  # an unreduced pair places the same
            signs.add((want[0] < 0, want[1]))
        assert {(True, True), (False, True)} <= signs  # exact hits on both sides of 1

    def test_bracketed_searches_with_a_step_cap(self, eps, bits):
        rng = random.Random(f"between/{eps}/{bits}")
        grid = Grid(eps)
        for value in _values(rng, eps, bits):
            k, exact = reference_grid_index(eps, value)
            i, j = k - rng.randint(0, 70), k + (not exact) + rng.randint(0, 70)
            start = ratio_of(reference_pow_one_plus_eps(eps, i))
            ratio = (3 * value.numerator, 3 * value.denominator)
            want = reference_grid_index_between(eps, ratio, i, start, j)
            assert want == (k, exact)
            assert grid.index_between(ratio, i, start, j) == want
            # A cap below the answer stops both galloping searches at the same square.
            for most in (0, 1, 2, rng.randint(0, max(k - i, 0))):
                base = ratio_of(1 + eps)
                assert grid._climb(start, ratio, most) == reference_climb(base, start, ratio, most)

    def test_covering_ranges(self, eps, bits):
        rng = random.Random(f"cover/{eps}/{bits}")
        grid = Grid(eps)
        top = 1 << bits
        for _ in range(12):
            a, b, c, d = (Fraction(rng.randint(1, top), rng.randint(1, top)) for _ in range(4))
            if a / b > c / d:
                a, b, c, d = c, d, a, b
            want = reference_covering_range(eps, eps * a / b, eps * c / d)
            assert covering_range(grid, a, b, c, d) == want
        one = Fraction(1)
        assert covering_range(grid, one, eps, one, eps) == range(0, 1)  # both ends at weight 1


def test_the_grid_checks_eps_once():
    grid = Grid(Fraction(1, 3))
    assert as_grid(grid) is grid
    assert as_grid(Fraction(1, 3)).eps == grid.eps
    for bad in (0, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            Grid(bad)


class Squares(list):
    """A table of squares that records every square appended to it."""

    def __init__(self, table):
        super().__init__(table)
        self.built = []

    def append(self, square):
        self.built.append(square)
        super().append(square)


def test_each_square_is_built_once_per_query(monkeypatch):
    """A Pareto walk and a budget search of one exact instance share one grid's squares."""
    case = next(c for c in build_suite() if c.kind == "mst" and not c.instance.relaxed)
    eps = Fraction(1, 44)
    budget = BudgetQuery(case.budgets[len(case.budgets) // 2], eps)
    grid = budget.weights
    grid._squares = table = Squares(grid._squares)
    climbs = []
    climb = Grid._climb

    def counted(self, start, target, most):
        climbs.append(len(table))
        return climb(self, start, target, most)

    monkeypatch.setattr(Grid, "_climb", counted)

    def query():
        approximate_pareto(case.adapter, case.instance, grid)
        solve_budget_sweep(case.adapter, case.instance, budget)

    query()
    base = ratio_of(1 + eps)
    assert table[0] == base
    for k, square in enumerate(table[1:]):
        assert square == (table[k][0] ** 2, table[k][1] ** 2)  # base**(2**(k+1)), in order
    assert table.built == table[1:]  # every square was built once, and kept
    assert len(climbs) > 2 and any(depth > 1 for depth in climbs[1:])  # later climbs reused them
    built = len(table.built)
    query()
    assert len(table.built) == built  # the same searches again build no square
