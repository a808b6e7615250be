from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from _suite import (
    LinearValue,
    OncePerWeight,
    boundary_call_bound,
    build_suite,
    check_exact_search,
    creeping_front,
    exact_cases,
    front_budgets,
    front_cases,
    grid_guarantee,
    make_case,
    parametric_call_bound,
    parametric_guarantee,
    positive_budgets,
    random_cut_instance,
    random_mst_instance,
    random_path_instance,
    reference_walk_search,
    search_outcome,
)
from bicrit import exact_search
from bicrit.core import (
    CostPair,
    GuaranteeCertificate,
    SolutionRecord,
    pow_one_plus_eps,
    sign_at,
)
from bicrit.errors import ExactOracleRequired, NoCertificate
from bicrit.exact_search import (
    parametric_search,
    solve_budget_binary,
    solve_budget_parametric,
    walk_step_budget,
)
from bicrit.marathe import adversarial_wrap
from bicrit.oracle import enumerate_all, exact_opt_budget, verify_budget
from bicrit.problems import (
    BiweightedGraph,
    MinCutAdapter,
    MstAdapter,
    ShortestPathAdapter,
    VertexCoverAdapter,
)
from bicrit.sweep import (
    BudgetQuery,
    index_range,
    solve_budget_sweep,
    solve_grid,
)


# The search code that ``sweep.certify`` replaced, kept as the reference for
# the differential tests below.


def reference_sweep(adapter, instance, query):
    eps, budget = query.eps, query.budget
    alpha = adapter.alpha()
    records = solve_grid(adapter, instance, eps, index_range(eps, budget, adapter.bounds(instance)))
    budget_factor, cost_factor = grid_guarantee(alpha, eps)
    limit = budget_factor * budget
    qualifying = [r for r in records if r.image.f1 <= limit]
    if not qualifying:
        raise NoCertificate(records, limit)
    best = min(qualifying, key=lambda r: (r.image.f2, r.image.f1))
    certificate = GuaranteeCertificate(
        alpha=alpha,
        budget_factor=budget_factor,
        cost_factor=cost_factor,
        budget=budget,
        oracle_calls=len(records),
    )
    return best, certificate


class TestLinearValue:
    """``_suite.LinearValue``, the references' value type, is exact: int fields, int sums."""

    def test_critical_gamma_examples(self):
        # Two lines cross where their difference c + s*gamma is 0, at -c/s; equal slopes never cross.
        d = LinearValue(2, 3) - LinearValue(3, 1)
        assert Fraction(-d.constant, d.slope) == Fraction(1, 2)
        assert sign_at(d.constant, d.slope, (1, 2)) == 0
        for p, q in ((LinearValue(1, 2), LinearValue(5, 2)), (LinearValue(1, 2), LinearValue(1, 2))):
            assert (p - q).slope == 0

    def test_arithmetic(self):
        v = LinearValue(1, 2) + LinearValue(3, 4)
        assert v == LinearValue(4, 6)
        assert v.constant + Fraction(1, 2) * v.slope == 7
        assert (v - LinearValue(4, 5)).slope == 1

    def test_int_fields_stay_ints(self):
        v = LinearValue(1, 2) + LinearValue(3, 4) - LinearValue(5, 7)
        assert (type(v.constant), type(v.slope)) == (int, int)
        assert v == LinearValue(-1, -1)
        with pytest.raises(TypeError):
            LinearValue(Fraction(1, 2), "3/2")

    def test_floats_and_bools_are_refused(self):
        for bad in ((0.5, 1), (1, 0.5), (True, 1), (1, False), (Fraction(2), 3)):
            with pytest.raises(TypeError):
                LinearValue(*bad)

    def test_sum_and_difference_are_exact_int_linear_values(self):
        big = 3**200
        for v in (LinearValue(big, -2) + LinearValue(1, 5), LinearValue(big, -2) - LinearValue(1, 5)):
            assert type(v) is LinearValue
            assert (type(v.constant), type(v.slope)) == (int, int)
        assert LinearValue(big, -2) + LinearValue(1, 5) == LinearValue(big + 1, 3)
        assert LinearValue(big, -2) - LinearValue(1, 5) == LinearValue(big - 1, -7)

    @pytest.mark.parametrize("other", [(1, 2), 1, Fraction(1, 2), None])
    def test_only_linear_values_add_and_subtract(self, other):
        with pytest.raises(TypeError):
            LinearValue(1, 2) + other
        with pytest.raises(TypeError):
            LinearValue(1, 2) - other
        with pytest.raises(TypeError):
            other + LinearValue(1, 2)

    def test_fields_cannot_be_set(self):
        v = LinearValue(1, 2) - LinearValue(3, 5)
        for name in ("constant", "slope"):
            with pytest.raises(FrozenInstanceError):
                setattr(v, name, 0)
        assert v == LinearValue(-2, -3)

    def test_equal_values_are_equal_and_hash_alike(self):
        built, summed = LinearValue(4, 6), LinearValue(1, 2) + LinearValue(3, 4)
        assert built == summed and hash(built) == hash(summed)
        assert len({built, summed, LinearValue(4, 7)}) == 2
        assert built != (4, 6)

    def test_critical_gamma_is_exact_on_int_fields(self):
        d = LinearValue(2, 3) - LinearValue(3, 1)
        crit = Fraction(-d.constant, d.slope)
        assert crit == Fraction(1, 2) and type(crit) is Fraction
        with pytest.raises(TypeError):
            LinearValue(Fraction(2), 3)


class TestBinarySearch:
    def test_example_instance(self, ex2):
        record, cert = solve_budget_binary(MstAdapter(), ex2, BudgetQuery(Fraction(3), Fraction(1)))
        assert record.image == CostPair(4, 2)
        assert record.image.f1 <= 9
        assert record.image.f2 <= 3 * exact_opt_budget(ex2, Fraction(3))
        assert cert.oracle_calls <= 3

    def test_single_index_grid(self, single_edge):
        # eps*B/lb2 = eps*B/ub2 = 1 is an exact power, so the grid is {0}
        record, cert = solve_budget_binary(
            MstAdapter(), single_edge, BudgetQuery(Fraction(7), Fraction(1))
        )
        assert cert.oracle_calls == 1 and record.image == CostPair(3, 7)

    def test_rejects_approximate_oracles(self, ex1):
        query = BudgetQuery(Fraction(2), Fraction(1))
        with pytest.raises(ExactOracleRequired):
            solve_budget_binary(adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1), ex1, query)
        vc_adapter = VertexCoverAdapter()
        with pytest.raises(ExactOracleRequired):
            solve_budget_binary(vc_adapter, None, query)

    def test_no_certificate_on_infeasible_budget(self, ex1):
        with pytest.raises(NoCertificate):
            solve_budget_binary(MstAdapter(), ex1, BudgetQuery(Fraction(1, 10), Fraction(1)))

    def test_parity_with_sweep_certification_and_call_bound(self):
        rng = random.Random(47)
        adapters = {"mst": MstAdapter(), "path": ShortestPathAdapter()}
        makers = {"mst": random_mst_instance, "path": random_path_instance}
        for kind in ("mst", "path"):
            for _ in range(6):
                inst = makers[kind](rng, rng.randint(3, 5))
                adapter = adapters[kind]
                budgets = sorted({r.image.f1 for r in enumerate_all(inst)})
                for eps in (Fraction(1), Fraction(1, 2)):
                    for budget in budgets:
                        record, cert = solve_budget_binary(
                            adapter, inst, BudgetQuery(budget, eps)
                        )
                        opt = exact_opt_budget(inst, budget)
                        assert verify_budget(inst, record, budget, opt, grid_guarantee(1, eps))
                        grid = len(index_range(eps, budget, adapter.bounds(inst)))
                        assert cert.oracle_calls <= boundary_call_bound(grid)


class TestGridMonotonicity:
    def test_example_instance_grid_is_monotone(self, ex1):
        adapter = MstAdapter()
        grid = index_range(Fraction(1), Fraction(2), adapter.bounds(ex1))
        records = [
            adapter.solve_weighted_sum(ex1, pow_one_plus_eps(Fraction(1), i)) for i in grid
        ]
        for earlier, later in zip(records, records[1:]):
            assert earlier.image.f1 <= later.image.f1
            assert earlier.image.f2 >= later.image.f2

    def test_exact_oracles_are_monotone_along_the_grid(self):
        rng = random.Random(53)
        for _ in range(8):
            inst = random_mst_instance(rng, rng.randint(3, 5))
            adapter = MstAdapter()
            budgets = sorted({r.image.f1 for r in enumerate_all(inst)})
            eps = Fraction(1, 2)
            rng_idx = index_range(eps, budgets[len(budgets) // 2], adapter.bounds(inst))
            records = [
                adapter.solve_weighted_sum(inst, pow_one_plus_eps(eps, i)) for i in rng_idx
            ]
            for i in range(len(records)):
                for j in range(i + 1, len(records)):
                    assert records[i].image.f1 <= records[j].image.f1
                    assert records[i].image.f2 >= records[j].image.f2

    def test_adversary_breaks_monotonicity(self, ex1):
        # The scripted 5/4-adversary answers gamma=1/2 with the (4,2) tree
        # and gamma=2/3 with the (2,4) tree: both monotonicity relations
        # fail for this weight pair, which is why alpha > 1 is rejected.
        script = {Fraction(2, 3): frozenset({1, 2}), Fraction(1, 2): frozenset({0, 2})}
        adversary = adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1, script=script)
        low = adversary.solve_weighted_sum(ex1, Fraction(1, 2))
        high = adversary.solve_weighted_sum(ex1, Fraction(2, 3))
        assert not low.image.f1 <= high.image.f1
        assert not low.image.f2 >= high.image.f2


class TestParametric:
    def test_example_instance_budget_three(self, ex2):
        query = BudgetQuery(Fraction(3), Fraction(1))
        outcome = parametric_search(MstAdapter(), ex2, query)
        assert outcome.record.image.f1 <= 6
        assert outcome.record.image.f2 <= 2 * exact_opt_budget(ex2, Fraction(3))
        bound = exact_search.parametric_call_bound(MstAdapter(), ex2, query)
        assert outcome.certificate.oracle_calls <= bound

    def test_oracle_runs_only_at_the_walks_weights(self, monkeypatch):
        # The concrete oracle runs at the walk's weights and nowhere else, in
        # call order, its safeguard's probes included.  With no walk steps
        # allowed, the safeguard runs whenever eps*B/LB(2) misses the f1 limit,
        # eps*B/UB(2) meets it, and their records' lines cross inside.
        safeguarded = 0
        for no_steps in (False, True):
            if no_steps:
                monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
            for case in build_suite():
                if case.alpha != 1:
                    continue
                adapter, weights = type(case.raw_adapter)(), []
                solve = adapter.solve_weighted_sum
                adapter.solve_weighted_sum = lambda inst, gamma: weights.append(gamma) or solve(
                    inst, gamma
                )
                for eps in (Fraction(1), Fraction(1, 4)):
                    for budget in case.budgets:
                        weights.clear()
                        query = BudgetQuery(budget, eps)
                        outcome = parametric_search(adapter, case.instance, query)
                        assert weights == [record.produced_at for record in outcome.walk]
                        safeguarded += no_steps and len(outcome.walk) > 2
        assert safeguarded > 0

    def test_call_bound_matches_the_suites(self):
        for case in exact_cases():
            bounds = case.raw_adapter.bounds(case.instance)
            for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 100)):
                for budget in positive_budgets(case):
                    query = BudgetQuery(budget, eps)
                    want = parametric_call_bound(case.instance, bounds, query)
                    assert exact_search.parametric_call_bound(
                        case.raw_adapter, case.instance, query
                    ) == want

    def test_example_instance_budget_four(self, ex1):
        record, cert = solve_budget_parametric(
            MstAdapter(), ex1, BudgetQuery(Fraction(4), Fraction(1))
        )
        assert record.image.f1 <= 8
        assert record.image.f2 <= 2 * exact_opt_budget(ex1, Fraction(4))
        assert (cert.budget_factor, cert.cost_factor) == (2, 2)

    def test_identical_edges_need_no_probe(self):
        graph = BiweightedGraph(
            3, [(0, 1, (2, 3)), (1, 2, (2, 3)), (0, 2, (2, 3))], kind="mst"
        )
        outcome = parametric_search(MstAdapter(), graph, BudgetQuery(Fraction(4), Fraction(1)))
        assert len(outcome.walk) == 1
        assert outcome.certificate.oracle_calls == 1

    def test_endpoint_tie_ends_the_safeguard_too(self, monkeypatch):
        # Parallel edges crossing at gamma=1 with an f1 jump straddling the
        # budget filter f1 <= (1+eps)*B = 9/2.  hi = eps*B/LB(2) = 9/8 returns
        # the (5,2) tree, which misses it, and lo = 3/8 the (2,5) tree.  The
        # walk solves their crossing, 1, where the concrete oracle breaks the
        # tie toward (2,5): nothing lies below the two lines there, so the walk
        # stops with lo's record.  With no walk steps allowed, the safeguard's
        # first probe is the same crossing, and it stops the same way.
        graph = BiweightedGraph(
            3, [(0, 1, (1, 4)), (0, 1, (4, 1)), (1, 2, (1, 1))], kind="mst"
        )
        query = BudgetQuery(Fraction(9, 4), Fraction(1))
        opt = exact_opt_budget(graph, query.budget)
        walked = parametric_search(MstAdapter(), graph, query)
        assert [record.produced_at for record in walked.walk] == [Fraction(9, 8), Fraction(3, 8), 1]
        assert walked.record == walked.walk[1]
        assert verify_budget(graph, walked.record, query.budget, opt, (2, 2))
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
        assert parametric_search(MstAdapter(), graph, query) == walked

    def test_accepts_every_exact_adapter_and_rejects_approximate(self, ex1):
        query = BudgetQuery(Fraction(2), Fraction(1))
        edges = [(0, 1, (1, 3)), (1, 2, (3, 1)), (0, 2, (2, 2))]
        cut = BiweightedGraph(3, edges, kind="cut", source=0, sink=2)
        record, _ = solve_budget_parametric(MinCutAdapter(), cut, BudgetQuery(Fraction(4), 1))
        assert record.image.f1 <= 8
        with pytest.raises(ExactOracleRequired):
            parametric_search(adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1), ex1, query)
        with pytest.raises(ExactOracleRequired):
            parametric_search(VertexCoverAdapter(), None, query)

    def test_consistency_and_guarantee_on_random_instances(self):
        rng = random.Random(61)
        adapters = {"mst": MstAdapter(), "path": ShortestPathAdapter(), "cut": MinCutAdapter()}
        makers = {
            "mst": random_mst_instance,
            "path": random_path_instance,
            "cut": random_cut_instance,
        }
        for kind in ("mst", "path", "cut"):
            for _ in range(5):
                inst = makers[kind](rng, rng.randint(3, 5))
                budgets = sorted({r.image.f1 for r in enumerate_all(inst)})
                for eps in (Fraction(1), Fraction(1, 4)):
                    for budget in budgets:
                        outcome = parametric_search(
                            adapters[kind], inst, BudgetQuery(budget, eps)
                        )
                        opt = exact_opt_budget(inst, budget)
                        assert verify_budget(
                            inst, outcome.record, budget, opt, parametric_guarantee(eps)
                        )


class TestRationalSplit:
    """``_ceil_log2`` and ``_halving_weight``, the safeguard's arithmetic, against plain loops."""

    @staticmethod
    def _least_power(x) -> int:
        j = 0
        while x > Fraction(2) ** j:
            j += 1
        while x <= Fraction(2) ** (j - 1):
            j -= 1
        return j

    def test_ceil_log2_matches_a_loop(self):
        rng = random.Random(71)
        values = [(1, 1), (2, 1), (1, 2), (3, 4), (4, 3), (2**64, 1), (1, 2**64), (2**64 + 1, 1)]
        values += [(rng.randint(1, 10**30), rng.randint(1, 10**30)) for _ in range(200)]
        for n, d in values:
            assert exact_search._ceil_log2(n, d) == self._least_power(Fraction(n, d)), (n, d)

    def test_halving_weight_lies_strictly_inside(self):
        rng = random.Random(73)
        for _ in range(300):
            scale = Fraction(2) ** rng.randint(-40, 40)
            a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * scale
            b = a * (1 + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3)))
            w = exact_search._halving_weight(a, b)
            assert a < w < b
            if b <= 4 * a:
                assert w == (a + b) / 2
                continue
            k = self._least_power(w)
            assert w == Fraction(2) ** k
            # The upper middle of the powers of two strictly inside (a, b).
            inside = [j for j in range(k - 200, k + 200) if a < Fraction(2) ** j < b]
            assert k == inside[len(inside) // 2]

    @staticmethod
    def _bracket(left, a, right, b):
        """Records of the images ``left`` at weight ``a`` and ``right`` at ``b``."""
        return SolutionRecord(None, CostPair(*left), a), SolutionRecord(None, CostPair(*right), b)

    def test_split_is_none_where_the_crossing_is(self):
        # Equal images, and lines that cross at an end's own weight, end the
        # walk on either turn of the alternation.
        graph, _ = TestEnvelopeWalk._four_trees()
        split = exact_search.rational_split(graph)
        brackets = [
            self._bracket((2, 5), Fraction(1, 2), (2, 5), Fraction(9)),
            self._bracket((2, 5), Fraction(1), (3, 4), Fraction(9)),
            self._bracket((2, 5), Fraction(1, 9), (3, 4), Fraction(1)),
        ]
        for left, right in brackets * 2:
            assert split(left, right) is None

    def test_wide_bracket_alternates_the_crossing_with_a_midpoint(self):
        # S = 1802 for ``_four_trees``, so every bracket below is wide.  L = (2, 5)
        # at 1 and R = (10, 1/100) at 100 cross at 800/499, and 100 > 4, so the
        # midpoint is 16, the middle power of two inside.  At 1/2 and 3/2,
        # within a factor of 4, it is the mean, 1.
        graph, _ = TestEnvelopeWalk._four_trees()
        split = exact_search.rational_split(graph)
        wide = self._bracket((2, 5), Fraction(1), (10, Fraction(1, 100)), Fraction(100))
        near = self._bracket((2, 5), Fraction(1, 2), (10, Fraction(1, 100)), Fraction(3, 2))
        got = [split(*wide), split(*wide), split(*near), split(*near), split(*wide)]
        assert got == [Fraction(800, 499), 16, Fraction(800, 499), 1, Fraction(800, 499)]

    def test_short_bracket_probes_the_crossing_alone(self):
        # Once (b - a)*S**2 < 1 every call gives the crossing, 1 here.  At
        # exactly 1/S**2 apart the midpoint still takes its turn.
        graph, _ = TestEnvelopeWalk._four_trees()
        square = sum(graph.scaled.second) ** 2
        assert square == 1802**2
        a = 1 - Fraction(1, 4 * square)
        split = exact_search.rational_split(graph)
        short = self._bracket((2, 5), a, (3, 4), a + Fraction(1, 2 * square))
        assert [split(*short) for _ in range(4)] == [1] * 4
        split = exact_search.rational_split(graph)
        edge = self._bracket((2, 5), a, (3, 4), a + Fraction(1, square))
        assert [split(*edge), split(*edge)] == [1, a + Fraction(1, 2 * square)]

    def test_no_steps_probes_the_crossing_a_power_of_two_and_the_crossing(self, monkeypatch):
        # ``_four_trees`` with no walk steps: R at 100 misses the limit, A at
        # 50/901 meets it.  The safeguard solves their crossing 1, where L =
        # (2, 5) meets the limit; then, since 100 > 4, the power of two 16, the
        # middle of 2, 4, ..., 64, where R misses it; then L's and R's crossing
        # 800/499, where M = (3, 4) misses it.  L's and M's lines cross at L's
        # own weight, 1, which ends the walk with L.
        graph, query = TestEnvelopeWalk._four_trees()
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
        outcome = parametric_search(MstAdapter(), graph, query)
        weights = [record.produced_at for record in outcome.walk]
        assert weights == [100, Fraction(50, 901), 1, 16, Fraction(800, 499)]
        assert (outcome.record.image, outcome.record.produced_at) == (CostPair(2, 5), 1)
        assert outcome.certificate.oracle_calls == 5
        assert 5 <= exact_search.parametric_call_bound(MstAdapter(), graph, query)


def check_parametric(case, query, opt) -> tuple:
    """Check the parametric search on one query; return (its calls, whether its safeguard ran).

    Run with a ``OncePerWeight`` adapter, it solves no weight twice.
    Where ``reference_walk_search`` decides within the walk's steps, the
    outcome is the reference's; where it does not, the safeguard ran.  A
    NoCertificate needs no solution with f1 <= B (``opt`` is None) and
    comes from the first two records, plus ``certify``'s call on a relaxed
    instance.  Otherwise the record meets (1+eps, 1+1/eps) against
    ``opt``, OPT(B) by enumeration, and the calls, one per walk record
    plus ``certify``'s, stay within the library's pre-run bound.  That
    bound counts ``walk_step_budget``'s steps as they are, patched or not,
    so it never exceeds ``_suite.parametric_call_bound``.
    """
    adapter, instance = case.raw_adapter, case.instance
    bound = exact_search.parametric_call_bound(adapter, instance, query)
    assert bound <= parametric_call_bound(instance, adapter.bounds(instance), query)
    outcome = search_outcome(parametric_search, OncePerWeight(adapter), instance, query)
    expected = search_outcome(reference_walk_search, adapter, instance, query)
    if expected is not None:
        assert outcome == expected
    if isinstance(outcome, tuple):  # a NoCertificate's records and f1 limit
        assert opt is None and len(outcome[1]) <= 2 + instance.relaxed
        return len(outcome[1]), False
    eps, budget = query.eps, query.budget
    assert verify_budget(instance, outcome.record, budget, opt, parametric_guarantee(eps))
    calls = outcome.certificate.oracle_calls
    assert calls - len(outcome.walk) in ((0, 1) if instance.relaxed else (0,))
    assert calls <= bound
    return calls, expected is None


class TestMatchesReferenceSearch:
    """Parametric search ends as the walk does; ``certify`` changes no strict sweep's result."""

    EPSILONS = (Fraction(1), Fraction(1, 4), Fraction(1, 20))

    def _budgets(self, case):
        # Every achievable budget, and one below every solution's f1.
        return [*case.budgets, case.budgets[0] / 4]

    def _check_parametric(self, case, query):
        check_parametric(case, query, exact_opt_budget(case.instance, query.budget))

    def test_parametric_on_acceptance_suite(self):
        for case in build_suite():
            if case.alpha != 1:
                continue
            for eps in self.EPSILONS:
                for budget in self._budgets(case):
                    self._check_parametric(case, BudgetQuery(budget, eps))

    def test_parametric_on_random_instances(self):
        rng = random.Random(67)
        for _ in range(20):
            for make in (random_mst_instance, random_path_instance, random_cut_instance):
                inst = make(rng, rng.randint(4, 6))
                case = make_case(inst.kind, inst)
                for eps in self.EPSILONS:
                    for budget in self._budgets(case):
                        self._check_parametric(case, BudgetQuery(budget, eps))

    def test_sweep_and_binary_on_acceptance_suite(self):
        # eps = 1/20 is left out here: its grids make the vc sweep cost seconds.
        # The approximate (vc) sweep matches its reference call for call.  With
        # an exact oracle, sweep and binary run one search around the f1 limit:
        # it returns the walk's image and factors with no more calls, and
        # bisection's record (``check_exact_search``).
        for case in build_suite():
            for eps in self.EPSILONS[:2]:
                for budget in self._budgets(case):
                    query = BudgetQuery(budget, eps)
                    expected = search_outcome(reference_sweep, case.adapter, case.instance, query)
                    if case.alpha != 1:
                        outcome = search_outcome(solve_budget_sweep, case.adapter, case.instance, query)
                        assert outcome == expected
                        continue
                    for search in (solve_budget_sweep, solve_budget_binary):
                        check_exact_search(search, case.adapter, case.instance, query, expected)


@functools.cache
def _walk_queries() -> tuple:
    """(case, budget, OPT(B)) on the exact and relaxed cases and the boundary tests' fronts."""
    return tuple(
        (case, budget, exact_opt_budget(case.instance, budget))
        for cases, budgets in ((exact_cases(), positive_budgets), (front_cases(), front_budgets))
        for case in cases
        for budget in budgets(case)
    )


class TestEnvelopeWalk:
    """The envelope walk and its safeguard, ``rational_split``, and its step budget."""

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 4), Fraction(1, 100)], ids=str)
    @pytest.mark.parametrize("steps", [None, 0], ids=["walk", "no_steps"])
    def test_guarantee_and_call_bound_with_and_without_walk_steps(self, eps, steps, monkeypatch):
        # Every exact kind: the suite's and the relaxed cases, then the 24
        # fronts.  With no walk steps allowed, the safeguard alone searches
        # every query whose range ends straddle the f1 limit and whose lines
        # cross inside, from lo's and hi's records.
        if steps is not None:
            monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: steps)
        safeguarded = Counter()
        for case, budget, opt in _walk_queries():
            _, ran = check_parametric(case, BudgetQuery(budget, eps), opt)
            safeguarded[case.kind] += ran
        if steps == 0:
            assert set(+safeguarded) == {"mst", "path", "cut"}

    @pytest.mark.parametrize("kind", ["mst", "path"])
    def test_creeping_front_trips_the_step_budget(self, kind, monkeypatch):
        # All 31 images of ``creeping_front`` lie on the lower envelope.  At
        # B = 3 and eps 1 the walk finds one new image per step, so it uses
        # all ceil(log2(32)) = 5 of its steps, and the safeguard finishes the
        # search.  Unbounded, the walk would take 19 steps.
        graph = creeping_front(kind, 30)
        adapter = MstAdapter() if kind == "mst" else ShortestPathAdapter()
        query = BudgetQuery(Fraction(3), Fraction(1))
        opt = exact_opt_budget(graph, query.budget)
        outcome = parametric_search(OncePerWeight(adapter), graph, query)
        assert walk_step_budget(graph) == 5 and len(outcome.walk) > 2 + 5
        factors = parametric_guarantee(query.eps)
        assert verify_budget(graph, outcome.record, query.budget, opt, factors)
        bound = parametric_call_bound(graph, adapter.bounds(graph), query)
        assert outcome.certificate.oracle_calls == len(outcome.walk) <= bound
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: len(instance.ratios))
        unbounded = parametric_search(adapter, graph, query)
        assert len(unbounded.walk) == 2 + 19
        assert unbounded.record.image == outcome.record.image

    @pytest.mark.parametrize("kind", ["mst", "path"])
    def test_creeping_front_without_walk_steps_stays_within_the_bound(self, kind, monkeypatch):
        # With no walk steps, the safeguard alone searches ``creeping_front``,
        # whose 31 images all lie on the lower envelope and whose breakpoints
        # 4**(j-29) span 58 octaves: at every front f1 as the budget, each
        # answer meets the factors against enumeration within the pre-run bound.
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
        case = make_case(kind, creeping_front(kind, 30))
        safeguarded = 0
        for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 100)):
            for budget in case.budgets:
                opt = exact_opt_budget(case.instance, budget)
                _, ran = check_parametric(case, BudgetQuery(budget, eps), opt)
                safeguarded += ran
        assert safeguarded > 0

    def test_safeguard_goes_on_from_the_walks_bracket(self, monkeypatch):
        # Four parallel edges, each its own tree: A = (1, 901/100) meets the f1
        # limit (1+eps)*B = 2 at B = 1, eps 1, as does L = (2, 5); M = (3, 4) and
        # R = (10, 1/100) miss it.  L's and M's lines cross at 1, where A's and
        # R's do too, and both lie below them there.  The walk solves R at 100,
        # A at 50/901, then their crossing 1, where Kruskal breaks the L-M tie
        # toward L by edge order.  With one step allowed, the safeguard goes on
        # from the bracket (L, R) with their crossing 800/499, where M misses
        # the limit.  L's and M's lines cross at L's own weight, so the search
        # ends with L, as the unbounded walk does.
        graph, query = self._four_trees()
        opt = exact_opt_budget(graph, query.budget)
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 1)
        outcome = parametric_search(MstAdapter(), graph, query)
        weights = [record.produced_at for record in outcome.walk]
        assert weights == [100, Fraction(50, 901), 1, Fraction(800, 499)]
        assert outcome.walk[-1].image == CostPair(3, 4)
        assert outcome.record == outcome.walk[2]
        assert (outcome.record.image, outcome.record.produced_at) == (CostPair(2, 5), 1)
        factors = parametric_guarantee(query.eps)
        assert verify_budget(graph, outcome.record, query.budget, opt, factors)

    @staticmethod
    def _four_trees():
        """The instance of ``test_safeguard_goes_on_from_the_walks_bracket``: B = 1, eps 1."""
        images = [(1, Fraction(901, 100)), (2, 5), (3, 4), (10, Fraction(1, 100))]
        graph = BiweightedGraph(2, [(0, 1, pair) for pair in images], kind="mst")
        return graph, BudgetQuery(Fraction(1), Fraction(1))

    def test_walk_stops_at_a_solved_crossing_without_a_call(self, monkeypatch):
        # With its ceil(log2(5)) = 3 steps the walk solves R at 100, A at
        # 50/901 and their crossing 1, where L = (2, 5) lies below A's line and
        # becomes the new left end; then L's and R's crossing 800/499, where
        # M = (3, 4) lies below and misses the limit, so it becomes the right
        # end.  L's and M's lines cross at 1, L's own weight: both are optimal
        # there, so the walk returns L without solving 1 a second time.
        graph, query = self._four_trees()
        solved = []
        solve = MstAdapter.solve_weighted_sum
        monkeypatch.setattr(
            MstAdapter,
            "solve_weighted_sum",
            lambda self, instance, gamma: solved.append(gamma) or solve(self, instance, gamma),
        )
        outcome = parametric_search(MstAdapter(), graph, query)
        assert solved == [100, Fraction(50, 901), 1, Fraction(800, 499)]
        assert [record.produced_at for record in outcome.walk] == solved
        assert outcome.certificate.oracle_calls == 4
        assert outcome.record is outcome.walk[2]
        assert (outcome.record.image, outcome.record.produced_at) == (CostPair(2, 5), 1)
        opt = exact_opt_budget(graph, query.budget)
        factors = parametric_guarantee(query.eps)
        assert verify_budget(graph, outcome.record, query.budget, opt, factors)

    @pytest.mark.parametrize("kind", ["mst", "path", "cut"])
    def test_safeguard_at_eps_one_thousandth_verifies(self, kind, monkeypatch):
        # With no walk steps allowed, the safeguard searches the fronts of
        # ``kind`` at eps 1/1000, whose weights and midpoints are long, and
        # every answer verifies.
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
        query_eps = Fraction(1, 1000)
        safeguarded = 0
        for case in front_cases():
            if case.kind != kind:
                continue
            for budget in front_budgets(case):
                opt = exact_opt_budget(case.instance, budget)
                _, ran = check_parametric(case, BudgetQuery(budget, query_eps), opt)
                safeguarded += ran
        assert safeguarded > 0
