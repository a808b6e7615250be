from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest

from _suite import (
    build_suite,
    check_exact_search,
    grid_guarantee,
    make_case,
    parametric_guarantee,
    random_mst_instance,
    random_path_instance,
    search_outcome,
)
from bicrit.core import (
    CostPair,
    GuaranteeCertificate,
    LinearValue,
    ParametricAdapter,
    pow_one_plus_eps,
    rational,
    sign_at,
)
from bicrit.errors import ExactOracleRequired, NoCertificate, NotParametricCapable
from bicrit.exact_search import (
    ParametricOutcome,
    parametric_search,
    solve_budget_binary,
    solve_budget_parametric,
)
from bicrit.oracle import adversarial_wrap, enumerate_all, exact_opt_budget, verify_budget
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


# The search code that ``sweep.certify`` and the closure-only parametric
# search replaced, kept as the reference for the differential tests below.


@dataclass(frozen=True)
class GammaInterval:
    """A closed positive weight interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if not 0 < self.lo <= self.hi:
            raise ValueError(f"interval must satisfy 0 < lo <= hi, got {self}")

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def resolve_comparison(adapter, instance, interval, gamma_crit, budget, eps, probes=None):
    if adapter.alpha() != 1:
        raise ExactOracleRequired("parametric resolution needs an exact oracle")
    gamma_crit = rational(gamma_crit)
    if gamma_crit <= interval.lo:
        return "right", interval
    if gamma_crit >= interval.hi:
        return "left", interval
    record = adapter.solve_weighted_sum(instance, gamma_crit)
    if probes is not None:
        probes.append(record)
    if record.image.f1 > (1 + rational(eps)) * rational(budget):
        return "left", GammaInterval(interval.lo, gamma_crit)
    return "right", GammaInterval(gamma_crit, interval.hi)


def reference_parametric_search(adapter, instance, query):
    if adapter.alpha() != 1:
        raise ExactOracleRequired("parametric search needs an exact oracle")
    if not isinstance(adapter, ParametricAdapter):
        raise NotParametricCapable(f"{type(adapter).__name__} has no parametric run")
    eps, budget = query.eps, query.budget
    bounds = adapter.bounds(instance)
    state = {
        "interval": GammaInterval(eps * budget / bounds.ub2, eps * budget / bounds.lb2),
        "witness": None,
        "comparisons": 0,
    }
    probes: list = []

    def compare(p, q):
        state["comparisons"] += 1
        d = p - q  # the line d.constant + d.slope*gamma crosses 0 at -constant/slope
        crit = Fraction(-d.constant, d.slope) if d.slope else None
        if crit is not None and state["interval"].lo < crit < state["interval"].hi:
            before = len(probes)
            side, state["interval"] = resolve_comparison(
                adapter, instance, state["interval"], crit, budget, eps, probes
            )
            if side == "right" and len(probes) > before:
                state["witness"] = probes[-1]
        gamma = state["interval"].midpoint
        value = d.constant + gamma * d.slope
        return -1 if value < 0 else (1 if value > 0 else 0)

    adapter.run_parametric(instance, compare)
    interval = state["interval"]
    midpoint_record = adapter.solve_weighted_sum(instance, interval.midpoint)
    calls = len(probes) + 1
    limit = (1 + eps) * budget
    if midpoint_record.image.f1 <= limit:
        chosen = midpoint_record
    elif state["witness"] is not None:
        chosen = state["witness"]
    else:
        raise NoCertificate([*probes, midpoint_record], limit)
    certificate = GuaranteeCertificate(
        alpha=Fraction(1),
        budget_factor=1 + eps,
        cost_factor=1 + 1 / eps,
        budget=budget,
        oracle_calls=calls,
    )
    return ParametricOutcome(
        record=chosen,
        certificate=certificate,
        interval=interval,
        comparisons=state["comparisons"],
        probes=tuple(probes),
        midpoint_record=midpoint_record,
    )


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
                        assert verify_budget(record, budget, opt, grid_guarantee(1, eps))
                        grid = len(index_range(eps, budget, adapter.bounds(inst)))
                        bound = 1
                        while 2**bound < grid:
                            bound += 1
                        assert cert.oracle_calls <= bound + 1


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
        outcome = parametric_search(MstAdapter(), ex2, BudgetQuery(Fraction(3), Fraction(1)))
        assert outcome.record.image.f1 <= 6
        assert outcome.record.image.f2 <= 2 * exact_opt_budget(ex2, Fraction(3))
        assert outcome.certificate.oracle_calls <= outcome.comparisons + 1

    def test_oracle_runs_only_at_the_probes(self):
        # The master run's record is the concrete oracle's at the final midpoint.
        for case in build_suite():
            if case.kind not in ("mst", "path"):
                continue
            adapter, weights = type(case.raw_adapter)(), []
            solve = adapter.solve_weighted_sum
            adapter.solve_weighted_sum = lambda inst, gamma: weights.append(gamma) or solve(
                inst, gamma
            )
            for eps in (Fraction(1), Fraction(1, 4)):
                for budget in case.budgets:
                    weights.clear()
                    outcome = parametric_search(adapter, case.instance, BudgetQuery(budget, eps))
                    assert weights == [probe.produced_at for probe in outcome.probes]
                    lo, hi = outcome.interval
                    assert outcome.midpoint_record == solve(case.instance, (lo + hi) / 2)

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
        assert outcome.probes == ()
        assert outcome.certificate.oracle_calls == 1

    def test_endpoint_tie_falls_back_to_probe_record(self):
        # Parallel edges crossing at gamma=1 with an f1 jump straddling the
        # budget filter: the concrete oracle at the crossing breaks the tie
        # toward the (2,5) tree and the probe accepts it, but the master run
        # continues on [1, 9/8] where the (5,2) tree is optimal.  The final
        # midpoint record then violates f1 <= (1+eps)*B = 9/2, so the search
        # must return the in-budget probe record instead.
        graph = BiweightedGraph(
            3, [(0, 1, (1, 4)), (0, 1, (4, 1)), (1, 2, (1, 1))], kind="mst"
        )
        query = BudgetQuery(Fraction(9, 4), Fraction(1))
        outcome = parametric_search(MstAdapter(), graph, query)
        assert outcome.midpoint_record.image.f1 > (1 + query.eps) * query.budget
        assert outcome.record.image == CostPair(2, 5)
        assert outcome.record.produced_at == 1
        opt = exact_opt_budget(graph, query.budget)
        assert verify_budget(outcome.record, query.budget, opt, (2, 2))

    def test_rejects_non_parametric_and_approximate(self, ex1):
        query = BudgetQuery(Fraction(2), Fraction(1))
        with pytest.raises(NotParametricCapable):
            parametric_search(MinCutAdapter(), None, query)
        with pytest.raises(ExactOracleRequired):
            parametric_search(adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1), ex1, query)

    def test_final_interval_contains_a_good_weight(self):
        rng = random.Random(59)
        adapter = MstAdapter()
        for _ in range(5):
            inst = random_mst_instance(rng, rng.randint(3, 4), extra=2)
            budgets = sorted({r.image.f1 for r in enumerate_all(inst)})
            for eps in (Fraction(1), Fraction(1, 2)):
                budget = budgets[len(budgets) // 2]
                outcome = parametric_search(adapter, inst, BudgetQuery(budget, eps))
                opt = exact_opt_budget(inst, budget)
                lo, hi = outcome.interval
                points = {lo, hi} | {lo + (hi - lo) * Fraction(k, 99) for k in range(100)}
                assert any(
                    verify_budget(
                        adapter.solve_weighted_sum(inst, g), budget, opt, parametric_guarantee(eps)
                    )
                    for g in sorted(points)
                )

    def test_consistency_and_guarantee_on_random_instances(self):
        rng = random.Random(61)
        adapters = {"mst": MstAdapter(), "path": ShortestPathAdapter()}
        makers = {"mst": random_mst_instance, "path": random_path_instance}
        for kind in ("mst", "path"):
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
                            outcome.record, budget, opt, parametric_guarantee(eps)
                        )


class TestMatchesReferenceSearch:
    """The closure-only parametric search and ``certify`` change no result on strict instances."""

    EPSILONS = (Fraction(1), Fraction(1, 4), Fraction(1, 20))

    def _budgets(self, case):
        # Every achievable budget, and one below every solution's f1.
        return [*case.budgets, case.budgets[0] / 4]

    def _check_parametric(self, case, query):
        expected = search_outcome(reference_parametric_search, case.adapter, case.instance, query)
        outcome = search_outcome(parametric_search, case.adapter, case.instance, query)
        if isinstance(expected, tuple):  # a NoCertificate's records and f1 limit
            assert outcome == expected
            return
        assert outcome.record == expected.record
        assert outcome.certificate == expected.certificate
        assert outcome.interval == (expected.interval.lo, expected.interval.hi)
        assert outcome.comparisons == expected.comparisons
        assert outcome.probes == expected.probes
        assert outcome.midpoint_record == expected.midpoint_record
        # The interval only ever narrows from [eps*B/UB(2), eps*B/LB(2)].
        bounds = case.raw_adapter.bounds(case.instance)
        lo, hi = outcome.interval
        eps, budget = query.eps, query.budget
        assert eps * budget / bounds.ub2 <= lo <= hi <= eps * budget / bounds.lb2

    def test_parametric_on_acceptance_suite(self):
        for case in build_suite():
            if case.kind not in ("mst", "path"):
                continue
            for eps in self.EPSILONS:
                for budget in self._budgets(case):
                    self._check_parametric(case, BudgetQuery(budget, eps))

    def test_parametric_on_random_instances(self):
        rng = random.Random(67)
        for _ in range(20):
            for make in (random_mst_instance, random_path_instance):
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
