from __future__ import annotations

import functools
import itertools
import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from _suite import (
    LinearValue,
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
    random_mst_instance,
    random_path_instance,
    search_outcome,
)
from bicrit import exact_search
from bicrit.cli import ingest
from bicrit.core import (
    CostPair,
    GuaranteeCertificate,
    ParametricAdapter,
    pow_one_plus_eps,
    rational,
    sign_at,
)
from bicrit.errors import ExactOracleRequired, NoCertificate, NotParametricCapable
from bicrit.exact_search import (
    ParametricOutcome,
    _simulate,
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

    def compare(c, s):
        state["comparisons"] += 1
        crit = Fraction(-c, s) if s else None  # where the line c + s*gamma crosses 0
        if crit is not None and state["interval"].lo < crit < state["interval"].hi:
            before = len(probes)
            side, state["interval"] = resolve_comparison(
                adapter, instance, state["interval"], crit, budget, eps, probes
            )
            if side == "right" and len(probes) > before:
                state["witness"] = probes[-1]
        gamma = state["interval"].midpoint
        value = c + gamma * s
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
        walk=(),
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
        outcome = parametric_search(MstAdapter(), ex2, BudgetQuery(Fraction(3), Fraction(1)))
        assert outcome.record.image.f1 <= 6
        assert outcome.record.image.f2 <= 2 * exact_opt_budget(ex2, Fraction(3))
        assert outcome.certificate.oracle_calls <= outcome.comparisons + 1

    def test_oracle_runs_only_at_the_probes(self, monkeypatch):
        # The concrete oracle runs at the walk's weights, then at the
        # simulation's probes; the master run's record is the concrete
        # oracle's at the final midpoint.  With no walk steps allowed, the
        # simulation runs whenever eps*B/LB(2) misses the f1 limit and
        # eps*B/UB(2) meets it.
        simulated = 0
        for no_steps in (False, True):
            if no_steps:
                monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
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
                        query = BudgetQuery(budget, eps)
                        outcome = parametric_search(adapter, case.instance, query)
                        solved = (*outcome.walk, *outcome.probes)
                        assert weights == [record.produced_at for record in solved]
                        if outcome.midpoint_record is None:
                            continue
                        simulated += 1
                        lo, hi = outcome.interval
                        assert outcome.midpoint_record == solve(case.instance, (lo + hi) / 2)
        assert simulated > 0

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

    def test_endpoint_tie_falls_back_to_probe_record(self, monkeypatch):
        # Parallel edges crossing at gamma=1 with an f1 jump straddling the
        # budget filter f1 <= (1+eps)*B = 9/2.  hi = eps*B/LB(2) = 9/8 returns
        # the (5,2) tree, which misses it, and lo = 3/8 the (2,5) tree.  The
        # walk solves their crossing, 1, where the concrete oracle breaks the
        # tie toward (2,5): nothing lies below the two lines there, so the walk
        # stops with lo's record.  With no walk steps allowed, the simulation
        # runs on [3/8, 9/8]: its probe at 1 accepts (2,5), but the master run
        # continues on [1, 9/8] where the (5,2) tree is optimal.  The final
        # midpoint record then misses the filter, so the search must return
        # the in-budget probe record instead.
        graph = BiweightedGraph(
            3, [(0, 1, (1, 4)), (0, 1, (4, 1)), (1, 2, (1, 1))], kind="mst"
        )
        query = BudgetQuery(Fraction(9, 4), Fraction(1))
        opt = exact_opt_budget(graph, query.budget)
        walked = parametric_search(MstAdapter(), graph, query)
        assert [record.produced_at for record in walked.walk] == [Fraction(9, 8), Fraction(3, 8), 1]
        assert walked.interval is None and walked.record == walked.walk[1]
        assert verify_budget(graph, walked.record, query.budget, opt, (2, 2))
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
        outcome = parametric_search(MstAdapter(), graph, query)
        assert outcome.interval == (1, Fraction(9, 8))
        assert outcome.midpoint_record.image.f1 > (1 + query.eps) * query.budget
        assert outcome.record.image == CostPair(2, 5)
        assert outcome.record.produced_at == 1
        assert verify_budget(graph, outcome.record, query.budget, opt, (2, 2))

    def test_rejects_non_parametric_and_approximate(self, ex1):
        query = BudgetQuery(Fraction(2), Fraction(1))
        with pytest.raises(NotParametricCapable):
            parametric_search(MinCutAdapter(), None, query)
        with pytest.raises(ExactOracleRequired):
            parametric_search(adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1), ex1, query)

    def test_final_interval_contains_a_good_weight(self, monkeypatch):
        # With no walk steps allowed, the simulation runs on [eps*B/UB(2), eps*B/LB(2)]
        # whenever its ends' records straddle the f1 limit.
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
        rng = random.Random(59)
        adapter = MstAdapter()
        simulated = 0
        for _ in range(5):
            inst = random_mst_instance(rng, rng.randint(3, 4), extra=2)
            budgets = sorted({r.image.f1 for r in enumerate_all(inst)})
            for eps, budget in itertools.product((Fraction(1), Fraction(1, 2)), budgets):
                outcome = parametric_search(adapter, inst, BudgetQuery(budget, eps))
                if outcome.interval is None:
                    continue
                simulated += 1
                opt = exact_opt_budget(inst, budget)
                lo, hi = outcome.interval
                points = {lo, hi} | {lo + (hi - lo) * Fraction(k, 99) for k in range(100)}
                assert any(
                    verify_budget(
                        inst,
                        adapter.solve_weighted_sum(inst, g),
                        budget,
                        opt,
                        parametric_guarantee(eps),
                    )
                    for g in sorted(points)
                )
        assert simulated > 0

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
                            inst, outcome.record, budget, opt, parametric_guarantee(eps)
                        )


def check_against_megiddo(case, query, opt) -> tuple:
    """Check the parametric search against Megiddo's on one query.

    Returns (its calls, Megiddo's, whether its simulation ran).

    Both must end alike: in a record, or in NoCertificate with the same f1
    limit, which the search reaches from its first two records (plus
    ``certify``'s call on a relaxed instance).  Its record must meet
    (1+eps, 1+1/eps) against ``opt``, OPT(B) by enumeration.  Its calls are
    one per walk record and per probe, one for the master run when the
    simulation ran, and ``certify``'s, within ``parametric_call_bound``.
    """
    adapter, instance = case.raw_adapter, case.instance
    expected = search_outcome(reference_parametric_search, adapter, instance, query)
    outcome = search_outcome(parametric_search, adapter, instance, query)
    if isinstance(expected, tuple):  # a NoCertificate's records and f1 limit
        assert outcome[0] == "no certificate" and outcome[2] == expected[2]
        assert len(outcome[1]) <= 2 + instance.relaxed
        return len(outcome[1]), len(expected[1]), False
    assert isinstance(outcome, ParametricOutcome)
    eps, budget = query.eps, query.budget
    assert verify_budget(instance, outcome.record, budget, opt, parametric_guarantee(eps))
    calls = outcome.certificate.oracle_calls
    simulated = outcome.midpoint_record is not None
    solved = len(outcome.walk) + len(outcome.probes) + simulated
    assert calls - solved in ((0, 1) if instance.relaxed else (0,))
    assert calls <= parametric_call_bound(instance, outcome.comparisons) + instance.relaxed
    if simulated:
        # The interval only ever narrows from [eps*B/UB(2), eps*B/LB(2)].
        bounds = adapter.bounds(instance)
        lo, hi = outcome.interval
        assert eps * budget / bounds.ub2 <= lo <= hi <= eps * budget / bounds.lb2
    else:
        assert (outcome.interval, outcome.comparisons, outcome.probes) == (None, 0, ())
    return calls, expected.certificate.oracle_calls, simulated


class TestMatchesReferenceSearch:
    """Parametric search ends as Megiddo's does; ``certify`` changes no strict sweep's result."""

    EPSILONS = (Fraction(1), Fraction(1, 4), Fraction(1, 20))

    def _budgets(self, case):
        # Every achievable budget, and one below every solution's f1.
        return [*case.budgets, case.budgets[0] / 4]

    def _check_parametric(self, case, query):
        check_against_megiddo(case, query, exact_opt_budget(case.instance, query.budget))

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


@functools.cache
def _walk_queries() -> tuple:
    """(case, budget, OPT(B)) on the exact mst/path cases and fronts of the boundary tests."""
    return tuple(
        (case, budget, exact_opt_budget(case.instance, budget))
        for cases, budgets in ((exact_cases(), positive_budgets), (front_cases(), front_budgets))
        for case in cases
        if case.kind in ("mst", "path")
        for budget in budgets(case)
    )


class TestEnvelopeWalk:
    """The envelope walk and its safeguard against Megiddo's simulation, and its step budget."""

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 4), Fraction(1, 100)], ids=str)
    @pytest.mark.parametrize("steps", [None, 0], ids=["walk", "no_steps"])
    def test_matches_megiddo_with_the_guarantee_and_call_bound(self, eps, steps, monkeypatch):
        # The suite's and the relaxed mst/path cases, then the 16 mst/path
        # fronts.  With no walk steps allowed, every query whose range ends
        # straddle the f1 limit runs the simulation on that range, with lo's
        # record as its first witness.
        if steps is not None:
            monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: steps)
        totals = [0, 0, 0]  # calls, Megiddo's calls, simulations
        for case, budget, opt in _walk_queries():
            checked = check_against_megiddo(case, BudgetQuery(budget, eps), opt)
            totals = [total + count for total, count in zip(totals, checked)]
        if steps is None:
            assert totals[0] < totals[1]
        else:
            assert totals[2] > 0

    @pytest.mark.parametrize("kind", ["mst", "path"])
    def test_creeping_front_trips_the_step_budget(self, kind, monkeypatch):
        # All 31 images of ``creeping_front`` lie on the lower envelope.  At
        # B = 3 and eps 1 the walk finds one new image per step, so it uses
        # all ceil(log2(32)) = 5 of its steps, and the simulation finishes
        # the search.  Unbounded, the walk would take 19 steps.
        graph = creeping_front(kind, 30)
        adapter = MstAdapter() if kind == "mst" else ShortestPathAdapter()
        query = BudgetQuery(Fraction(3), Fraction(1))
        opt = exact_opt_budget(graph, query.budget)
        outcome = parametric_search(adapter, graph, query)
        assert walk_step_budget(graph) == 5 and len(outcome.walk) == 2 + 5
        assert outcome.interval is not None
        factors = parametric_guarantee(query.eps)
        assert verify_budget(graph, outcome.record, query.budget, opt, factors)
        assert outcome.certificate.oracle_calls <= parametric_call_bound(graph, outcome.comparisons)
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: len(instance.ratios))
        unbounded = parametric_search(adapter, graph, query)
        assert unbounded.interval is None and len(unbounded.walk) == 2 + 19
        assert unbounded.record.image == outcome.record.image

    def test_simulation_starts_with_the_walks_witness(self, monkeypatch):
        # Four parallel edges, each its own tree: A = (1, 901/100) meets the f1
        # limit (1+eps)*B = 2 at B = 1, eps 1, as does L = (2, 5); M = (3, 4) and
        # R = (10, 1/100) miss it.  L's and M's lines cross at 1, where A's and
        # R's do too, and both lie below them there.  The walk solves
        # R at 100, A at 50/901, then their crossing 1, where Kruskal breaks the
        # L-M tie toward L by edge order.  With one step allowed, the simulation
        # then runs on [1, 100].  L's and M's comparison turns at its end 1, so
        # no probe is made for it; both probes return M, and so does the master
        # run.  M misses the limit, so only the witness the walk handed over, L,
        # can answer: without it the search would end in NoCertificate.
        graph, query = self._four_trees()
        opt = exact_opt_budget(graph, query.budget)
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 1)
        outcome = parametric_search(MstAdapter(), graph, query)
        assert outcome.interval == (1, Fraction(800, 499))
        assert [probe.image for probe in outcome.probes] == [CostPair(3, 4)] * 2
        assert outcome.midpoint_record.image == CostPair(3, 4)
        assert outcome.record == outcome.walk[-1]
        assert (outcome.record.image, outcome.record.produced_at) == (CostPair(2, 5), 1)
        factors = parametric_guarantee(query.eps)
        assert verify_budget(graph, outcome.record, query.budget, opt, factors)

    @staticmethod
    def _four_trees():
        """The instance of ``test_simulation_starts_with_the_walks_witness``: B = 1, eps 1."""
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
        assert (outcome.interval, outcome.comparisons, outcome.probes) == (None, 0, ())
        assert outcome.record is outcome.walk[2]
        assert (outcome.record.image, outcome.record.produced_at) == (CostPair(2, 5), 1)
        opt = exact_opt_budget(graph, query.budget)
        factors = parametric_guarantee(query.eps)
        assert verify_budget(graph, outcome.record, query.budget, opt, factors)

    @pytest.mark.parametrize(
        ("name", "adapter"),
        [("demo_mst_b.json", MstAdapter()), ("demo_path.json", ShortestPathAdapter())],
        ids=["mst", "path"],
    )
    def test_simulation_at_eps_one_thousandth_verifies(self, name, adapter):
        # At B = 3 and eps 1/1000 the search answers both demos from
        # eps*B/LB(2) alone, so the simulation is forced here: over the whole
        # range [eps*B/UB(2), eps*B/LB(2)] with no witness, as Megiddo's
        # search runs it, deciding each comparison on its ends' int pairs.
        instance = ingest(str(Path(__file__).resolve().parent.parent / "instances" / name))
        query = BudgetQuery(Fraction(3), Fraction(1, 1000))
        eps, budget = query.eps, query.budget
        bounds = adapter.bounds(instance)
        lo, hi = eps * budget / bounds.ub2, eps * budget / bounds.lb2
        picked, simulation = _simulate(adapter, instance, lo, hi, None, (1 + eps) * budget)
        assert simulation["comparisons"] > 0
        assert picked == reference_parametric_search(adapter, instance, query).record
        opt = exact_opt_budget(instance, budget)
        assert verify_budget(instance, picked, budget, opt, parametric_guarantee(eps))
