"""Local ratio on int forms against its run over ``LinearValue``s.

Vertex cover's symbolic run keeps every residual as an int constant and
an int slope, and hands every comparison to the comparator as one linear
form (c, s) of two ints.  ``_suite.ReferenceVertexCover`` is the run it
replaced, over ``_suite.LinearValue``s, with each comparison of p and q
passed on as p - q.  The two must ask the same forms in the same order,
so they return the same tokens under any comparator and the same grid
records.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import _suite
from _suite import (
    ReferenceVertexCover,
    build_suite,
    random_relaxed_instance,
    random_vc_instance,
)
from bicrit.core import ratio_of, sign_at
from bicrit.pareto import pareto_index_range
from bicrit.problems import VertexCoverAdapter, vc_oracle
from bicrit.sweep import solve_grid

# Point comparators' weights: the suite's weights, ints up to 6 over 1 or 2, tie often at these.
POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2))


def _instances(kind):
    """The suite's instances of ``kind``, then seeded random and relaxed ones."""
    rng = random.Random(f"int forms/{kind}")
    return [
        *(case.instance for case in build_suite() if case.kind == kind),
        *(random_vc_instance(rng, rng.randint(2, 9)) for _ in range(20)),
        *(random_relaxed_instance(rng, kind, rng.randint(2, 7)) for _ in range(20)),
    ]


def _logged(compare, log):
    """``compare``, appending each form (c, s) it is asked to ``log``."""
    return lambda c, s: log.append((c, s)) or compare(c, s)


def _point(gamma):
    at = ratio_of(gamma)
    return lambda c, s: sign_at(c, s, at)


@pytest.mark.parametrize(
    ("new", "reference", "concrete"),
    [(VertexCoverAdapter(), ReferenceVertexCover(), vc_oracle)],
    ids=["vc"],
)
def test_runs_ask_the_reference_forms_under_point_comparators(new, reference, concrete):
    for instance in _instances("vc"):
        for gamma in POINTS:
            asked, expected = [], []
            run = new.run_parametric(instance, _logged(_point(gamma), asked))
            want = reference.run_parametric(instance, _logged(_point(gamma), expected))
            assert run == want, (instance, gamma)
            assert asked == expected, (instance, gamma)
            assert all(type(c) is type(s) is int for c, s in asked), (instance, gamma)
            assert run.token == concrete(instance, gamma).token, (instance, gamma)


def test_grid_records_match_the_reference_run():
    for instance in _instances("vc"):
        bounds = VertexCoverAdapter().bounds(instance)
        for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 50)):
            grid = pareto_index_range(eps, bounds)
            records = solve_grid(VertexCoverAdapter(), instance, eps, grid)
            assert records == solve_grid(ReferenceVertexCover(), instance, eps, grid)


@pytest.mark.parametrize("kind", ["vc"])
def test_symbolic_runs_build_no_linear_value(kind, monkeypatch):
    """Local ratio's symbolic run completes with ``LinearValue`` unbuildable.

    ``_suite.LinearValue`` is the value type of the reference runs.  Its
    constructor checks its fields in ``__post_init__``, and ``+`` and
    ``-`` build through it: with all three refusing, a run that made one
    per residual update or per comparison fails here, while the forms it
    asks stay pairs of ints.
    """

    def refuse(*args):
        raise AssertionError(f"a symbolic run built a LinearValue from {args}")

    adapter = VertexCoverAdapter()
    instances = _instances(kind)
    tokens = [adapter.solve_weighted_sum(instance, Fraction(3, 2)).token for instance in instances]
    for name in ("__post_init__", "__add__", "__sub__"):
        monkeypatch.setattr(_suite.LinearValue, name, refuse)
    for instance, token in zip(instances, tokens):
        asked = []
        run = adapter.run_parametric(instance, _logged(_point(Fraction(3, 2)), asked))
        assert run.token == token, instance
        assert all(type(c) is type(s) is int for c, s in asked), instance
    instance = instances[0]
    eps = Fraction(1, 4)
    assert solve_grid(adapter, instance, eps, pareto_index_range(eps, adapter.bounds(instance)))
