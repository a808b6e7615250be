"""Local ratio and Kruskal on int forms against their runs over ``LinearValue``s.

The symbolic runs of vertex cover and spanning trees keep every quantity
as an int constant and an int slope and hand each comparison to the
comparator as one linear form (c, s).  ``_suite.ReferenceVertexCover``
and ``_suite.ReferenceMst`` are the runs they replaced, over
``LinearValue``s, with each comparison of p and q passed on as p - q.
Both must ask the same forms in the same order, so they return the same
tokens under any comparator, the same grid records and the same Megiddo
transcripts.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import (
    ReferenceMst,
    ReferenceVertexCover,
    build_suite,
    random_mst_instance,
    random_relaxed_instance,
    random_vc_instance,
)
from bicrit import core
from bicrit.core import LinearValue, ratio_of, sign_at
from bicrit.exact_search import _simulate
from bicrit.pareto import pareto_index_range
from bicrit.problems import MstAdapter, VertexCoverAdapter, mst_oracle, vc_oracle
from bicrit.sweep import solve_grid

# Point comparators' weights: the suite's weights, ints up to 6 over 1 or 2, tie often at these.
POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2))


def _instances(kind):
    """The suite's instances of ``kind`` ("vc" or "mst"), then seeded random and relaxed ones."""
    rng = random.Random(f"int forms/{kind}")
    random_instance = random_vc_instance if kind == "vc" else random_mst_instance
    return [
        *(case.instance for case in build_suite() if case.kind == kind),
        *(random_instance(rng, rng.randint(2, 9)) for _ in range(20)),
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
    [
        (VertexCoverAdapter(), ReferenceVertexCover(), vc_oracle),
        (MstAdapter(), ReferenceMst(), mst_oracle),
    ],
    ids=["vc", "mst"],
)
def test_runs_ask_the_reference_forms_under_point_comparators(new, reference, concrete):
    kind = "vc" if isinstance(new, VertexCoverAdapter) else "mst"
    for instance in _instances(kind):
        for gamma in POINTS:
            asked, expected = [], []
            run = new.run_parametric(instance, _logged(_point(gamma), asked))
            want = reference.run_parametric(instance, _logged(_point(gamma), expected))
            assert run == want, (instance, gamma)
            assert asked == expected, (instance, gamma)
            assert run.token == concrete(instance, gamma).token, (instance, gamma)


def test_grid_records_match_the_reference_run():
    for instance in _instances("vc"):
        bounds = VertexCoverAdapter().bounds(instance)
        for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 50)):
            grid = pareto_index_range(eps, bounds)
            records = solve_grid(VertexCoverAdapter(), instance, eps, grid)
            assert records == solve_grid(ReferenceVertexCover(), instance, eps, grid)


def test_megiddo_transcripts_match_the_reference_run():
    ran = 0
    for instance in _instances("mst"):
        bounds = MstAdapter().bounds(instance)
        for eps in (Fraction(1), Fraction(1, 4)):
            lo, hi = eps * 3 / bounds.ub2, eps * 3 / bounds.lb2
            limit = (1 + eps) * 3
            got = _simulate(MstAdapter(), instance, lo, hi, None, limit)
            assert got == _simulate(ReferenceMst(), instance, lo, hi, None, limit)
            ran += got[1]["comparisons"] > 0 and len(got[1]["probes"]) > 0
    assert ran > 0


@pytest.mark.parametrize("kind", ["vc", "mst"])
def test_symbolic_runs_build_no_linear_value(kind, monkeypatch):
    """Local ratio's and Kruskal's symbolic runs complete with ``LinearValue`` unbuildable.

    Both ``+`` and ``-`` of ``LinearValue`` build through ``core._linear``,
    and the constructor checks its fields in ``__post_init__``: with both
    refusing, a run that made one per residual update or per comparison
    fails here.
    """

    def refuse(*args):
        raise AssertionError(f"a symbolic run built a LinearValue from {args}")

    adapter = VertexCoverAdapter() if kind == "vc" else MstAdapter()
    instances = _instances(kind)
    tokens = [adapter.solve_weighted_sum(instance, Fraction(3, 2)).token for instance in instances]
    monkeypatch.setattr(core, "_linear", refuse)
    monkeypatch.setattr(LinearValue, "__post_init__", refuse)
    for instance, token in zip(instances, tokens):
        assert adapter.run_parametric(instance, _point(Fraction(3, 2))).token == token
    instance = instances[0]
    bounds = adapter.bounds(instance)
    if kind == "vc":
        eps = Fraction(1, 4)
        assert solve_grid(adapter, instance, eps, pareto_index_range(eps, bounds))
    else:
        _simulate(adapter, instance, 3 / bounds.ub2, 3 / bounds.lb2, None, 6)
