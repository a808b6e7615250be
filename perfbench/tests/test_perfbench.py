"""Tests of the benchmark itself: every workload end to end at reduced size,
and each independent check rejecting a corrupted report.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.checks import Checker, CheckFailure, expected_factors
from perfbench.workloads import WORKLOADS, _budget_op, _pareto_op, build
from perfbench.reference import Instance

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return bench.import_bicrit()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end_reduced(workload, trace):
    args = bench.parse_args(
        ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--reduced"]
    )
    result, raw, problems = bench.run(args)
    assert problems == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _reports(cli, tmp_path, workload):
    """First-round reports of a reduced workload, keyed by operation index."""
    wl = build(workload, 3, tmp_path, reduced=True)
    checker = Checker({key: tmp_path / f"{key}.json" for key in wl.instances})
    out = []
    for op in wl.ops:
        code, text, error = bench.run_op(cli, op.argv)
        assert code == 0, error
        report = json.loads(text)
        checker.check(op, report)
        out.append((op, report))
    return checker, out


@pytest.fixture(scope="module")
def small_reports(cli, tmp_path_factory):
    return _reports(cli, tmp_path_factory.mktemp("verify-small"), "verify-small")


def _first(reports, **fields):
    for op, report in reports:
        if all(getattr(op, k) == v for k, v in fields.items()):
            return op, copy.deepcopy(report)
    raise LookupError(fields)


def test_changed_token_is_rejected(small_reports):
    checker, reports = small_reports
    op, report = _first(reports, command="solve-budget", problem="mst")
    edges = len(checker.instances[op.instance].edges)
    token = report["record"]["token"]
    token[0] = next(i for i in range(edges) if i not in token)
    with pytest.raises(CheckFailure):
        checker.check(op, report)


def test_changed_cover_is_rejected(small_reports):
    checker, reports = small_reports
    op, report = _first(reports, command="pareto", problem="vc")
    report["pareto"]["records"][0]["token"].pop()
    with pytest.raises(CheckFailure):
        checker.check(op, report)


@pytest.mark.parametrize("field", ["f1", "f2"])
def test_image_off_by_one_unit_is_rejected(small_reports, field):
    checker, reports = small_reports
    op, report = _first(reports, command="solve-budget", problem="path")
    image = report["record"]["image"]
    image[field] = str(Fraction(image[field]) + 1)
    with pytest.raises(CheckFailure, match="image"):
        checker.check(op, report)


@pytest.mark.parametrize("algorithm", ["sweep", "fixed", "binary", "parametric"])
@pytest.mark.parametrize("field", ["budget_factor", "cost_factor"])
def test_factor_of_another_algorithm_is_rejected(small_reports, algorithm, field):
    checker, reports = small_reports
    op, report = _first(reports, command="solve-budget", problem="mst", algorithm=algorithm)
    cert = report["certificate"]
    wrong = next(
        str(factors[field == "cost_factor"])
        for other in ("sweep", "fixed", "binary", "parametric")
        for factors in [expected_factors(other, Fraction(1), op.eps)]
        if str(factors[field == "cost_factor"]) != cert[field]
    )
    cert[field] = wrong
    with pytest.raises(CheckFailure, match=field):
        checker.check(op, report)


def test_pareto_factor_mismatch_is_rejected(small_reports):
    checker, reports = small_reports
    op, report = _first(reports, command="pareto", algorithm="pareto-parametric")
    eps = op.eps
    report["pareto"]["factor1"] = str(1 + 2 * eps)  # the grid curve's factor
    with pytest.raises(CheckFailure, match="factor1"):
        checker.check(op, report)


def test_curve_leaving_a_solution_uncovered_is_rejected(cli, tmp_path):
    # Two parallel edges give two spanning trees, (1, 20) and (20, 1); at
    # eps = 1/4 (factors 3/2 and 9) neither covers the other.
    inst = Instance(
        "mst", 2, ((0, 1), (0, 1)), (Fraction(1), Fraction(20)), (Fraction(20), Fraction(1))
    )
    path = tmp_path / "two.json"
    path.write_text(json.dumps(inst.to_dict()))
    op = _pareto_op(str(path), "two", inst, Fraction(1, 4))
    code, text, error = bench.run_op(cli, op.argv)
    assert code == 0, error
    report = json.loads(text)
    checker = Checker({"two": path})
    checker.check(op, report)
    assert len(report["pareto"]["records"]) == 2
    report["pareto"]["records"].pop()
    with pytest.raises(CheckFailure, match="uncovered"):
        checker.check(op, report)


def test_wrong_verification_is_rejected(small_reports):
    checker, reports = small_reports
    op, report = _first(reports, command="solve-budget", verify=True, problem="cut")
    report["verification"]["opt_budget"] = str(Fraction(report["verification"]["opt_budget"]) + 1)
    with pytest.raises(CheckFailure, match="opt_budget"):
        checker.check(op, report)
    op, report = _first(reports, command="pareto", verify=True, problem="vc")
    report["verification"]["solutions_checked"] += 1
    with pytest.raises(CheckFailure, match="solutions_checked"):
        checker.check(op, report)


def test_suboptimal_record_is_rejected(cli, tmp_path):
    # A path that is feasible and correctly summed but not optimal at its
    # produced_at weight: only the reference solver can tell.
    inst = Instance(
        "path",
        3,
        ((0, 2), (0, 1), (1, 2)),
        (Fraction(5), Fraction(1), Fraction(1)),
        (Fraction(5), Fraction(1), Fraction(1)),
        0,
        2,
    )
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(inst.to_dict()))
    op = _budget_op(str(path), "tri", inst, "binary", Fraction(1), Fraction(2))
    code, text, error = bench.run_op(cli, op.argv)
    assert code == 0, error
    report = json.loads(text)
    checker = Checker({"tri": path})
    checker.check(op, report)
    report["record"].update(token=[0], image={"f1": "5", "f2": "5"})
    with pytest.raises(CheckFailure, match="not optimal"):
        checker.check(op, report)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits nonzero and prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
