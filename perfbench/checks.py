"""Independent checks of every report the workloads produce.

They run after the timed pass and are not timed.  Each raises
``CheckFailure`` naming the first thing that is wrong.  Expected factors
come from the paper's formulas, images and optima from ``reference``,
never from bicrit itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .reference import Instance, enumerate_solutions, image, infeasibility, weighted_optimum


class CheckFailure(Exception):
    """A report disagrees with a computation made apart from the program."""


def alpha_of(kind: str) -> Fraction:
    """The plugin's oracle factor: local ratio for vertex cover, exact otherwise."""
    return Fraction(2) if kind == "vc" else Fraction(1)


def expected_factors(algorithm: str, alpha: Fraction, eps: Fraction) -> tuple:
    """(budget or first factor, cost or second factor) the paper states."""
    if algorithm in ("sweep", "pareto"):
        return alpha * (1 + 2 * eps), alpha * (1 + 2 / eps)
    if algorithm == "fixed":
        return 3 * alpha, 3 * alpha
    if algorithm == "binary":
        return 1 + 2 * eps, 1 + 2 / eps
    if algorithm == "parametric":
        return 1 + eps, 1 + 1 / eps
    if algorithm == "pareto-parametric":
        return alpha * (1 + eps), alpha * (1 + 1 / eps)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _rational(text, where) -> Fraction:
    if not isinstance(text, str):
        raise CheckFailure(f"{where}: expected a p/q string, got {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise CheckFailure(f"{where}: {exc}") from None


def _expect(condition, message):
    if not condition:
        raise CheckFailure(message)


class Checker:
    """Checks reports against the instance files and a per-instance enumeration."""

    def __init__(self, instance_paths: dict):
        self.instances = {
            key: Instance.from_dict(json.loads(Path(path).read_text()))
            for key, path in instance_paths.items()
        }
        self._solutions = {}

    def solutions(self, key):
        """All solutions of a small instance, or None when there are too many."""
        if key not in self._solutions:
            self._solutions[key] = enumerate_solutions(self.instances[key])
        return self._solutions[key]

    def check(self, op, report: dict) -> None:
        _expect(report.get("problem") == op.problem, "report names another problem")
        _expect(report.get("algorithm") == op.algorithm, "report names another algorithm")
        _expect(_rational(report.get("epsilon"), "epsilon") == op.eps, "epsilon differs")
        if op.command == "solve-budget":
            self._check_budget(op, report)
        else:
            self._check_pareto(op, report)

    def _record(self, inst, solutions, record, where) -> tuple:
        """Check token, image and optimality; return (f1, f2, produced_at or None).

        Vertex-cover records are checked against twice the enumerated
        optimum when ``solutions`` is known; the other kinds against the
        reference solver.
        """
        token = record.get("token")
        reason = infeasibility(inst, token)
        _expect(reason is None, f"{where}: infeasible token {token}: {reason}")
        f1 = _rational(record["image"]["f1"], f"{where}.image.f1")
        f2 = _rational(record["image"]["f2"], f"{where}.image.f2")
        _expect((f1, f2) == image(inst, token), f"{where}: image {f1},{f2} is not the token's")
        gamma = record.get("produced_at")
        if gamma is None:
            return f1, f2, None
        gamma = _rational(gamma, f"{where}.produced_at")
        _expect(gamma > 0, f"{where}: produced_at must be positive")
        value = f1 + gamma * f2
        if inst.kind == "vc":
            if solutions is not None:
                best = min(a + gamma * b for _, (a, b) in solutions)
                _expect(value <= 2 * best, f"{where}: cover exceeds twice the optimum")
        else:
            _, best = weighted_optimum(inst, gamma)
            _expect(value == best, f"{where}: not optimal at produced_at ({value} > {best})")
        return f1, f2, gamma

    def _check_budget(self, op, report):
        inst = self.instances[op.instance]
        alpha = alpha_of(op.problem)
        bf, cf = expected_factors(op.algorithm, alpha, op.eps)
        cert = report.get("certificate")
        _expect(cert is not None and "record" in report, "no certificate in the report")
        _expect(_rational(cert["alpha"], "alpha") == alpha, "certificate alpha differs")
        _expect(_rational(cert["budget_factor"], "budget_factor") == bf, "budget_factor differs")
        _expect(_rational(cert["cost_factor"], "cost_factor") == cf, "cost_factor differs")
        _expect(_rational(cert["budget"], "budget") == op.budget, "certificate budget differs")
        _expect(
            cert["oracle_calls"] == report["oracle_calls"] and cert["oracle_calls"] >= 1,
            "oracle_calls disagree",
        )
        solutions = self.solutions(op.instance)
        f1, f2, gamma = self._record(inst, solutions, report["record"], "record")
        _expect(gamma is not None, "record lacks produced_at")
        _expect(f1 <= bf * op.budget, f"f1 {f1} exceeds budget_factor*B")
        verification = report.get("verification")
        _expect(op.verify == (verification is not None), "verification block presence")
        if solutions is None:
            _expect(not op.verify, "a verified instance must be enumerable")
            return
        opt = min(b for _, (a, b) in solutions if a <= op.budget)
        _expect(f2 <= cf * opt, f"f2 {f2} exceeds cost_factor*OPT(B) = {cf * opt}")
        if op.verify:
            _expect(verification["verdict"] is True, "verification verdict is not true")
            _expect(_rational(verification["opt_budget"], "opt_budget") == opt, "opt_budget differs")
            _expect(
                _rational(verification["budget_factor"], "v.budget_factor") == bf
                and _rational(verification["cost_factor"], "v.cost_factor") == cf,
                "verification factors differ",
            )

    def _check_pareto(self, op, report):
        inst = self.instances[op.instance]
        alpha = alpha_of(op.problem)
        fa, fb = expected_factors(op.algorithm, alpha, op.eps)
        curve = report.get("pareto")
        _expect(curve is not None, "no curve in the report")
        _expect(_rational(curve["factor1"], "factor1") == fa, "factor1 differs")
        _expect(_rational(curve["factor2"], "factor2") == fb, "factor2 differs")
        _expect(report.get("oracle_calls", 0) >= 1, "oracle_calls below one")
        records = curve["records"]
        _expect(len(records) >= 1, "empty curve")
        solutions = self.solutions(op.instance)
        points = []
        for k, record in enumerate(records):
            f1, f2, gamma = self._record(inst, solutions, record, f"records[{k}]")
            _expect(gamma is not None, f"records[{k}] lacks produced_at")
            points.append((f1, f2))
        for i, p in enumerate(points):
            for q in points[i + 1:]:
                _expect(p != q, f"curve repeats point {p}")
                _expect(
                    not (p[0] <= q[0] and p[1] <= q[1]) and not (q[0] <= p[0] and q[1] <= p[1]),
                    f"curve points {p} and {q} are not mutually nondominated",
                )
        verification = report.get("verification")
        _expect(op.verify == (verification is not None), "verification block presence")
        if solutions is None:
            _expect(not op.verify, "a verified instance must be enumerable")
            return
        covered = all(
            any(a <= fa * x1 and b <= fb * x2 for a, b in points) for _, (x1, x2) in solutions
        )
        _expect(covered, "curve leaves a solution uncovered")
        if op.verify:
            _expect(verification["verdict"] is True, "verification verdict is not true")
            _expect(
                verification["solutions_checked"] == len(solutions),
                f"solutions_checked {verification['solutions_checked']} != {len(solutions)}",
            )
