"""Command-line front end.

Instance ingestion, algorithm selection, certificate and Pareto
reporting, optional verification against the brute-force oracle, and the
counterexample reproductions.  The instance format, its digest and the
report layout live in ``formats``.

``Fraction`` appears only at the edges of a call.  Ingest reads every
"p/q" of the instance file as a reduced int pair, and the oracles work
on ints scaled from those pairs.  Fractions are made for the flags and
for the images, weights and factors a run produces; a report holds them
until ``formats`` writes it, so no number becomes text here.

Exit codes: 0 success, 2 usage, 3 no certificate / no feasible solution,
4 parse or validation failure.

The argument parser depends on no input, so it is built on the first call
of ``main`` and kept for the process.  Nothing else is kept between calls:
each call reads and validates its ``--input`` file again.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from .core import Grid, parse_rational
from .errors import (
    CapExceeded,
    ExactOracleRequired,
    NoCertificate,
    NoFeasibleSolution,
    NotParametricCapable,
    ParseError,
    ProblemMismatch,
    ValidationError,
)
from .exact_search import solve_budget_binary, solve_budget_parametric
from .formats import PROBLEM_KINDS, curve_csv, instance_digest, instance_from_dict, report_json
from .marathe import example2_graph, reproduce_example1, reproduce_example2
from .oracle import check_node_cap, exact_opt_budget, verify_budget, verify_pareto_by_enumeration
from .oracle import (  # unused here; perfbench's tracer wraps these names
    enumerate_all,  # noqa: F401
    verify_pareto_coverage,  # noqa: F401
)
from .pareto import approximate_pareto, pareto_from_parametric
from .pareto import pareto_index_range  # noqa: F401  unused; perfbench's tracer wraps this name
from .problems import adapter_for
from .sweep import BudgetQuery, solve_budget_fixed, solve_budget_sweep

ALGORITHMS = ("sweep", "binary", "parametric", "fixed")


def ingest(path: str):
    """Load and validate an instance file.

    The format is a JSON object with fields: kind ("mst"|"path"|"cut"|"vc"),
    relaxed (bool), nodes (int), edges (list of {"u", "v", "w1", "w2"}),
    optional source/sink for path and cut instances, and vertex_weights
    (list of {"w1", "w2"}) for vertex-cover instances.  All rationals are
    "p/q" strings of ASCII digits; vertex-cover edges carry no weights.
    The file is read as bytes, so ``json`` detects UTF-8, -16 or -32
    whatever the locale.
    """
    try:
        with open(path, "rb") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON or bytes, or an int past Python's digit limit
        raise ParseError(f"{path}: malformed JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested past the interpreter's limit
        raise ParseError(f"{path}: malformed JSON: nested too deeply") from None
    return instance_from_dict(data)


def _token_list(token):
    if isinstance(token, (frozenset, set)):
        return sorted(token)
    return list(token)


def _record_dict(record) -> dict:
    out = {
        "token": _token_list(record.token),
        "image": {"f1": record.image.f1, "f2": record.image.f2},
    }
    if record.produced_at is not None:
        out["produced_at"] = record.produced_at
    return out


def _budget_verification(instance, record, budget, factors):
    opt = exact_opt_budget(instance, budget)
    return {
        "verdict": verify_budget(instance, record, budget, opt, factors),
        "opt_budget": opt,
        "budget_factor": factors[0],
        "cost_factor": factors[1],
    }


def _print_report(report, started, code=0) -> int:
    """Print ``report`` with its ``wall_time_ms``, timed before any number becomes text."""
    report["wall_time_ms"] = (time.perf_counter() - started) * 1000
    print(report_json(report))
    return code


def _ingest_for(args):
    """The ``--input`` instance, which must be of the ``--problem`` kind.

    With ``--verify`` the instance must also be within the enumeration's
    node cap, checked here so that an over-cap run stops before it solves.
    """
    instance = ingest(args.input)
    if instance.kind != args.problem:
        raise ProblemMismatch(
            f"--problem {args.problem} does not match instance kind {instance.kind}"
        )
    if args.verify:
        check_node_cap(instance)
    return instance


def _flag_rational(parser, name, text):
    try:
        return parse_rational(text)
    except ParseError as exc:
        parser.error(f"{name}: {exc}")


def _cmd_solve_budget(args, parser) -> int:
    budget = _flag_rational(parser, "--budget", args.budget)
    eps = _flag_rational(parser, "--epsilon", args.epsilon)
    instance = _ingest_for(args)
    if args.algorithm == "fixed" and eps != 1:
        parser.error("--algorithm fixed pins epsilon to 1")
    adapter = adapter_for(instance)
    try:
        query = BudgetQuery(budget=budget, eps=eps)
    except ValueError as exc:
        parser.error(str(exc))
    started = time.perf_counter()
    report = {
        "command": args.echo,
        "instance_digest": instance_digest(instance),
        "problem": instance.kind,
        "algorithm": args.algorithm,
        "budget": budget,
        "epsilon": eps,
    }
    try:
        if args.algorithm == "sweep":
            record, cert = solve_budget_sweep(adapter, instance, query)
        elif args.algorithm == "fixed":
            record, cert = solve_budget_fixed(adapter, instance, budget)
        elif args.algorithm == "binary":
            record, cert = solve_budget_binary(adapter, instance, query)
        else:
            record, cert = solve_budget_parametric(adapter, instance, query)
    except NoCertificate as exc:
        report["no_certificate"] = {
            "records": [_record_dict(r) for r in exc.records],
            "oracle_calls": len(exc.records),
            "f1_limit": exc.f1_limit,
            "min_f1": min(r.image.f1 for r in exc.records),
        }
        return _print_report(report, started, 3)
    report["record"] = _record_dict(record)
    report["certificate"] = dict(vars(cert))  # its five fields; asdict deep-copies
    report["oracle_calls"] = cert.oracle_calls
    if args.verify:
        factors = (cert.budget_factor, cert.cost_factor)
        report["verification"] = _budget_verification(instance, record, budget, factors)
    return _print_report(report, started)


def _cmd_pareto(args, parser) -> int:
    if args.format == "csv" and args.verify:
        parser.error("--verify needs --format json: the csv output has no verification")
    eps = _flag_rational(parser, "--epsilon", args.epsilon)
    instance = _ingest_for(args)
    try:
        weights = Grid(eps)
    except ValueError as exc:
        parser.error(str(exc))
    adapter = adapter_for(instance)
    started = time.perf_counter()
    try:
        if args.parametric:
            curve = pareto_from_parametric(adapter, instance, weights)
        else:
            curve = approximate_pareto(adapter, instance, weights)
    except ExactOracleRequired as exc:
        parser.error(str(exc))
    if args.format == "csv":
        print(curve_csv(curve.records))
        return 0
    report = {
        "command": args.echo,
        "instance_digest": instance_digest(instance),
        "problem": instance.kind,
        "algorithm": "pareto-parametric" if args.parametric else "pareto",
        "epsilon": eps,
        "pareto": {
            "factor1": curve.factor1,
            "factor2": curve.factor2,
            "records": [_record_dict(r) for r in curve.records],
        },
        "oracle_calls": curve.oracle_calls,
    }
    if args.verify:
        verdict, checked = verify_pareto_by_enumeration(
            instance, curve.records, curve.factor1, curve.factor2
        )
        report["verification"] = {"verdict": verdict, "solutions_checked": checked}
    return _print_report(report, started)


def _trace_dict(trace) -> dict:
    budget, eps, ub2 = trace.params
    return {
        "params": {"budget": budget, "eps": eps, "ub2": ub2},
        "tested": [{"D": d, "h": h, "token": _token_list(token)} for d, h, token in trace.tested],
        "outcome": None if trace.outcome is None else _record_dict(trace.outcome),
    }


def _cmd_repro(args, parser) -> int:
    started = time.perf_counter()
    if args.case == "marathe-ex1":
        trace = reproduce_example1()
        extra = {"ratios": [h / d for d, h, _ in trace.tested]}
    else:
        trace = reproduce_example2()
        budget = Fraction(3)
        extra = {
            "feasibility_witness": {
                "budget": budget,
                "opt_budget": exact_opt_budget(example2_graph(), budget),
            }
        }
    report = {
        "command": args.echo,
        "case": args.case,
        "trace": _trace_dict(trace),
        "oracle_calls": len(trace.tested),
        **extra,
    }
    return _print_report(report, started)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared for the process.

    It holds no state of a call: ``parse_args`` fills a new namespace each
    time.  Building it costs about as much as a small Pareto curve, and it
    is not built at import, which the benchmark's set-up time includes.
    """
    parser = argparse.ArgumentParser(
        prog="bicrit",
        description="Budget-constrained bicriteria approximation and approximate "
        "Pareto curves over exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve-budget", help="minimize f2 subject to f1 <= B")
    solve.add_argument("--problem", choices=PROBLEM_KINDS, required=True)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="sweep")
    solve.add_argument("--budget", required=True, help="budget B as p/q")
    solve.add_argument("--epsilon", default="1", help="accuracy parameter as p/q (default 1)")
    solve.add_argument("--input", required=True, help="instance JSON path")
    solve.add_argument("--verify", action="store_true", help="check against the brute-force oracle")
    solve.set_defaults(handler=_cmd_solve_budget)

    pareto = sub.add_parser("pareto", help="compute an approximate Pareto curve")
    pareto.add_argument("--problem", choices=PROBLEM_KINDS, required=True)
    pareto.add_argument("--epsilon", default="1", help="accuracy parameter as p/q (default 1)")
    pareto.add_argument("--input", required=True, help="instance JSON path")
    pareto.add_argument(
        "--parametric", action="store_true", help="all-weights search (exact oracles only)"
    )
    pareto.add_argument("--verify", action="store_true", help="check coverage by enumeration")
    pareto.add_argument("--format", choices=("json", "csv"), default="json")
    pareto.set_defaults(handler=_cmd_pareto)

    repro = sub.add_parser("repro", help="reproduce a documented counterexample")
    repro.add_argument("--case", choices=("marathe-ex1", "marathe-ex2"), required=True)
    repro.set_defaults(handler=_cmd_repro)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = argv
    try:
        return args.handler(args, parser)
    except (ParseError, ValidationError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ExactOracleRequired, NotParametricCapable, ProblemMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoFeasibleSolution as exc:
        print(f"error: no feasible solution: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
