from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from bicrit import cli
from bicrit.cli import _budget_verification, build_parser, ingest, main
from bicrit.core import CostPair, parse_rational
from bicrit.errors import ParseError, ValidationError
from bicrit.formats import instance_digest, report_json, serialize_instance
from bicrit.marathe import example1_graph
from bicrit.oracle import enumerate_all
from bicrit.problems import (
    BiweightedGraph,
    MinCutAdapter,
    MstAdapter,
    ShortestPathAdapter,
    VertexWeightedGraph,
    mst,
)

REPO = Path(__file__).resolve().parent.parent
INSTANCE_DIR = REPO / "instances"
DEMOS = [
    "demo_mst_a.json",
    "demo_mst_b.json",
    "demo_path.json",
    "demo_cut.json",
    "demo_vc.json",
    "demo_relaxed_mst.json",
]


def demo(name):
    return str(INSTANCE_DIR / name)


def write_instance(tmp_path, instance):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(serialize_instance(instance)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestIngest:
    @pytest.mark.parametrize("name", DEMOS)
    def test_round_trip(self, tmp_path, name):
        instance = ingest(demo(name))
        again = ingest(write_instance(tmp_path, instance))
        assert again == instance
        assert instance_digest(again) == instance_digest(instance)

    def test_zero_weight_needs_relaxed_flag(self, tmp_path):
        data = {
            "kind": "mst",
            "relaxed": False,
            "nodes": 2,
            "edges": [
                {"u": 0, "v": 1, "w1": "0/1", "w2": "1"},
                {"u": 0, "v": 1, "w1": "1", "w2": "1"},
            ],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError):
            ingest(str(path))
        data["relaxed"] = True
        path.write_text(json.dumps(data))
        assert ingest(str(path)).relaxed

    def test_malformed_json_and_rationals(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            ingest(str(path))
        path.write_text(json.dumps({"kind": "mst", "nodes": 2, "edges": [
            {"u": 0, "v": 1, "w1": "1.5", "w2": "1"}]}))
        with pytest.raises(ParseError):
            ingest(str(path))

    def test_disconnected_mst_rejected(self, tmp_path):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps({
            "kind": "mst", "nodes": 3,
            "edges": [{"u": 0, "v": 1, "w1": "1", "w2": "1"}],
        }))
        with pytest.raises(ValidationError):
            ingest(str(path))

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32-le"])
    def test_file_is_decoded_by_json_not_the_locale(self, tmp_path, encoding):
        text = Path(demo("demo_path.json")).read_text(encoding="utf-8")
        path = tmp_path / "encoded.json"
        path.write_bytes(text.encode(encoding))
        assert ingest(str(path)) == ingest(demo("demo_path.json"))

    def test_invalid_utf8_exits_four(self, capsys, tmp_path):
        text = Path(demo("demo_mst_a.json")).read_text(encoding="utf-8")
        path = tmp_path / "bad_bytes.json"
        path.write_bytes(text.replace('"mst"', '"m\xffst"').encode("latin-1"))
        assert main(["pareto", "--problem", "mst", "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert "malformed JSON" in err and "Traceback" not in err


# Strings int() and Fraction() accept but the p/q format does not:
# non-ASCII digits, a trailing newline, digit-group underscores.
NOT_ASCII_P_Q = ["\uff13", "\u0663", "\uff13/\uff14", "3\n", "3/1\n", "3_0"]


class TestExitCodes:
    def test_success(self, capsys):
        code, report = run_json(capsys, [
            "solve-budget", "--problem", "mst", "--algorithm", "sweep",
            "--budget", "3", "--epsilon", "1", "--input", demo("demo_mst_b.json"),
            "--verify",
        ])
        assert code == 0
        assert report["certificate"]["budget_factor"] == "3"
        assert report["verification"]["verdict"] is True

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve-budget", "--problem", "mst", "--budget", "3",
                  "--input", demo("demo_mst_a.json"), "--format", "csv"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["solve-budget", "--problem", "mst", "--algorithm", "fixed",
                  "--budget", "3", "--epsilon", "1/2", "--input", demo("demo_mst_a.json")])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["pareto", "--problem", "vc", "--parametric",
                  "--input", demo("demo_vc.json")])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_pareto_csv_refuses_verify(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pareto", "--problem", "mst", "--input", demo("demo_mst_a.json"),
                  "--format", "csv", "--verify"])
        assert excinfo.value.code == 2
        assert "--verify" in capsys.readouterr().err

    def test_pareto_reports_an_internal_value_error_as_such(self, monkeypatch):
        # Only a bad --epsilon is a usage error (a golden pins it); a fault in the build is not.
        def fail(*_):
            raise ValueError("records not mutually nondominated: internal")

        monkeypatch.setattr(cli, "approximate_pareto", fail)
        with pytest.raises(ValueError, match="internal"):
            main(["pareto", "--problem", "mst", "--epsilon", "1/2",
                  "--input", demo("demo_mst_a.json")])

    def test_malformed_flag_rationals_exit_two(self, capsys):
        for budget, eps in (("2.5", "1"), ("3", "abc")):
            with pytest.raises(SystemExit) as excinfo:
                main(["solve-budget", "--problem", "mst", "--budget", budget,
                      "--epsilon", eps, "--input", demo("demo_mst_a.json")])
            assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text", NOT_ASCII_P_Q)
    def test_non_ascii_p_q_in_a_file_exits_four(self, capsys, tmp_path, text):
        data = json.loads(Path(demo("demo_mst_a.json")).read_text())
        data["edges"][1]["w1"] = text
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(data))
        assert main(["pareto", "--problem", "mst", "--input", str(path)]) == 4
        assert capsys.readouterr().err == f"error: edges[1].w1: not a p/q rational: {text!r}\n"

    @pytest.mark.parametrize("flag", ["--budget", "--epsilon"])
    @pytest.mark.parametrize("text", NOT_ASCII_P_Q)
    def test_non_ascii_p_q_in_a_flag_exits_two(self, capsys, flag, text):
        argv = ["solve-budget", "--problem", "mst", "--budget", "3", "--epsilon", "1",
                "--input", demo("demo_mst_a.json")]
        argv[argv.index(flag) + 1] = text
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"{flag}: not a p/q rational: {text!r}" in capsys.readouterr().err

    def test_problem_mismatch_exits_two(self, capsys):
        code = main(["solve-budget", "--problem", "path", "--budget", "3",
                     "--input", demo("demo_mst_a.json")])
        assert code == 2
        capsys.readouterr()

    def test_no_certificate_exits_three_with_transcript(self, capsys, monkeypatch):
        calls = []
        oracle = mst.mst_oracle
        monkeypatch.setattr(mst, "mst_oracle", lambda *args: calls.append(1) or oracle(*args))
        # Parametric search's master run is one oracle call too.
        run = mst.MstAdapter.run_parametric
        monkeypatch.setattr(
            mst.MstAdapter, "run_parametric", lambda *args: calls.append(1) or run(*args)
        )
        # Each search's own f1 limit at B = 1/10, eps = 1: the grid filters
        # at (1+2*eps)*B, the parametric search at (1+eps)*B.
        for algorithm, limit in (("fixed", "3/10"), ("binary", "3/10"), ("parametric", "1/5")):
            calls.clear()
            code, report = run_json(capsys, [
                "solve-budget", "--problem", "mst", "--algorithm", algorithm,
                "--budget", "1/10", "--input", demo("demo_mst_a.json"),
            ])
            assert code == 3
            failed = report["no_certificate"]
            assert failed["f1_limit"] == limit
            # The records solved, one per oracle call, none within the limit.
            assert failed["oracle_calls"] == len(failed["records"]) == len(calls) > 0
            assert all(
                parse_rational(r["image"]["f1"]) > parse_rational(limit)
                for r in failed["records"]
            )
            if algorithm == "fixed":
                # The grid walker lists them in index order: increasing weights.
                weights = [parse_rational(r["produced_at"]) for r in failed["records"]]
                assert weights == sorted(set(weights))

    def test_no_certificate_reports_the_least_f1_solved(self, capsys):
        # Vertex cover's grid is run symbolically; its transcript is one record per run.
        for algorithm in ("sweep", "fixed"):
            code, report = run_json(capsys, [
                "solve-budget", "--problem", "vc", "--algorithm", algorithm,
                "--budget", "1/10", "--input", demo("demo_vc.json"),
            ])
            assert code == 3
            failed = report["no_certificate"]
            least = min(parse_rational(r["image"]["f1"]) for r in failed["records"])
            assert parse_rational(failed["min_f1"]) == least
            assert least > parse_rational(failed["f1_limit"])

    def test_verify_refuses_instances_beyond_the_cap(self, capsys, tmp_path, monkeypatch):
        big = BiweightedGraph(
            14,
            tuple((v - 1, v, (1, 1)) for v in range(1, 14)),
            kind="path",
            source=0,
            sink=13,
        )
        path = write_instance(tmp_path, big)
        argv = ["solve-budget", "--problem", "path", "--budget", "13",
                "--input", path, "--verify"]

        def refuse(*_):
            raise AssertionError("an oracle ran before the enumeration cap was checked")

        # The cap is checked right after ingest, so no algorithm gets to run.
        for method in ("bounds", "solve_weighted_sum", "solve_all_weights", "run_parametric"):
            monkeypatch.setattr(ShortestPathAdapter, method, refuse)
        for run in (argv, ["pareto", "--problem", "path", "--input", path, "--verify"]):
            assert main(run) == 4
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: 14 nodes exceeds the enumeration cap 12\n"
        monkeypatch.undo()
        assert main(argv[:-1]) == 0  # fine without verification
        capsys.readouterr()

    def test_verify_mst_with_1500_parallel_edges_exits_zero(self, capsys, tmp_path):
        # The recursive tree enumeration went one level deeper per edge: RecursionError.
        edges = tuple((0, 1, (1 + i % 5, 1 + i * 7 % 5)) for i in range(1500))
        path = write_instance(tmp_path, BiweightedGraph(2, edges, kind="mst"))
        code, report = run_json(
            capsys, ["pareto", "--problem", "mst", "--epsilon", "1", "--input", path, "--verify"]
        )
        assert code == 0
        assert report["verification"]["solutions_checked"] == 1500
        assert report["verification"]["verdict"] is True
        code, report = run_json(capsys, ["solve-budget", "--problem", "mst", "--budget", "3",
                                         "--epsilon", "1", "--input", path, "--verify"])
        assert code == 0
        assert report["verification"]["verdict"] is True

    def test_verify_path_with_a_dead_end_component_is_bounded(self, capsys, tmp_path):
        # Nodes 0-9 pairwise joined twice, the sink joined to the source only: one
        # path, but the unpruned walk covered every simple path in the dead end.
        edges = [(u, v, (1, 2)) for u in range(10) for v in range(u + 1, 10) for _ in range(2)]
        edges.append((0, 10, (1, 1)))
        graph = BiweightedGraph(11, tuple(edges), kind="path", source=0, sink=10)
        path = write_instance(tmp_path, graph)
        started = time.perf_counter()
        code, report = run_json(
            capsys, ["pareto", "--problem", "path", "--epsilon", "1", "--input", path, "--verify"]
        )
        assert time.perf_counter() - started < 10
        assert code == 0
        assert report["verification"]["solutions_checked"] == 1
        assert report["verification"]["verdict"] is True

    @pytest.mark.parametrize("field, value, where", [
        ("relaxed", "false", "relaxed"),
        ("nodes", True, "nodes"),
        ("source", "0", "source"),
        ("edges", [1, 2], "edges[0]"),
    ])
    def test_malformed_field_exits_four(self, capsys, tmp_path, field, value, where):
        data = json.loads(Path(demo("demo_path.json")).read_text())
        data[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main(["pareto", "--problem", "path", "--input", str(path)]) == 4
        assert capsys.readouterr().err.startswith(f"error: {where}: expected ")

    @pytest.mark.parametrize("ends, message", [
        ({"source": 1.5, "sink": "x"}, "source: expected int, got float"),
        ({"source": 0, "sink": 1}, "a vertex-weighted graph has kind 'vc' and no source/sink"),
    ])
    def test_vertex_cover_file_with_source_and_sink_exits_four(
        self, capsys, tmp_path, ends, message
    ):
        data = json.loads(Path(demo("demo_vc.json")).read_text())
        data.update(ends)
        path = tmp_path / "vc.json"
        path.write_text(json.dumps(data))
        assert main(["pareto", "--problem", "vc", "--epsilon", "1", "--input", str(path)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("relaxed, code", [(False, 4), (True, 0)])
    def test_edgeless_vertex_cover_file_needs_relaxed(self, capsys, tmp_path, relaxed, code):
        # Its one cover is the empty one, image (0, 0): outside the strict, positive regime.
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({
            "kind": "vc", "nodes": 2, "edges": [], "relaxed": relaxed,
            "vertex_weights": [{"w1": "1", "w2": "2"}, {"w1": "3", "w2": "1"}],
        }))
        argv = ["solve-budget", "--problem", "vc", "--budget", "1", "--input", str(path)]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if relaxed:
            assert json.loads(out)["record"]["image"] == {"f1": "0", "f2": "0"}
        else:
            assert err == (
                "error: strict vertex-cover instance needs an edge "
                "(an empty cover needs relaxed=true)\n"
            )

    @pytest.mark.parametrize("name, extra", [
        ("demo_mst_a.json", {}),
        ("demo_path.json", {"relaxed": True}),
    ])
    def test_huge_node_count_exits_four(self, tmp_path, name, extra):
        data = json.loads(Path(demo(name)).read_text())
        data.update(extra, nodes=10**30)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))

        def limit_memory():
            # Without the bound these inputs build per-node lists; cap the
            # child so a regression fails fast instead of filling memory.
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

        done = subprocess.run(
            [sys.executable, "-m", "bicrit.cli", "pareto", "--problem", data["kind"],
             "--input", str(path)],
            capture_output=True, text=True, timeout=30, preexec_fn=limit_memory,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert done.returncode == 4
        assert done.stderr.startswith("error: nodes: ")
        assert "Traceback" not in done.stderr

    def test_oversized_json_integer_exits_four(self, capsys, tmp_path):
        # Python refuses to parse an integer of more than 4300 digits.
        text = Path(demo("demo_mst_a.json")).read_text()
        path = tmp_path / "digits.json"
        path.write_text(text.replace('"nodes": 3', '"nodes": ' + "9" * 5000))
        assert main(["pareto", "--problem", "mst", "--input", str(path)]) == 4
        assert "malformed JSON" in capsys.readouterr().err

    def test_deeply_nested_json_exits_four(self, capsys, tmp_path):
        # json.load raises RecursionError, not ValueError, past the interpreter's limit.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["pareto", "--problem", "mst", "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert "malformed JSON" in err and "Traceback" not in err

    def test_parse_and_validation_exit_four(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert main(["solve-budget", "--problem", "mst", "--budget", "1",
                     "--input", str(bad)]) == 4
        disc = tmp_path / "disc.json"
        disc.write_text(json.dumps({
            "kind": "mst", "nodes": 3,
            "edges": [{"u": 0, "v": 1, "w1": "1", "w2": "1"}],
        }))
        assert main(["solve-budget", "--problem", "mst", "--budget", "1",
                     "--input", str(disc)]) == 4
        capsys.readouterr()


class TestReports:
    def test_deterministic_modulo_wall_time(self, capsys):
        argv = ["solve-budget", "--problem", "cut", "--algorithm", "binary",
                "--budget", "5", "--epsilon", "1/2", "--input", demo("demo_cut.json"),
                "--verify"]

        def raw_without_wall_time():
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            return "\n".join(line for line in lines if "wall_time_ms" not in line)

        assert raw_without_wall_time() == raw_without_wall_time()

    def test_rationals_serialized_reduced(self, capsys):
        code, report = run_json(capsys, [
            "solve-budget", "--problem", "vc", "--budget", "6/2",
            "--input", demo("demo_vc.json"), "--verify",
        ])
        assert code == 0
        assert report["budget"] == "3"
        assert report["certificate"]["alpha"] == "2"

    def test_pareto_json_and_csv(self, capsys):
        code, report = run_json(capsys, [
            "pareto", "--problem", "mst", "--epsilon", "1",
            "--input", demo("demo_mst_a.json"), "--verify",
        ])
        assert code == 0
        assert report["verification"]["verdict"] is True
        images = {
            (r["image"]["f1"], r["image"]["f2"]) for r in report["pareto"]["records"]
        }
        assert images == {("2", "4"), ("4", "2")}
        code = main(["pareto", "--problem", "mst", "--epsilon", "1",
                     "--input", demo("demo_mst_a.json"), "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and lines[0] == "f1,f2" and set(lines[1:]) == {"2,4", "4,2"}

    def test_parametric_pareto_report(self, capsys):
        code, report = run_json(capsys, [
            "pareto", "--problem", "mst", "--parametric", "--epsilon", "1",
            "--input", demo("demo_mst_b.json"), "--verify",
        ])
        assert code == 0
        assert report["pareto"]["factor1"] == "2"
        assert report["verification"]["verdict"] is True

    @pytest.mark.parametrize("kind, name", [("path", "demo_path.json"), ("cut", "demo_cut.json")])
    def test_parametric_pareto_covers_path_and_cut(self, capsys, kind, name):
        code, report = run_json(capsys, [
            "pareto", "--problem", kind, "--parametric", "--epsilon", "1/2",
            "--input", demo(name), "--verify",
        ])
        assert code == 0
        assert (report["pareto"]["factor1"], report["pareto"]["factor2"]) == ("3/2", "3")
        assert report["verification"]["verdict"] is True
        assert report["oracle_calls"] <= 2 * len(report["pareto"]["records"])

    def test_relaxed_pareto_covers_zero_cost_points(self, capsys):
        code, report = run_json(capsys, [
            "pareto", "--problem", "mst", "--epsilon", "1/4",
            "--input", demo("demo_relaxed_mst.json"), "--verify",
        ])
        assert code == 0
        assert report["verification"]["verdict"] is True

    @pytest.mark.parametrize("algorithm", ["sweep", "fixed", "binary", "parametric"])
    def test_relaxed_budget_verifies(self, capsys, algorithm):
        # OPT(1) = 0 on this instance: only the tree (1, 0) meets the guarantee.
        code, report = run_json(capsys, [
            "solve-budget", "--problem", "mst", "--algorithm", algorithm, "--budget", "1",
            "--epsilon", "1" if algorithm == "fixed" else "1/4",
            "--input", demo("demo_relaxed_mst.json"), "--verify",
        ])
        assert code == 0
        assert report["record"]["image"] == {"f1": "1", "f2": "0"}
        assert report["verification"]["opt_budget"] == "0"
        assert report["verification"]["verdict"] is True

    @pytest.mark.parametrize("argv", [
        ["pareto", "--problem", "mst", "--epsilon", "1/300",
         "--input", demo("demo_mst_a.json")],
        ["solve-budget", "--problem", "mst", "--budget", "3", "--epsilon", "1/300",
         "--input", demo("demo_mst_b.json")],
    ])
    def test_fine_epsilon_prints_long_weights(self, capsys, argv):
        # Grid weights at eps = 1/300 pass Python's 4300-digit int-to-str limit.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, report = run_json(capsys, argv)
        assert code == 0
        records = report["pareto"]["records"] if "pareto" in report else [report["record"]]
        assert max(len(r["produced_at"]) for r in records) > 4300
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_print_long_images(self, tmp_path, capsys, fmt):
        # Each edge's w1 has a 3000-digit denominator, so the tree's f1 has about
        # 6000: an image's denominator is the lcm of its weights' denominators.
        edges = [
            {"u": 0, "v": 1, "w1": "1/1" + "0" * 2998 + "1", "w2": "1"},
            {"u": 1, "v": 2, "w1": "1/1" + "0" * 2998 + "3", "w2": "1"},
        ]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"kind": "mst", "nodes": 3, "edges": edges}))
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code = main(["pareto", "--problem", "mst", "--format", fmt, "--epsilon", "1/2",
                     "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        if fmt == "csv":
            rows = out.splitlines()
            assert rows[0] == "f1,f2"
            images = rows[1:]
        else:
            images = [r["image"]["f1"] for r in json.loads(out)["pareto"]["records"]]
        assert max(len(image) for image in images) > 4300
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    def test_budget_verification_checks_f1_without_an_optimum(self, capsys):
        # No tree of demo_mst_b meets B = 3/2 (the least f1 is 3), so there is
        # no OPT(B) to check f2 against; f1 must still meet budget_factor*B.
        # The tree of image (4, 2) is a true record, but 4 > 2 * 3/2.
        instance = ingest(demo("demo_mst_b.json"))
        tree = next(r for r in enumerate_all(instance) if r.image == CostPair(4, 2))
        for factor, verdict in ((2, False), (3, True)):
            factors = (Fraction(factor), Fraction(factor))
            verification = _budget_verification(instance, tree, Fraction(3, 2), factors)
            assert verification["opt_budget"] is None
            assert verification["verdict"] is verdict
        # A certified record meets its own f1 limit, so a real run still verifies.
        code, report = run_json(capsys, [
            "solve-budget", "--problem", "mst", "--budget", "1", "--epsilon", "1",
            "--input", demo("demo_mst_b.json"), "--verify",
        ])
        assert code == 0
        assert report["verification"]["opt_budget"] is None
        assert report["verification"]["verdict"] is True


def _printed(report):
    """The images and the tokens of a report's budget record or curve points."""
    records = [report["record"]] if "record" in report else report["pareto"]["records"]
    return [r["image"] for r in records], [r["token"] for r in records]


def _another_tree(instance, record):
    """Another spanning tree's token, printed under ``record``'s image."""
    other = next(r for r in enumerate_all(instance) if r.image != record.image)
    return replace(record, token=other.token)


def _path_back_and_forth(instance, record):
    """The path, then its last edge back and forth: it revisits a node."""
    return replace(record, token=record.token + record.token[-1:] * 2)


def _cut_without_its_source(instance, record):
    return replace(record, token=record.token - {instance.source})


class TestVerifyChecksTheTokens:
    # An oracle that answers with the right image but a wrong token turns both verdicts false.
    @pytest.mark.parametrize("adapter, name, forge", [
        (MstAdapter, "demo_mst_b.json", _another_tree),
        (ShortestPathAdapter, "demo_path.json", _path_back_and_forth),
        (MinCutAdapter, "demo_cut.json", _cut_without_its_source),
    ])
    def test_a_forged_token_fails_verification(self, capsys, monkeypatch, adapter, name, forge):
        kind = ingest(demo(name)).kind
        argvs = [
            ["solve-budget", "--problem", kind, "--budget", "3", "--epsilon", "1/2"],
            ["pareto", "--problem", kind, "--epsilon", "1/2"],
        ]
        argvs = [[*argv, "--input", demo(name), "--verify"] for argv in argvs]
        honest = [run_json(capsys, argv) for argv in argvs]
        assert [(code, report["verification"]["verdict"]) for code, report in honest] == [
            (0, True),
            (0, True),
        ]

        def forged(self, instance, gamma, _solve=adapter.solve_weighted_sum):
            return forge(instance, _solve(self, instance, gamma))

        monkeypatch.setattr(adapter, "solve_weighted_sum", forged)
        for argv, (_, expected) in zip(argvs, honest):
            code, report = run_json(capsys, argv)
            assert code == 0
            assert report["verification"]["verdict"] is False
            # The same images as the honest run's, under other tokens.
            images, tokens = _printed(report)
            assert images == _printed(expected)[0] and tokens != _printed(expected)[1]


class TestRepro:
    def test_example1_case(self, capsys):
        code, report = run_json(capsys, ["repro", "--case", "marathe-ex1"])
        assert code == 0
        assert report["ratios"] == ["7/3", "5/2"]
        assert [t["h"] for t in report["trace"]["tested"]] == ["7", "10"]

    def test_example2_case(self, capsys):
        code, report = run_json(capsys, ["repro", "--case", "marathe-ex2"])
        assert code == 0
        assert report["trace"]["outcome"] is None
        assert report["feasibility_witness"]["opt_budget"] == "3"


class TestSerialization:
    def test_serialize_matches_known_shape(self):
        data = serialize_instance(example1_graph())
        assert data["kind"] == "mst" and data["nodes"] == 3
        assert data["edges"][0] == {"u": 0, "v": 1, "w1": "3", "w2": "1"}

    def test_vc_edges_carry_no_weights(self):
        graph = VertexWeightedGraph(2, ((0, 1),), ((1, 2), ("1/2", 1)))
        data = serialize_instance(graph)
        assert data["edges"] == [{"u": 0, "v": 1}]
        assert data["vertex_weights"][1] == {"w1": "1/2", "w2": "1"}

    def test_digest_changes_with_instance(self):
        a = BiweightedGraph(2, [(0, 1, (1, 1))], kind="mst")
        b = BiweightedGraph(2, [(0, 1, (1, 2))], kind="mst")
        assert instance_digest(a) != instance_digest(b)

    @pytest.mark.parametrize("name", DEMOS)
    def test_digest_is_sha256_of_the_canonical_json(self, name):
        instance = ingest(demo(name))
        assert serialize_instance(instance) == json.loads(Path(demo(name)).read_text())
        canonical = json.dumps(serialize_instance(instance), sort_keys=True, separators=(",", ":"))
        assert instance_digest(instance) == hashlib.sha256(canonical.encode()).hexdigest()


class TestReportWriter:
    """``report_json`` writes exactly what ``json.dumps(indent=2, sort_keys=True)`` would,
    with each ``Fraction`` written as the string of its reduced "p/q" text."""

    def test_report_values(self):
        # (text, Fraction) leaves; the 5001-digit numerator is written without str().
        long = ("1" + "0" * 5000 + "/3", Fraction(10**5000, 3))
        leaves = [("3/4", Fraction(3, 4)), ("-7/2", Fraction(-7, 2)), ("2", Fraction(8, 4)),
                  ("0", Fraction(0)), long]

        def report(pick):
            return {
                "b": [1, -2, 10**40, True, False, None, 1.5, 0.1, -0.0, 1e300, 12.0],
                "a": {"z": [], "y": {}, "x": [[], [{}], {"k": [1]}], "w": (3, "t")},
                "s": ["", "p/q", 'quote " and \\', "tab\t new\nline", "caf\u00e9 \U0001f600", "\x00"],
                "": "empty key",
                "nan": [float("nan"), float("inf"), float("-inf")],
                "f": [pick(leaf) for leaf in leaves],
                "g": {"x": pick(leaves[0]), "mixed": [pick(long), 7, None, (pick(leaves[1]),)]},
            }

        assert report_json(report(lambda leaf: leaf[1])) == json.dumps(
            report(lambda leaf: leaf[0]), indent=2, sort_keys=True
        )
        plain = report(lambda leaf: leaf[0])
        assert report_json(plain) == json.dumps(plain, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [[], {}, "x", 0, None, True, [[[]]], {"a": {"b": {}}}])
    def test_small_values(self, value):
        assert report_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            report_json({"a": {1, 2}})


class TestOneParserPerProcess:
    """``main`` keeps its argparse parser between calls, and nothing else."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_flag_outlives_its_call(self, capsys):
        mst = demo("demo_mst_b.json")
        assert main(["solve-budget", "--problem", "mst", "--algorithm", "binary",
                     "--budget", "3", "--epsilon", "1/2", "--input", mst, "--verify"]) == 0
        assert main(["pareto", "--problem", "mst", "--parametric", "--verify",
                     "--epsilon", "1/2", "--input", mst]) == 0
        assert main(["pareto", "--problem", "mst", "--format", "csv", "--input", mst]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["pareto", "--problem", "mst", "--format", "xml", "--input", mst])
        assert excinfo.value.code == 2
        capsys.readouterr()

        argv = ["solve-budget", "--problem", "mst", "--budget", "3", "--input", mst]
        code, report = run_json(capsys, argv)
        assert code == 0 and report["command"] == argv
        assert (report["algorithm"], report["epsilon"]) == ("sweep", "1")
        assert "verification" not in report
        argv = ["pareto", "--problem", "mst", "--input", mst]
        code, report = run_json(capsys, argv)
        assert code == 0 and isinstance(report, dict), report  # JSON, not CSV
        assert report["command"] == argv and report["algorithm"] == "pareto"
        assert report["epsilon"] == "1" and "verification" not in report

    def test_each_call_reads_its_input_again(self, capsys, tmp_path):
        data = json.loads(Path(demo("demo_mst_a.json")).read_text())
        path = tmp_path / "changing.json"
        argv = ["pareto", "--problem", "mst", "--input", str(path)]
        digests = []
        for w1 in ("3", "5"):
            data["edges"][0]["w1"] = w1
            path.write_text(json.dumps(data))
            code, report = run_json(capsys, argv)
            assert code == 0
            digests.append(report["instance_digest"])
        assert digests[0] != digests[1]
        data["edges"][0]["w1"] = "5.0"
        path.write_text(json.dumps(data))
        assert main(argv) == 4
        assert "edges[0].w1: not a p/q rational" in capsys.readouterr().err

    @pytest.mark.skipif(
        not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
        reason="this Python has no builtin sha256 module",
    )
    def test_reports_hash_without_openssl(self):
        # hashlib would load OpenSSL's libcrypto through _hashlib.
        script = (
            "import contextlib, io, sys\n"
            "from bicrit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['pareto', '--problem', 'mst', '--input', {demo('demo_mst_a.json')!r}])\n"
            "print(code, '_hashlib' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert done.stdout.split() == ["0", "False"], done.stderr
