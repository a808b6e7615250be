from __future__ import annotations

import json
from pathlib import Path

import pytest

from bicrit.cli import ingest, instance_digest, main, serialize_instance
from bicrit.errors import ParseError, ValidationError
from bicrit.marathe import example1_graph
from bicrit.problems import BiweightedGraph, VertexWeightedGraph

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
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

    def test_malformed_flag_rationals_exit_two(self, capsys):
        for budget, eps in (("2.5", "1"), ("3", "abc")):
            with pytest.raises(SystemExit) as excinfo:
                main(["solve-budget", "--problem", "mst", "--budget", budget,
                      "--epsilon", eps, "--input", demo("demo_mst_a.json")])
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_problem_mismatch_exits_two(self, capsys):
        code = main(["solve-budget", "--problem", "path", "--budget", "3",
                     "--input", demo("demo_mst_a.json")])
        assert code == 2
        capsys.readouterr()

    def test_no_certificate_exits_three_with_transcript(self, capsys):
        code, report = run_json(capsys, [
            "solve-budget", "--problem", "mst", "--algorithm", "fixed",
            "--budget", "1/10", "--input", demo("demo_mst_a.json"),
        ])
        assert code == 3
        assert len(report["no_certificate"]["records"]) == 3

    def test_verify_refuses_instances_beyond_the_cap(self, capsys, tmp_path):
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
        assert main(argv) == 4
        capsys.readouterr()
        assert main(argv[:-1]) == 0  # fine without verification
        capsys.readouterr()

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
