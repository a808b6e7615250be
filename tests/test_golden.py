"""Golden reports: ``bicrit.cli.main`` output, byte for byte, for a fixed list of calls.

Each case runs ``main`` in process from the repository root (reports echo
their ``--input`` path) with the terminal width pinned, so argparse's usage
text is stable.  It compares the exit code, all of stderr, and stdout up to
the ``"wall_time_ms"`` key (the last sorted key, the one field that varies
between runs) with ``tests/golden/<name>.txt``.

The list holds every CLI example of the README and CI, every problem kind
with every algorithm on ``instances/``, an exit-3 ``no_certificate``
report, ``pareto --format csv`` and a few usage and file errors.  To write
the files again after a deliberate change to the reports, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from bicrit.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

DOCUMENTED = [
    # README
    "solve-budget --problem mst --algorithm sweep --budget 3 --epsilon 1 --input instances/demo_mst_b.json --verify",
    "solve-budget --problem mst --algorithm parametric --budget 3 --epsilon 1/2 --input instances/demo_mst_b.json",
    "pareto --problem mst --epsilon 1 --input instances/demo_mst_a.json --format csv",
    "pareto --problem path --parametric --epsilon 1/2 --input instances/demo_path.json",
    "repro --case marathe-ex1",
    "repro --case marathe-ex2",
    # CI
    "solve-budget --problem mst --algorithm sweep --budget 1 --epsilon 1/4 --input instances/demo_relaxed_mst.json --verify",
    "solve-budget --problem mst --algorithm binary --budget 1 --epsilon 1/4 --input instances/demo_relaxed_mst.json --verify",
    "solve-budget --problem mst --algorithm parametric --budget 1 --epsilon 1/4 --input instances/demo_relaxed_mst.json --verify",
    "solve-budget --problem mst --algorithm fixed --budget 1 --input instances/demo_relaxed_mst.json --verify",
    "pareto --problem vc --epsilon 1/1000 --input instances/demo_vc.json --verify",
    "pareto --problem cut --epsilon 1/4 --input instances/demo_cut.json --verify",
    "pareto --problem path --epsilon 1/4 --input instances/demo_path.json --verify",
    "solve-budget --problem cut --algorithm binary --budget 3 --epsilon 1/4 --input instances/demo_cut.json --verify",
    "solve-budget --problem path --algorithm parametric --budget 3 --epsilon 1/4 --input instances/demo_path.json --verify",
]  # fmt: skip

# (instance, kind, a budget every algorithm can meet)
INSTANCES = [
    ("demo_mst_a", "mst", "3"),
    ("demo_mst_b", "mst", "3"),
    ("demo_relaxed_mst", "mst", "1"),
    ("demo_path", "path", "3"),
    ("demo_cut", "cut", "3"),
    ("demo_vc", "vc", "3"),
]


def _every_kind_and_algorithm():
    for name, kind, budget in INSTANCES:
        source = f"--problem {kind} --input instances/{name}.json"
        for algorithm in ("sweep", "binary", "parametric"):
            yield f"solve-budget {source} --algorithm {algorithm} --budget {budget} --epsilon 1/2 --verify"
        yield f"solve-budget {source} --algorithm fixed --budget {budget} --verify"
        yield f"pareto {source} --epsilon 1/2 --verify"
        yield f"pareto {source} --parametric --epsilon 1/2 --verify"
        yield f"pareto {source} --epsilon 1/3 --format csv"


OTHERS = [
    # exit 3: no tree has f1 <= 1
    "solve-budget --problem mst --budget 1 --epsilon 1/2 --input instances/demo_mst_b.json",
    "solve-budget --problem path --algorithm binary --budget 1/2 --input instances/demo_path.json",
    # exit 2
    "solve-budget --problem path --budget 3 --input instances/demo_mst_a.json",
    "solve-budget --problem mst --budget abc --input instances/demo_mst_a.json",
    "pareto --problem mst --epsilon 0 --input instances/demo_mst_a.json",
    "pareto --problem mst --format csv --verify --input instances/demo_mst_a.json",
    "solve-budget --problem mst --algorithm fixed --budget 3 --epsilon 1/2 --input instances/demo_mst_a.json",
    # exit 4
    "pareto --problem mst --input instances/missing.json",
]  # fmt: skip

COMMANDS = [*DOCUMENTED, *_every_kind_and_algorithm(), *OTHERS]


def case_name(command: str) -> str:
    text = command.replace("--input instances/", "").replace(".json", "").replace("--", "")
    return re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-")


def deterministic_part(text: str) -> str:
    cut = text.find('"wall_time_ms"')
    return text if cut < 0 else text[:cut]


def run(command: str) -> str:
    """Exit code, stderr and the deterministic stdout of one call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command.split())
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{deterministic_part(out.getvalue())}"


@pytest.fixture
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("COLUMNS", "80")


def test_case_names_are_distinct():
    assert len({case_name(c) for c in COMMANDS}) == len(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=case_name)
def test_report_matches_golden(at_repo_root, command):
    expected = (GOLDEN_DIR / f"{case_name(command)}.txt").read_text(encoding="utf-8")
    assert run(command) == expected


if __name__ == "__main__":
    os.chdir(REPO)
    os.environ["COLUMNS"] = "80"
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.txt"):
        stale.unlink()
    for command in COMMANDS:
        (GOLDEN_DIR / f"{case_name(command)}.txt").write_text(run(command), encoding="utf-8")
    print(f"wrote {len(COMMANDS)} golden reports to {GOLDEN_DIR}", file=sys.stderr)
