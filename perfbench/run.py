"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the repository root:

    python3 perfbench/run.py --workload budget-medium --seed 1 --seconds 30 --trace 0

The workload runs in this process, single-threaded, through the CLI entry
point ``bicrit.cli.main``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` times the calls into each layer and prints the per-layer
metrics instead.  Every report is checked after the timed pass; the exit
code is 0 only when every check passes.
"""

from __future__ import annotations

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.clock import Gauge  # noqa: E402
from perfbench.tracer import OracleCounter  # noqa: E402
from perfbench.workloads import BIG_SHARE, WORKLOADS, build  # noqa: E402

SETUP_REPEATS = 5
# Set-up (imports, random draws, JSON, file writes) slows down with the
# machine less than small_work and more than big_work; an even mix of the
# two reference parts tracked it best in a trial.
SETUP_BIG_SHARE = 0.5
OUT_DIR = ROOT / ".perfbench"


def _percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))]


def import_bicrit():
    """Import the package from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "bicrit" / "__init__.py").is_file():
        raise SystemExit(f"error: no bicrit sources under {src}")
    sys.path.insert(0, str(src))
    import bicrit.cli

    if Path(bicrit.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: imported bicrit from {bicrit.cli.__file__}, not {src}")
    return bicrit.cli


def run_op(cli, argv):
    """One CLI call; returns (exit code, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that raises is counted as failed
        code = 1
        error = traceback.format_exc()
    if code != 0 and error is None:
        error = err.getvalue()
    return code, out.getvalue(), error


def deterministic_part(text):
    """The report without its trailing wall_time_ms field (the last sorted key)."""
    cut = text.rfind('"wall_time_ms"')
    return text if cut < 0 else text[:cut]


class Runner:
    def __init__(self, args):
        self.args = args
        self.gauge = Gauge(BIG_SHARE[args.workload])
        self.workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    def setup(self):
        """Import bicrit, then generate and write the inputs SETUP_REPEATS times.

        setup_s is the normalised time from this script's first statement
        to the end of the import, plus the median normalised time of one
        generation of the inputs.  Interpreter start-up before the script
        runs is left out: it depends on the host and the Python launcher,
        not on bicrit, and cannot be repeated within a run.
        """
        gauge = self.gauge
        self.cli = import_bicrit()
        pre_wall = time.perf_counter() - _SCRIPT_START
        gauge.checkpoint()
        reps = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = build(self.args.workload, self.args.seed, self.workdir, self.args.reduced)
            reps.append(time.perf_counter() - start)
            gauge.checkpoint()
        self.workload = workload
        self.setup_s = pre_wall * gauge.scale(0, SETUP_BIG_SHARE) + statistics.median(
            wall * gauge.scale(k, SETUP_BIG_SHARE) for k, wall in enumerate(reps)
        )
        self.setup_raw_s = pre_wall + statistics.median(reps)

    def timed_pass(self, tracer=None):
        """Run whole rounds until --seconds have passed and min_ops are done.

        Without a tracer, an untimed counter at the four plugin oracles
        counts their calls; it adds one Python call per oracle call.
        """
        counter = None
        if tracer is None:
            counter = OracleCounter()
            counter.install()
        try:
            self._rounds(tracer)
        finally:
            if counter is not None:
                counter.uninstall()
                self.oracle_calls = counter.calls // self.rounds

    def _rounds(self, tracer):
        ops = self.workload.ops
        gauge = self.gauge
        self.samples = []  # (interval, wall seconds) per operation
        self.first_round = [None] * len(ops)
        self.failures = []
        self.mismatches = []
        rounds = 0
        begin = time.perf_counter()
        while True:
            for k, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = len(self.samples)
                start = time.perf_counter()
                code, out, error = run_op(self.cli, op.argv)
                wall = time.perf_counter() - start
                self.samples.append((gauge.current, wall))
                if code != 0:
                    self.failures.append((k, code, error))
                if rounds == 0:
                    self.first_round[k] = (code, out)
                elif deterministic_part(out) != deterministic_part(self.first_round[k][1]):
                    self.mismatches.append(k)
                if gauge.due():
                    gauge.checkpoint()
            rounds += 1
            elapsed = time.perf_counter() - begin
            if elapsed >= self.args.seconds and len(self.samples) >= self.workload.min_ops:
                break
        gauge.checkpoint()
        self.rounds = rounds
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def scales(self):
        return [self.gauge.scale(interval) for interval, _ in self.samples]

    def end_to_end(self):
        scales = self.scales()
        norm = [wall * s for (_, wall), s in zip(self.samples, scales)]
        raw = [wall for _, wall in self.samples]
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "ops_per_s": (len(norm) / sum(norm), "1/s"),
            "latency_p50_ms": (statistics.median(norm) * 1000, "ms"),
            "latency_p90_ms": (_percentile(norm, 0.9) * 1000, "ms"),
            "oracle_calls": (self.oracle_calls, "count"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        raw_figures = {
            "setup_s": self.setup_raw_s,
            "ops_per_s": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1000,
            "latency_p90_ms": _percentile(raw, 0.9) * 1000,
            "reference_reading_median": statistics.median(
                self.gauge.reading(k) for k in range(len(self.gauge.marks))
            ),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, raw_figures

    def check(self):
        """Check every first-round report; later rounds must repeat it exactly."""
        from perfbench.checks import Checker, CheckFailure

        paths = {key: self.workdir / f"{key}.json" for key in self.workload.instances}
        checker = Checker(paths)
        problems = []
        for k, (op, (code, out)) in enumerate(zip(self.workload.ops, self.first_round)):
            if code != 0:
                continue
            try:
                checker.check(op, json.loads(out))
            except (CheckFailure, KeyError, TypeError, ValueError) as exc:
                problems.append(f"op {k} ({' '.join(op.argv)}): {type(exc).__name__}: {exc}")
        for k in sorted(set(self.mismatches)):
            problems.append(f"op {k}: output differs between rounds")
        return problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reduced", action="store_true", help="small inputs, no operation minimum (self-tests)"
    )
    return parser.parse_args(argv)


def run(args) -> tuple:
    """Run one workload; return (result dict, raw figures, check problems)."""
    runner = Runner(args)
    try:
        runner.setup()
        if args.trace:
            from perfbench.tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
            try:
                runner.timed_pass(tracer)
            finally:
                tracer.uninstall()
            scales = runner.scales()
            metrics = layer_metrics(tracer, scales, runner.rounds)
            traces = OUT_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
            walls = [wall for _, wall in runner.samples]
            raw = {
                "ops_per_s_traced": len(walls) / sum(w * s for w, s in zip(walls, scales)),
                "ops_per_s_traced_raw": len(walls) / sum(walls),
            }
        else:
            runner.timed_pass()
            metrics, raw = runner.end_to_end()
        problems = runner.check()
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    raw.update(rounds=runner.rounds, operations=len(runner.samples))
    for k, code, error in runner.failures[:5]:
        print(f"op {k} failed with exit code {code}: {error}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(runner.samples),
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return result, raw, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    result, raw, problems = run(args)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print("raw " + json.dumps(raw, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
