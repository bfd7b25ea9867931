"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wh_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/latticewh`` next to this directory, never from an installed copy.
One process runs one workload, with one client and no worker threads, so
``setup_s`` and ``peak_rss_mb`` belong to that workload alone.

A run first completes a counted pass, a number of seeded cases fixed by
``--seconds`` alone, then replays it until ``--seconds`` have passed;
``attempted`` and ``failed`` count the counted pass, so they are the same
for every run of one seed.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
every case runs twice, untraced and traced, and the metrics are the
per-layer ones.  The line before it
is the full report (accuracy, failures by reason, input digest, run
environment); the same report, and the spans of a traced run, are written
under ``.bench_out/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Pinned before numpy loads: one client, no BLAS or OpenMP worker threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(span_names) -> dict:
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "1/case"
        units[f"{name}.share"] = "fraction"
        units[f"{name}.failed"] = "count"
    units.update({
        "kernels.points": "1/case",
        "kernels.points_per_call": "points/call",
        "oracle.unknowns": "count",
        "oracle.matrix_nnz": "count",
        "whsolver.pixels": "1/case",
        "trace.glue_share": "fraction",
        "trace.cases_per_s": "1/s",
        "trace.untraced_cases_per_s": "1/s",
        "trace.overhead": "fraction",
    })
    return units


def tail(latencies_s, percentile: float) -> dict:
    """The workload's tail percentile, with the count of samples beyond it.

    Each workload fixes its percentile (the highest that leaves at least
    ten passing samples beyond it at the seed code's speed), so parent and
    change always compare the same percentile; ``beyond`` shows when a run
    has fewer.
    """
    import numpy as np

    value = float(np.percentile(latencies_s, percentile))
    beyond = sum(1 for x in latencies_s if x > value)
    return {"percentile": percentile, "value_ms": value * 1e3,
            "samples": len(latencies_s), "beyond": beyond}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(args, sizes) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": dataclasses.asdict(sizes),
    }


class Tally:
    """Outcome accounting for the cases of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []   # passing runs only, replays included
        self.log: list[tuple] = []         # (start, latency, passed) of every run
        self.outcomes: dict[int, str | None] = {}  # slot -> reason of its first run
        self.executions = 0
        self.mismatches = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: dict[str, int] = {}
        self.examples: list[dict] = []
        self.accuracy: dict[str, float] = {}

    def run_case(self, state, case, slot: int) -> float:
        """Run one case, record its outcome, return its latency in seconds.

        ``slot`` is the case's place in the counted pass.  Only the first
        run of a slot counts in ``attempted`` and ``failed``; a replay must
        end the same way, pass or the same reason, or the run is not correct.
        """
        start = time.perf_counter()
        error = None
        try:
            acc, reason = self.workload.run(state, case)
        except Exception as exc:  # every failure is counted by type; the run goes on
            error = exc
            acc, reason = {}, f"raised:{type(exc).__name__}"
        latency = time.perf_counter() - start
        self.log.append((start, latency, reason is None))
        self.executions += 1
        for key, value in acc.items():
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), float(value))
        if reason is None:
            self.latencies.append(latency)
        if slot in self.outcomes:
            self.mismatches += int(self.outcomes[slot] != reason)
            return latency
        self.outcomes[slot] = reason
        self.attempted += 1
        if reason is None:
            return latency
        from workloads import raised_in

        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        expected = self.workload.expected_failure(case, error)
        self.unexpected += int(not expected)
        seen = sum(1 for ex in self.examples if ex["reason"] == reason)
        if seen < 3 or (not expected and len(self.examples) < 50):
            self.examples.append({
                "case": list(case), "reason": reason, "expected": expected,
                "message": None if error is None else str(error)[:200],
                "raised_in": None if error is None else raised_in(error), **acc})
        return latency

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "executions": self.executions, "passed_executions": len(self.latencies),
                "replay_mismatches": self.mismatches, "unexpected_failures": self.unexpected,
                "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
                "failures_by_reason": dict(sorted(self.reasons.items())),
                "failure_examples": self.examples, "accuracy": self.accuracy,
                "case_log": {"start_s": [round(c[0] - self.log[0][0], 6) for c in self.log],
                             "latency_s": [round(c[1], 7) for c in self.log],
                             "passed": [int(c[2]) for c in self.log]}}


def set_up(workload, seed, sizes):
    """Generate inputs, precompute and warm up; repeated, the median is reported."""
    times = []
    state = cases = None
    for _ in range(sizes.setup_repeats):
        state = None  # free the previous repetition before building the next
        start = time.perf_counter()
        cases = workload.generate(seed)
        state = workload.prepare(cases, sizes)
        workload.warm_up(state, cases)
        times.append(time.perf_counter() - start)
    return cases, state, times


def counted_pass(workload, inputs, seconds, traced):
    """The cases every run completes, cycling through the seeded inputs.

    Whole blocks, as many as ``seconds`` holds at the workload's nominal
    rate; half as many in a traced run, where every case runs twice.  The
    count depends only on ``--seconds``, so ``attempted`` and ``failed``
    depend only on the seed and ``--seconds``, not on the machine's speed.
    """
    budget = seconds / 2 if traced else seconds
    blocks = max(1, round(budget * workload.pass_rate / workload.block))
    return [inputs[i % len(inputs)] for i in range(blocks * workload.block)]


def timed_loop(workload, cases, state, seconds, tally, recorder=None):
    """Closed loop: the counted pass, then replays of it until ``seconds``.

    The counted pass always runs to its end, even past ``seconds``.  After
    it the loop replays the pass from its start and stops at the first
    block boundary after ``seconds``; replays add timing samples, not new
    inputs.  With a recorder, each case runs untraced and traced back to
    back (the order alternates), and only the traced run is tallied.
    """
    untraced = []
    traced = []
    n = len(cases)
    i = 0
    start = time.perf_counter()
    while i < n or not (i % workload.block == 0 and time.perf_counter() - start >= seconds):
        slot = i % n
        case = cases[slot]
        if recorder is None:
            tally.run_case(state, case, slot)
        else:
            for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_turn:
                    with recorder.installed(), recorder.case_span(i):
                        traced.append(tally.run_case(state, case, slot))
                else:
                    untraced.append(Tally(workload).run_case(state, case, slot))
        i += 1
    return time.perf_counter() - start, i, untraced, traced


def layer_metrics(recorder, untraced, traced) -> tuple[dict, dict]:
    """Per-layer metric values and the per-function detail for the report."""
    from spans import CASE_SPAN, SPAN_NAMES

    summary = recorder.summary()
    cases = max(summary["cases"], 1)
    wall = summary["case_wall_s"]
    metrics = {}
    for name in SPAN_NAMES:
        stat = summary["functions"][name]
        metrics[f"{name}.calls"] = stat["calls"] / cases
        metrics[f"{name}.share"] = stat["self_s"] / wall if wall > 0 else 0.0
        metrics[f"{name}.failed"] = stat["failed"]
    counts, max_counts = summary["counts"], summary["max_counts"]
    kernel_calls = counts.get("kernels.eval_calls", 0)
    metrics["kernels.points"] = counts.get("kernels.points", 0) / cases
    metrics["kernels.points_per_call"] = (counts.get("kernels.points", 0) / kernel_calls
                                          if kernel_calls else 0.0)
    metrics["oracle.unknowns"] = max_counts.get("oracle.unknowns", 0)
    metrics["oracle.matrix_nnz"] = max_counts.get("oracle.matrix_nnz", 0)
    metrics["whsolver.pixels"] = counts.get("whsolver.pixels", 0) / cases
    glue = summary["functions"][CASE_SPAN]["self_s"]
    metrics["trace.glue_share"] = glue / wall if wall > 0 else 0.0
    metrics["trace.cases_per_s"] = len(traced) / sum(traced)
    metrics["trace.untraced_cases_per_s"] = len(untraced) / sum(untraced)
    metrics["trace.overhead"] = sum(traced) / sum(untraced) - 1.0
    detail = {"cases": summary["cases"], "case_wall_s": wall,
              "self_s": {name: stat["self_s"] for name, stat in summary["functions"].items()},
              "total_s": {name: stat["total_s"] for name, stat in summary["functions"].items()},
              "calls": {name: stat["calls"] for name, stat in summary["functions"].items()},
              "setup_calls": summary["setup_calls"]}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (small lattices, one set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "latticewh" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'latticewh'}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import latticewh
    import workloads
    from spans import Recorder

    if Path(latticewh.__file__).resolve().parent != SRC / "latticewh":
        print(f"perfbench: imported latticewh from {latticewh.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - _T_START

    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.FULL
    recorder = Recorder() if args.trace else None
    if recorder is None:
        cases, state, setup_times = set_up(workload, args.seed, sizes)
    else:
        with recorder.installed():  # set-up spans show where the oracle runs
            cases, state, setup_times = set_up(workload, args.seed, sizes)

    cases = counted_pass(workload, cases, args.seconds, recorder is not None)
    tally = Tally(workload)
    wall, cases_run, untraced, traced = timed_loop(
        workload, cases, state, args.seconds, tally, recorder)

    report = {
        "workload": args.workload, "trace": args.trace,
        "environment": environment(args, sizes),
        "input_digest": workloads.digest(cases), "input_cases": len(cases),
        "cases_run": cases_run, "wall_s": wall,
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        **tally.report(),
    }
    if tally.latencies:
        report["tail"] = tail(tally.latencies, workload.tail_percentile)
    correct = tally.unexpected == 0 and tally.mismatches == 0 and bool(tally.latencies)

    if recorder is None:
        metrics = {
            "cases_per_s": len(tally.latencies) / wall,
            "case_ms_p50": statistics.median(tally.latencies) * 1e3 if tally.latencies else 0.0,
            "case_ms_tail": report["tail"]["value_ms"] if tally.latencies else 0.0,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        from spans import SPAN_NAMES

        metrics, report["spans"] = layer_metrics(recorder, untraced, traced)
        units = per_layer_units(SPAN_NAMES)
    report["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if recorder is not None:
        recorder.write(OUT_DIR / f"{stem}-spans.csv")

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
