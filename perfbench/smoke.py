"""Smoke test of the benchmark: a tiny pass of every workload, untraced and traced.

    python3 perfbench/smoke.py

For each workload and trace setting it runs ``run.py --tiny`` for one
second and checks that the run exits 0 with a correct result whose
metrics are exactly the ones BENCHMARK.json names, each with its unit,
and that BENCHMARK.json gives each a direction.  In the traced runs it
checks that the self times of all spans add up to the traced case time.
It checks that two runs of one seed count the same cases with the same
failures.  Last, it checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 600


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / HERE.name / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=False)


def check_result(bench: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["attempted"] >= 1
            and 0 <= result["failed"] <= result["attempted"]):
        raise AssertionError(f"{label}: correct/attempted/failed {result}")
    expected = {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(expected):
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, metric in result["metrics"].items():
        if metric["unit"] != expected[name]["unit"]:
            raise AssertionError(f"{label}: {name} unit {metric['unit']!r}")
        if expected[name]["better"] not in ("higher", "lower"):
            raise AssertionError(f"{label}: {name} has no direction")
        if not (isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])):
            raise AssertionError(f"{label}: {name} value {metric['value']!r}")
    if trace:
        spans = json.loads(lines[-2])["report"]["spans"]
        self_total = sum(spans["self_s"].values())
        if not math.isclose(self_total, spans["case_wall_s"], rel_tol=1e-9):
            raise AssertionError(f"{label}: self times {self_total} != case time "
                                 f"{spans['case_wall_s']}")
        shares = sum(v["value"] for k, v in result["metrics"].items()
                     if k.endswith(".share") or k == "trace.glue_share")
        if not math.isclose(shares, 1.0, rel_tol=1e-9):
            raise AssertionError(f"{label}: shares add up to {shares}")
    print(f"ok {label}: attempted {result['attempted']}, failed {result['failed']}")


def check_counted_pass_repeats() -> None:
    """Two runs of one seed count the same cases with the same failures."""
    seen = []
    for _ in range(2):
        proc = run(ROOT, "--workload", "wh_sweep", "--seed", "3", "--seconds", "2",
                   "--trace", "0", "--tiny")
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        seen.append((report["input_digest"], report["attempted"], report["failed"],
                     report["failures_by_reason"]))
    if seen[0] != seen[1]:
        raise AssertionError(f"counted pass differs between runs: {seen}")
    print(f"ok counted pass repeats: attempted {seen[0][1]}, failed {seen[0][2]}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "--workload", "wh_sweep", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError(f"ran without library sources: exit {proc.returncode}")
    print("ok refuses to run without library sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in bench["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            raise AssertionError(f"{metric['name']}: bound {metric['bound']}")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_result(bench, workload, trace)
    check_counted_pass_repeats()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
