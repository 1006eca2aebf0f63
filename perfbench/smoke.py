"""Smoke check of the benchmark harness at a tiny input size.

Run from the repository root (takes well under a minute):

    python3 perfbench/smoke.py

For every workload of the harness and both run kinds it checks that the
benchmark exits 0, that its last stdout line is the result object with
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, that
every operation passed, and that the metrics are exactly the ones
``BENCHMARK.json`` declares, with its units. It then checks that the benchmark refuses to run (non-zero
exit, no result line) in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""
from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int, scale: str = "tiny"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, declared: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    problems = []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}: {proc.stderr.strip()[-400:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, entry in metrics.items():
        if entry.get("unit") != declared.get(name) or not isinstance(entry.get("value"), numbers.Real):
            problems.append(f"{name}: {entry}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    # Every workload the harness has, including any BENCHMARK.json leaves out.
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            problems = check_result(run(ROOT, workload, trace), declared)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0, scale="full")
        refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program sources (exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
