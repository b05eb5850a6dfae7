#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs perfbench/run.py with --smoke (one base-encoder epoch, one set-up,
the minimum number of runs) on every workload of BENCHMARK.json, untraced
and traced. Each run must exit 0 and end with a correct result
line that reports exactly the metrics BENCHMARK.json lists, with their
units and finite values. Then, from a copy that holds only BENCHMARK.json
and perfbench/, the benchmark must exit non-zero without a result line.
Takes about a minute on two cores; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def result_problems(proc: subprocess.CompletedProcess, listed: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = last_json(proc.stdout)
    if not isinstance(result, dict):
        return ["last line of standard output is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in listed}:
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in listed})}")
    for m in listed:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}, expected {m['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            listed = spec["per_layer" if trace else "end_to_end"]
            problems = result_problems(bench(ROOT, workload, trace), listed)
            print(f"smoke: {workload} trace {trace}: {'; '.join(problems) or 'ok'}", flush=True)
            failures += problems

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and last_json(proc.stdout) is None
        print(f"smoke: without the program: exit {proc.returncode}, "
              f"{'ok' if ok else 'printed a result or exited 0'}", flush=True)
        if not ok:
            failures.append("benchmark ran without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke: ok" if not failures else f"smoke: {len(failures)} problem(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
