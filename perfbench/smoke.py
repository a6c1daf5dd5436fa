"""Smoke test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second untraced and one
second traced, and asserts that each run prints every end-to-end (untraced)
or per-layer (traced) metric by name with the unit BENCHMARK.json gives it,
both in its table and in the final JSON line, and that no operation failed.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def smoke(workload: str, trace: int, expected: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit status {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if result["failed"] or not result["correct"]:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                        f"operations failed: {proc.stderr.strip()}")
    for name, unit in expected.items():
        printed = any(line.split()[:1] == [name] and unit in line.split()[2:3]
                      for line in lines[:-1])
        if not printed:
            problems.append(f"{where}: no table line for {name} in {unit}")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{where}: JSON lacks {name} in {unit}")
    extra = set(result["metrics"]) - set(expected)
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    kinds = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in kinds.items():
            problems += smoke(workload, trace, expected)
            print(f"{workload} --trace {trace}: done", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
