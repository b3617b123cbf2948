#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload run.py accepts (the ones
BENCHMARK.json names and the ones it leaves out) for about a second,
timed and traced. Asserts that each run exits 0 with error_rate 0, prints
every metric BENCHMARK.json names (end-to-end ones when timed, per-layer
ones when traced) as a `metric <name> = <value> <unit> (n=<samples>)`
line with the declared unit and a sample count, and ends with a JSON
result carrying exactly those metrics.

Run from the root of the repository:

    python3 perfbench/smoke_test.py
"""

import json
import re
import subprocess
import sys

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(.+)\)$")


def check(workload: str, trace: int, expected: dict) -> list:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, errors="replace", timeout=300)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-600:]}"]
    lines = done.stdout.strip().splitlines()
    problems = []
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(3), m.group(4))
    for name, unit in expected.items():
        if name not in printed:
            problems.append(f"{where}: metric {name} not printed")
        elif printed[name][0] != unit:
            problems.append(f"{where}: {name} printed in {printed[name][0]}, "
                            f"declared {unit}")
        elif not re.match(r"\d", printed[name][1]):
            problems.append(f"{where}: {name} has no sample count")
    if not any(re.match(r"^error_rate = 0 ", line) for line in lines):
        problems.append(f"{where}: error_rate is not 0")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: result {result['correct']}, "
                        f"{result['failed']} failed of {result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: result metrics differ from BENCHMARK.json")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in ("hot", "cold", "capped", "routed"):
        for trace in (0, 1):
            found = check(workload, trace, expected[trace])
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
