#!/usr/bin/env python3
"""Self-test of the benchmark's own output checks.

    python3 perfbench/selftest.py

Runs the campus workload (one pass per run) through run.py three ways:
  1. seed 0, untraced: its digest must match the recorded one, the run is
     correct, exits 0, and reports every end_to_end metric;
  2. seed 0 with a wrong expected digest: the run must report the failure
     (correct false, failed >= 1) and exit non-zero;
  3. seed 0, traced: correct, and every per_layer metric is reported.
Exits 0 when all three behave, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*extra, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "campus", "--seed", "0", "--seconds", "0", "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    code, res = run()
    if code != 0 or not res or not res["correct"] or res["failed"]:
        problems.append(f"recorded digest run: exit {code}, result {res}")
    elif set(res["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
        problems.append("untraced run did not report exactly the "
                        "end_to_end metrics")

    code, res = run("--expect-digest", "0123456789abcdef")
    if code == 0 or not res or res["correct"] or res["failed"] < 1:
        problems.append(f"wrong digest went unreported: exit {code}, "
                        f"result {res}")

    code, res = run(trace=1)
    if code != 0 or not res or not res["correct"]:
        problems.append(f"traced run: exit {code}, result {res}")
    elif set(res["metrics"]) != {m["name"] for m in spec["per_layer"]}:
        problems.append("traced run did not report exactly the per_layer "
                        "metrics")

    for p in problems:
        print("selftest FAILED:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
