#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload paper_sweep|campus|distill \\
        --seed N --seconds S --trace 0|1

Builds the tracemod libraries and the perfbench binary (Release) into
$CARGO_TARGET_DIR, or .bench_build under the repository root, runs the
workload in its own process, and prints the metrics BENCHMARK.json
names: every end_to_end metric with --trace 0, every per_layer metric with
--trace 1.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every output check passed; 1 when a check failed
(the result line still prints); 2 when the benchmark could not run at all
(no sources, build failure, crash), in which case no result line prints.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "campus", "distill")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"tracemod sources not found under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs one workload in its own process; returns its parsed figures."""
    work = os.path.join(build_dir(), "work", args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args.workload} did not finish in time") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def select(raw, spec, trace):
    """The figures the spec names for this mode, with their units."""
    figures = raw["layer" if trace else "e2e"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in figures:
            raise BenchError(f"perfbench reported no figure for {m['name']}")
        metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--expect-digest", help="override the recorded digest "
                   "(hex); the self-test passes a wrong one")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        binary = build()
        raw = run_binary(binary, args)
        metrics = select(raw, spec, args.trace)
    except (BenchError, OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    for f in raw["failures"]:
        print(f"check failed: {f}")
    print(f"{args.workload} seed={args.seed} passes={raw['passes']} "
          f"digest={raw['digest']} stream_threads={raw['stream_threads']} "
          f"failed_share={raw['failed'] / raw['attempted']:.4g}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
