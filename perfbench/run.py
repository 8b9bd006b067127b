#!/usr/bin/env python3
"""Builds the carac benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cspa_unopt_jit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (which compiles the engine
from src/) into .bench_build/ (or $CARGO_TARGET_DIR), then runs the
in-process benchmark binary; its last stdout line is the result JSON.
--smoke runs every workload of BENCHMARK.json at tiny sizes, traced and
untraced, and checks the JSON shape and metric names against
BENCHMARK.json and that the correctness gate passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Returns the benchmark binary's path, or None if it cannot be built."""
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return None
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (build_dir / "perfbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "build.ninja").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "carac_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return build_dir / "carac_perfbench"


def run(binary, args):
    """Runs the binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, proc.stdout


def check_result(line, spec, trace):
    """Returns a list of problems with one result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: %r" % line[:200]]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if result["failed"] != 0:
        problems.append("failed is %r" % result["failed"])
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, metric in got.items():
        if sorted(metric) != ["unit", "value"]:
            problems.append("%s has keys %s" % (name, sorted(metric)))
            continue
        if name in want and metric["unit"] != want[name]:
            problems.append("%s unit %r, expected %r" % (
                name, metric["unit"], want[name]))
        if not isinstance(metric["value"], (int, float)):
            problems.append("%s value %r" % (name, metric["value"]))
        elif not trace and metric["value"] == 0:
            problems.append("end-to-end metric %s is 0" % name)
    return problems


def smoke(binary):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", workload["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            code, out = run(binary, args)
            lines = out.strip().splitlines()
            problems = check_result(lines[-1] if lines else "", spec, trace)
            if code != 0:
                problems.append("exit code %d" % code)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("smoke %-16s trace=%d %s" % (workload["name"], trace, status))
            failures += bool(problems)
    print("smoke: %d of %d runs failed" % (failures, 2 * len(spec["workloads"])))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    forwarded = ["--workload", args.workload, "--trace", str(args.trace)]
    if args.seed is not None:
        forwarded += ["--seed", str(args.seed)]
    if args.seconds is not None:
        forwarded += ["--seconds", str(args.seconds)]
    code, out = run(binary, forwarded)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
