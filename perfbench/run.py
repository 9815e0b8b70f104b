#!/usr/bin/env python3
"""Build the simulator benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds `perfbench` (Release, into .bench_build/ at the
repository root), runs one workload and passes its output through. The
last stdout line is the result JSON; its metric names and units are
checked against BENCHMARK.json, and a missing or extra metric is an
error. With --trace 1 the traced run's spans are written as a Chrome
trace to .bench_build/perfbench/trace-<workload>-<seed>.json.

--self-check runs every workload's code path on the first two ResNet-18
layers, checks that every metric of BENCHMARK.json is printed with its
unit, and that a perturbed config (BurstWords halved) fails every digest
check (check.fail_rate = 1).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "core" / "simulator.hpp").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B",
                          str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def run(args):
    """Run the binary; return (exit code, stdout lines, result dict)."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}", 1)
    lines = done.stdout.splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, lines, result


def metric_problems(result, trace):
    """Names/units in `result` that disagree with BENCHMARK.json."""
    _, expected = expected_metrics(trace)
    if result is None:
        return ["no result line"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"result keys {sorted(result)}"]
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in expected if n not in got]
    problems += [f"unlisted metric {n}" for n in got if n not in expected]
    problems += [f"{n}: unit {got[n]!r}, expected {u!r}"
                 for n, u in expected.items() if n in got and got[n] != u]
    return problems


def benchmark(opts):
    build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        args += ["--trace-out",
                 str(BUILD_DIR / f"trace-{opts.workload}-{opts.seed}.json")]
    code, lines, result = run(args)
    problems = metric_problems(result, opts.trace) if code == 0 else []
    for line in lines[:-1] if problems else lines:
        print(line)
    if code != 0:
        sys.exit(code)
    if problems:
        fail("; ".join(problems), 3)


def self_check():
    build()
    spec, _ = expected_metrics(False)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--quick", "--seconds", "0"]
        for trace in (0, 1):
            code, _, result = run(base + ["--trace", str(trace)])
            problems = metric_problems(result, trace) if code == 0 else [
                f"exit code {code}"]
            if result and (not result["correct"] or result["failed"]):
                problems.append(f"{result['failed']} failed operations")
            print(f"{workload} trace {trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
            failures += bool(problems)
        code, _, result = run(base + ["--trace", "1", "--perturb"])
        rate = (result or {}).get("metrics", {}).get(
            "check.fail_rate", {}).get("value")
        tripped = result is not None and not result["correct"] and rate == 1
        print(f"{workload} perturbed: "
              + ("digest check tripped" if tripped
                 else f"NOT tripped (exit {code}, fail_rate {rate})"))
        failures += not tripped
    print("self-check " + ("passed" if not failures else "FAILED"))
    sys.exit(1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    opts = parser.parse_args()
    if opts.self_check:
        self_check()
    if not opts.workload:
        parser.error("--workload is required")
    benchmark(opts)


if __name__ == "__main__":
    main()
