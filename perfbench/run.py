#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run configures and builds
the program's libraries from src/ and the perfbench binary into
.bench_build/perfbench (later runs rebuild incrementally); build output
goes to stderr. The binary's result is checked against BENCHMARK.json
(every metric of the run's kind, with its unit, and nothing else) and
relayed as the last line of stdout. A traced run also writes one Chrome
trace to .bench_build/traces/<workload>-seed<n>.json.

Exit status: the binary's (0 = outputs correct, 1 = an output check
failed); 2 when the sources are missing, the build fails, the binary
errs or overruns, or its result does not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build step failed: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """The binary's last line must be the result object, with exactly
    the metrics BENCHMARK.json lists for this kind of run."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark binary printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-response", action="store_true",
                        help="test hook: corrupt one checked response")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_response:
        cmd.append("--corrupt-response")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark binary overran {RUN_TIMEOUT_S} s and was stopped")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"the benchmark binary exited with status {proc.returncode}")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
