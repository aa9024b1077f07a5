#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the library from src/) into .bench_build/perfbench, runs one
workload, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics BENCHMARK.json
names with --trace 0, its per-layer metrics with --trace 1. A traced run
also writes its spans to .bench_build/traces/. Exits non-zero without a
result line when the build or the run fails.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
# glibc malloc keeps freed memory for reuse instead of returning it to the
# kernel: blocks up to 32 MB come from the heap, and the heap is never
# trimmed. With the defaults, every large buffer the library frees and
# allocates again is a fresh mmap, and the run spends a seventh of its CPU
# time in page faults, whose cost on a shared VM swings from minute to
# minute.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build; the build output goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "3"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def fixed_layout():
    """Turn off address-space randomization in the child (as setarch -R
    does): run-to-run host times then vary far less with where the heap and
    the binary happen to land."""
    ADDR_NO_RANDOMIZE = 0x0040000
    try:
        ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def metric_names():
    """(end_to_end, per_layer) metric specs from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        return spec["end_to_end"], spec["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read metric names from BENCHMARK.json: %s" % e)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["analytics", "serve-mixed", "serve-mutate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    end_to_end, per_layer = metric_names()
    build()
    os.makedirs(TRACES, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACES]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout,
                              env=dict(os.environ, **MALLOC_ENV))
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    # Keep the metrics BENCHMARK.json names for this kind of run. Every
    # end-to-end metric must be measured; a per-layer metric a workload does
    # not exercise reads 0.
    measured = result["metrics"]
    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for spec in wanted:
        got = measured.get(spec["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % spec["name"])
            got = {"value": 0.0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            fail("metric %s measured in %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
