#!/usr/bin/env python3
"""Repository benchmark: build utrr_perf from source, run one workload,
check its outputs and print the result as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload battery|synth|fuzz|mitigate \\
        --seed N --seconds S --trace 0|1 [--expected FILE] [--record]

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when the outputs are correct.

Correctness: every seed must satisfy the workload's properties (checked
inside utrr_perf) and give the same output on every repetition; the
seed named in expected.json must also reproduce its stored digest.
--record rewrites that digest from this run instead of checking it.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "utrr_perf")
WORKLOADS = ("battery", "synth", "fuzz", "mitigate")
# Extra processes spawned only to time set-up; the measured run adds one.
SETUP_SAMPLES = 9
# Every run must end within this many seconds (builds excepted).
RUN_LIMIT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring utrr_perf up to date (serialised)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "utrr_perf", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))


def run_utrr_perf(args, extra, timeout):
    """Run utrr_perf; return (stdout lines before the result, result)."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--t0-ns", str(t0)] + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("utrr_perf exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("utrr_perf printed nothing")
    return lines[:-1], json.loads(lines[-1])


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(args.expected)
    build()
    start = time.monotonic()

    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES):
            _, sample = run_utrr_perf(args, ["--setup-only"], 30)
            setup_samples.append(sample["setup_s"])
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
    detail, raw = run_utrr_perf(args, [], timeout)
    for line in detail:
        print(line)

    problems = list(raw["violations"])
    if args.seed == expected["seed"]:
        if args.record:
            expected["digests"][args.workload] = raw["digest"]
            with open(args.expected, "w") as f:
                json.dump(expected, f, indent=2)
                f.write("\n")
        elif raw["digest"] != expected["digests"].get(args.workload):
            problems.append("output digest %s differs from the expected %s"
                            % (raw["digest"],
                               expected["digests"].get(args.workload)))
    if problems:
        dump = os.path.join(BUILD_DIR, "perfbench-%s-%d.out"
                            % (args.workload, args.seed))
        with open(dump, "w") as f:
            f.write(raw["output"])
        for p in problems:
            print("run.py: INCORRECT: " + p, file=sys.stderr)
        print("run.py: output written to " + dump, file=sys.stderr)

    print("%s seed %d: jobs %d, nproc %d, %s %s build, wall_s of %d "
          "repetition(s): %s" % (
              args.workload, args.seed, raw["jobs"], raw["nproc"],
              raw["compiler"], raw["build_type"], len(raw["wall_s"]),
              " ".join("%.3f" % w for w in raw["wall_s"])))
    if args.trace == 0:
        setup_samples.append(raw["setup_s"])
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(raw["wall_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        metrics = {m["name"]: {"value": values[m["name"]],
                               "unit": units[m["name"]]}
                   for m in spec["end_to_end"]}
    else:
        layers = raw["layers"]
        names = [m["name"] for m in spec["per_layer"]]
        if sorted(names) != sorted(layers):
            fail("per-layer metrics of utrr_perf and BENCHMARK.json differ")
        metrics = {name: layers[name] for name in names}

    print(json.dumps({"correct": not problems,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
