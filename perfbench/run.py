#!/usr/bin/env python3
"""Build the gdiff benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline_sweep --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the
libraries under src/) into .bench_build/perfbench; later calls only
rebuild what changed. Each call runs the workload in a fresh process,
so its peak memory is its own, and the last line of standard output is
the result as one JSON object. Pass --record to regenerate the expected
outputs in perfbench/expected/ for the named workload.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gdiff_perfbench")
WORKLOADS = ["pipeline_sweep", "profile_sweep", "sampled_sweep", "serve_mixed"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    # Write the build's output back now, not during the measurement.
    os.sync()
    return os.path.exists(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--arrival-seed", type=int, default=0,
                    help="serve_mixed arrival schedule seed (0 = --seed)")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/expected/<workload>.tsv")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--arrival-seed", str(args.arrival_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join("perfbench", "expected"),
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.record:
        cmd.append("--record")
    # The program reads these to pick a disk tier or a SIMD path; the
    # benchmark sets both up itself.
    env = {k: v for k, v in os.environ.items()
           if k not in ("GDIFF_TRACE_CACHE_DIR", "GDIFF_SIMD")}
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        rc = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
