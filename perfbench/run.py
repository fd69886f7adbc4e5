#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload tpch_local --seed 1 --seconds 20 --trace 0

Workloads: tpch_local, tpch_federated, htap_hybrid. The engine and the
perfbench program are built from source into .bench_build/perfbench
(Release) on first use, with perfbench_probe, the host-speed probe it
starts between passes. The last line of standard output is the result
line; the line before it is the run record. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tpch_local", "tpch_federated", "htap_hybrid")
# A run ends well inside three minutes; a hung run is killed.
RUN_TIMEOUT_S = 170


def clean_env():
    """The caller's environment minus the engine's HANA_* switches, which
    would change the build (sanitizers, lock-order checks) or the pool."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HANA_")}


def build():
    env = clean_env()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "perfbench_probe", "-j", jobs],
        stdout=sys.stderr, env=env, check=True)
    return (os.path.join(BUILD_DIR, "perfbench"),
            os.path.join(BUILD_DIR, "perfbench_probe"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary, probe = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "perfbench-work")
    env = clean_env()
    env["TMPDIR"] = work_dir
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(work_dir, "run"),
               "--expected", os.path.join(HERE, "expected_tpch.tsv"),
               "--probe", probe]
    # A probe process the run has started ends within a second of it:
    # its output pipe closes with the run.
    with subprocess.Popen(command, env=env) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
