#!/usr/bin/env python3
"""Build the end-to-end benchmark program from this checkout and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-window --seed 1 \
        --seconds 10 --trace 0

Workloads: fleet-window, fleet-hardened, fleet-sharded, paper-suite
(perfbench/README.md says why each exists). The build goes to
.bench_build/perfbench (the first run compiles the library, later runs
only re-check it); per-run detail and span files go to .bench_out/.
Build output goes to stderr, so the last line on stdout is perfbench's
result object. The exit status is perfbench's: 0 when every call
matched its reference digest and kept its report invariants, 1 when one
did not, 2 on a usage error, and 3 when the build failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet-window", "fleet-hardened", "fleet-sharded", "paper-suite")


def build(build_dir):
    """Configure and build perfbench; True on success."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
        if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            # Keep the generator the cache was made with.
            configure = configure[:-2]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(build_dir):
        print("perfbench: build failed (is this a full checkout?)",
              file=sys.stderr)
        return 3
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference", "seed1.digests"),
           "--out-dir", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
