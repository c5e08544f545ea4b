#!/usr/bin/env python3
"""Build the perfbench program from this checkout, then run it.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --self-test

The simulator library is compiled from src/ together with the benchmark
sources into <build>/perfbench, where <build> is $CARGO_TARGET_DIR relative
to the checkout root (default .bench_build). Build output goes to stderr, so
the last line of stdout stays the program's JSON result. Traced runs write
their span files to <build>/perfbench/traces.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(out):
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--self-test" not in args and "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(out, "traces")]
    # The scheduler backend is the library default, whatever the caller's
    # environment says, so every run measures the same kernel.
    env = {k: v for k, v in os.environ.items() if k != "PRDRB_SCHED"}
    return subprocess.run([os.path.join(out, "perfbench")] + args,
                          env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
