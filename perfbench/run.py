#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <fig5|cycle-tcp|pressure> \
        --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]

The release build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Build output goes to standard error; standard output is
the benchmark's own, ending with one JSON result line. The exit code is
non-zero, with no result printed, when the build or the run fails.

The run is pinned to one CPU, as on the single-core devices the paper
targets. Unpinned, each of `cycle-tcp`'s thread hand-offs (client, netd
actor, daemon connection) may have to wake an idle CPU, and on a small
virtual machine that wake-up cost varies so much between runs that the
op time's p90 varied by more than its own median.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The first build in a fresh target directory compiles the whole stack.
BUILD_TIMEOUT_S = 850
# The benchmark's own watchdog ends a run at 170 s; this is the backstop.
RUN_TIMEOUT_S = 176


def pin_to_one_cpu():
    """Restrict the calling process to the last CPU it may run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    try:
        # subprocess.run kills and reaps the child when it times out.
        built = subprocess.run(build, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if built.returncode != 0:
            print("run.py: building the benchmark failed", file=sys.stderr)
            return 2
        binary = os.path.join(target, "release", "perfbench")
        ran = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if ran.returncode != 0:
        sys.stderr.write(ran.stdout)
        return ran.returncode
    sys.stdout.write(ran.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
