#!/usr/bin/env python3
"""naqcd end-to-end benchmark: build from source, then run one workload.

    python3 bench_e2e/run.py --workload heuristic_stream --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. It configures and builds naqcd and the
naqc_e2e program (Release) under .bench_build/, runs naqc_e2e in a
fresh scratch directory there, and removes that directory afterwards.
The last stdout line of naqc_e2e is the result JSON; README.md explains
the workloads and metrics. Traced runs leave their spans in
.bench_build/spans/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")


def build():
    """Configure once, then bring naqcd and naqc_e2e up to date."""
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "naqcd",
                  "naqc_e2e", "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20190131)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A SIGTERM (a harness timeout) must still reach the finally below,
    # which kills naqc_e2e's process group, naqcd included.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not build():
        return 3
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    spans = os.path.join(BUILD, "spans")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(CMAKE_DIR, "naqc_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--naqcd", os.path.join(CMAKE_DIR, "naqc", "naqcd"),
           "--spans", os.path.join(
               spans, "%s-seed%d.json" % (args.workload, args.seed))]
    # naqc_e2e runs in its own process group, so that a naqcd it leaves
    # behind (if it crashes) is killed here too.
    proc = subprocess.Popen(cmd, cwd=work, start_new_session=True)
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
