#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload rad-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and
run with every PBDS_* variable removed from its environment, so an exported
budget, watchdog or telemetry knob cannot change what is measured; only the
pool size is set. P=4 is pinned to the first four CPUs this process may use,
P=1 to the first of them. The program's last stdout line, one JSON object,
is the result; the exit code is nonzero when a build step fails, an output
is wrong, or the run times out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rad-stream", "bid-pipeline", "irregular")
P = 4
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources next to perfbench/")
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", str(P)]):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             cwd=ROOT)
        if res.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    exe = build(os.path.join(target, "perfbench"))

    cpus = sorted(os.sched_getaffinity(0))[:P]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PBDS_")}
    env["PBDS_NUM_THREADS"] = str(len(cpus))
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--cpus", ",".join(map(str, cpus))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
