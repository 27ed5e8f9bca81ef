#!/usr/bin/env python3
"""Build the program and run one perfbench workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rounds --seed 1 --seconds 20 --trace 0

prints the run's result as the last line of standard output (see
perfbench/README.md). With --steady K it runs the workload K times, on
seeds --seed .. --seed+K-1, and prints each metric's median and the
spread between its quartiles relative to the median.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("rounds", "corpus")
BUILD = os.path.join("_build", "default")
BENCH = os.path.join(BUILD, "perfbench", "bench.exe")
SLIMPAD = os.path.join(BUILD, "bin", "slimpad_cli.exe")
WORK = ".perfbench-work"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not all(os.path.exists(p) for p in ("dune-project", "bin", "lib")):
        fail("run from the root of a checkout: dune-project, bin/ and lib/ are missing")
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(WORK, "cache")))
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./bin/slimpad_cli.exe", "./perfbench/bench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def stop_group(pgid):
    """Kill what is left of the run's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace):
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--slimpad", SLIMPAD, "--work", os.path.join(WORK, workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s failed (exit %d)" % (workload, proc.returncode))
    return lines[-2:]


def steady(args):
    runs = []
    for i in range(args.steady):
        result = json.loads(run_once(args.workload, args.seed + i, args.seconds,
                                     args.trace)[-1])
        runs.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            args.seed + i, result["correct"], result["attempted"], result["failed"]),
            file=sys.stderr)
    print("%-34s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-34s %12.6g %12.6g %12.6g %8.3f" % (name, med, q1, q3, spread))
    if not all(r["correct"] for r in runs):
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K",
                   help="run K times on consecutive seeds and print the spread")
    args = p.parse_args()
    build()
    if args.steady > 0:
        steady(args)
    else:
        print("\n".join(run_once(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
