#!/usr/bin/env python3
"""Build the benchmark and run one workload, or repeat it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repeat 10 --workload NAME [--seconds S] [--trace 0|1]

The first form builds perfbench/main.exe with dune and runs it once; its
last line of standard output is the run's JSON result. The second runs
the workload N times with seeds 1..N and prints each metric's median,
quartiles and quartile spread, and the host's float-loop time around
each run, as context for unsteady runs.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    dune = shutil.which("dune")
    if dune:
        cmd = [dune]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune"]
    else:
        sys.exit("perfbench: dune is not on PATH")
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (no dune-project here)")
    # dune's own output goes to stderr: the last stdout line is the result
    r = subprocess.run(cmd + ["build", "--root", ".", "./perfbench/main.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("perfbench: build failed")


def option(args, name, default):
    if name in args:
        i = args.index(name)
        value = args[i + 1]
        del args[i:i + 2]
        return value
    return default


def repeat(args):
    n = int(option(args, "--repeat", "0"))
    option(args, "--seed", None)
    if "--seconds" not in args:
        args += ["--seconds", str(json.load(open("BENCHMARK.json"))["run_seconds"])]
    if "--trace" not in args:
        args += ["--trace", "0"]
    runs, loops = [], []
    for i in range(1, n + 1):
        out = subprocess.run([EXE] + args + ["--seed", str(i)],
                             stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("perfbench: run %d failed (exit %d)" % (i, out.returncode))
        result = json.loads(lines[-1])
        loop = [l for l in lines if l.startswith("host float loop:")]
        runs.append(result)
        loops.append(loop[0] if loop else "")
        print("seed %d: correct %s, attempted %d, failed %d; %s" % (
            i, result["correct"], result["attempted"], result["failed"],
            loops[-1]), flush=True)
    print("%-40s %14s %14s %14s %9s" % ("metric", "q1", "median", "q3", "spread"))
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print("%-40s %14.6g %14.6g %14.6g %8.1f%%  %s" % (
            name, q1, med, q3, 100 * spread, m["unit"]))
    if not all(r["correct"] for r in runs):
        sys.exit("perfbench: a run failed its output checks")


def main():
    args = sys.argv[1:]
    build()
    if "--repeat" in args:
        repeat(args)
        return
    sys.stdout.flush()
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    main()
