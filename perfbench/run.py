#!/usr/bin/env python3
"""Build and run the PVR benchmark from the root of a checkout.

One run:
    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0
Repeat mode:
    python3 perfbench/run.py --workload churn --repeat 10

A run builds `pvr` and the benchmark with dune, then runs one workload in
its own process; the last line of its stdout is the result object.
Repeat mode runs one workload with seeds seed, seed+1, ... and prints,
for each end-to-end metric, the median and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", HERE, "pvrbench.exe")
PVR = os.path.join("_build", "default", "bin", "pvr_cli.exe")


def build():
    """Build both executables; dune's own output goes to stderr."""
    cmd = ["dune", "build", "--root", ".", "./bin/pvr_cli.exe",
           "./" + HERE + "/pvrbench.exe"]
    try:
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return False


def run_bench(cmd, **kw):
    """Run the benchmark; a SIGTERM here is passed on and waited for."""
    child = subprocess.Popen(cmd, **kw)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = signal.signal(signal.SIGTERM, forward)
    try:
        out, _ = child.communicate()
    finally:
        signal.signal(signal.SIGTERM, old)
    return child.returncode, out


def bench_cmd(a, seed):
    return [EXE, "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--pvr", PVR]


def repeat(a):
    """Run the workload a.repeat times and summarise each metric."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for i in range(a.repeat):
        seed = a.seed + i
        code, out = run_bench(bench_cmd(a, seed), stdout=subprocess.PIPE,
                              text=True)
        if code != 0:
            print(f"seed {seed}: exit {code}", file=sys.stderr)
            return 1
        res = json.loads(out.strip().splitlines()[-1])
        runs.append(res)
        share = res["failed"] / res["attempted"]
        vals = " ".join(f"{n}={m['value']:.4g}"
                        for n, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"(share {share:.6f}) {vals}", flush=True)
    names = list(runs[0]["metrics"])
    print(f"{'metric':<24} {'unit':<7} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for n in names:
        vals = [r["metrics"][n]["value"] for r in runs]
        unit = runs[0]["metrics"][n]["unit"]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(n)
        btxt = f"{bound:.2f}" if bound is not None else "-"
        print(f"{n:<24} {unit:<7} {med:>12.4f} {spread:>8.4f} {btxt:>6}")
    return 0 if all(r["correct"] for r in runs) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["churn", "quiet", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run the workload this many times, one seed each")
    a = p.parse_args()
    if not build():
        return 1
    if a.repeat > 0:
        return repeat(a)
    return run_bench(bench_cmd(a, a.seed))[0]


if __name__ == "__main__":
    sys.exit(main())
