"""Steadiness check: do two sets of runs of the same code agree?

Run from the repository root::

    python3 ncpbench/steady.py --seeds 1-10

Runs ``ncpbench/run.py --trace 0`` once per (set, workload, seed), one
process at a time, in two sets, with the command, workloads, run length
and bounds of ``BENCHMARK.json``.  For every end-to-end metric it prints
each set's median and quartiles and the spread (quartile distance over
median).  The sets agree on a metric when each spread, except that of
``setup_s``, is within the metric's bound and the two medians differ by
no more than the bound, in either direction.  It first times a fixed
pure-Python loop thirty times, to show how noisy the machine is at the
moment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETS = 2
ROOT = Path(__file__).resolve().parent.parent


def reference_loop():
    """A fixed pure-Python loop: its spread is the machine's own noise."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(config, workload, seed):
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
        values)


def report(config, runs):
    """Print the per-metric table; returns True when every check holds."""
    steady = True
    for workload in sorted(runs[0]):
        shares = {
            round(sum(r["failed"] for r in runs[s][workload])
                  / sum(r["attempted"] for r in runs[s][workload]), 12)
            for s in range(SETS)
        }
        print(f"\n{workload}: failed share per set {sorted(shares)}")
        steady &= len(shares) == 1
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            ok = True
            for s in range(SETS):
                values = [r["metrics"][name]["value"]
                          for r in runs[s][workload]]
                median, q1, q3, width = spread(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] "
                             f"{100 * width:.1f}%")
                if name != "setup_s":
                    ok &= width <= bound
                medians.append(median)
            ok &= abs(medians[1] - medians[0]) <= bound * medians[0]
            verdict = "agree" if ok else "DISAGREE"
            steady &= ok
            print(f"  {name:<9} bound {100 * bound:4.1f}%  "
                  + "  |  ".join(cells) + f"  -> {verdict}")
    return steady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seeds = parse_seeds(args.seeds)
    loop = sorted(reference_loop() for _ in range(30))
    print(f"reference loop, 30 repetitions: {loop[0]:.3f} .. "
          f"{statistics.median(loop):.3f} .. {loop[-1]:.3f} s")
    runs = []
    for s in range(SETS):
        runs.append({w: [] for w in workloads})
        for seed in seeds:
            for workload in workloads:
                result = run_once(config, workload, seed)
                runs[s][workload].append(result)
                values = " ".join(
                    f"{k}={v['value']:.5g}"
                    for k, v in result["metrics"].items()
                )
                print(f"set {s + 1} {workload} seed {seed}: {values} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
    steady = report(config, runs)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
