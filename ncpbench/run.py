"""NCP benchmark: one workload, end-to-end or per-layer.

Run from the repository root::

    python3 ncpbench/run.py --workload atp-mqi --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, ncp_s, rerun_s,
peak_mb, ncp_phi); ``--trace 1`` runs the separate traced pass and prints
the per-layer metrics.  Both print ``workload/metric value unit`` lines,
then one JSON object as the last line of standard output, and merge the
same figures into ``ncpbench/results/results.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from oracles import Checks, GraphOracle  # noqa: E402
from verify import COLUMN_CALLS, check_call  # noqa: E402
from workloads import WORKLOADS, Scratch, draw_seed, spare_seed  # noqa: E402

RESULTS_DIR = BENCH_DIR / "results"
WORK_ROOT = BENCH_DIR / ".work"

END_TO_END = {
    "setup_s": "s",
    "ncp_s": "s",
    "rerun_s": "s",
    "peak_mb": "MB",
    "ncp_phi": "phi",
}


def timed_setup(workload, scratch):
    """One set-up of the workload's graph; returns (graph, seconds)."""
    workdir = scratch.fresh()
    gc.collect()
    start = time.perf_counter()
    graph = workload.setup(workdir)
    return graph, time.perf_counter() - start


def traced_peak_mb(workload, graph, call_seed, scratch):
    """tracemalloc peak (MB) of one cold call with a fresh memo."""
    memo = scratch.fresh()
    gc.collect()
    tracemalloc.start()
    try:
        workload.run(graph, call_seed, memo)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _slots(draws, count):
    """Calls of a round, spread evenly, after which ``count`` passes run.

    A call is listed once per pass that follows it.
    """
    return [(2 * k + 1) * draws // (2 * count) for k in range(count)]


def measure(workload, seed, seconds, scratch):
    """The untraced end-to-end run; returns (metrics, checks).

    Timed calls run in whole rounds over the same ``workload.draws``
    seed-node draws until the next round would pass ``seconds`` of timed
    calls.  Each cold call is followed by ``workload.reruns`` warm reruns.
    ``ncp_s`` and ``rerun_s`` are means over the draws of each draw's
    median time: the median damps a slow moment of the machine, the mean
    over draws weighs every draw's work as a whole run would.

    ``setup_s`` is the median of one set-up before the first call and
    ``workload.setups_per_round`` more spread through every round.
    ``peak_mb`` is the median over ``workload.peak_passes`` cold calls
    under tracemalloc; the first, made before any timed call, is also the
    warm-up call.

    The first round also interleaves the remaining memory passes and the
    oracle checks with the timed calls.  So the timed samples spread over
    the whole run rather than over one stretch of it: a shared machine's
    speed drifts by 10-50 % over seconds to minutes.
    """
    graph, elapsed = timed_setup(workload, scratch)
    setup_times = [elapsed]
    oracle = GraphOracle(graph)
    peaks = [traced_peak_mb(workload, graph, spare_seed(seed, 0), scratch)]
    setup_slots = _slots(workload.draws, workload.setups_per_round)
    peak_slots = _slots(workload.draws, workload.peak_passes - 1)

    checks = Checks()
    cold_times = [[] for _ in range(workload.draws)]
    warm_times = [[] for _ in range(workload.draws)]
    phis = []
    measured = 0.0
    first_round = True
    while True:
        round_seconds = 0.0
        for j in range(workload.draws):
            call_seed = draw_seed(seed, j)
            memo = scratch.fresh()
            gc.collect()
            cold, elapsed = workload.run(graph, call_seed, memo)
            cold_times[j].append(elapsed)
            round_seconds += elapsed
            for _ in range(workload.reruns):
                warm, elapsed = workload.run(graph, call_seed, memo)
                warm_times[j].append(elapsed)
                round_seconds += elapsed
            for _ in range(setup_slots.count(j)):
                setup_times.append(timed_setup(workload, scratch)[1])
            if not first_round:
                continue
            raw = None
            if workload.refiners:
                raw, _ = workload.run(graph, call_seed, None, raw=True)
            phis.append(check_call(
                checks, oracle, workload, graph, workload.grid(call_seed),
                cold, warm, raw=raw, columns=j < COLUMN_CALLS,
            ))
            for _ in range(peak_slots.count(j)):
                peaks.append(traced_peak_mb(
                    workload, graph, spare_seed(seed, len(peaks)), scratch,
                ))
        first_round = False
        measured += round_seconds
        if measured + round_seconds > seconds:
            break

    metrics = {
        "setup_s": statistics.median(setup_times),
        "ncp_s": statistics.fmean(map(statistics.median, cold_times)),
        "rerun_s": statistics.fmean(map(statistics.median, warm_times)),
        "peak_mb": statistics.median(peaks),
        "ncp_phi": statistics.fmean(phis),
    }
    return metrics, checks


def merge_results(workload, section, payload):
    """Merge one run's figures into the shared results file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "results.json"
    results = json.loads(path.read_text()) if path.exists() else {}
    results.setdefault(workload, {})[section] = payload
    tmp = path.with_name(f".results.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scratch = Scratch(WORK_ROOT / f"run-{os.getpid()}")
    try:
        if args.trace:
            from layers import PER_LAYER, accounting, trace_workload

            values, checks, tracer = trace_workload(
                workload, args.seed, scratch
            )
            units = PER_LAYER
            RESULTS_DIR.mkdir(exist_ok=True)
            trace_path = RESULTS_DIR / f"trace-{workload.name}.json"
            trace_path.write_text(json.dumps(tracer.chrome()) + "\n")
            print(tracer.table())
            print(accounting(values))
            print(f"trace written to {trace_path.relative_to(BENCH_DIR.parent)}")
        else:
            values, checks = measure(
                workload, args.seed, args.seconds, scratch
            )
            units = END_TO_END
    finally:
        scratch.cleanup()

    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{workload.name}/{name} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload.name}/attempted {checks.attempted}")
    print(f"{workload.name}/failed {checks.failed}")
    for failure in checks.failures[:20]:
        print(f"FAILED: {failure}")
    summary = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    merge_results(
        workload.name, "per_layer" if args.trace else "end_to_end",
        dict(summary, seed=args.seed, seconds=args.seconds),
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
