"""Self-test of the benchmark: toy-size runs and oracle mutation checks.

Run from the repository root::

    python3 ncpbench/selftest.py

For every workload it runs the end-to-end and the traced pass at a toy
size (two seed nodes per call, two calls, one set-up) and expects every
oracle check to pass.  It then corrupts one output at a time and expects
the oracle that guards it to reject the corruption: a node swapped into a
candidate, a conductance nudged by 1e-9, a warm rerun one bit off, an MQI
output that is not a subset of its input, an MQI output that is not a
fixed point, and a diffusion column with mass moved off the exact vector.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from oracles import Checks, GraphOracle  # noqa: E402
from repro import PPR  # noqa: E402
from repro.diffusion import degree_weighted_indicator_seed  # noqa: E402
from verify import (  # noqa: E402
    check_candidates,
    check_columns,
    check_refinement,
    check_rerun,
    diffusion_columns,
)
from workloads import WORKLOADS, Scratch, draw_seed  # noqa: E402

TOY_SEEDS = 2


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, label):
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
        self.failures += not ok

    def clean(self, label, checks):
        self.expect(
            checks.attempted > 0 and checks.failed == 0,
            f"{label}: {checks.attempted} checks, {checks.failed} failed",
        )

    def caught(self, label, check):
        checks = Checks()
        check(checks)
        self.expect(checks.failed > 0,
                    f"{label} is rejected ({checks.failed} of "
                    f"{checks.attempted} checks failed)")


def toy_runs(report, workload, scratch):
    """Both passes at toy size, through the benchmark's own code."""
    layers.TRACE_CALLS = 1
    layers.SETUP_REPS = 1
    layers.CALL_REPS = 1
    metrics, checks = run.measure(workload, 1, 0.0, scratch)
    report.clean(f"{workload.name}: toy end-to-end run", checks)
    report.expect(
        set(metrics) == set(run.END_TO_END)
        and all(math.isfinite(v) and v > 0 for v in metrics.values()),
        f"{workload.name}: every end-to-end metric is finite and positive",
    )
    totals, checks, tracer = layers.trace_workload(workload, 1, scratch)
    report.clean(f"{workload.name}: toy traced run", checks)
    report.expect(
        set(layers.PER_LAYER) <= set(totals)
        and all(math.isfinite(v) for v in totals.values())
        and tracer.spans,
        f"{workload.name}: every per-layer metric is reported",
    )


def mutations(report, workload, scratch):
    """Corrupt one output at a time; the guarding oracle must object."""
    name = workload.name
    graph = workload.setup(scratch.fresh())
    oracle = GraphOracle(graph)
    seed = draw_seed(1, 0)
    grid = workload.grid(seed)
    cap = grid.resolve_max_cluster_size(graph)
    cold, _ = workload.run(graph, seed, None)
    candidates = cold.candidates
    # The best-conductance set: any node swapped into it changes φ.
    target = min((c for c in candidates if c.nodes.size >= 2),
                 key=lambda c: c.conductance)
    replace = dataclasses.replace

    outside = np.setdiff1d(np.arange(graph.num_nodes), target.nodes)
    hub = outside[np.argmax(oracle.degrees[outside])]
    swapped = np.sort(np.append(target.nodes[1:], hub))
    report.caught(
        f"{name}: a node swapped into a candidate",
        lambda checks: check_candidates(
            checks, oracle, name, [replace(target, nodes=swapped)], cap),
    )
    report.caught(
        f"{name}: a conductance nudged by 1e-9",
        lambda checks: check_candidates(
            checks, oracle, name,
            [replace(target, conductance=target.conductance + 1e-9)], cap),
    )
    off_by_one_bit = np.nextafter(target.conductance, np.inf)
    report.caught(
        f"{name}: a warm rerun one bit off the cold run",
        lambda checks: check_rerun(
            checks, name, [target],
            [replace(target, conductance=float(off_by_one_bit))]),
    )

    if workload.refiners:
        raw, _ = workload.run(graph, seed, None, raw=True)
        pairs = list(zip(raw.candidates, candidates))
        before, after = next(
            (b, a) for b, a in pairs if b.nodes.size < cap
        )
        extra = np.setdiff1d(np.arange(graph.num_nodes), before.nodes)[0]
        report.caught(
            f"{name}: an MQI output that is not a subset of its input",
            lambda checks: check_refinement(
                checks, oracle, name, [before],
                [replace(after, nodes=np.sort(np.append(after.nodes, extra)))]
            ),
        )
        before, after = next(
            (b, a) for b, a in pairs
            if a.refinement and a.refinement[0].changed
        )
        report.caught(
            f"{name}: an MQI output that is not a fixed point",
            lambda checks: check_refinement(
                checks, oracle, name, [before],
                [replace(after, nodes=before.nodes,
                         conductance=before.conductance)]),
        )

    spec = grid.dynamics
    axis = spec.alpha if isinstance(spec, PPR) else spec.t
    per_seed = len(axis) * len(grid.resolved_epsilons())
    columns = [
        column.copy() for column in
        list(diffusion_columns(graph, grid, cold.seed_nodes))[:per_seed]
    ]
    column = columns[0]
    if isinstance(spec, PPR):
        top = int(np.argmax(column))
        far = int(np.argmin(np.where(column > 0, np.inf, oracle.degrees)))
        moved = 0.1 * column[top]
        column[top] -= moved
        column[far] += moved
        label = "a PPR column with mass moved off the exact vector"
    else:
        seed_vector = degree_weighted_indicator_seed(
            graph, [int(cold.seed_nodes[0])])
        exact = oracle.exact_hk(seed_vector, axis[0])
        column[int(np.argmin(column + exact))] += 2.0
        label = "an HK column with mass added beyond its error budget"
    report.caught(
        f"{name}: {label}",
        lambda checks: check_columns(checks, oracle, name, graph, grid,
                                     cold.seed_nodes, columns=columns),
    )


def main():
    report = Report()
    scratch = Scratch(run.WORK_ROOT / f"selftest-{os.getpid()}")
    try:
        for workload in WORKLOADS.values():
            toy = dataclasses.replace(workload, num_seeds=TOY_SEEDS,
                                      draws=2, setups_per_round=1,
                                      reruns=1, peak_passes=1)
            toy_runs(report, toy, scratch)
            mutations(report, toy, scratch)
    finally:
        scratch.cleanup()
    print("self-test passed" if not report.failures
          else f"self-test: {report.failures} expectation(s) failed")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
