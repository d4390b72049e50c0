"""The traced run: per-layer metrics from calls to each layer's public API.

Spans are recorded from this file, around the calls into each layer, and
kept in memory; ``Tracer.chrome()`` renders them as Chrome trace-event
JSON (open in Perfetto or chrome://tracing) at the end of the run.
End-to-end metrics never come from this pass.

The traced run does a fixed amount of work: ``TRACE_CALLS`` seed-node
draws (the first draws of the end-to-end round).  Counts are totals over
those draws and so are exact for a given ``--seed``; layer times are
totals over the same draws, except the set-up layers, which are medians
over the set-ups like ``setup_s``.

``execution.self_s`` is a residual (a cold call without a memo minus the
layer spans), so layers + self + memo write adds up to the traced cold
call by construction.  What is measured apart is the untraced cold call:
the accounting line reports its gap to the traced one.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from repro import PPR
from repro.diffusion import (
    batch_hk_push,
    batch_ppr_push,
    degree_weighted_indicator_seed,
)
from repro.graph import read_binary, write_binary
from repro.ncp.runner import graph_fingerprint, plan_chunks
from repro.partition.sweep import sweep_cut
from repro.refine import refine_candidates

from oracles import Checks, GraphOracle
from verify import COLUMN_CALLS, check_call, diffusion_columns
from workloads import dir_mb, draw_seed, spare_seed

TRACE_CALLS = 4
SETUP_REPS = 3
# Repetitions of each draw's calls and layer pass; every time is a median
# over them.
CALL_REPS = 3
# Empty spans timed, in batches, to price one span of the tracer.
SPAN_PROBES = 5000

PER_LAYER = {
    "datasets.build_s": "s",
    "graph.write_binary_s": "s",
    "graph.read_binary_s": "s",
    "graph.binary_mb": "MB",
    "ncp.fingerprint_s": "s",
    "ncp.plan_s": "s",
    "ncp.chunks": "count",
    "ncp.candidates": "count",
    "ncp.memo_write_s": "s",
    "ncp.memo_read_s": "s",
    "ncp.memo_mb": "MB",
    "backends.diffuse_s": "s",
    "backends.peak_mb": "MB",
    "backends.columns": "count",
    "diffusion.pushes": "count",
    "diffusion.work": "count",
    "diffusion.support": "count",
    "partition.sweep_s": "s",
    "partition.sweeps": "count",
    "refine.mqi_s": "s",
    "refine.calls": "count",
    "refine.unique_sets": "count",
    "refine.rounds": "count",
    "refine.changed": "count",
    "execution.self_s": "s",
    "trace.overhead_s": "s",
}

# Spans whose total time is a layer metric of the same name + "_s".
_SUMMED_SPANS = (
    "ncp.fingerprint", "ncp.plan", "backends.diffuse", "partition.sweep",
    "refine.mqi",
)


class Tracer:
    """In-memory spans: name, start, end and parent, one per layer call."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def per_span_s(self):
        """Median cost of one empty span, over five batches."""
        costs = []
        for _ in range(5):
            probe = Tracer()
            start = time.perf_counter()
            for _ in range(SPAN_PROBES):
                with probe.span("probe"):
                    pass
            costs.append((time.perf_counter() - start) / SPAN_PROBES)
        return statistics.median(costs)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self):
        """Per span name: (calls, total s, self s); self excludes children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        table = {}
        for i, span in enumerate(self.spans):
            duration = span["end"] - span["start"]
            calls, total, own = table.get(span["name"], (0, 0.0, 0.0))
            table[span["name"]] = (
                calls + 1, total + duration, own + duration - child_time[i]
            )
        return table

    def table(self):
        lines = [f"{'span':<22}{'calls':>7}{'total s':>12}{'self s':>12}"]
        for name, (calls, total, own) in self.self_times().items():
            lines.append(f"{name:<22}{calls:>7}{total:>12.4f}{own:>12.4f}")
        return "\n".join(lines)

    def chrome(self):
        """Chrome trace-event JSON (complete events, microseconds)."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {"traceEvents": [
            {
                "name": span["name"],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": span["parent"]},
            }
            for i, span in enumerate(self.spans)
        ]}


def _setup_layers(workload, tracer, scratch):
    """Build, write and memmap the graph; the workload's graph and MB."""
    for _ in range(SETUP_REPS):
        path = scratch.fresh() / f"{workload.graph}.reprograph"
        with tracer.span("datasets.build"):
            built = workload.build_graph()
        with tracer.span("graph.write_binary"):
            write_binary(built, path)
        with tracer.span("graph.read_binary"):
            mapped = read_binary(path)
    graph = mapped if workload.binary else built
    return graph, path.stat().st_size / 1e6


def _diffusion_counts(graph, grid, seed_nodes):
    """Exact push/work counts of the batched engine on the call's seeds."""
    spec = grid.dynamics
    vectors = [degree_weighted_indicator_seed(graph, [int(s)])
               for s in seed_nodes]
    epsilons = tuple(grid.resolved_epsilons())
    if isinstance(spec, PPR):
        batch = batch_ppr_push(graph, vectors, alphas=spec.alpha,
                               epsilons=epsilons)
        return int(batch.num_pushes.sum()), int(batch.work.sum())
    batch = batch_hk_push(graph, vectors, ts=spec.t, epsilons=epsilons)
    return 0, int(batch.work.sum())


def _drain_peak_mb(graph, grid, seed_nodes):
    tracemalloc.start()
    try:
        for _ in diffusion_columns(graph, grid, seed_nodes):
            pass
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _layer_pass(tracer, workload, graph, grid, seed_nodes, raw_candidates):
    """One pass of the layers a cold call goes through, each under a span.

    Returns ``(columns, refined)``: the drained columns as (support,
    values) pairs and the refined candidates.
    """
    cap = grid.resolve_max_cluster_size(graph)
    params = grid.grid_params() + (("max_cluster_size", cap),)
    with tracer.span("ncp.fingerprint"):
        graph_fingerprint(graph)
    with tracer.span("ncp.plan"):
        plan_chunks(grid.dynamics, seed_nodes, params,
                    backend=grid.backend, refiners=workload.refiners)
    with tracer.span("backends.diffuse"):
        columns = []
        for column in diffusion_columns(graph, grid, seed_nodes):
            support = np.flatnonzero(column > 0)
            columns.append((support, column[support]))
    scores = np.zeros(graph.num_nodes)
    for support, values in columns:
        if support.size < 2:
            continue
        scores[:] = 0.0
        scores[support] = values
        with tracer.span("partition.sweep"):
            sweep_cut(graph, scores, degree_normalize=True,
                      restrict_to=support, max_size=cap,
                      backend=grid.backend)
    with tracer.span("refine.mqi"):
        refined = refine_candidates(graph, raw_candidates, workload.refiners)
    return columns, refined


def _span_sums(tracer, mark):
    """Total time per span name over the spans recorded since ``mark``."""
    sums = {}
    for span in tracer.spans[mark:]:
        sums[span["name"]] = (
            sums.get(span["name"], 0.0) + span["end"] - span["start"]
        )
    return sums


def trace_workload(workload, seed, scratch):
    """The per-layer run; returns (metrics, checks, tracer).

    Each draw is repeated ``CALL_REPS`` times: an untraced cold call, a
    traced cold call, a traced cold call without memo and one pass of the
    layers.  Every time is a median over the repetitions, summed over the
    draws.
    """
    tracer = Tracer()
    checks = Checks()
    totals = dict.fromkeys(PER_LAYER, 0.0)
    timed = ("untraced", "ncp.cold", "ncp.cold_no_memo") + _SUMMED_SPANS
    sums = dict.fromkeys(timed, 0.0)

    graph, binary_mb = _setup_layers(workload, tracer, scratch)
    oracle = GraphOracle(graph)
    workload.run(graph, spare_seed(seed, 0), scratch.fresh())

    for j in range(TRACE_CALLS):
        call_seed = draw_seed(seed, j)
        grid = workload.grid(call_seed)
        raw = None
        if workload.refiners:
            raw, _ = workload.run(graph, call_seed, None, raw=True)
        reps = []
        for _ in range(CALL_REPS):
            mark = len(tracer.spans)
            _, untraced = workload.run(graph, call_seed, scratch.fresh())
            memo = scratch.fresh()
            with tracer.span("ncp.cold"):
                cold, _ = workload.run(graph, call_seed, memo)
            with tracer.span("ncp.cold_no_memo"):
                workload.run(graph, call_seed, None)
            columns, refined = _layer_pass(
                tracer, workload, graph, grid, list(cold.seed_nodes),
                raw.candidates if raw is not None else cold.candidates,
            )
            reps.append(dict(_span_sums(tracer, mark), untraced=untraced))
        for name in timed:
            sums[name] += statistics.median(rep.get(name, 0.0)
                                            for rep in reps)
        with tracer.span("ncp.rerun"):
            warm, _ = workload.run(graph, call_seed, memo)

        totals["ncp.memo_mb"] += dir_mb(memo)
        totals["ncp.chunks"] += cold.num_chunks
        totals["ncp.candidates"] += len(cold.candidates)
        totals["backends.columns"] += len(columns)
        totals["diffusion.support"] += sum(s.size for s, _ in columns)
        totals["partition.sweeps"] += sum(s.size >= 2 for s, _ in columns)
        if raw is not None:
            totals["refine.calls"] += len(raw.candidates) * len(
                workload.refiners)
            totals["refine.unique_sets"] += len({
                c.nodes.tobytes() for c in raw.candidates
            })
            for candidate in refined:
                for step in candidate.refinement:
                    totals["refine.rounds"] += step.rounds
                    totals["refine.changed"] += int(step.changed)
        seed_nodes = list(cold.seed_nodes)
        pushes, work = _diffusion_counts(graph, grid, seed_nodes)
        totals["diffusion.pushes"] += pushes
        totals["diffusion.work"] += work
        totals["backends.peak_mb"] = max(
            totals["backends.peak_mb"],
            _drain_peak_mb(graph, grid, seed_nodes),
        )
        check_call(checks, oracle, workload, graph, grid, cold, warm,
                   raw=raw, columns=j < COLUMN_CALLS)

    for name in _SUMMED_SPANS:
        totals[f"{name}_s"] = sums[name]
    totals["datasets.build_s"] = statistics.median(
        tracer.durations("datasets.build"))
    totals["graph.write_binary_s"] = statistics.median(
        tracer.durations("graph.write_binary"))
    totals["graph.read_binary_s"] = statistics.median(
        tracer.durations("graph.read_binary"))
    totals["graph.binary_mb"] = binary_mb
    totals["ncp.memo_write_s"] = sums["ncp.cold"] - sums["ncp.cold_no_memo"]
    totals["ncp.memo_read_s"] = (
        sum(tracer.durations("ncp.rerun"))
        - totals["ncp.fingerprint_s"] - totals["ncp.plan_s"]
    )
    layers = sum(totals[f"{name}_s"] for name in _SUMMED_SPANS)
    totals["execution.self_s"] = sums["ncp.cold_no_memo"] - layers
    # The tracer's own cost: what the spans of this run add to it.
    totals["trace.overhead_s"] = len(tracer.spans) * tracer.per_span_s()
    totals["untraced_ncp_s"] = sums["untraced"]
    totals["traced_ncp_s"] = sums["ncp.cold"]
    return totals, checks, tracer


def accounting(totals):
    """How the layer times add up to the traced and untraced ncp_s.

    The first sum holds by construction, since ``execution.self_s`` is
    its residual; the gap to the untraced calls is measured.
    """
    layers = sum(totals[f"{name}_s"] for name in _SUMMED_SPANS)
    traced, untraced = totals["traced_ncp_s"], totals["untraced_ncp_s"]
    gap = traced - untraced
    return (
        f"layers {layers:.4f} s + execution.self (residual) "
        f"{totals['execution.self_s']:.4f} s + memo_write "
        f"{totals['ncp.memo_write_s']:.4f} s = traced ncp {traced:.4f} s; "
        f"untraced ncp {untraced:.4f} s; gap {gap:+.4f} s "
        f"({100 * gap / untraced:+.1f} %); trace.overhead "
        f"{totals['trace.overhead_s']:.2e} s (sums over {TRACE_CALLS} draws "
        f"of medians over {CALL_REPS} calls)"
    )
