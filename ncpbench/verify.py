"""Apply the independent oracles to the outputs of one NCP call."""

from __future__ import annotations

import math

import numpy as np

from repro import HeatKernel, PPR
from repro.backends import get_backend
from repro.diffusion import batch_hk_push, degree_weighted_indicator_seed

from oracles import PHI_RTOL, same_candidate

# Calls of a round whose first seed node gets its diffusion columns
# checked against the exact vectors (the reference solves are the
# expensive part of the oracles on the R-MAT graph).
COLUMN_CALLS = 2

# Refined candidates per call whose MQI fixed point is re-proved with
# scipy's max-flow.
FIXED_POINT_SAMPLE = 4


def ncp_phi(sizes, phis, edges):
    """Mean over the non-empty fixed size buckets of the lowest φ."""
    sizes = np.asarray(sizes)
    phis = np.asarray(phis)
    edges = np.asarray(edges)
    inside = (sizes >= edges[0]) & (sizes <= edges[-1])
    bucket = np.clip(
        np.searchsorted(edges, sizes, side="right") - 1, 0, edges.size - 2
    )
    minima = [
        phis[inside & (bucket == b)].min()
        for b in range(edges.size - 1)
        if np.any(inside & (bucket == b))
    ]
    if not minima:
        raise RuntimeError("no candidate falls in the ncp_phi size buckets")
    return float(np.mean(minima))


def check_call(checks, oracle, workload, graph, grid, cold, warm, raw=None,
               columns=False):
    """Check one cold call, its warm rerun and, if refined, its raw input.

    Returns the call's ``ncp_phi``, computed from the recomputed
    conductances.
    """
    cap = grid.resolve_max_cluster_size(graph)
    sizes, phis = check_candidates(checks, oracle, workload.name,
                                   cold.candidates, cap)
    check_rerun(checks, workload.name, cold.candidates, warm.candidates)
    if raw is not None:
        check_refinement(checks, oracle, workload.name, raw.candidates,
                         cold.candidates)
    if columns:
        check_columns(checks, oracle, workload.name, graph, grid,
                      cold.seed_nodes)
    return ncp_phi(sizes, phis, workload.bucket_edges)


def check_candidates(checks, oracle, name, candidates, cap):
    """Well-formed sets and exact conductances; returns (sizes, φs)."""
    sizes, phis = [], []
    for i, candidate in enumerate(candidates):
        where = f"{name} candidate {i}"
        well_formed = checks.check(
            oracle.is_proper_subset(candidate.nodes, cap),
            f"{where}: not a nonempty proper subset within {cap} nodes",
        )
        phi = oracle.conductance(candidate.nodes) if well_formed else math.nan
        checks.check(
            abs(phi - candidate.conductance) <= PHI_RTOL * abs(phi),
            f"{where}: conductance {candidate.conductance!r} != {phi!r}",
        )
        sizes.append(candidate.nodes.size)
        phis.append(phi)
    return sizes, phis


def check_rerun(checks, name, cold, warm):
    """A warm rerun returns the cold candidates bit for bit."""
    checks.check(
        len(warm) == len(cold),
        f"{name}: rerun returned {len(warm)} candidates, cold run "
        f"{len(cold)}",
    )
    for i, (a, b) in enumerate(zip(cold, warm)):
        checks.check(
            same_candidate(a, b),
            f"{name} candidate {i}: warm rerun differs from cold",
        )


def check_refinement(checks, oracle, name, raw, refined):
    """MQI outputs: subsets, no worse, and (on a sample) fixed points."""
    checks.check(
        len(raw) == len(refined),
        f"{name}: refined ensemble not aligned with the raw one",
    )
    eligible = []
    for i, (before, after) in enumerate(zip(raw, refined)):
        phi_before = oracle.conductance(before.nodes)
        phi_after = oracle.conductance(after.nodes)
        checks.check(
            np.all(np.isin(after.nodes, before.nodes))
            and phi_after <= phi_before * (1.0 + PHI_RTOL),
            f"{name} candidate {i}: refinement is not a subset "
            f"with no worse conductance",
        )
        _, volume = oracle.cut_and_volume(before.nodes)
        if (
            volume <= oracle.total_volume / 2.0
            and all(step.converged for step in after.refinement)
        ):
            eligible.append(i)
    if not eligible:
        return
    picks = np.unique(np.linspace(
        0, len(eligible) - 1, min(FIXED_POINT_SAMPLE, len(eligible))
    ).round().astype(int))
    for pick in picks:
        i = eligible[pick]
        verdict = oracle.mqi_fixed_point(refined[i].nodes)
        if verdict is not None:
            checks.check(
                verdict,
                f"{name} candidate {i}: an MQI subset still "
                f"improves the refined set",
            )


def diffusion_columns(graph, grid, seed_nodes):
    """The backend's columns for ``seed_nodes``, as the runner drains them."""
    ops = get_backend(grid.backend)
    spec = grid.dynamics
    epsilons = tuple(grid.resolved_epsilons())
    if isinstance(spec, PPR):
        return ops.ppr_grid(graph, list(seed_nodes), alphas=spec.alpha,
                            epsilons=epsilons)
    return ops.hk_grid(graph, list(seed_nodes), ts=spec.t,
                       epsilons=epsilons)


def check_columns(checks, oracle, name, graph, grid, seed_nodes,
                  columns=None):
    """Check the first seed's columns of a call against exact vectors."""
    spec = grid.dynamics
    epsilons = tuple(grid.resolved_epsilons())
    axis = spec.alpha if isinstance(spec, PPR) else spec.t
    per_seed = len(axis) * len(epsilons)
    if columns is None:
        columns = list(diffusion_columns(graph, grid, seed_nodes))[:per_seed]
    seed = int(seed_nodes[0])
    seed_vector = degree_weighted_indicator_seed(graph, [seed])
    if isinstance(spec, HeatKernel):
        budget = batch_hk_push(graph, [seed_vector], ts=axis,
                               epsilons=epsilons)
        budget = budget.dropped_mass + budget.tail_bound
    for a, value in enumerate(axis):
        exact = (
            oracle.exact_ppr(seed_vector, value) if isinstance(spec, PPR)
            else oracle.exact_hk(seed_vector, value)
        )
        for e, epsilon in enumerate(epsilons):
            b = a * len(epsilons) + e
            where = (f"{name} seed {seed} column "
                     f"({value}, {epsilon})")
            if isinstance(spec, PPR):
                checks.check(
                    oracle.ppr_column_ok(columns[b], seed_vector, value,
                                         epsilon, exact=exact),
                    f"{where}: outside the push guarantee",
                )
            else:
                checks.check(
                    oracle.hk_column_ok(columns[b], exact, budget[b]),
                    f"{where}: error above the reported budget",
                )
