"""The three NCP workloads: graph set-up, diffusion grid, refiner chain.

The graphs are fixed (suite seed 0), so every run measures the same
Figure 1 / scale-tier graph; the benchmark's ``--seed`` drives the grid's
seed-node draw, which is what decides the work a run does.
"""

from __future__ import annotations

import itertools
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import MQI, DiffusionGrid, HeatKernel, PPR, Pipeline
from repro import run_ncp_ensemble
from repro.datasets import load_graph
from repro.graph import read_binary, write_binary

# Suite seed of every workload graph: the graph is part of the workload's
# identity, the seed-node draw is what ``--seed`` varies.
GRAPH_SEED = 0

# Call ``j`` of a measured round draws its seed nodes from
# ``draw_seed(seed, j)``, so a round covers the same seed-node draws in
# every run with that ``--seed``.  The untimed warm-up and the memory
# passes use the spare draws ``spare_seed(seed, k)``, apart from a round.
SPARE_DRAWS = 1000


def draw_seed(seed, j):
    """Grid seed of call ``j`` in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def spare_seed(seed, k):
    """Grid seed of the ``k``-th call outside the measured rounds."""
    return draw_seed(seed, SPARE_DRAWS + k)


class Scratch:
    """Fresh directories under one root that is removed at the end."""

    def __init__(self, root):
        self.root = Path(root)
        self._counter = itertools.count()

    def fresh(self):
        path = self.root / f"d{next(self._counter)}"
        path.mkdir(parents=True)
        return path

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


def dir_mb(path):
    """Total size of the regular files in a directory, in MB."""
    return sum(f.stat().st_size for f in Path(path).iterdir()) / 1e6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``bucket_edges`` are the fixed, log-spaced size-bucket edges of
    ``ncp_phi``: bucket ``i`` holds sizes in ``[edges[i], edges[i+1])``,
    the last bucket is closed on the right.  ``draws`` is the number of
    calls in one measured round, ``setups_per_round`` the number of extra
    set-ups spread through each round, ``reruns`` the warm reruns timed
    after each cold call, and ``peak_passes`` the number of cold calls
    under tracemalloc whose median is ``peak_mb``.
    """

    name: str
    graph: str
    binary: bool
    spec: object
    epsilons: tuple
    refiners: tuple
    num_seeds: int
    draws: int
    setups_per_round: int
    reruns: int
    peak_passes: int
    bucket_edges: tuple
    why: str

    def build_graph(self):
        """The suite graph in memory (the ``datasets`` layer)."""
        return load_graph(self.graph, seed=GRAPH_SEED)

    def setup(self, workdir):
        """Make the graph ready the way this tier's users do.

        ``atp`` is built in memory.  The R-MAT graph is generated, written
        as a ``.reprograph`` file and opened memmapped.
        """
        graph = self.build_graph()
        if not self.binary:
            return graph
        path = Path(workdir) / f"{self.graph}.reprograph"
        write_binary(graph, path)
        return read_binary(path)

    def grid(self, seed):
        return DiffusionGrid(
            self.spec,
            epsilons=self.epsilons,
            num_seeds=self.num_seeds,
            seed=seed,
        )

    def run(self, graph, seed, cache_dir, *, raw=False):
        """One serial ``run_ncp_ensemble`` call; returns ``(result, s)``.

        ``raw=True`` runs the grid without the refiner chain.
        """
        grid = self.grid(seed)
        workload = (
            grid if raw or not self.refiners
            else Pipeline(grid, refiners=self.refiners)
        )
        start = time.perf_counter()
        result = run_ncp_ensemble(
            graph, workload, executor="serial", cache_dir=cache_dir
        )
        return result, time.perf_counter() - start


def _octaves(low, high):
    edges = []
    size = low
    while size < high:
        edges.append(size)
        size *= 2
    return tuple(edges) + (high,)


# Every workload keeps the default cluster-size cap, n/2, as users run it.
# The host slows down in phases of seconds to minutes, so every timing is
# spread over the whole run.
# atp-mqi: a round is the 40 seed nodes of the Figure 1 run, in twenty
# calls of two.  The cost of one seed varies by a coefficient of 0.29
# with the draw, so a run refines as many seeds as fit in one round
# rather than repeating fewer.  A set-up follows every call, because one
# set-up takes only 0.1 s and its time jumps by a third from one to the
# next.  It takes one memory pass: tracemalloc slows the pure-Python
# max-flow about tenfold, to 11-14 s a pass.
# The R-MAT workloads: eight seed nodes per call, one full runner chunk
# (seeds_per_chunk=8), so the dense n·B engine buffers are those of a
# real run.  The dense buffers also make a call's cost nearly the same
# for every draw, so a round is short (six calls) and repeats, and each
# draw's time is a median over the rounds.  One rmat16-ppr call's peak
# varies from 116 to 161 MB with the draw, so it takes nine (cheap)
# memory passes; rmat16-hk's barely moves.
# BENCHMARK.json lists atp-mqi and rmat16-ppr; rmat16-hk runs by hand.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="atp-mqi",
            graph="atp",
            binary=False,
            spec=PPR(alpha=(0.05, 0.15)),
            epsilons=None,
            refiners=(MQI(),),
            num_seeds=2,
            draws=20,
            setups_per_round=20,
            reruns=5,
            peak_passes=1,
            bucket_edges=_octaves(2, 640),
            why="Figure 1 path on atp: pure-Python MQI max-flow refinement "
                "is most of ncp_s",
        ),
        Workload(
            name="rmat16-ppr",
            graph="rmat-16",
            binary=True,
            spec=PPR(alpha=(0.05, 0.15)),
            epsilons=(1e-4, 1e-5),
            refiners=(),
            num_seeds=8,
            draws=6,
            setups_per_round=1,
            reruns=3,
            peak_passes=9,
            bucket_edges=_octaves(2, 1024),
            why="scale tier: numpy PPR kernel and sweep on a memmapped "
                "909k-edge graph, no refinement",
        ),
        Workload(
            name="rmat16-hk",
            graph="rmat-16",
            binary=True,
            spec=HeatKernel(),
            epsilons=None,
            refiners=(),
            num_seeds=8,
            draws=6,
            setups_per_round=1,
            reruns=3,
            peak_passes=3,
            bucket_edges=_octaves(2, 1024),
            why="same graph through the heat-kernel engine: a different "
                "recursion behind the same column interface",
        ),
    )
}
