"""Independent correctness oracles for NCP outputs.

Everything here is computed from the graph's CSR arrays with numpy and
scipy alone: no conductance, push, flow or sweep code of ``repro`` is
used to judge ``repro``'s outputs.  Each check counts as one operation
of the benchmark; a check that fails is a failed operation.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as splinalg

# A candidate's reported conductance must match the recomputed one to
# this relative tolerance.  Integer weights make both sides exact sums,
# so the tolerance only absorbs the order of summation; a value nudged by
# 1e-9 is far outside it.
PHI_RTOL = 1e-12

# Absolute slack on the diffusion guarantees, far below any threshold
# ε·d_u the workloads use (ε ≥ 1e-5, d_u ≥ 1) and far above the error of
# the reference solves.
COLUMN_ATOL = 1e-9


class Checks:
    """Tally of oracle checks: one operation per check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self):
        return len(self.failures)


class GraphOracle:
    """Reference computations on one graph's CSR arrays."""

    def __init__(self, graph):
        indptr = np.asarray(graph.indptr, dtype=np.int64)
        indices = np.asarray(graph.indices, dtype=np.int64)
        weights = np.asarray(graph.weights, dtype=np.float64)
        self.n = indptr.size - 1
        self.adjacency = sparse.csr_matrix(
            (weights, indices, indptr), shape=(self.n, self.n)
        )
        self.degrees = np.asarray(self.adjacency.sum(axis=1)).ravel()
        self.total_volume = float(self.degrees.sum())
        self._inv_sqrt_deg = 1.0 / np.sqrt(self.degrees)
        self._normalized = None
        self._generator = None

    # -- clusters ---------------------------------------------------------

    def cut_and_volume(self, nodes):
        mask = np.zeros(self.n, dtype=bool)
        mask[nodes] = True
        rows = self.adjacency[nodes]
        cut = float(rows.data[~mask[rows.indices]].sum())
        return cut, float(self.degrees[nodes].sum())

    def conductance(self, nodes):
        cut, volume = self.cut_and_volume(nodes)
        return cut / min(volume, self.total_volume - volume)

    def is_proper_subset(self, nodes, max_size):
        """Sorted unique in-range ids, nonempty, proper, within the cap."""
        nodes = np.asarray(nodes)
        return bool(
            nodes.ndim == 1
            and 0 < nodes.size <= max_size
            and nodes.size < self.n
            and nodes[0] >= 0
            and nodes[-1] < self.n
            and np.all(np.diff(nodes) > 0)
        )

    def mqi_fixed_point(self, nodes):
        """Whether no subset of ``nodes`` has lower conductance.

        Builds the Lang–Rao MQI network of ``nodes`` (internal edges at
        ``vol·w`` both ways, source→u at ``vol·boundary(u)``, u→sink at
        ``cut·d_u``) and solves it with ``scipy``'s max-flow: the set is a
        fixed point exactly when the max flow saturates ``cut·vol``.
        Returns ``None`` when the capacities are not exact int32 values.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        cut, volume = self.cut_and_volume(nodes)
        k = nodes.size
        local = np.full(self.n, -1, dtype=np.int64)
        local[nodes] = np.arange(k)
        rows = self.adjacency[nodes].tocoo()
        inside = local[rows.col] >= 0
        boundary = np.bincount(
            rows.row[~inside], weights=rows.data[~inside], minlength=k
        )
        source, sink = k, k + 1
        has_boundary = boundary > 0
        tails = np.concatenate([
            rows.row[inside],
            np.full(int(has_boundary.sum()), source),
            np.arange(k),
        ])
        heads = np.concatenate([
            local[rows.col[inside]],
            np.flatnonzero(has_boundary),
            np.full(k, sink),
        ])
        capacities = np.concatenate([
            volume * rows.data[inside],
            volume * boundary[has_boundary],
            cut * self.degrees[nodes],
        ])
        if (
            np.any(capacities != np.round(capacities))
            or capacities.max(initial=0) >= 2**31
        ):
            return None
        network = sparse.csr_matrix(
            (capacities.astype(np.int32), (tails, heads)),
            shape=(k + 2, k + 2),
        )
        flow = csgraph.maximum_flow(network, source, sink).flow_value
        return int(flow) == int(round(cut * volume))

    # -- diffusions ---------------------------------------------------------

    def exact_ppr(self, seed_vector, alpha):
        """Lazy personalized PageRank ``α (I − (1−α) W)^{-1} s``.

        ``W = (I + A D^{-1}) / 2``.  Solved by conjugate gradients on the
        symmetric form ``D^{-1/2} (I − (1−α) W) D^{1/2}``, whose spectrum
        lies in ``[α, 1]``.
        """
        scale = self._inv_sqrt_deg
        if self._normalized is None:
            self._normalized = (
                sparse.diags(scale) @ self.adjacency @ sparse.diags(scale)
            ).tocsr()
        system = (
            sparse.identity(self.n, format="csr") * ((1.0 + alpha) / 2.0)
            - self._normalized * ((1.0 - alpha) / 2.0)
        )
        rhs = alpha * scale * seed_vector
        solution, info = splinalg.cg(system, rhs, rtol=1e-13, atol=0.0,
                                     maxiter=10_000)
        if info != 0:
            raise RuntimeError(f"reference PageRank solve failed (cg {info})")
        return solution / scale

    def ppr_column_ok(self, column, seed_vector, alpha, epsilon, exact=None):
        """The ACL push guarantee for one approximate PageRank column.

        The push invariant ``p + pr_α(r) = pr_α(s)`` fixes the residual a
        column implies, ``r = (1/α)(I − (1−α) W)(x − p)`` with ``x`` the
        exact vector.  The column passes when ``0 ≤ p ≤ x`` and
        ``0 ≤ r_u < ε d_u`` at every node.
        """
        x = self.exact_ppr(seed_vector, alpha) if exact is None else exact
        gap = x - column
        lazy = 0.5 * (gap + self.adjacency @ (gap / self.degrees))
        residual = (gap - (1.0 - alpha) * lazy) / alpha
        return bool(
            np.all(column >= 0.0)
            and np.all(gap >= -COLUMN_ATOL)
            and np.all(residual >= -COLUMN_ATOL)
            and np.all(residual < epsilon * self.degrees + COLUMN_ATOL)
        )

    def exact_hk(self, seed_vector, t):
        """Heat kernel ``exp(−t (I − A D^{-1})) s`` by ``expm_multiply``."""
        if self._generator is None:
            walk = self.adjacency @ sparse.diags(1.0 / self.degrees)
            self._generator = (
                sparse.identity(self.n, format="csr") - walk
            ).tocsr()
        return splinalg.expm_multiply(-t * self._generator, seed_vector)

    def hk_column_ok(self, column, exact, budget):
        """ℓ1 error within the engine's reported budget (dropped + tail)."""
        return bool(
            np.all(column >= 0.0)
            and np.abs(column - exact).sum() <= budget + COLUMN_ATOL
        )


def same_candidate(a, b):
    """Bit-for-bit equality of two candidates, provenance included."""
    return (
        np.asarray(a.nodes, dtype=np.int64).tobytes()
        == np.asarray(b.nodes, dtype=np.int64).tobytes()
        and float(a.conductance).hex() == float(b.conductance).hex()
        and a.method == b.method
        and _provenance(a) == _provenance(b)
    )


def _provenance(candidate):
    return tuple(
        (
            step.refiner,
            float(step.pre_conductance).hex(),
            float(step.post_conductance).hex(),
            int(step.rounds),
            bool(step.converged),
            bool(step.changed),
        )
        for step in candidate.refinement
    )
