"""Phase-transition bound calculators and breakdown/perturbation predicates.

Under the random interconnection model — clusters with arbitrary internal
structure per layer, independent between-cluster edges with block
probabilities and weights — the clustering accuracy of the aggregated
spectral embedding undergoes a phase transition in the aggregated noise
level ``t_w``.  This module computes:

* computable lower/upper bounds on the critical value ``t*`` from the
  within-cluster partial eigenvalue sums,
* the breakdown matrix whose spectrum decides whether clusters with
  *non-identical* block noise still separate,
* the predicted interval for the partial eigenvalue sum on each side of the
  transition, and sanity bounds on the aggregated eigenvalues,
* the critical layer weight where a two-layer aggregation's signal crosses
  its noise, and
* the subspace-perturbation bound relating two aggregations of one graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from scipy import sparse

from .graph_core import AggregatedGraph, LayerWeights, MultilayerGraph, aggregate, induced_subgraph, run_tasks
from .spectral import ClusterAssignment, SpectralEmbedding, arpack_solves, smallest_laplacian_eigs

__all__ = [
    "ClusterTooSmallError",
    "CriticalWeightSolution",
    "PhaseBounds",
    "breakdown_condition_holds",
    "breakdown_matrix",
    "cluster_partial_sums",
    "critical_bounds",
    "critical_weight_w1",
    "eigenvalue_bounds_check",
    "predicted_partial_sum",
    "subspace_perturbation_bound",
]

_EIG_RTOL = 1e-6


class ClusterTooSmallError(ValueError):
    """A cluster has fewer than K nodes, so eigenvalues 2..K do not exist."""

    @classmethod
    def check(cls, assignment: ClusterAssignment) -> None:
        if assignment.n_min < assignment.K:
            raise cls(f"every cluster needs at least K={assignment.K} nodes; smallest has {assignment.n_min}")


@dataclass(frozen=True)
class PhaseBounds:
    """Bounds on the phase-transition threshold of the aggregated noise level.

    Attributes:
        t_lb: certified lower bound on the critical value (below it, the
            embedding carries full cluster information).
        t_ub: upper bound (above it, the embedding carries none).
        universal_lb / universal_ub: weight-independent variants valid for
            every convex weight vector simultaneously, built from per-layer
            extremes.
        cluster_partial_sums: per-cluster partial eigenvalue sums
            ``lambda_2 + .. + lambda_K`` of the aggregated within-cluster
            subgraphs (indexed by cluster label).
        K, n, n_min, n_max: assignment shape used for the bounds.
        layer_partial_sums: ``(L, K)`` partial eigenvalue sums of each
            cluster's within subgraph in each single layer (the input of
            the universal bounds and of the per-layer signal levels).
    """

    t_lb: float
    t_ub: float
    universal_lb: float
    universal_ub: float
    cluster_partial_sums: np.ndarray
    K: int
    n: int
    n_min: int
    n_max: int
    layer_partial_sums: np.ndarray

    @property
    def c_star(self) -> float:
        """``min_k S_{2:K}(cluster k) / n`` — the plateau constant above t*."""
        return float(self.cluster_partial_sums.min() / self.n)


def _solve_cluster(mat: sparse.csr_array, nodes: np.ndarray, K: int) -> float | np.ndarray | Exception:
    """One task: the partial sum of a cluster's subgraph of ``mat``; the
    cluster's nodes whose strength is not finite instead, or the solve's error."""
    sub = induced_subgraph(mat, nodes)
    overflowed = nodes[~np.isfinite(sub.strength)]
    if overflowed.size:
        return overflowed
    try:
        return float(np.sum(smallest_laplacian_eigs(sub, K)[1:K]))
    except Exception as err:  # raised by _solve_clusters after the matrix's strength check
        return err


def _solve_clusters(matrices: Sequence[sparse.csr_array], assignment: ClusterAssignment,
                    node_ids: Sequence[str] | None = None) -> np.ndarray:
    """The ``(len(matrices), K)`` partial sums, solved and raised as
    :func:`cluster_partial_sums` says; with ``node_ids``, the matrices are a
    graph's layers and an overflow names the layer and the node's id."""
    K = assignment.K
    members = [assignment.members(k) for k in range(K)]
    tasks = [partial(_solve_cluster, mat, nodes, K) for mat in matrices for nodes in members]
    outcomes = run_tasks(tasks) if arpack_solves(assignment.n_min, K) else [task() for task in tasks]
    sums = np.empty((len(matrices), K))
    for i in range(len(matrices)):
        row = outcomes[i * K:(i + 1) * K]
        overflowed = [nodes for nodes in row if isinstance(nodes, np.ndarray)]
        if overflowed:
            node = int(np.concatenate(overflowed).min())
            layer, name = ("", node) if node_ids is None else (f"layer {i}: ", node_ids[node])
            raise ValueError(f"{layer}within-cluster strength of node {name!r} is not finite: "
                             "its edge weights are too large")
        for error in row:
            if isinstance(error, Exception):
                raise error
        sums[i] = row
    sums.setflags(write=False)
    return sums


def cluster_partial_sums(agg: AggregatedGraph, assignment: ClusterAssignment) -> np.ndarray:
    """Partial eigenvalue sums ``lambda_2+..+lambda_K`` per aggregated cluster.

    For each cluster, one task cuts its within-cluster subgraph of ``agg``,
    checks its strengths and sums eigenvalues 2..K of its Laplacian.  When
    every cluster is ARPACK-sized the tasks go to
    :func:`~mlsgc.graph_core.run_tasks`; dense LAPACK solves, which gain
    nothing from it, run in order.  Once every task has ended, a strength
    that is not finite (the smallest such node) wins over failed solves, of
    which the first in cluster order is raised.

    Raises:
        ValueError: the assignment does not cover the node set, or a node's
            within-cluster strength is not finite (naming its index).
        ClusterTooSmallError: some cluster has fewer than K nodes.
        ConvergenceError: an eigensolver failed or refused a cluster.
    """
    if assignment.n != agg.n:
        raise ValueError("assignment does not cover the node set")
    ClusterTooSmallError.check(assignment)
    return _solve_clusters([agg.weight_matrix], assignment)[0]


def critical_bounds(
    graph: MultilayerGraph,
    assignment: ClusterAssignment,
    weights: LayerWeights,
) -> PhaseBounds:
    """Phase-transition bounds for one weight vector, plus universal variants.

    * ``t_lb  = min_k S_k(w) / ((K-1) n_max)``
    * ``t_ub  = min_k S_k(w) / ((K-1) n_min)``
    * ``universal_lb = min_k min_l S_k(layer l) / ((K-1) n_max)``
    * ``universal_ub = min_k max_l S_k(layer l) / ((K-1) n_min)``

    where ``S_k`` is the partial eigenvalue sum of cluster k's within
    subgraph.  With equal cluster sizes ``t_lb == t_ub``.

    The K aggregated solves run first, then the L*K per-layer ones in one
    batch, each as :func:`cluster_partial_sums` runs and raises them,
    layer by layer; the bounds have the same bytes however many solves run
    at once.

    Raises:
        ValueError: the assignment does not cover the node set, or a node's
            within-cluster strength is not finite (naming the first such
            layer and the id of its smallest such node).
        ClusterTooSmallError: some cluster has fewer than K nodes.
        ConvergenceError: an eigensolver failed or refused a cluster.
    """
    sums = cluster_partial_sums(aggregate(graph, weights), assignment)
    K = assignment.K
    n_min, n_max = assignment.n_min, assignment.n_max
    per_layer = _solve_clusters(graph.layers, assignment, graph.node_ids)

    with np.errstate(invalid="ignore"):  # K == 1 has no transition: 0/0 -> nan
        t_lb = float(sums.min() / ((K - 1) * n_max))
        t_ub = float(sums.min() / ((K - 1) * n_min))
        universal_lb = float(per_layer.min(axis=0).min() / ((K - 1) * n_max))
        universal_ub = float(per_layer.max(axis=0).min() / ((K - 1) * n_min))
    return PhaseBounds(
        t_lb=t_lb,
        t_ub=t_ub,
        universal_lb=universal_lb,
        universal_ub=universal_ub,
        cluster_partial_sums=sums,
        K=K,
        n=assignment.n,
        n_min=n_min,
        n_max=n_max,
        layer_partial_sums=per_layer,
    )


# ---------------------------------------------------------------------------
# Breakdown analysis for non-identical block noise
# ---------------------------------------------------------------------------


def breakdown_matrix(
    assignment: ClusterAssignment,
    noise_levels: np.ndarray,
    weights: LayerWeights,
) -> np.ndarray:
    """The (K-1)x(K-1) matrix whose spectrum decides cluster separability.

    ``noise_levels`` has shape (L, K, K): symmetric per-layer block noise
    levels ``t_ij`` (diagonal ignored).  With aggregated levels
    ``t_agg = sum_l w_l t^(l)`` the matrix is, in 0-based labels with the
    last cluster indexed K-1:

    * ``M[i, i] = (n_i + n_{K-1}) t_agg[i, K-1] + sum_{z < K-1, z != i} n_z t_agg[i, z]``
    * ``M[i, j] = n_i (t_agg[i, K-1] - t_agg[i, j])`` for ``i != j``

    When every layer's blocks share one level t, this reduces to
    ``n * t * I``.  The matrix is generally nonsymmetric.

    Raises:
        ValueError: ``noise_levels`` has the wrong shape, or an entry of the
            matrix is not finite (the levels are too large, or not finite).
    """
    K = assignment.K
    noise_levels = np.asarray(noise_levels, dtype=np.float64)
    if noise_levels.shape != (len(weights), K, K):
        raise ValueError(
            f"noise_levels must have shape (L, K, K) = {(len(weights), K, K)}, got {noise_levels.shape}"
        )
    sizes = assignment.sizes
    M = np.empty((K - 1, K - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, with the entry named
        t_agg = np.tensordot(weights.values, noise_levels, axes=1)
        for i in range(K - 1):
            diag = (sizes[i] + sizes[K - 1]) * t_agg[i, K - 1]
            diag += sum(sizes[z] * t_agg[i, z] for z in range(K - 1) if z != i)
            M[i, i] = diag
            for j in range(K - 1):
                if j != i:
                    M[i, j] = sizes[i] * (t_agg[i, K - 1] - t_agg[i, j])
    if not np.isfinite(M).all():
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"breakdown matrix entry ({i}, {j}) is {M[i, j]}: the noise levels are too large")
    return M


def _eig_close(a: float, b: float) -> bool:
    return abs(a - b) <= _EIG_RTOL * max(1.0, abs(a), abs(b))


def breakdown_condition_holds(
    breakdown: np.ndarray,
    graph: MultilayerGraph,
    assignment: ClusterAssignment,
    weights: LayerWeights,
) -> bool:
    """Whether cluster separation survives non-identical block noise.

    Separation fails only if some eigenvalue of ``breakdown / n`` coincides
    with an eigenvalue ``lambda_j(L^w / n)``, j = 2..K, of the aggregated
    graph Laplacian; this predicate is True when *no* such coincidence
    occurs (comparison at relative tolerance 1e-6).  The breakdown matrix
    may be nonsymmetric; complex eigenvalues never coincide with the real
    Laplacian spectrum unless their imaginary part is negligible.

    Raises:
        ValueError: the assignment does not cover the node set.
    """
    n = assignment.n
    if n != graph.n:
        raise ValueError("assignment does not cover the node set")
    K = assignment.K
    mu = np.linalg.eigvals(np.asarray(breakdown, dtype=np.float64) / n)

    eigvals = smallest_laplacian_eigs(aggregate(graph, weights), K)
    lam = [float(v) / n for v in eigvals[1:K]]

    for m in mu:
        if abs(m.imag) > _EIG_RTOL * max(1.0, abs(m)):
            continue
        for v in lam:
            if _eig_close(float(m.real), v):
                return False
    return True


# ---------------------------------------------------------------------------
# Predicted partial sums and eigenvalue sanity bounds
# ---------------------------------------------------------------------------


def predicted_partial_sum(t_w: float, bounds: PhaseBounds) -> tuple[float, float]:
    """Predicted range of ``S_{2:K}/n`` at aggregated noise level ``t_w``.

    Below the certified transition point the partial sum is exactly
    ``(K-1) t_w`` (both endpoints equal); above it the prediction is the
    interval ``[c* + (K-1)(1 - n_max/n) t_w,  c* + (K-1)(1 - n_min/n) t_w]``,
    which collapses to ``c* + ((K-1)^2/K) t_w`` for equal cluster sizes.
    """
    if t_w < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {t_w}")
    K = bounds.K
    if t_w <= bounds.t_lb:
        value = (K - 1) * t_w
        return (value, value)
    c = bounds.c_star
    lo = c + (K - 1) * (1.0 - bounds.n_max / bounds.n) * t_w
    hi = c + (K - 1) * (1.0 - bounds.n_min / bounds.n) * t_w
    return (lo, hi)


def eigenvalue_bounds_check(
    embedding: SpectralEmbedding,
    t_min_w: float,
    t_max_w: float,
    *,
    slack: float = 0.0,
) -> bool:
    """Check the normalized eigenvalues 2..K against a noise-level bracket.

    Below the phase transition, every normalized aggregated eigenvalue
    ``lambda_j / n`` concentrates inside the range of aggregated block noise
    levels, so the check is
    ``t_min_w - slack <= lambda_j/n <= t_max_w + slack`` for all j = 2..K.
    ``slack`` is an additive allowance for sampling noise (e.g. a few
    standard errors of the noise estimate); callers choose it explicitly.
    """
    normalized = embedding.eigenvalues / embedding.n
    lo = t_min_w - slack
    hi = t_max_w + slack
    return bool(np.all(normalized >= lo) and np.all(normalized <= hi))


# ---------------------------------------------------------------------------
# Critical layer weight (two layers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalWeightSolution:
    """Solution of the two-layer critical-weight equation.

    Attributes:
        value: the weight of layer 1 where the aggregated noise crosses the
            aggregated signal, or None when no solution lies in [0, 1].
        degenerate: True when the equation holds identically (every weight
            is critical) — value is None in that case too.
    """

    value: float | None
    degenerate: bool


def critical_weight_w1(p1: float, p2: float, s1: float, s2: float, K: int) -> CriticalWeightSolution:
    """Solve for the layer-1 weight where noise meets signal in a 2-layer mix.

    The crossing condition is linear in ``w1``:

        ((K-1)/K) (w1 p1 + (1-w1) p2) = w1 s1 + (1-w1) s2

    with ``p_l`` the layer noise levels and ``s_l = min_k S_{2:K}(cluster k
    in layer l) / n`` the per-layer signal levels.  Returns the root if it
    falls inside [0, 1]; a degenerate marker when the equation is 0 = 0.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    ratio = (K - 1) / K
    a = ratio * (p1 - p2) - (s1 - s2)
    b = ratio * p2 - s2
    atol = 1e-12 * max(1.0, abs(p1), abs(p2), abs(s1), abs(s2))
    if abs(a) <= atol:
        if abs(b) <= atol:
            return CriticalWeightSolution(value=None, degenerate=True)
        return CriticalWeightSolution(value=None, degenerate=False)
    w1 = -b / a
    if -1e-12 <= w1 <= 1.0 + 1e-12:
        return CriticalWeightSolution(value=float(min(max(w1, 0.0), 1.0)), degenerate=False)
    return CriticalWeightSolution(value=None, degenerate=False)


# ---------------------------------------------------------------------------
# Subspace perturbation bound
# ---------------------------------------------------------------------------


def subspace_perturbation_bound(
    agg: AggregatedGraph,
    agg_tilde: AggregatedGraph,
    t_w: float,
    lambda_kplus1: float,
) -> float:
    """Upper bound on the sin-theta distance between two aggregations' embeddings.

    ``||L - L_tilde||_F / (n * delta)`` with
    ``delta = min(t_w, |lambda_{K+1}/n - t_w|)``; infinite when the gap
    ``delta`` vanishes (the bound is vacuous there).

    Args:
        agg: reference aggregation.
        agg_tilde: perturbed aggregation over the same node set.
        t_w: aggregated noise level of the reference.
        lambda_kplus1: (K+1)-th smallest Laplacian eigenvalue of the
            reference aggregation (unnormalized).
    """
    if agg.n != agg_tilde.n:
        raise ValueError("aggregations must share a node set")
    n = agg.n
    diff = agg.weight_matrix - agg_tilde.weight_matrix
    frob_sq = float(np.sum(diff.data**2)) + float(np.sum((agg.strength - agg_tilde.strength) ** 2))
    delta = min(t_w, abs(lambda_kplus1 / n - t_w))
    if delta <= 0.0:
        return float("inf")
    return float(np.sqrt(frob_sq) / (n * delta))
