"""Between-cluster noise estimation and reliability tests.

Given a multilayer graph and a cluster assignment, the between-cluster blocks
of each layer are modeled as independent edges: block (i, j) of layer l has
edge probability ``p_ij`` and mean edge weight ``W_bar_ij``, giving a noise
level ``t_ij = p_ij * W_bar_ij``.  Three tests assess that model:

* a row-sum homogeneity test (V statistic) that a single block really has
  one shared edge probability across rows,
* a likelihood-ratio test (Wilks chi-square) that all blocks of a layer
  share one probability ("identical noise"), and
* a variance-stabilized one-sided test (Anscombe transform) that every
  block's noise level sits below a given threshold, for layers where
  probabilities differ across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .graph_core import MultilayerGraph
from .spectral import ClusterAssignment

__all__ = [
    "AnscombeResult",
    "GlrtResult",
    "NoiseEstimates",
    "anscombe_nonidentical_test",
    "chi_square_quantile",
    "estimate_noise",
    "glrt_identical_noise",
    "normal_cdf",
    "vtest_from_row_sums",
    "vtest_homogeneity",
]


def normal_cdf(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF."""
    return special.ndtr(x)


def chi_square_quantile(p: float, dof: int) -> float:
    """Quantile function of the chi-square distribution with ``dof`` degrees.

    Raises:
        ValueError: ``p`` outside (0, 1) or ``dof`` < 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    return float(2.0 * special.gammaincinv(dof / 2.0, p))


@dataclass(frozen=True)
class NoiseEstimates:
    """Between-cluster edge statistics of every layer under an assignment.

    All pair arrays are indexed ``[layer, pair]`` with pairs in the canonical
    order ``(0,1), (0,2), ..., (0,K-1), (1,2), ...`` (i < j).

    Attributes:
        K: cluster count.
        sizes: cluster sizes, indexed by label.
        pairs: the canonical ordered (i, j) pairs, i < j.
        m: observed between-cluster edge counts per layer and pair.
        weight_sum: total edge weight per layer and pair.
        p_hat: empirical edge probability ``m / (n_i * n_j)``.
        w_bar: mean weight of present edges (0 where a block has no edges).
        t_hat_pair: block noise-level estimates ``p_hat * w_bar``.
        p_hat_layer: pooled single-probability estimate per layer
            (all between-cluster blocks combined).
        w_bar_layer: pooled mean between-cluster edge weight per layer
            (0 for a layer with no between-cluster edges).
        t_hat_layer: pooled noise level ``p_hat_layer * w_bar_layer``.
        t_max_layer: largest block noise level per layer.
        row_counts: ``(L, n, K)`` array; ``row_counts[l, u, k]`` counts
            the layer-``l`` edges between node ``u`` and cluster ``k``.
            ``m`` sums its rows by cluster, and the row-sum homogeneity
            test reads each block's row sums from it.
    """

    K: int
    sizes: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    m: np.ndarray
    weight_sum: np.ndarray
    p_hat: np.ndarray
    w_bar: np.ndarray
    t_hat_pair: np.ndarray
    p_hat_layer: np.ndarray
    w_bar_layer: np.ndarray
    t_hat_layer: np.ndarray
    t_max_layer: np.ndarray
    row_counts: np.ndarray

    @property
    def L(self) -> int:
        return self.m.shape[0]

    def t_hat_matrix(self, layer: int) -> np.ndarray:
        """Symmetric (K, K) matrix of block noise levels for one layer."""
        out = np.zeros((self.K, self.K))
        for idx, (i, j) in enumerate(self.pairs):
            out[i, j] = out[j, i] = self.t_hat_pair[layer, idx]
        return out


def _pair_order(K: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(K) for j in range(i + 1, K))


def estimate_noise(graph: MultilayerGraph, assignment: ClusterAssignment) -> NoiseEstimates:
    """Estimate between-cluster edge probabilities and weights per layer.

    ``np.bincount`` tallies each layer's stored entries, with and without
    weights, by (row node, cluster of the column), kept as ``row_counts``,
    and those by (cluster of the node, column cluster) into the (K, K)
    blocks.  No one-hot matrix, no product: the cost is O(edges + n * K) per
    layer, and a sum that overflows to inf spoils no other block.

    Raises:
        ValueError: the assignment does not cover the graph, K < 2, or the
            weight sum between two clusters of a layer overflows to infinity
            (naming the layer and the first such pair).
    """
    if assignment.n != graph.n:
        raise ValueError("assignment does not cover the node set")
    K = assignment.K
    if K < 2:
        raise ValueError("noise estimation needs at least two clusters")
    pairs = _pair_order(K)
    sizes = assignment.sizes.astype(np.int64)
    n = graph.n
    block_bins = (assignment.labels[:, None] * K + np.arange(K)).ravel()  # (cluster of u, k) for each (u, k)

    P = len(pairs)
    rows_i = np.array([p[0] for p in pairs])
    rows_j = np.array([p[1] for p in pairs])
    block_pairs = sizes[rows_i] * sizes[rows_j]

    m = np.empty((graph.L, P))
    weight_sum = np.empty((graph.L, P))
    row_counts = np.empty((graph.L, n, K))
    for layer, W in enumerate(graph.layers):
        bins = np.repeat(np.arange(n) * K, np.diff(W.indptr)) + assignment.labels[W.indices]
        row_weights = np.bincount(bins, weights=W.data, minlength=n * K)
        row_counts[layer] = np.bincount(bins, minlength=n * K).reshape(n, K)
        weight_blocks = np.bincount(block_bins, weights=row_weights, minlength=K * K).reshape(K, K)
        count_blocks = np.bincount(block_bins, weights=row_counts[layer].ravel(), minlength=K * K).reshape(K, K)
        m[layer] = count_blocks[rows_i, rows_j]
        weight_sum[layer] = weight_blocks[rows_i, rows_j]
        if not np.isfinite(weight_sum[layer]).all():
            i, j = pairs[int(np.argmin(np.isfinite(weight_sum[layer])))]
            raise ValueError(f"layer {layer}: edge weight between clusters {i} and {j} sums to infinity: "
                             "its edge weights are too large")

    p_hat = m / block_pairs
    with np.errstate(invalid="ignore", divide="ignore"):
        w_bar = np.where(m > 0, weight_sum / np.where(m > 0, m, 1.0), 0.0)
    t_hat_pair = p_hat * w_bar

    total_pairs = float(block_pairs.sum())
    m_layer = m.sum(axis=1)
    p_hat_layer = m_layer / total_pairs
    w_bar_layer = np.where(m_layer > 0, weight_sum.sum(axis=1) / np.where(m_layer > 0, m_layer, 1.0), 0.0)
    t_hat_layer = p_hat_layer * w_bar_layer
    t_max_layer = t_hat_pair.max(axis=1)

    for arr in (sizes, m, weight_sum, p_hat, w_bar, t_hat_pair,
                p_hat_layer, w_bar_layer, t_hat_layer, t_max_layer, row_counts):
        arr.setflags(write=False)
    return NoiseEstimates(
        K=K,
        sizes=sizes,
        pairs=pairs,
        m=m,
        weight_sum=weight_sum,
        p_hat=p_hat,
        w_bar=w_bar,
        t_hat_pair=t_hat_pair,
        p_hat_layer=p_hat_layer,
        w_bar_layer=w_bar_layer,
        t_hat_layer=t_hat_layer,
        t_max_layer=t_max_layer,
        row_counts=row_counts,
    )


# ---------------------------------------------------------------------------
# Row-sum homogeneity test (V statistic)
# ---------------------------------------------------------------------------


def vtest_from_row_sums(row_sums: np.ndarray, n_cols: int) -> float:
    """Two-sided p-value that a 0/1 block's rows share one edge probability.

    ``row_sums`` holds the number of edges each of the ``n_i`` rows has into
    the ``n_cols`` opposite-cluster nodes.  The statistic
    ``V = sum_u (R_u - n_cols * p_hat)^2 / (n_cols * p_hat * q_hat)`` is
    compared against its null normal approximation with mean ``n_i - 1``
    and variance ``2 (n_i - 1)(1 - 1/n_cols)``.

    Degenerate cases (fewer than 2 rows or columns, or an empirical
    probability of exactly 0 or 1, where the statistic is undefined or the
    block is deterministic) return 1.0: no evidence of heterogeneity.
    """
    row_sums = np.asarray(row_sums, dtype=np.float64).ravel()
    n_i = row_sums.size
    if n_i < 2 or n_cols < 2:
        return 1.0
    p_hat = row_sums.sum() / (n_i * n_cols)
    if p_hat <= 0.0 or p_hat >= 1.0:
        return 1.0
    q_hat = 1.0 - p_hat
    v = float(np.sum((row_sums - n_cols * p_hat) ** 2) / (n_cols * p_hat * q_hat))
    mean = n_i - 1.0
    var = 2.0 * (n_i - 1.0) * (1.0 - 1.0 / n_cols)
    z = (v - mean) / np.sqrt(var)
    return float(2.0 * special.ndtr(-abs(z)))


def vtest_homogeneity(block: np.ndarray, n_i: int, n_j: int) -> float:
    """Row-sum homogeneity p-value for an explicit ``(n_i, n_j)`` 0/1 block."""
    block = np.asarray(block)
    if block.shape != (n_i, n_j):
        raise ValueError(f"expected block shape {(n_i, n_j)}, got {block.shape}")
    return vtest_from_row_sums(block.sum(axis=1), n_j)


# ---------------------------------------------------------------------------
# Identical-noise likelihood-ratio test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlrtResult:
    """Outcome of the identical-noise likelihood-ratio test for one layer."""

    accept: bool
    statistic: float
    dof: int
    threshold: float
    p_value: float


def glrt_identical_noise(estimates: NoiseEstimates, layer: int, alpha: float = 0.05) -> GlrtResult:
    """Test whether all between-cluster blocks of a layer share one probability.

    The Wilks statistic ``2 [loglik(per-block p) - loglik(pooled p)]`` is
    compared to the chi-square quantile with ``K(K-1)/2 - 1`` degrees of
    freedom.  With K = 2 there is a single block, the degrees of freedom are
    zero and the test accepts trivially with statistic 0.

    Raises:
        ValueError: bad layer index, alpha outside (0, 1), or alpha so
            small that ``1 - alpha`` rounds to 1.0.
    """
    if not 0 <= layer < estimates.L:
        raise ValueError(f"layer index {layer} out of range for L={estimates.L}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must be in (0, 1), got {alpha}")
    if 1.0 - alpha == 1.0:
        raise ValueError(f"alpha level {float(alpha)} is too small: 1 - alpha rounds to 1.0")
    P = len(estimates.pairs)
    dof = P - 1
    if dof == 0:
        return GlrtResult(accept=True, statistic=0.0, dof=0, threshold=0.0, p_value=1.0)

    sizes = estimates.sizes
    counts = np.array([sizes[i] * sizes[j] for i, j in estimates.pairs], dtype=np.float64)
    m = estimates.m[layer]
    p_pool = estimates.p_hat_layer[layer]

    def loglik(p: np.ndarray | float) -> float:
        p = np.asarray(p, dtype=np.float64)
        return float(np.sum(special.xlogy(m, p) + special.xlogy(counts - m, 1.0 - p)))

    stat = max(0.0, 2.0 * (loglik(estimates.p_hat[layer]) - loglik(p_pool)))
    threshold = chi_square_quantile(1.0 - alpha, dof)
    p_value = float(special.gammaincc(dof / 2.0, stat / 2.0))
    return GlrtResult(accept=stat <= threshold, statistic=stat, dof=dof,
                      threshold=threshold, p_value=p_value)


# ---------------------------------------------------------------------------
# Non-identical noise threshold test (Anscombe transform)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnscombeResult:
    """Outcome of the non-identical-noise threshold test for one layer."""

    accept: bool
    product: float
    factors: np.ndarray


def anscombe_nonidentical_test(
    estimates: NoiseEstimates,
    layer: int,
    t_lb_hat: float,
    alpha_prime: float = 0.05,
) -> AnscombeResult:
    """Test that every between-cluster block's noise level is below a threshold.

    For each block (i, j) with empirical probability strictly inside (0, 1),
    the variance-stabilizing arcsine transform
    ``A(x) = asin(sqrt((x + c/N) / (1 + 2c/N)))`` with ``c = 3/8`` and
    ``N = n_i * n_j`` yields the factor
    ``F_ij = Phi(sqrt(4N + 2) * (A(t_lb_hat / W_bar_ij) - A(p_hat_ij)))`` —
    the approximate confidence that the block's noise level ``p W_bar`` sits
    below ``t_lb_hat``.  Blocks with degenerate probability (exactly 0 or 1)
    contribute an indicator factor ``1{t_hat_ij < t_lb_hat}``.  The layer is
    accepted when the product of all factors is at least ``1 - alpha_prime``.

    Raises:
        ValueError: bad layer index or alpha_prime outside (0, 1).
    """
    if not 0 <= layer < estimates.L:
        raise ValueError(f"layer index {layer} out of range for L={estimates.L}")
    if not 0.0 < alpha_prime < 1.0:
        raise ValueError(f"significance level must be in (0, 1), got {alpha_prime}")

    c = 0.375
    sizes = estimates.sizes
    factors = np.empty(len(estimates.pairs))
    for idx, (i, j) in enumerate(estimates.pairs):
        p = estimates.p_hat[layer, idx]
        if p <= 0.0 or p >= 1.0:
            factors[idx] = 1.0 if estimates.t_hat_pair[layer, idx] < t_lb_hat else 0.0
            continue
        N = float(sizes[i] * sizes[j])
        w_bar = estimates.w_bar[layer, idx]  # > 0 whenever p is in (0, 1)
        shift = c / N
        scale = 1.0 + 2.0 * shift

        def transform(x: float) -> float:
            return float(np.arcsin(np.sqrt(np.clip((x + shift) / scale, 0.0, 1.0))))

        z = np.sqrt(4.0 * N + 2.0) * (transform(t_lb_hat / w_bar) - transform(p))
        factors[idx] = float(special.ndtr(z))
    product = float(np.prod(factors))
    factors.setflags(write=False)
    return AnscombeResult(accept=product >= 1.0 - alpha_prime, product=product, factors=factors)
