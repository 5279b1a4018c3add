"""Synthetic multilayer graph generators with ground truth.

Two generators:

* a two-layer correlated model — within each cluster, every node pair draws
  one of four joint outcomes (edge in both layers / layer 1 only / layer 2
  only / neither), so the layers are correlated; between clusters each layer
  adds independent Bernoulli noise edges; all weights are 1;
* a general random-interconnection model — arbitrary per-layer within-cluster
  edge probabilities (or explicitly supplied within-cluster subgraphs) plus
  between-cluster blocks with per-block edge probabilities and weight
  distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .graph_core import MultilayerGraph
from .spectral import ClusterAssignment

__all__ = [
    "GeneralRimParams",
    "TwoLayerCorrelatedParams",
    "generate_rim",
    "generate_two_layer",
]


def _node_ids(n: int) -> tuple[str, ...]:
    """Zero-padded node names whose lexicographic order is the numeric order."""
    width = max(1, len(str(n - 1)))
    return tuple(f"n{i:0{width}d}" for i in range(n))


def _truth_assignment(cluster_sizes: tuple[int, ...]) -> ClusterAssignment:
    return ClusterAssignment(np.repeat(np.arange(len(cluster_sizes)), cluster_sizes))


def _cluster_slices(cluster_sizes: tuple[int, ...]) -> list[slice]:
    offsets = np.concatenate(([0], np.cumsum(cluster_sizes)))
    return [slice(int(offsets[k]), int(offsets[k + 1])) for k in range(len(cluster_sizes))]


# The generators draw one uniform variate per node pair, so the node count n
# is capped by a budget of n(n-1)/2 pairs, checked before anything is
# allocated: 2**25 pairs admits up to 8192 nodes.
_MAX_NODE_PAIRS = 2**25


def _validate_sizes(cluster_sizes: tuple[int, ...]) -> None:
    if len(cluster_sizes) == 0:
        raise ValueError("cluster_sizes: at least one cluster is required")
    if any(int(s) < 1 for s in cluster_sizes):
        raise ValueError(f"cluster_sizes must be positive, got {cluster_sizes}")
    n = sum(cluster_sizes)
    if n * (n - 1) // 2 > _MAX_NODE_PAIRS:
        raise ValueError(f"cluster_sizes give {n} nodes, more than the budget of "
                         f"{_MAX_NODE_PAIRS} node pairs allows")


@dataclass(frozen=True)
class TwoLayerCorrelatedParams:
    """Parameters of the two-layer correlated generator.

    Attributes:
        cluster_sizes: planted cluster sizes (node count is their sum, at
            most 8192: the sizes may give at most ``2**25`` node pairs).
        q11, q10, q01, q00: within-cluster joint edge probabilities — both
            layers / layer 1 only / layer 2 only / neither.  Each must be in
            [0, 1] (NaN is rejected) and they must sum to 1 (tolerance 1e-12).
        p1, p2: per-layer between-cluster edge probabilities in [0, 1].
        seed: RNG seed; the generated graph is a pure function of the params.
    """

    cluster_sizes: tuple[int, ...]
    q11: float
    q10: float
    q01: float
    q00: float
    p1: float
    p2: float
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cluster_sizes", tuple(int(s) for s in self.cluster_sizes))
        _validate_sizes(self.cluster_sizes)
        qs = {"q11": self.q11, "q10": self.q10, "q01": self.q01, "q00": self.q00}
        for name, q in qs.items():
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {q}")
        if abs(sum(qs.values()) - 1.0) > 1e-12:
            raise ValueError(f"q11, q10, q01 and q00 must sum to 1, got {sum(qs.values())}")
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def n(self) -> int:
        return int(sum(self.cluster_sizes))


def generate_two_layer(params: TwoLayerCorrelatedParams) -> tuple[MultilayerGraph, ClusterAssignment]:
    """Sample a two-layer correlated multilayer graph with planted clusters.

    Within each cluster, each node pair draws a single uniform variate and
    the four joint outcomes partition [0, 1] as
    ``[0, q11) -> both layers``, ``[q11, q11+q10) -> layer 1 only``,
    ``[q11+q10, q11+q10+q01) -> layer 2 only``, rest -> neither.  Between
    clusters each layer includes each pair independently with its own
    probability.  All edge weights are 1.

    Returns:
        The graph (nodes named ``n000...``, cluster blocks contiguous) and
        the planted ground-truth assignment.
    """
    rng = np.random.default_rng(params.seed)
    n = params.n
    K = len(params.cluster_sizes)
    slices = _cluster_slices(params.cluster_sizes)

    rows1: list[np.ndarray] = []
    cols1: list[np.ndarray] = []
    rows2: list[np.ndarray] = []
    cols2: list[np.ndarray] = []

    edge1_hi = params.q11 + params.q10
    edge2_lo = edge1_hi
    edge2_hi = edge1_hi + params.q01

    for k in range(K):
        sl = slices[k]
        size = sl.stop - sl.start
        iu, ju = np.triu_indices(size, k=1)
        u = rng.random(iu.size)
        in1 = u < edge1_hi
        in2 = (u < params.q11) | ((u >= edge2_lo) & (u < edge2_hi))
        rows1.append(iu[in1] + sl.start)
        cols1.append(ju[in1] + sl.start)
        rows2.append(iu[in2] + sl.start)
        cols2.append(ju[in2] + sl.start)

    for ki in range(K):
        for kj in range(ki + 1, K):
            si, sj = slices[ki], slices[kj]
            shape = (si.stop - si.start, sj.stop - sj.start)
            for p, rows, cols in ((params.p1, rows1, cols1), (params.p2, rows2, cols2)):
                mask = rng.random(shape) < p
                bi, bj = np.nonzero(mask)
                rows.append(bi + si.start)
                cols.append(bj + sj.start)

    layers = ((np.concatenate(rows), np.concatenate(cols)) for rows, cols in ((rows1, cols1), (rows2, cols2)))
    graph = MultilayerGraph.from_edges(_node_ids(n), ((r, c, np.ones(r.size)) for r, c in layers))
    return graph, _truth_assignment(params.cluster_sizes)


def _within_block(block, size: int, name: str) -> sparse.csr_array:
    """A canonical float64 CSR copy of a within-cluster block, checked to be
    ``size x size``, finite and nonnegative, and exactly symmetric."""
    mat = sparse.csr_array(block, dtype=np.float64, copy=True)
    if mat.shape != (size, size):
        raise ValueError(f"{name}: expected shape {(size, size)} for a cluster of {size} nodes, got {mat.shape}")
    mat.sum_duplicates()
    mat.eliminate_zeros()
    if not np.all(np.isfinite(mat.data) & (mat.data >= 0.0)):
        raise ValueError(f"{name}: weights must be finite and nonnegative")
    if (mat != mat.T).nnz != 0:
        raise ValueError(f"{name}: weight matrix must be exactly symmetric")
    return mat


@dataclass(frozen=True)
class GeneralRimParams:
    """Parameters of the general random-interconnection generator.

    Exactly one of ``within_probs`` and ``within_graphs`` must be given.

    Attributes:
        cluster_sizes: planted cluster sizes (at most 8192 nodes in all,
            as for :class:`TwoLayerCorrelatedParams`).
        n_layers: number of layers L.
        within_probs: per-layer per-cluster within-cluster edge
            probabilities, shape (L, K); generated within-cluster subgraphs
            are Bernoulli with unit weights.
        within_graphs: explicit within-cluster weight matrices, nested
            ``[layer][cluster]`` (each a dense or sparse, exactly symmetric,
            nonnegative matrix of the cluster's size; kept as canonical CSR
            copies, whose entries above the diagonal become the edges).
            Lets callers reuse identical signal across graphs that differ
            only in noise.
        noise_probs: between-cluster edge probabilities — a scalar per layer
            (length-L sequence, all blocks alike) or a full (L, K, K)
            symmetric array (diagonal ignored).
        noise_weight_means: mean between-cluster edge weights, same shape
            options as ``noise_probs``; default 1 everywhere.  Must be
            positive wherever the matching probability is positive.
        weight_distribution: "constant" (every noise edge weighs exactly its
            mean) or "uniform" (weights ~ U(0, 2 mean); same mean, bounded
            moments).
        seed: RNG seed.
    """

    cluster_sizes: tuple[int, ...]
    n_layers: int
    within_probs: np.ndarray | None = None
    within_graphs: tuple[tuple[object, ...], ...] | None = None
    noise_probs: np.ndarray | float | None = None
    noise_weight_means: np.ndarray | float = 1.0
    weight_distribution: str = "constant"
    seed: int = 0
    _noise_p: np.ndarray = field(init=False, repr=False)
    _noise_w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cluster_sizes", tuple(int(s) for s in self.cluster_sizes))
        _validate_sizes(self.cluster_sizes)
        K = len(self.cluster_sizes)
        L = int(self.n_layers)
        if L < 1:
            raise ValueError(f"n_layers must be at least 1, got {L}")
        object.__setattr__(self, "n_layers", L)
        if (self.within_probs is None) == (self.within_graphs is None):
            raise ValueError("exactly one of within_probs and within_graphs is required")
        if self.within_probs is not None:
            probs = np.asarray(self.within_probs, dtype=np.float64)
            if probs.shape != (L, K):
                raise ValueError(f"within_probs must have shape {(L, K)} (n_layers x clusters), got {probs.shape}")
            if not np.all((probs >= 0.0) & (probs <= 1.0)):
                raise ValueError("within_probs must be in [0, 1]")
            probs.setflags(write=False)
            object.__setattr__(self, "within_probs", probs)
        else:
            graphs = tuple(tuple(layer) for layer in self.within_graphs)
            if len(graphs) != L or any(len(layer) != K for layer in graphs):
                raise ValueError(f"within_graphs must be nested (L={L}) x (K={K})")
            blocks = tuple(
                tuple(_within_block(block, size, f"within_graphs[{layer}][{k}]")
                      for k, (block, size) in enumerate(zip(row, self.cluster_sizes)))
                for layer, row in enumerate(graphs)
            )
            object.__setattr__(self, "within_graphs", blocks)
        if self.weight_distribution not in ("constant", "uniform"):
            raise ValueError("weight_distribution must be 'constant' or 'uniform'")

        noise_p = self._noise_spec(self.noise_probs, "noise_probs", 0.0)
        noise_w = self._noise_spec(self.noise_weight_means, "noise_weight_means", 1.0)
        if not np.all((noise_p >= 0.0) & (noise_p <= 1.0)):
            raise ValueError("noise_probs must be in [0, 1]")
        # only blocks above the diagonal are sampled; an (L, 1, 1) spec stands for all of them.
        # A uniform weight is drawn from [0, 2 * mean], so twice the mean must be finite too.
        largest = float(np.finfo(np.float64).max) / (2.0 if self.weight_distribution == "uniform" else 1.0)
        bad = (noise_p > 0.0) & ~((noise_w > 0.0) & (noise_w <= largest))
        if bad.shape[1] > 1:
            bad = np.triu(bad, k=1)
        if K > 1 and bad.any():
            bound = "finite" if self.weight_distribution == "constant" else f"at most {largest!r}"
            raise ValueError(f"noise_weight_means must be positive and {bound} wherever noise_probs is positive")
        # read-only (L, K, K) views; a compact spec is broadcast, not copied
        object.__setattr__(self, "_noise_p", np.broadcast_to(noise_p, (L, K, K)))
        object.__setattr__(self, "_noise_w", np.broadcast_to(noise_w, (L, K, K)))

    def _noise_spec(self, value, name: str, default: float) -> np.ndarray:
        """A scalar / per-layer / full (L, K, K) spec as shape (L, 1, 1) or (L, K, K)."""
        K = len(self.cluster_sizes)
        L = self.n_layers
        arr = np.asarray(default if value is None else value, dtype=np.float64)
        if arr.ndim == 0 or arr.shape == (L,):
            return np.broadcast_to(arr, (L,)).reshape(L, 1, 1).copy()
        if arr.shape != (L, K, K):
            raise ValueError(f"{name} must be scalar, shape ({L},), or ({L}, {K}, {K})")
        if not np.array_equal(arr, np.swapaxes(arr, 1, 2)):
            raise ValueError(f"{name} per-pair matrices must be symmetric")
        return arr.copy()

    @property
    def n(self) -> int:
        return int(sum(self.cluster_sizes))

    def noise_prob(self, layer: int, i: int, j: int) -> float:
        return float(self._noise_p[layer, i, j])

    def noise_weight_mean(self, layer: int, i: int, j: int) -> float:
        return float(self._noise_w[layer, i, j])

    def noise_level(self, layer: int, i: int, j: int) -> float:
        """The block noise level ``t = p * mean weight``."""
        return self.noise_prob(layer, i, j) * self.noise_weight_mean(layer, i, j)

    def noise_level_matrix(self) -> np.ndarray:
        """All block noise levels, shape (L, K, K) with zero diagonal."""
        out = self._noise_p * self._noise_w
        for layer in range(self.n_layers):
            np.fill_diagonal(out[layer], 0.0)
        return out


def generate_rim(params: GeneralRimParams) -> tuple[MultilayerGraph, ClusterAssignment]:
    """Sample a general random-interconnection multilayer graph.

    Within-cluster subgraphs are either Bernoulli(``within_probs``) with unit
    weights or the explicit ``within_graphs``.  Between-cluster blocks draw
    edges Bernoulli(p_ij) per layer with weights from the configured
    distribution around the block mean.

    Returns:
        The graph and the planted ground-truth assignment.
    """
    rng = np.random.default_rng(params.seed)
    slices = _cluster_slices(params.cluster_sizes)
    edges = (_rim_layer(params, layer, slices, rng) for layer in range(params.n_layers))
    graph = MultilayerGraph.from_edges(_node_ids(params.n), edges)
    return graph, _truth_assignment(params.cluster_sizes)


def _rim_layer(params: GeneralRimParams, layer: int, slices: list[slice],
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (u, v, weight) columns of one layer, each undirected edge once."""
    K = len(slices)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    for k, sl in enumerate(slices):
        size = sl.stop - sl.start
        if params.within_probs is not None:
            iu, ju = np.triu_indices(size, k=1)
            mask = rng.random(iu.size) < params.within_probs[layer, k]
            rows.append(iu[mask] + sl.start)
            cols.append(ju[mask] + sl.start)
            data.append(np.ones(int(mask.sum())))
        else:
            block = params.within_graphs[layer][k].tocoo()
            upper = block.row < block.col
            rows.append(block.row[upper] + sl.start)
            cols.append(block.col[upper] + sl.start)
            data.append(block.data[upper])

    for ki in range(K):
        for kj in range(ki + 1, K):
            p = params.noise_prob(layer, ki, kj)
            if p <= 0.0:
                continue
            si, sj = slices[ki], slices[kj]
            mask = rng.random((si.stop - si.start, sj.stop - sj.start)) < p
            bi, bj = np.nonzero(mask)
            mean = params.noise_weight_mean(layer, ki, kj)
            if params.weight_distribution == "constant":
                weights = np.full(bi.size, mean)
            else:
                weights = rng.uniform(0.0, 2.0 * mean, size=bi.size)
                keep = weights > 0.0  # drop measure-zero exact zeros
                weights, bi, bj = weights[keep], bi[keep], bj[keep]
            rows.append(bi + si.start)
            cols.append(bj + sj.start)
            data.append(weights)

    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)
