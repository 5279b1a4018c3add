"""Spectral embedding and K-means for aggregated multilayer graphs.

The pipeline: aggregate the layers with a convex weight vector, take the
eigenvectors of the Laplacian for its 2nd..K-th smallest eigenvalues as an
``(n, K-1)`` embedding, and run seeded K-means with restarts on the rows.
The partial eigenvalue sum ``lambda_2 + ... + lambda_K`` doubles as the
objective value of the relaxed multi-way cut and drives the phase-transition
analysis elsewhere in the package.

Every Laplacian eigenproblem of the package goes through one function,
:func:`smallest_laplacian_eigs`.  It takes the graph, not its Laplacian,
and picks the solver by one size rule: up to 512 nodes LAPACK on the dense
Laplacian, above that ARPACK on the graph's own Laplacian product, started
from a vector drawn from the caller's seeded generator, so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import linalg
from scipy.sparse import linalg as sparse_linalg

from .graph_core import AggregatedGraph, LayerWeights, MultilayerGraph, aggregate, connected_components

__all__ = [
    "ClusterAssignment",
    "ConvergenceError",
    "DisconnectedGraphError",
    "SpectralEmbedding",
    "arpack_solves",
    "kmeans",
    "multilayer_sgc",
    "partial_eigenvalue_sum",
    "smallest_eigenpairs",
    "smallest_laplacian_eigs",
    "subspace_distance",
]

class ConvergenceError(RuntimeError):
    """The iterative (ARPACK) eigensolver failed to converge, or an
    eigensolver refused a graph whose Laplacian it cannot solve.

    Attributes:
        residual: the worst residual estimate the solver reported, or nan
            when it reported none (ARPACK does not).
    """

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


class DisconnectedGraphError(ValueError):
    """The aggregated graph is disconnected where connectivity is required."""


@dataclass(frozen=True)
class SpectralEmbedding:
    """Eigenpairs 2..K of an aggregated Laplacian.

    Attributes:
        Y: ``(n, K-1)`` matrix whose columns are unit eigenvectors for the
            2nd..K-th smallest eigenvalues, each with a deterministic sign
            (the entry of largest magnitude is positive).
        eigenvalues: the corresponding eigenvalues, ascending.
        lambda_kplus1: the (K+1)-th smallest eigenvalue, used by the spectral
            gap in the subspace-perturbation bound; nan when ARPACK was
            asked for K pairs only (``smallest_eigenpairs(...,
            next_eigenvalue=False)``, as MIMOSA's candidates ask).
    """

    Y: np.ndarray
    eigenvalues: np.ndarray
    lambda_kplus1: float

    @property
    def K(self) -> int:
        return self.Y.shape[1] + 1

    @property
    def n(self) -> int:
        return self.Y.shape[0]


def partial_eigenvalue_sum(embedding: SpectralEmbedding) -> float:
    """Sum of Laplacian eigenvalues 2..K held by an embedding."""
    return float(np.sum(embedding.eigenvalues))


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """A hard assignment of every node to one of K non-empty clusters.

    Attributes:
        labels: int64 array of length n with values exactly 0..K-1, each
            value appearing at least once.
    """

    labels: np.ndarray
    _sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64).ravel().copy()
        if labels.size == 0:
            raise ValueError("an assignment needs at least one node")
        k = int(labels.max()) + 1
        if labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        sizes = np.bincount(labels, minlength=k)
        if np.any(sizes == 0):
            raise ValueError("labels must be dense: every value in 0..K-1 must appear")
        labels.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def K(self) -> int:
        return self._sizes.size

    @property
    def sizes(self) -> np.ndarray:
        """Cluster sizes indexed by label."""
        return self._sizes

    @property
    def n_min(self) -> int:
        return int(self._sizes.min())

    @property
    def n_max(self) -> int:
        return int(self._sizes.max())

    def members(self, k: int) -> np.ndarray:
        """Sorted node indices of cluster ``k``."""
        if not 0 <= k < self.K:
            raise IndexError(f"cluster index {k} out of range for K={self.K}")
        return np.flatnonzero(self.labels == k)

    @classmethod
    def from_label_map(cls, mapping: Mapping[str, str], node_ids: Sequence[str]) -> "ClusterAssignment":
        """Build an assignment from a ``{node_id: label}`` mapping.

        Distinct label strings are mapped to integers 0..K-1 in code-point
        order of the label strings (Python ``sorted``), so the integerization
        is reproducible.

        Raises:
            ValueError: a node is missing from the mapping, or the mapping
                labels nodes outside ``node_ids``.
        """
        missing = [node for node in node_ids if node not in mapping]
        if missing:
            raise ValueError(f"no label for node(s): {', '.join(missing[:5])}")
        extra = set(mapping) - set(node_ids)
        if extra:
            raise ValueError(f"labels for unknown node(s): {', '.join(sorted(extra)[:5])}")
        distinct = sorted(set(mapping.values()))
        label_index = {lab: i for i, lab in enumerate(distinct)}
        return cls(np.array([label_index[mapping[node]] for node in node_ids], dtype=np.int64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterAssignment):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ClusterAssignment is not hashable")


# ---------------------------------------------------------------------------
# Laplacian eigensolver
# ---------------------------------------------------------------------------

_DENSE_MAX_N = 512

# Above this strength, the product of a unit vector, at most 2 * max(strength)
# in size, comes within a factor 4 of overflow: ARPACK is refused the graph.
_ARPACK_MAX_STRENGTH = np.finfo(np.float64).max / 8


def arpack_solves(n: int, count: int) -> bool:
    """Whether :func:`smallest_laplacian_eigs` solves for ``count`` pairs of
    an ``n``-node graph with ARPACK; else it solves the dense Laplacian."""
    return n > _DENSE_MAX_N and count < n


def smallest_laplacian_eigs(
    g: AggregatedGraph,
    count: int,
    *,
    rng: np.random.Generator | None = None,
    vectors: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenvalues of a graph's Laplacian, ascending.

    Up to 512 nodes, or when ``count >= n`` (ARPACK needs ``count < n``),
    the dense Laplacian is solved: ``numpy.linalg.eigvalsh`` for values,
    ``scipy.linalg.eigh`` restricted to the wanted indices with vectors.
    Larger graphs go to ARPACK (``scipy.sparse.linalg.eigsh`` with
    ``which="SA"``, converged to machine precision) on the operator
    ``g.laplacian_matvec``, from a start vector drawn from ``rng``, so
    repeated calls with equal generators return identical bits.  The graph
    may be disconnected; eigenvalues are clipped at 0 against round-off.
    Both solvers are accurate to about c * eps * max(strength), absolutely:
    an eigenvalue far below the largest strength has no correct digits.
    Every Laplacian has eigenvalue 0, so an ARPACK answer whose smallest
    value lies above 1000 * eps * max(strength) is refused; an eigenvalue
    ARPACK skips above the smallest goes unseen.  A graph too large for the
    dense solver whose strengths are all 0 (no edge) is not handed to
    ARPACK: its eigenvalues are all 0, with the first ``count`` unit vectors
    as eigenvectors.

    Args:
        g: graph of ``n`` nodes, such as an aggregation or an induced
            subgraph of one.
        count: number of eigenvalues wanted, ``1 <= count <= n``.
        rng: source of ARPACK's start vector; defaults to a fixed seed.
        vectors: also return the ``(n, count)`` unit eigenvectors.

    Raises:
        ValueError: ``count`` is not in ``1..n``.
        ConvergenceError: ARPACK failed or missed the eigenvalue 0, or was
            refused a strength above float max / 8 or not finite, or the
            dense solver was refused a strength that is not finite;
            ``residual`` is nan because ARPACK reports none.
    """
    n = g.n
    if not 1 <= count <= n:
        raise ValueError(f"count must satisfy 1 <= count <= n = {n}, got {count}")
    top = g.strength.max()
    if not arpack_solves(n, count):
        if not np.isfinite(top):
            raise ConvergenceError(f"the dense eigensolver refused a node strength of {top:.6g}: its "
                                   "Laplacian is not finite", residual=float("nan"))
        dense = g.laplacian_dense()
        if not vectors:
            return np.maximum(np.linalg.eigvalsh(dense)[:count], 0.0)
        values, vecs = linalg.eigh(dense, subset_by_index=(0, count - 1))
        return np.maximum(values, 0.0), vecs
    if top == 0.0:  # no edge: every eigenvalue is 0, and ARPACK's first product would be the zero vector
        values = np.zeros(count)
        return (values, np.eye(n, count)) if vectors else values
    if not top <= _ARPACK_MAX_STRENGTH:  # nan too
        raise ConvergenceError(f"ARPACK refused a node strength of {top:.6g}: its Laplacian "
                               "product can overflow", residual=float("nan"))
    if rng is None:
        rng = np.random.default_rng(0)
    # ARPACK's first product takes v0 as given: scaled exactly to a norm in [0.5, 1)
    v0 = rng.standard_normal(n)
    v0 = np.ldexp(v0, -math.frexp(np.linalg.norm(v0))[1])
    lap = sparse_linalg.LinearOperator((n, n), matvec=g.laplacian_matvec, dtype=np.float64)
    try:
        values, vecs = sparse_linalg.eigsh(lap, k=count, which="SA", v0=v0)
    except sparse_linalg.ArpackError as err:
        raise ConvergenceError(f"ARPACK eigensolver failed: {err}", residual=float("nan")) from err
    order = np.argsort(values)
    values = np.maximum(values[order], 0.0)
    floor = 1000 * np.finfo(np.float64).eps * top
    if values[0] > floor:  # every Laplacian has eigenvalue 0: ARPACK skipped it
        raise ConvergenceError(f"ARPACK missed the eigenvalue 0: its smallest was {values[0]:.6g}, above the "
                               f"accuracy floor {floor:.6g}", residual=float("nan"))
    return (values, vecs[:, order]) if vectors else values


def smallest_eigenpairs(
    g: AggregatedGraph,
    K: int,
    *,
    rng: np.random.Generator | None = None,
    next_eigenvalue: bool = True,
) -> SpectralEmbedding:
    """Eigenpairs 2..K (plus eigenvalue K+1) of the aggregated Laplacian.

    Asks :func:`smallest_laplacian_eigs` for K+1 pairs and drops the first,
    the constant null vector of a connected graph.  ``rng`` only seeds
    ARPACK's start vector (graphs over 512 nodes): it moves where ARPACK
    starts, not what it converges to.

    Args:
        g: aggregated graph; must be connected.
        K: number of clusters; needs ``2 <= K <= n - 1`` so that eigenvalues
            2..K+1 all exist.
        rng: defaults to a fixed seed so repeated calls are identical.
        next_eigenvalue: False asks ARPACK (``n > 512`` and ``K + 1 < n``)
            for K pairs only and leaves ``lambda_kplus1`` nan; pair K+1
            sits in the bulk of the spectrum, where ARPACK converges
            slowest.  The dense solver still computes K+1 pairs, so its
            bits do not depend on this flag.

    Raises:
        DisconnectedGraphError: the graph is disconnected (its extra zero
            eigenvalues would take the place of eigenvalues 2..K).
        ValueError: K out of range.
        ConvergenceError: ARPACK failed.
    """
    n = g.n
    if not 2 <= K <= n - 1:
        raise ValueError(f"K must satisfy 2 <= K <= n-1 = {n - 1}, got {K}")
    if len(connected_components(g)) != 1:
        raise DisconnectedGraphError("aggregated graph is disconnected")

    arpack = arpack_solves(n, K + 1)
    count = K if arpack and not next_eigenvalue else K + 1
    eigenvalues, vecs = smallest_laplacian_eigs(g, count, rng=rng, vectors=True)
    Y = vecs[:, 1:K].copy()
    for col in range(Y.shape[1]):
        pivot = int(np.argmax(np.abs(Y[:, col])))
        if Y[pivot, col] < 0:
            Y[:, col] = -Y[:, col]
    Y.setflags(write=False)
    eig = eigenvalues[1:K].copy()
    eig.setflags(write=False)
    lambda_kplus1 = float(eigenvalues[K]) if count > K else float("nan")
    return SpectralEmbedding(Y=Y, eigenvalues=eig, lambda_kplus1=lambda_kplus1)


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

# Restarts run in chunks whose per-step arrays, such as the (restarts, n, K)
# squared distances and the (restarts, d + 1, n) tally bins, hold at most this
# many entries (4 MiB of float64), or one restart's worth when that is more.
_KMEANS_ENTRIES = 1 << 19


def _d2_draw(d2: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise D^2-weighted index draws: ``(m, n)`` squared distances -> ``(m,)`` indices.

    The arithmetic of numpy's own draw inside ``Generator.choice(n, p=d2 / total)``
    for the uniform ``u``: a normalized cdf and the count of its entries ``<= u``,
    which is ``cdf.searchsorted(u, side="right")``.  Each row is reduced in the
    order of the 1-D call, so the indices are the same bit for bit.
    """
    cdf = (d2 / total[:, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _kmeans_plusplus_init(rows: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """One K-means++ seeding, as the ``(K,)`` rows picked for centers: D^2-weighted incremental choice.

    A center drawn while every row sits on a chosen center (a D^2 total of 0)
    is drawn uniformly with ``rng.integers(n)``.
    """
    n = rows.shape[0]
    picks = np.empty(K, dtype=np.int64)
    picks[0] = rng.integers(n)
    d2 = np.sum((rows - rows[picks[0]]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            picks[k] = rng.integers(n)
        else:
            picks[k] = _d2_draw(d2[None], np.array([total]), np.array([rng.random()]))[0]
        d2 = np.minimum(d2, np.sum((rows - rows[picks[k]]) ** 2, axis=1))
    return picks


def _kmeans_plusplus(rows: np.ndarray, K: int, restarts: int, chunk: int, rng: np.random.Generator) -> np.ndarray:
    """K-means++ seedings of every restart, as the ``(restarts, K)`` rows picked.

    Draws, restart by restart, ``rng.integers(n)`` for the first center and
    ``rng.random(K - 1)`` for the others: the draws of
    :func:`_kmeans_plusplus_init` run once per restart while every D^2 total
    stays positive.  The D^2 distances are computed ``chunk`` restarts at a
    time.  When some total is 0 (every row on a chosen center, as with fewer
    distinct rows than K), the generator is rewound and the restarts are
    seeded one at a time instead.
    """
    n = rows.shape[0]
    state = rng.bit_generator.state
    picks = np.empty((restarts, K), dtype=np.int64)
    u = np.empty((restarts, K - 1))
    for r in range(restarts):
        picks[r, 0] = rng.integers(n)
        u[r] = rng.random(K - 1)
    for lo in range(0, restarts, chunk):
        part, draws = picks[lo : lo + chunk], u[lo : lo + chunk]
        d2 = ((rows - rows[part[:, :1]]) ** 2).sum(axis=2)
        for k in range(1, K):
            total = d2.sum(axis=1)
            if (total <= 0.0).any():
                rng.bit_generator.state = state
                return np.stack([_kmeans_plusplus_init(rows, K, rng) for _ in range(restarts)])
            part[:, k] = _d2_draw(d2, total, draws[:, k - 1])
            if k < K - 1:  # the distances to the last center are never read
                np.minimum(d2, ((rows - rows[part[:, k : k + 1]]) ** 2).sum(axis=2), out=d2)
    return picks


def _tally(labels: np.ndarray, K: int, repeated: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Per-restart cluster tallies: ``(m, n)`` labels -> ``(m, d + 1, K)``.

    Entry ``(r, j, k)`` sums column j over restart r's cluster k, of the rows
    with a trailing 1.0 column, so entry ``(r, d, k)`` is the cluster's size,
    exactly.  ``repeated`` holds those rows transposed, ``(d + 1, n)``, flat
    and once per restart for at least m restarts; ``base[r, j, 0]`` is the
    bin of ``(r, j, 0)``.  bincount adds each bin's rows in node order, so a
    restart's bits do not depend on the others.
    """
    m, width = labels.shape[0], base.shape[1]
    bins = labels[:, None, :] + base[:m]
    return np.bincount(bins.ravel(), weights=repeated[: bins.size], minlength=m * width * K).reshape(m, width, K)


def _centers(tally: np.ndarray) -> np.ndarray:
    """Cluster means, a C-contiguous ``(m, K, d)``, from a :func:`_tally` without empty clusters."""
    m, width, K = tally.shape
    centers = np.empty((m, K, width - 1))
    np.divide(tally[:, :-1], tally[:, -1:], out=centers.transpose(0, 2, 1))
    return centers


def _assign(twice_rows: np.ndarray, sq_rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels per restart; ties go to the lowest center index.

    ``twice_rows`` is ``2 x`` and ``sq_rows`` the ``(n, K)`` repeated ``|x|^2``.
    """
    sq_centers = (centers**2).sum(axis=2)
    d2 = twice_rows @ centers.transpose(0, 2, 1)
    np.subtract(sq_rows, d2, out=d2)
    d2 += sq_centers[:, None, :]
    return d2.argmin(axis=2)


def _repair_empty(rows: np.ndarray, labels: np.ndarray, tally: np.ndarray, repeated: np.ndarray,
                  base: np.ndarray) -> None:
    """Fill each empty cluster with the farthest point a size->=2 cluster can spare.

    ``labels`` holds one row per restart and ``tally`` their :func:`_tally`;
    only restarts with an empty cluster are touched, both in place.
    """
    counts = tally[:, -1]
    if counts.all():
        return
    K = tally.shape[2]
    for r in np.flatnonzero((counts == 0).any(axis=1)):
        own, count = labels[r], counts[r].copy()
        for k in np.flatnonzero(count == 0):
            own_tally = _tally(own[None], K, repeated, base)
            np.maximum(own_tally[:, -1], 1.0, out=own_tally[:, -1])  # an empty cluster's center is not read
            dist = np.sum((rows - _centers(own_tally)[0, own]) ** 2, axis=1)
            dist[count[own] < 2] = -np.inf
            donor = int(np.argmax(dist))
            count[own[donor]] -= 1
            own[donor] = k
            count[k] = 1
        tally[r] = _tally(own[None], K, repeated, base)[0]


def _lloyd(rows: np.ndarray, picks: np.ndarray, max_iter: int, twice_rows: np.ndarray, sq_rows: np.ndarray,
           repeated: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of the restarts seeded at ``picks``, ``(m, K)``: their ``(m, n)`` labels and inertias.

    A step is one assignment and one :func:`_tally` of the new labels, whose
    sizes serve both the empty-cluster check and the next step's centers.
    """
    m, K = picks.shape
    labels = np.empty((m, rows.shape[0]), dtype=np.int64)  # a restart's labels and tally, set as it stops
    tallies = np.empty((m, base.shape[1], K))
    live = np.arange(m)
    current = _assign(twice_rows, sq_rows, rows[picks])
    tally = _tally(current, K, repeated, base)
    _repair_empty(rows, current, tally, repeated, base)
    before = current  # the live restarts' labels one step earlier
    for _ in range(max_iter):
        new = _assign(twice_rows, sq_rows, _centers(tally))
        new_tally = _tally(new, K, repeated, base)
        _repair_empty(rows, new, new_tally, repeated, base)
        # a step maps labels to labels, so a return to the labels of two steps back repeats forever
        moved = (new != current).any(axis=1) & (new != before).any(axis=1)
        if not moved.all():
            stopped = ~moved
            labels[live[stopped]] = current[stopped]
            tallies[live[stopped]] = tally[stopped]
            live = live[moved]
            if live.size == 0:
                break
            current, new, new_tally = current[moved], new[moved], new_tally[moved]
        before, current, tally = current, new, new_tally
    if live.size:
        labels[live] = current
        tallies[live] = tally
    fitted = _centers(tallies)[np.arange(m)[:, None], labels]
    np.subtract(rows, fitted, out=fitted)
    # one contiguous n*d row per restart: the summation order of np.sum over one (n, d) array
    return labels, np.square(fitted, out=fitted).reshape(m, rows.size).sum(axis=1)


def kmeans(
    rows: np.ndarray,
    K: int,
    seed: int = 0,
    *,
    restarts: int = 20,
    max_iter: int = 300,
) -> ClusterAssignment:
    """Seeded K-means with restarts on embedding rows.

    Seeds every restart with K-means++ from one seeded generator (so the
    whole call is a pure function of its arguments), drawing restart by
    restart ``integers(n)`` for the first center, then one uniform double
    per further center, which picks a row with probability proportional to
    its squared distance to the nearest chosen center.  A center drawn while
    every row sits on a chosen center is drawn by ``integers(n)`` instead.
    The seedings are computed together, then the restarts' Lloyd iterations
    run together; a restart stops once its labels stop changing or return to
    those of two steps back, or after ``max_iter`` steps.  Keeps the result
    with the strictly lowest within-cluster sum of squares; ties keep the
    earliest restart.  Empty clusters during Lloyd iterations are repaired
    by reseeding them with the point farthest from its current centroid.

    One Lloyd step of one restart on ``n`` rows of ``d`` columns costs one
    ``(n, d) x (d, K)`` product for the ``(n, K)`` squared distances and one
    ``bincount`` over the ``n (d + 1)`` entries of the rows with a trailing
    1.0, which gives the cluster sums and sizes together.  Seeding and Lloyd
    iterations run the restarts in chunks: a chunk of m restarts holds
    arrays of ``m * n * max(K, d + 1)`` entries, with m as large as keeps
    that within 2^19 (4 MiB of float64) and at least 1.  So beyond the rows,
    the memory stays a small multiple of 4 MiB, or of ``n * max(K, d + 1)``
    entries when one restart needs more.

    Raises:
        ValueError: ``rows`` is not a 2-D array, holds a non-finite value or
            one so large that squared distances could overflow, ``K < 1``,
            ``restarts < 1``, ``max_iter < 0``, or there are fewer rows than
            clusters.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D array")
    for name, value, least in (("K", K, 1), ("restarts", restarts, 1), ("max_iter", max_iter, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if rows.shape[0] < K:
        raise ValueError(f"need at least K={K} rows, got {rows.shape[0]}")
    if not np.isfinite(rows).all():
        raise ValueError("rows must be finite")
    # every squared distance, D^2 total and inertia stays below 4 * n * d * max|x|^2
    limit = np.sqrt(np.finfo(np.float64).max / (4.0 * max(rows.size, 1)))
    peak = float(np.abs(rows).max(initial=0.0))
    if peak > limit:
        raise ValueError(f"rows must lie within +-{limit:.3g} so that squared distances stay finite, got {peak:.3g}")
    n, d = rows.shape
    chunk = min(restarts, max(1, _KMEANS_ENTRIES // (n * max(K, d + 1))))
    picks = _kmeans_plusplus(rows, K, restarts, chunk, np.random.default_rng(seed))
    twice_rows, sq_rows = 2.0 * rows, np.repeat(np.sum(rows**2, axis=1), K).reshape(n, K)
    repeated = np.tile(np.vstack([rows.T, np.ones(n)]).ravel(), chunk)
    base = np.arange(chunk * (d + 1)).reshape(chunk, d + 1, 1) * K
    best, best_inertia = None, np.inf  # every inertia is finite, by the limit above
    for lo in range(0, restarts, chunk):
        labels, inertia = _lloyd(rows, picks[lo : lo + chunk], max_iter, twice_rows, sq_rows, repeated, base)
        r = int(np.argmin(inertia))
        if inertia[r] < best_inertia:
            best, best_inertia = labels[r], inertia[r]
    return ClusterAssignment(best)


def multilayer_sgc(
    graph: MultilayerGraph,
    weights: LayerWeights,
    K: int,
    seed: int = 0,
) -> tuple[ClusterAssignment, SpectralEmbedding]:
    """Full spectral-clustering pass: aggregate, embed, cluster.

    The seed splits deterministically into one stream for the eigensolver
    start vectors and one for K-means, so a single integer reproduces the
    whole pipeline.

    Raises:
        DisconnectedGraphError: the aggregated graph is disconnected.
    """
    eig_seed, km_seed = np.random.SeedSequence(seed).spawn(2)
    agg = aggregate(graph, weights)
    embedding = smallest_eigenpairs(agg, K, rng=np.random.default_rng(eig_seed))
    assignment = kmeans(embedding.Y, K, seed=int(km_seed.generate_state(1)[0]))
    return assignment, embedding


def subspace_distance(Y: np.ndarray, Y_tilde: np.ndarray) -> float:
    """Frobenius sin-theta distance between two orthonormal column spans.

    ``sqrt(sum_k (1 - sigma_k^2))`` over the singular values of
    ``Y^T Y_tilde``; zero iff the spans coincide, at most ``sqrt(K-1)``.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Y_tilde = np.asarray(Y_tilde, dtype=np.float64)
    if Y.shape != Y_tilde.shape:
        raise ValueError("embeddings must have identical shapes")
    # Evaluated as the projection residual ||Y_tilde - Y (Y^T Y_tilde)||_F,
    # which equals sqrt(sum_k (1 - sigma_k^2)) exactly for orthonormal Y but
    # avoids the catastrophic cancellation of 1 - sigma^2 near sigma = 1.
    gram = Y.T @ Y_tilde
    return float(np.linalg.norm(Y_tilde - Y @ gram))
