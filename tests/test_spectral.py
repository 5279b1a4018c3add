"""Eigensolver, embedding invariants, K-means, SGC pipeline, sin-Theta."""

from __future__ import annotations

import contextlib
import time
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as scipy_linalg
from scipy import sparse

from mlsgc import graph_core, spectral
from mlsgc import (
    AggregatedGraph,
    ClusterAssignment,
    ConvergenceError,
    DisconnectedGraphError,
    LayerWeights,
    SpectralEmbedding,
    TwoLayerCorrelatedParams,
    aggregate,
    cluster_partial_sums,
    connected_components,
    detectability,
    generate_two_layer,
    kmeans,
    multilayer_sgc,
    partial_eigenvalue_sum,
    smallest_eigenpairs,
    subspace_distance,
)

from .conftest import (
    adjacency_from_edges,
    balanced_assignment,
    connected_random_multilayer,
    dense_graph,
    ids,
)


def dense_laplacian_spectrum(agg):
    return np.linalg.eigvalsh(agg.laplacian_dense())


# ------------------------------------------------------------ eigensolver


def test_triangle_spectrum(triangle, uniform2):
    agg = aggregate(triangle, LayerWeights.uniform(1))
    emb = smallest_eigenpairs(agg, 2)
    assert emb.eigenvalues == pytest.approx([3.0], abs=1e-8)
    assert emb.lambda_kplus1 == pytest.approx(3.0, abs=1e-8)
    assert partial_eigenvalue_sum(emb) == pytest.approx(3.0, abs=1e-8)


def test_complete_graph_spectrum_and_invariants():
    n = 7
    g = dense_graph(ids(n), np.ones((n, n)) - np.eye(n))
    agg = aggregate(g, LayerWeights.uniform(1))
    for K in range(2, n):
        emb = smallest_eigenpairs(agg, K)
        assert emb.eigenvalues == pytest.approx([n] * (K - 1), abs=1e-7)
        assert emb.Y.T @ emb.Y == pytest.approx(np.eye(K - 1), abs=1e-8)
        assert emb.Y.T @ np.ones(n) == pytest.approx(np.zeros(K - 1), abs=1e-8)


def test_random_graph_matches_dense_oracle():
    rng = np.random.default_rng(11)
    g = connected_random_multilayer(rng, 30, 2)
    agg = aggregate(g, LayerWeights.uniform(2))
    dense = dense_laplacian_spectrum(agg)
    emb = smallest_eigenpairs(agg, 5)
    got = np.append(emb.eigenvalues, emb.lambda_kplus1)
    scale = max(1.0, abs(dense[5]))
    assert np.max(np.abs(got - dense[1:6])) <= 1e-8 * scale


def test_eigenvector_residuals_within_contract():
    rng = np.random.default_rng(3)
    g = connected_random_multilayer(rng, 24, 2)
    agg = aggregate(g, LayerWeights.uniform(2))
    emb = smallest_eigenpairs(agg, 4)
    lap = agg.laplacian_dense()
    linf = np.max(np.abs(lap).sum(axis=1))
    for j in range(emb.Y.shape[1]):
        resid = lap @ emb.Y[:, j] - emb.eigenvalues[j] * emb.Y[:, j]
        assert np.linalg.norm(resid) <= 1e-6 * linf


def test_disconnected_graph_rejected(two_triangles):
    agg = aggregate(two_triangles, LayerWeights.uniform(1))
    with pytest.raises(DisconnectedGraphError):
        smallest_eigenpairs(agg, 2)


def test_eigensolve_reuses_the_components_of_its_graph(clique_pair_graph, monkeypatch):
    # MIMOSA checks connectivity before it solves; the solver's own check
    # then reads the components the aggregated graph already holds
    real = graph_core.csgraph.connected_components
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_core, "csgraph", SimpleNamespace(connected_components=counted))
    agg = aggregate(clique_pair_graph, LayerWeights.uniform(1))
    assert len(connected_components(agg)) == 1
    assert len(calls) == 1
    smallest_eigenpairs(agg, 2)
    smallest_eigenpairs(agg, 3)
    assert len(calls) == 1


def test_k_out_of_range_rejected(triangle):
    agg = aggregate(triangle, LayerWeights.uniform(1))
    with pytest.raises(ValueError):
        smallest_eigenpairs(agg, 1)
    with pytest.raises(ValueError):
        smallest_eigenpairs(agg, 3)  # K must be <= n-1


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(7)
    g = connected_random_multilayer(rng, 15, 1)
    agg = aggregate(g, LayerWeights.uniform(1))
    emb = smallest_eigenpairs(agg, 3)
    for col in emb.Y.T:
        assert col[np.argmax(np.abs(col))] > 0


@given(seed=st.integers(0, 300), K=st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_eigenvalue_ordering(seed, K):
    rng = np.random.default_rng(seed)
    g = connected_random_multilayer(rng, 12, 2, density=0.6)
    agg = aggregate(g, LayerWeights.uniform(2))
    emb = smallest_eigenpairs(agg, K)
    full = np.append(emb.eigenvalues, emb.lambda_kplus1)
    assert np.all(np.diff(full) >= -1e-10)
    assert np.all(full >= 0.0)


# ------------------------------------------- ARPACK branch (n > 512)


@pytest.fixture(scope="module")
def arpack_graph():
    """A connected sparse two-layer graph of 600 nodes, above the dense cutoff."""
    return aggregate(connected_random_multilayer(np.random.default_rng(23), 600, 2, density=0.02),
                     LayerWeights.uniform(2))


def test_arpack_branch_matches_dense_oracle(arpack_graph, monkeypatch):
    calls = []
    eigsh = spectral.sparse_linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.sparse_linalg, "eigsh", counted)
    K = 5
    dense = dense_laplacian_spectrum(arpack_graph)
    emb = smallest_eigenpairs(arpack_graph, K, rng=np.random.default_rng(1))
    assert calls == [K + 1]
    got = np.append(emb.eigenvalues, emb.lambda_kplus1)
    assert np.max(np.abs(got - dense[1 : K + 1])) <= 1e-8 * dense[K]


def test_graphs_up_to_the_dense_cutoff_never_apply_the_laplacian_product(monkeypatch):
    g = aggregate(connected_random_multilayer(np.random.default_rng(5), 512, 2, density=0.02),
                  LayerWeights.uniform(2))
    dense = dense_laplacian_spectrum(g)

    def no_product(self, x):
        raise AssertionError("ARPACK applied the Laplacian for a dense solve")

    monkeypatch.setattr(graph_core.AggregatedGraph, "laplacian_matvec", no_product)
    emb = smallest_eigenpairs(g, 3)
    assert emb.eigenvalues == pytest.approx(dense[1:3], abs=1e-8)
    assert cluster_partial_sums(g, balanced_assignment([256, 256])).shape == (2,)


def test_arpack_branch_embedding_invariants(arpack_graph):
    n, K = arpack_graph.n, 4
    emb = smallest_eigenpairs(arpack_graph, K)
    assert emb.Y.T @ emb.Y == pytest.approx(np.eye(K - 1), abs=1e-10)
    assert emb.Y.T @ np.full(n, 1.0 / np.sqrt(n)) == pytest.approx(np.zeros(K - 1), abs=1e-9)
    for col in emb.Y.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_k_up_to_n_minus_one_above_dense_cutoff(arpack_graph):
    n = arpack_graph.n
    emb = smallest_eigenpairs(arpack_graph, n - 1)
    assert emb.Y.shape == (n, n - 2)
    assert emb.lambda_kplus1 == pytest.approx(dense_laplacian_spectrum(arpack_graph)[-1], rel=1e-10)


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_laplacian_eigs_take_a_count_from_one_to_n(triangle, arpack_graph, vectors):
    small = aggregate(triangle, LayerWeights.uniform(1))
    for g, count in ((small, 0), (small, -1), (small, 4), (small, 5), (arpack_graph, 0), (arpack_graph, 601)):
        with pytest.raises(ValueError, match=rf"^count must satisfy 1 <= count <= n = {g.n}, got {count}$"):
            spectral.smallest_laplacian_eigs(g, count, vectors=vectors)
    got = spectral.smallest_laplacian_eigs(small, 3, vectors=vectors)
    assert (got[0] if vectors else got) == pytest.approx([0.0, 3.0, 3.0], abs=1e-8)


def test_arpack_solve_has_the_same_bytes_in_one_row_block_and_in_two(arpack_graph, monkeypatch):
    one = spectral.smallest_laplacian_eigs(arpack_graph, 4, vectors=True)
    monkeypatch.setattr(graph_core, "_CPUS", 2)
    monkeypatch.setattr(graph_core, "_BLOCK_ENTRIES", 1)
    split = AggregatedGraph(arpack_graph.weight_matrix, arpack_graph.strength)
    two = spectral.smallest_laplacian_eigs(split, 4, vectors=True)
    assert len(split._row_blocks) == 2 and len(arpack_graph._row_blocks) == 1
    assert [a.tobytes() for a in one] == [a.tobytes() for a in two]


def _asked_pairs(monkeypatch) -> list:
    """The ``k`` of every ARPACK call made after this, in call order."""
    calls = []
    eigsh = spectral.sparse_linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.sparse_linalg, "eigsh", counted)
    return calls


def _signed(vectors):
    """Columns flipped so each one's entry of largest magnitude is positive."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(pivots < 0, -1.0, 1.0)


def test_arpack_without_the_next_eigenvalue_solves_k_pairs(arpack_graph, monkeypatch):
    calls = _asked_pairs(monkeypatch)
    K = 5
    values, vectors = scipy_linalg.eigh(arpack_graph.laplacian_dense(), subset_by_index=(0, K - 1))
    emb = smallest_eigenpairs(arpack_graph, K, rng=np.random.default_rng(1), next_eigenvalue=False)
    assert calls == [K]
    assert np.isnan(emb.lambda_kplus1)
    assert np.max(np.abs(emb.eigenvalues - values[1:])) <= 1e-8 * values[-1]
    assert np.max(np.abs(emb.Y - _signed(vectors[:, 1:]))) <= 1e-8


def test_dense_solves_ignore_the_next_eigenvalue_flag(arpack_graph, monkeypatch):
    # up to 512 nodes, and at K = n - 1 above that, the dense solver runs and
    # keeps solving K + 1 pairs: the embedding has the default call's bytes
    small = aggregate(connected_random_multilayer(np.random.default_rng(9), 60, 2), LayerWeights.uniform(2))
    calls = _asked_pairs(monkeypatch)
    for g, K in ((small, 4), (arpack_graph, arpack_graph.n - 1)):
        default = smallest_eigenpairs(g, K)
        short = smallest_eigenpairs(g, K, next_eigenvalue=False)
        for a, b in ((default.Y, short.Y), (default.eigenvalues, short.eigenvalues)):
            assert a.tobytes() == b.tobytes()
        assert np.float64(default.lambda_kplus1).tobytes() == np.float64(short.lambda_kplus1).tobytes()
    assert calls == []


def test_multilayer_sgc_asks_arpack_for_the_next_eigenvalue(monkeypatch):
    graph = connected_random_multilayer(np.random.default_rng(23), 600, 2, density=0.02)
    calls = _asked_pairs(monkeypatch)
    _, emb = multilayer_sgc(graph, LayerWeights.uniform(2), 3, seed=0)
    assert calls == [4]
    assert np.isfinite(emb.lambda_kplus1) and emb.lambda_kplus1 >= emb.eigenvalues[-1]


def test_arpack_failure_becomes_convergence_error(arpack_graph, arpack_fails):
    with pytest.raises(ConvergenceError) as info:
        smallest_eigenpairs(arpack_graph, 3)
    assert np.isnan(info.value.residual)


EPS = np.finfo(np.float64).eps


def graph_of(mat):
    mat = sparse.csr_array(mat)
    return AggregatedGraph(mat, mat.sum(axis=1))


def test_arpack_first_product_takes_a_start_vector_of_norm_below_one(arpack_graph, monkeypatch):
    norms = []
    matvec = graph_core.AggregatedGraph.laplacian_matvec

    def recorded(self, x):
        norms.append(np.linalg.norm(x))
        return matvec(self, x)

    monkeypatch.setattr(graph_core.AggregatedGraph, "laplacian_matvec", recorded)
    spectral.smallest_laplacian_eigs(arpack_graph, 3)
    assert 0.5 <= norms[0] < 1.0


def test_arpack_matches_the_dense_solver_on_a_cycle_near_the_strength_bound(monkeypatch):
    # strength 1.7e307: a start vector of norm about sqrt(n) made ARPACK's
    # first product overflow, and one eigenvalue went missing
    g = graph_of(adjacency_from_edges(100, [(i, (i + 1) % 100) for i in range(100)], 8.5e306))
    dense = spectral.smallest_laplacian_eigs(g, 4)
    monkeypatch.setattr(spectral, "_DENSE_MAX_N", 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = spectral.smallest_laplacian_eigs(g, 4)
    assert np.max(np.abs(values - dense)) <= 1000 * EPS * g.strength.max()


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("cutoff, solver", [(512, "the dense eigensolver"), (30, "ARPACK")], ids=["dense", "arpack"])
def test_eigensolvers_refuse_a_strength_that_is_not_finite(monkeypatch, value, cutoff, solver):
    mat = adjacency_from_edges(40, [(i, i + 1) for i in range(39)])
    mat[0, 1] = mat[1, 0] = value
    monkeypatch.setattr(spectral, "_DENSE_MAX_N", cutoff)
    with pytest.raises(ConvergenceError, match=rf"^{solver} refused a node strength of {value}: ") as info:
        spectral.smallest_laplacian_eigs(graph_of(mat), 3)
    assert np.isnan(info.value.residual)


def log_uniform_graph(seed, n, span):
    """A connected graph: a random spanning tree plus random chords, with
    weights log-uniform in [1, 10**span]."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = [(order[i], order[rng.integers(i)]) for i in range(1, n)]
    edges += [tuple(pair) for pair in rng.integers(n, size=(n, 2)) if pair[0] != pair[1]]
    return adjacency_from_edges(n, [(i, j, 10.0 ** rng.uniform(0, span)) for i, j in edges])


SPANS = st.floats(0.0, 12.0)  # decades of edge weight; ARPACK stops converging from about 6


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(31, 60), count=st.integers(2, 5), span=SPANS)
@example(seed=0, n=40, count=3, span=2.0)  # ARPACK converges
@example(seed=221, n=40, count=2, span=4.75)  # ARPACK skipped the eigenvalue 0
@example(seed=44, n=44, count=4, span=7.75)  # ARPACK returned eigenvalues 2..5
@settings(max_examples=25, deadline=None)
def test_arpack_fails_or_is_accurate_to_the_strength_floor(seed, n, count, span):
    g = graph_of(log_uniform_graph(seed, n, span))
    dense = spectral.smallest_laplacian_eigs(g, count)
    with mock.patch.object(spectral, "_DENSE_MAX_N", 30):
        try:
            values = spectral.smallest_laplacian_eigs(g, count)
        except ConvergenceError:
            return
    assert np.max(np.abs(values - dense)) <= 1000 * EPS * g.strength.max()


def test_arpack_refuses_an_answer_without_the_eigenvalue_zero(monkeypatch):
    # an ARPACK that skips the zero of every Laplacian: it returns pairs 2..count+1
    g = graph_of(adjacency_from_edges(40, [(i, (i + 1) % 40) for i in range(40)]))

    def skips_zero(lap, k, **kwargs):
        return scipy_linalg.eigh(g.laplacian_dense(), subset_by_index=(1, k))

    monkeypatch.setattr(spectral, "_DENSE_MAX_N", 30)
    monkeypatch.setattr(spectral.sparse_linalg, "eigsh", skips_zero)
    floor = 1000 * EPS * 2.0
    with pytest.raises(ConvergenceError, match=rf"^ARPACK missed the eigenvalue 0: its smallest was 0\.0246233, "
                                               rf"above the accuracy floor {floor:.6g}$") as info:
        spectral.smallest_laplacian_eigs(g, 3)
    assert np.isnan(info.value.residual)


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_laplacian_eigs_of_a_large_graph_without_edges_are_zero(monkeypatch, vectors):
    # ARPACK's first product on this graph is the zero vector, and it failed
    # with "ARPACK error -9: Starting vector is zero"
    def no_product(self, x):
        raise AssertionError("ARPACK applied the Laplacian of a graph without edges")

    monkeypatch.setattr(graph_core.AggregatedGraph, "laplacian_matvec", no_product)
    got = spectral.smallest_laplacian_eigs(graph_of(sparse.csr_array((600, 600))), 4, vectors=vectors)
    values = got[0] if vectors else got
    assert np.array_equal(values, np.zeros(4))
    if vectors:
        assert np.array_equal(got[1], np.eye(600, 4))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(31, 60), count=st.integers(2, 5), span=SPANS,
       cutoff=st.sampled_from([30, 512]))
@example(seed=0, n=40, count=3, span=2.0, cutoff=30)  # ARPACK converges
@settings(max_examples=25, deadline=None)
def test_adding_an_edge_never_lowers_an_eigenvalue_by_more_than_the_floor(seed, n, count, span, cutoff):
    # Weyl: the added edge's Laplacian is positive semidefinite
    mat = log_uniform_graph(seed, n, span)
    rng = np.random.default_rng(seed + 1)
    i, j = rng.choice(n, size=2, replace=False)
    more = mat.copy()
    more[i, j] = more[j, i] = mat[i, j] + 10.0 ** rng.uniform(0, span)
    g, h = graph_of(mat), graph_of(more)
    with mock.patch.object(spectral, "_DENSE_MAX_N", cutoff):
        try:
            before, after = spectral.smallest_laplacian_eigs(g, count), spectral.smallest_laplacian_eigs(h, count)
        except ConvergenceError:
            return
    assert np.all(after >= before - 1000 * EPS * h.strength.max())


# ------------------------------------------------------ partial sums


def test_partial_sum_triangle_k3_from_dense_oracle(triangle):
    agg = aggregate(triangle, LayerWeights.uniform(1))
    spectrum = dense_laplacian_spectrum(agg)
    emb = SpectralEmbedding(
        Y=np.zeros((3, 2)), eigenvalues=spectrum[1:3], lambda_kplus1=float("nan")
    )
    assert partial_eigenvalue_sum(emb) == pytest.approx(6.0, abs=1e-9)


def test_partial_sum_equals_trace_form():
    rng = np.random.default_rng(19)
    g = connected_random_multilayer(rng, 20, 2)
    agg = aggregate(g, LayerWeights.uniform(2))
    emb = smallest_eigenpairs(agg, 4)
    lap = agg.laplacian_dense()
    assert partial_eigenvalue_sum(emb) == pytest.approx(
        float(np.trace(emb.Y.T @ lap @ emb.Y)), abs=1e-8
    )


# ----------------------------------------------------------------- kmeans


def test_kmeans_separated_clouds():
    rng = np.random.default_rng(0)
    rows = np.vstack([
        rng.normal((-10, 0), 0.1, (20, 2)),
        rng.normal((10, 0), 0.1, (20, 2)),
    ])
    asn = kmeans(rows, 2, seed=1)
    assert asn.labels[:20].min() == asn.labels[:20].max()
    assert asn.labels[20:].min() == asn.labels[20:].max()
    assert asn.labels[0] != asn.labels[20]


def test_kmeans_identical_points_repaired_singleton():
    rows = np.ones((6, 2))
    asn = kmeans(rows, 2, seed=0)
    assert asn.K == 2
    assert sorted(asn.sizes) == [1, 5]
    centroids = [rows[asn.labels == k].mean(axis=0) for k in range(2)]
    wcss = sum(
        float(np.sum((rows[asn.labels == k] - centroids[k]) ** 2)) for k in range(2)
    )
    assert wcss == pytest.approx(0.0, abs=1e-12)


def test_kmeans_stops_a_restart_that_cycles():
    # fewer distinct points than clusters: the empty-cluster repair and the
    # tie rule alternate between two labelings, which used to run every
    # restart for all max_iter steps
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((3, 6))[rng.integers(0, 3, 80)]
    start = time.perf_counter()
    asn = kmeans(rows, 10, seed=0)
    assert time.perf_counter() - start < 0.5
    assert asn.K == 10 and asn.n_min >= 1


def exhaustive_best_wcss(rows):
    n = rows.shape[0]
    best = np.inf
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in cluster 0 (symmetry)
        labels = np.array([(mask >> i) & 1 for i in range(n)])
        wcss = 0.0
        for k in (0, 1):
            pts = rows[labels == k]
            if len(pts):
                wcss += float(np.sum((pts - pts.mean(axis=0)) ** 2))
        best = min(best, wcss)
    return best


def test_kmeans_wcss_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    rows = rng.standard_normal((8, 1))
    asn = kmeans(rows, 2, seed=3)
    wcss = 0.0
    for k in range(2):
        pts = rows[asn.labels == k]
        wcss += float(np.sum((pts - pts.mean(axis=0)) ** 2))
    assert wcss == pytest.approx(exhaustive_best_wcss(rows), abs=1e-9)


def test_kmeans_deterministic_and_restarts_never_worse():
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((40, 3))

    def wcss_of(asn):
        total = 0.0
        for k in range(asn.K):
            pts = rows[asn.labels == k]
            total += float(np.sum((pts - pts.mean(axis=0)) ** 2))
        return total

    a = kmeans(rows, 4, seed=5)
    b = kmeans(rows, 4, seed=5)
    assert np.array_equal(a.labels, b.labels)
    assert wcss_of(kmeans(rows, 4, seed=5, restarts=20)) <= wcss_of(
        kmeans(rows, 4, seed=5, restarts=1)
    ) + 1e-12


@pytest.mark.parametrize("kwargs, message", [
    ({"K": 0}, r"^K must be at least 1, got 0$"),
    ({"restarts": 0}, r"^restarts must be at least 1, got 0$"),
    ({"restarts": -3}, r"^restarts must be at least 1, got -3$"),
    ({"max_iter": -1}, r"^max_iter must be at least 0, got -1$"),
], ids=["K", "restarts-zero", "restarts-negative", "max_iter"])
def test_kmeans_names_an_out_of_range_argument(kwargs, message):
    with pytest.raises(ValueError, match=message):
        kmeans(np.zeros((4, 2)), **{"K": 2, **kwargs})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_kmeans_rejects_non_finite_rows(value):
    rows = np.arange(8.0).reshape(4, 2)
    rows[2, 1] = value
    with pytest.raises(ValueError, match=r"^rows must be finite$"):
        kmeans(rows, 2)


@pytest.mark.parametrize("rows, peak", [
    ([[1e200], [0.0], [-1e200], [5.0]], "1e+200"),
    ([[0.0], [0.0], [1.2e154], [1.2e154]], "1.2e+154"),
], ids=["distances", "totals"])
def test_kmeans_names_rows_whose_squared_distances_overflow(rows, peak):
    # the first used to end in numpy's "Probabilities contain NaN" after an
    # overflow RuntimeWarning; in the second every squared distance is
    # finite but their total is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            kmeans(np.array(rows), 2)
    limit = np.sqrt(np.finfo(np.float64).max / 16)
    assert str(info.value) == f"rows must lie within +-{limit:.3g} so that squared distances stay finite, got {peak}"


# The sequential K-means that the batched one replaced, verbatim except for
# the name of its entry point and the cycle stop in ``_lloyd``: the batched
# restarts must give the same labels.


def _kmeans_plusplus_init(rows: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """K-means++ seeding: D^2-weighted incremental center choice."""
    n = rows.shape[0]
    centers = np.empty((K, rows.shape[1]))
    first = int(rng.integers(n))
    centers[0] = rows[first]
    d2 = np.sum((rows - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=d2 / total))
        centers[k] = rows[choice]
        d2 = np.minimum(d2, np.sum((rows - centers[k]) ** 2, axis=1))
    return centers


def _assign(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; ties go to the lowest center index."""
    d2 = (
        np.sum(rows**2, axis=1)[:, None]
        - 2.0 * rows @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def _centers_from_labels(rows: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    centers = np.zeros((K, rows.shape[1]))
    counts = np.bincount(labels, minlength=K).astype(np.float64)
    np.add.at(centers, labels, rows)
    nonzero = counts > 0
    centers[nonzero] /= counts[nonzero, None]
    return centers


def _repair_empty(rows: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """Fill each empty cluster with the farthest point a size->=2 cluster can spare."""
    counts = np.bincount(labels, minlength=K)
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return labels
    labels = labels.copy()
    for k in empty:
        centers = _centers_from_labels(rows, labels, K)
        dist = np.sum((rows - centers[labels]) ** 2, axis=1)
        dist[counts[labels] < 2] = -np.inf
        donor = int(np.argmax(dist))
        counts[labels[donor]] -= 1
        labels[donor] = k
        counts[k] = 1
    return labels


def _lloyd(rows: np.ndarray, centers: np.ndarray, max_iter: int) -> tuple[np.ndarray, float]:
    K = centers.shape[0]
    labels = _repair_empty(rows, _assign(rows, centers), K)
    before = labels
    for _ in range(max_iter):
        centers = _centers_from_labels(rows, labels, K)
        new_labels = _repair_empty(rows, _assign(rows, centers), K)
        if np.array_equal(new_labels, labels) or np.array_equal(new_labels, before):
            break
        before, labels = labels, new_labels
    centers = _centers_from_labels(rows, labels, K)
    inertia = float(np.sum((rows - centers[labels]) ** 2))
    return labels, inertia


def reference_kmeans(
    rows: np.ndarray,
    K: int,
    seed: int = 0,
    *,
    restarts: int = 20,
    max_iter: int = 300,
) -> ClusterAssignment:
    """Seeded K-means with restarts on embedding rows.

    Runs ``restarts`` independent K-means++ seedings from one seeded
    generator (so the whole call is a pure function of its arguments) and
    keeps the result with the strictly lowest within-cluster sum of squares;
    ties keep the earliest restart.  Empty clusters during Lloyd iterations
    are repaired by reseeding them with the point farthest from its current
    centroid.

    Raises:
        ValueError: fewer rows than clusters.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D array")
    if K < 1 or rows.shape[0] < K:
        raise ValueError(f"need at least K={K} rows, got {rows.shape[0]}")
    rng = np.random.default_rng(seed)
    best_labels: np.ndarray | None = None
    best_inertia = np.inf
    for _ in range(restarts):
        centers = _kmeans_plusplus_init(rows, K, rng)
        labels, inertia = _lloyd(rows, centers, max_iter)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    assert best_labels is not None
    return ClusterAssignment(best_labels)


@st.composite
def kmeans_problems(draw):
    """Rows (1-80 by 0-6), often with repeated rows, and a K up to the row count."""
    n, d = draw(st.integers(1, 80)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, d))
    if draw(st.booleans()):  # few distinct rows leave clusters empty
        rows = rows[rng.integers(draw(st.integers(1, n)), size=n)]
    if draw(st.booleans()):  # small integers tie distances
        rows = np.round(2.0 * rows)
    return rows, draw(st.integers(1, n))


@given(problem=kmeans_problems(), seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 25),
       max_iter=st.sampled_from([0, 1, 2, 300]))
@settings(max_examples=50, deadline=None)
def test_batched_kmeans_matches_the_sequential_reference(problem, seed, restarts, max_iter):
    rows, K = problem
    got = kmeans(rows, K, seed, restarts=restarts, max_iter=max_iter)
    assert np.array_equal(got.labels, reference_kmeans(rows, K, seed, restarts=restarts, max_iter=max_iter).labels)


@pytest.mark.parametrize("rows, K, restarts, seedings", [
    (np.random.default_rng(4).standard_normal((60, 9)), 10, 20, 0),
    (np.random.default_rng(5).standard_normal((4, 3))[np.random.default_rng(6).integers(0, 4, 50)], 6, 20, 20),
    (np.random.default_rng(7).standard_normal((30, 2)), 4, 1, 0),
], ids=["distinct-rows", "fewer-distinct-rows-than-K", "one-restart"])
def test_kmeans_seeds_like_the_sequential_reference(monkeypatch, rows, K, restarts, seedings):
    # distinct rows take the one-pass seeding (d = 9 also exercises numpy's
    # pairwise sums over a row); fewer distinct rows than K rewind the
    # generator and seed restart by restart
    calls = []
    one = spectral._kmeans_plusplus_init

    def counted(*args):
        calls.append(1)
        return one(*args)

    monkeypatch.setattr(spectral, "_kmeans_plusplus_init", counted)
    for seed in range(5):
        got = kmeans(rows, K, seed, restarts=restarts)
        assert np.array_equal(got.labels, reference_kmeans(rows, K, seed, restarts=restarts).labels)
    assert len(calls) == 5 * seedings


@st.composite
def repeated_row_problems(draw):
    """2-60 rows (0-9 columns) copied from at most 6 distinct points, and K up to the row count."""
    n, d = draw(st.integers(2, 60)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((draw(st.integers(1, 6)), d))
    if draw(st.booleans()):  # small integers tie distances
        points = np.round(2.0 * points)
    return points[rng.integers(points.shape[0], size=n)], draw(st.integers(1, min(n, 12)))


@given(problem=repeated_row_problems(), seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 25))
@settings(max_examples=200, deadline=None)
def test_kmeans_on_repeated_rows_matches_the_sequential_reference(problem, seed, restarts):
    rows, K = problem
    got = kmeans(rows, K, seed, restarts=restarts)
    assert np.array_equal(got.labels, reference_kmeans(rows, K, seed, restarts=restarts).labels)


@contextlib.contextmanager
def chunk_budget(rows, K, chunk):
    """Set the K-means chunk budget to ``chunk`` restarts on ``rows``; yields the sizes of the chunks run."""
    n, d = rows.shape
    sizes = []
    lloyd = spectral._lloyd

    def counted(rows, picks, *args):
        sizes.append(picks.shape[0])
        return lloyd(rows, picks, *args)

    with mock.patch.object(spectral, "_KMEANS_ENTRIES", chunk * n * max(K, d + 1)), \
            mock.patch.object(spectral, "_lloyd", counted):
        yield sizes


@given(problem=kmeans_problems(), seed=st.integers(0, 2**32 - 1), restarts=st.integers(3, 25),
       max_iter=st.sampled_from([0, 1, 2, 300]), data=st.data())
@settings(max_examples=50, deadline=None)
def test_kmeans_in_chunks_matches_the_sequential_reference(problem, seed, restarts, max_iter, data):
    rows, K = problem
    with chunk_budget(rows, K, data.draw(st.integers(1, restarts // 3), label="chunk")) as sizes:
        got = kmeans(rows, K, seed, restarts=restarts, max_iter=max_iter)
    assert len(sizes) >= 3 and sum(sizes) == restarts
    assert np.array_equal(got.labels, reference_kmeans(rows, K, seed, restarts=restarts, max_iter=max_iter).labels)


@pytest.mark.parametrize("rows, K, restarts, chunk, seedings", [
    (np.random.default_rng(4).standard_normal((60, 9)), 10, 20, 6, 0),
    (np.random.default_rng(5).standard_normal((4, 3))[np.random.default_rng(6).integers(0, 4, 50)], 6, 20, 7, 20),
    (np.random.default_rng(7).standard_normal((30, 2)), 4, 3, 1, 0),
], ids=["distinct-rows", "fewer-distinct-rows-than-K", "one-restart-per-chunk"])
def test_kmeans_in_chunks_seeds_like_the_sequential_reference(monkeypatch, rows, K, restarts, chunk, seedings):
    # the seedings are chunked too, and a rewind still seeds every restart one at a time
    calls = []
    one = spectral._kmeans_plusplus_init

    def counted(*args):
        calls.append(1)
        return one(*args)

    monkeypatch.setattr(spectral, "_kmeans_plusplus_init", counted)
    for seed in range(5):
        with chunk_budget(rows, K, chunk) as sizes:
            got = kmeans(rows, K, seed, restarts=restarts)
        assert len(sizes) >= 3 and sum(sizes) == restarts
        assert np.array_equal(got.labels, reference_kmeans(rows, K, seed, restarts=restarts).labels)
    assert len(calls) == 5 * seedings


@given(problem=repeated_row_problems(), seed=st.integers(0, 2**32 - 1), restarts=st.integers(3, 25),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_kmeans_in_chunks_on_repeated_rows_matches_the_sequential_reference(problem, seed, restarts, data):
    rows, K = problem
    with chunk_budget(rows, K, data.draw(st.integers(1, restarts // 3), label="chunk")) as sizes:
        got = kmeans(rows, K, seed, restarts=restarts)
    assert len(sizes) >= 3 and sum(sizes) == restarts
    assert np.array_equal(got.labels, reference_kmeans(rows, K, seed, restarts=restarts).labels)


# ---------------------------------------------------------------- pipeline


def test_sgc_bisects_weakly_joined_cliques(clique_pair_graph):
    asn, _ = multilayer_sgc(clique_pair_graph, LayerWeights.uniform(1), 2, seed=0)
    assert asn.labels[:5].min() == asn.labels[:5].max()
    assert asn.labels[5:].min() == asn.labels[5:].max()
    assert asn.labels[0] != asn.labels[5]


def test_sgc_reliable_regime_detectability():
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(100, 100, 100), q11=0.3, q10=0.2, q01=0.1, q00=0.4,
        p1=0.05, p2=0.05, seed=21,
    )
    graph, truth = generate_two_layer(params)
    asn, _ = multilayer_sgc(graph, LayerWeights((0.5, 0.5)), 3, seed=0)
    assert detectability(asn, truth) >= 0.95


def test_sgc_noise_regime_near_random_guess():
    dets = []
    for trial in range(3):
        params = TwoLayerCorrelatedParams(
            cluster_sizes=(100, 100, 100), q11=0.3, q10=0.2, q01=0.1, q00=0.4,
            p1=0.45, p2=0.45, seed=60 + trial,
        )
        graph, truth = generate_two_layer(params)
        asn, _ = multilayer_sgc(graph, LayerWeights((0.5, 0.5)), 3, seed=trial)
        dets.append(detectability(asn, truth))
    assert 0.28 <= np.mean(dets) <= 0.50


def test_assignment_invariant_under_uniform_weight_scaling():
    rng = np.random.default_rng(23)
    g = connected_random_multilayer(rng, 18, 1)
    scaled = dense_graph(g.node_ids, 2.0 * g.layers[0].toarray())
    a1, _ = multilayer_sgc(g, LayerWeights.uniform(1), 3, seed=4)
    a2, _ = multilayer_sgc(scaled, LayerWeights.uniform(1), 3, seed=4)
    assert np.array_equal(a1.labels, a2.labels)


# --------------------------------------------------------- sin-Theta dist


def test_subspace_distance_identical_is_zero():
    rng = np.random.default_rng(1)
    Y = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    assert subspace_distance(Y, Y) == pytest.approx(0.0, abs=1e-12)


def test_subspace_distance_orthogonal_complements():
    Y = np.eye(4)[:, :2]
    Yt = np.eye(4)[:, 2:]
    assert subspace_distance(Y, Yt) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_subspace_distance_rotation_invariant():
    rng = np.random.default_rng(2)
    Y = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert subspace_distance(Y, Y @ rot) == pytest.approx(0.0, abs=1e-10)


def test_subspace_distance_shape_mismatch_rejected():
    Y = np.eye(4)[:, :2]
    with pytest.raises(ValueError):
        subspace_distance(Y, np.eye(4)[:, :3])


# ------------------------------------------------------- assignment type


def test_cluster_assignment_validation():
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([0, 2]))  # label 1 missing
    asn = ClusterAssignment(np.array([1, 0, 1, 2]))
    assert asn.K == 3
    assert tuple(asn.sizes) == (1, 2, 1)
    assert asn.n_min == 1
    assert asn.n_max == 2


def test_from_label_map_lexicographic():
    asn = ClusterAssignment.from_label_map(
        {"a": "red", "b": "blue", "c": "red"}, ["a", "b", "c"]
    )
    # labels sorted lexicographically: blue -> 0, red -> 1
    assert list(asn.labels) == [1, 0, 1]
