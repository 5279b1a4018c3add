"""Shared fixtures: small deterministic graphs used across test modules."""

from __future__ import annotations

import os
from contextlib import contextmanager
from unittest import mock

# BLAS sizes its thread pool when numpy is first imported; one thread keeps
# test timings comparable (an unpinned OpenBLAS spins under contention)
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np  # noqa: E402
import pytest

from mlsgc import graph_core, spectral
from mlsgc import (
    ClusterAssignment,
    LayerWeights,
    MultilayerGraph,
    aggregate,
)


def dense_graph(node_ids, *layers):
    """Build a MultilayerGraph from dense symmetric arrays."""
    return MultilayerGraph.from_matrices(node_ids, [np.asarray(m, dtype=float) for m in layers])


def adjacency_from_edges(n, edges, weight=1.0):
    """Dense symmetric adjacency from an (i, j[, w]) edge list."""
    mat = np.zeros((n, n))
    for edge in edges:
        if len(edge) == 3:
            i, j, w = edge
        else:
            (i, j), w = edge, weight
        mat[i, j] = mat[j, i] = w
    return mat


def ids(n):
    return [f"n{i:03d}" for i in range(n)]


@pytest.fixture
def triangle():
    """Single-layer unweighted triangle: Laplacian spectrum {0, 3, 3}."""
    return dense_graph(ids(3), adjacency_from_edges(3, [(0, 1), (0, 2), (1, 2)]))


@pytest.fixture
def two_triangles():
    """Two disjoint unit-weight triangles in one layer."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    return dense_graph(ids(6), adjacency_from_edges(6, edges))


@pytest.fixture
def barbell4():
    """4-node barbell: edges inside each pair plus one bridge."""
    return dense_graph(ids(4), adjacency_from_edges(4, [(0, 1), (2, 3), (1, 2)]))


@pytest.fixture
def clique_pair_graph():
    """Two 5-cliques joined by one weak (0.1) bridge edge, single layer."""
    n = 10
    mat = np.zeros((n, n))
    for a in range(5):
        for b in range(a + 1, 5):
            mat[a, b] = mat[b, a] = 1.0
            mat[a + 5, b + 5] = mat[b + 5, a + 5] = 1.0
    mat[4, 5] = mat[5, 4] = 0.1
    return dense_graph(ids(n), mat)


@pytest.fixture
def two_layer_triangle_pair():
    """3 nodes, 2 layers with different edge patterns."""
    layer1 = adjacency_from_edges(3, [(0, 1, 2.0)])
    layer2 = adjacency_from_edges(3, [(0, 1, 4.0), (1, 2, 1.0)])
    return dense_graph(["a", "b", "c"], layer1, layer2)


@pytest.fixture
def uniform2():
    return LayerWeights.uniform(2)


def random_multilayer(rng, n, L, density=0.4):
    """Random small multilayer graph (weights in (0, 2), zero diagonal)."""
    layers = []
    for _ in range(L):
        upper = np.triu((rng.random((n, n)) < density) * rng.uniform(0.2, 2.0, (n, n)), 1)
        layers.append(upper + upper.T)
    return dense_graph(ids(n), *layers)


def connected_random_multilayer(rng, n, L, density=0.4):
    """Random multilayer graph whose uniform aggregation is connected."""
    from mlsgc import connected_components

    while True:
        g = random_multilayer(rng, n, L, density)
        agg = aggregate(g, LayerWeights.uniform(L))
        if len(connected_components(agg)) == 1:
            return g


def balanced_assignment(sizes):
    return ClusterAssignment(np.repeat(np.arange(len(sizes)), sizes))


@pytest.fixture
def arpack_fails(monkeypatch):
    """Make every ARPACK solve report non-convergence."""
    def no_convergence(*args, **kwargs):
        raise spectral.sparse_linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0))
        )

    monkeypatch.setattr(spectral.sparse_linalg, "eigsh", no_convergence)


@contextmanager
def fresh_pool(cpus):
    """Run with a worker pool made anew for ``cpus`` CPUs (``cpus - 1`` idle
    workers), shut down on exit; the process's own pool is put back."""
    with mock.patch.object(graph_core, "_CPUS", cpus), mock.patch.object(graph_core, "_pool", None):
        try:
            yield
        finally:
            if graph_core._pool is not None:
                graph_core._pool[0].shutdown()
