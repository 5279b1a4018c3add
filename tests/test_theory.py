"""Phase-transition bounds, breakdown predicate, slope/critical-weight theory."""

from __future__ import annotations

import threading
import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgc import (
    AggregatedGraph,
    ClusterAssignment,
    ClusterTooSmallError,
    ConvergenceError,
    GeneralRimParams,
    LayerWeights,
    aggregate,
    breakdown_condition_holds,
    breakdown_matrix,
    cluster_partial_sums,
    critical_bounds,
    critical_weight_w1,
    eigenvalue_bounds_check,
    generate_rim,
    predicted_partial_sum,
    smallest_eigenpairs,
    subspace_perturbation_bound,
)
from mlsgc import graph_core, spectral, theory
from mlsgc.graph_core import induced_subgraph

from .conftest import balanced_assignment, dense_graph, fresh_pool, ids


def large_cluster_graph():
    """Two sparse layers, clusters of 520, 20 and 20 nodes: the big one is
    above the dense-solver cutoff of 512 nodes."""
    params = GeneralRimParams(
        cluster_sizes=(520, 20, 20), n_layers=2,
        within_probs=[[0.2, 0.5, 0.5], [0.14, 0.5, 0.5]], noise_probs=[0.01, 0.02], seed=1,
    )
    return generate_rim(params)


def two_cliques_graph(size, bridge=0.0):
    n = 2 * size
    mat = np.zeros((n, n))
    for base in (0, size):
        for a in range(size):
            for b in range(a + 1, size):
                mat[base + a, base + b] = mat[base + b, base + a] = 1.0
    if bridge:
        mat[0, size] = mat[size, 0] = bridge
    return dense_graph(ids(n), mat)


# ----------------------------------------------------------- phase bounds


def test_two_cliques_tlb_is_one():
    g = two_cliques_graph(5)
    bounds = critical_bounds(g, balanced_assignment([5, 5]), LayerWeights.uniform(1))
    # lambda_2 of a 5-clique is 5, so S_{2:2} = 5 and t_LB = 5/(1*5) = 1
    assert bounds.t_lb == pytest.approx(1.0, abs=1e-9)
    assert bounds.t_ub == pytest.approx(1.0, abs=1e-9)


def test_equal_sizes_make_bounds_coincide():
    params = GeneralRimParams(
        cluster_sizes=(40, 40, 40), n_layers=2,
        within_probs=np.full((2, 3), 0.6), noise_probs=0.05, seed=1,
    )
    graph, truth = generate_rim(params)
    bounds = critical_bounds(graph, truth, LayerWeights.uniform(2))
    assert bounds.t_lb == pytest.approx(bounds.t_ub, rel=1e-12)


def test_unequal_sizes_order_bounds():
    # layer densities kept well apart: with near-identical independent
    # layers the aggregated partial sum can exceed every single layer's
    # (averaging independent sparse graphs improves connectivity), which
    # puts the universal upper bound below t_ub at this scale
    params = GeneralRimParams(
        cluster_sizes=(30, 50, 70), n_layers=2,
        within_probs=np.vstack([np.full(3, 0.4), np.full(3, 0.9)]),
        noise_probs=0.05, seed=2,
    )
    graph, truth = generate_rim(params)
    bounds = critical_bounds(graph, truth, LayerWeights.uniform(2))
    assert bounds.t_lb < bounds.t_ub
    assert bounds.universal_lb <= bounds.t_lb
    assert bounds.t_ub <= bounds.universal_ub
    assert bounds.n_min == 30 and bounds.n_max == 70


def test_single_layer_universal_equals_weighted():
    params = GeneralRimParams(
        cluster_sizes=(25, 35), n_layers=1,
        within_probs=np.full((1, 2), 0.7), noise_probs=0.05, seed=3,
    )
    graph, truth = generate_rim(params)
    bounds = critical_bounds(graph, truth, LayerWeights.uniform(1))
    assert bounds.universal_lb == pytest.approx(bounds.t_lb, rel=1e-12)
    assert bounds.universal_ub == pytest.approx(bounds.t_ub, rel=1e-12)


def test_cluster_too_small_raises():
    g = two_cliques_graph(2)
    asn = balanced_assignment([1, 3])  # smallest cluster (1 node) < K = 2
    with pytest.raises(ClusterTooSmallError):
        critical_bounds(g, asn, LayerWeights.uniform(1))


def test_critical_bounds_reject_an_assignment_longer_than_the_graph():
    g = two_cliques_graph(10)
    with pytest.raises(ValueError, match=r"^assignment does not cover the node set$"):
        critical_bounds(g, balanced_assignment([10, 11]), LayerWeights.uniform(1))


def complete_graph(n):
    return dense_graph(ids(n), np.ones((n, n)) - np.eye(n))


@pytest.mark.parametrize("sizes", [[2, 2], [3, 4], [4, 5]], ids=["4-nodes", "7-nodes", "9-nodes"])
def test_cluster_partial_sums_reject_an_assignment_that_does_not_cover_the_graph(sizes):
    agg = aggregate(complete_graph(6), LayerWeights.uniform(1))
    with pytest.raises(ValueError, match=r"^assignment does not cover the node set$"):
        cluster_partial_sums(agg, balanced_assignment(sizes))


@pytest.mark.parametrize("sizes", [[2, 2], [3, 4], [4, 5]], ids=["4-nodes", "7-nodes", "9-nodes"])
def test_breakdown_condition_rejects_an_assignment_that_does_not_cover_the_graph(sizes):
    g = complete_graph(6)
    assert breakdown_condition_holds(np.array([[1.0]]), g, balanced_assignment([3, 3]), LayerWeights.uniform(1))
    with pytest.raises(ValueError, match=r"^assignment does not cover the node set$"):
        breakdown_condition_holds(np.array([[1.0]]), g, balanced_assignment(sizes), LayerWeights.uniform(1))


def test_bounds_one_homogeneous_in_within_weights():
    g = two_cliques_graph(5)
    asn = balanced_assignment([5, 5])
    w = LayerWeights.uniform(1)
    scaled = dense_graph(g.node_ids, 3.0 * g.layers[0].toarray())
    b1 = critical_bounds(g, asn, w)
    b2 = critical_bounds(scaled, asn, w)
    assert b2.t_lb == pytest.approx(3.0 * b1.t_lb, rel=1e-12)
    assert b2.universal_ub == pytest.approx(3.0 * b1.universal_ub, rel=1e-12)


def test_cluster_partial_sums_above_dense_cutoff_match_dense_oracle():
    g, asn = large_cluster_graph()
    w = LayerWeights(np.array([0.3, 0.7]))
    sums = cluster_partial_sums(aggregate(g, w), asn)
    agg = aggregate(g, w)
    for k in range(asn.K):
        idx = asn.members(k)
        sub = agg.weight_matrix[idx][:, idx].toarray()
        lap = np.diag(sub.sum(axis=1)) - sub
        expected = np.sum(np.linalg.eigvalsh(lap)[1 : asn.K])
        assert sums[k] == pytest.approx(expected, rel=1e-8)


def test_critical_bounds_above_dense_cutoff_are_deterministic():
    g, asn = large_cluster_graph()
    w = LayerWeights.uniform(2)
    first, second = critical_bounds(g, asn, w), critical_bounds(g, asn, w)
    for name in ("t_lb", "t_ub", "universal_lb", "universal_ub"):
        assert getattr(first, name) == getattr(second, name), name
    assert np.array_equal(first.cluster_partial_sums, second.cluster_partial_sums)
    assert np.array_equal(first.layer_partial_sums, second.layer_partial_sums)


# Clusters of 40, 45 and 50 nodes, ARPACK-sized under a dense cutoff of 30.
RAGGED_SIZES = (40, 45, 50)


def ragged_graph(overflow=()):
    """Two layers over three shuffled clusters.  Layer 0's edges weigh 1 and
    layer 1's weigh 3; each node in ``overflow`` gets two layer-1 edges of
    1e308 inside its cluster, so its layer-1 strength (not its aggregated
    one) overflows."""
    rng = np.random.default_rng(12)
    labels = rng.permutation(np.repeat(np.arange(3), RAGGED_SIZES))
    n = labels.size
    same = labels[:, None] == labels[None, :]
    layers = []
    for weight in (1.0, 3.0):
        upper = np.triu(rng.random((n, n)) < np.where(same, 0.5, 0.05), 1) * weight
        layers.append(upper + upper.T)
    for node in overflow:
        for mate in np.flatnonzero(same[node] & (np.arange(n) != node))[:2]:
            layers[1][node, mate] = layers[1][mate, node] = 1e308
    return dense_graph(ids(n), *layers), ClusterAssignment(labels)


def bound_bytes(bounds):
    return {name: np.asarray(getattr(bounds, name)).tobytes() for name in bounds.__dataclass_fields__}


@pytest.fixture
def arpack_clusters(monkeypatch):
    monkeypatch.setattr(spectral, "_DENSE_MAX_N", 30)


@pytest.mark.parametrize("blocks", [None, 1], ids=["one-pass", "row-blocks"])
def test_bounds_have_the_same_bytes_whether_solves_run_together_or_not(arpack_clusters, blocks):
    graph, asn = ragged_graph()
    w = LayerWeights((0.3, 0.7))
    results = {}
    for cpus in (1, 2, 3):
        with ExitStack() as stack:
            stack.enter_context(fresh_pool(cpus))
            if blocks:  # every product splits: its blocks meet the solves' worker
                stack.enter_context(mock.patch.object(graph_core, "_BLOCK_ENTRIES", blocks))
            results[cpus] = (bound_bytes(critical_bounds(graph, asn, w)),
                             cluster_partial_sums(aggregate(graph, w), asn).tobytes())
    assert results[2] == results[1] and results[3] == results[1]


def test_arpack_cluster_solves_run_two_at_once_and_dense_ones_in_order(arpack_clusters, monkeypatch):
    graph, asn = ragged_graph()
    solve = theory.smallest_laplacian_eigs
    threads = []
    gate = threading.Barrier(2)

    def recorded(g, count):
        threads.append(threading.get_ident())
        if len(threads) <= 2:  # the first two solves pass only together
            gate.wait(timeout=30)
        return solve(g, count)

    monkeypatch.setattr(theory, "smallest_laplacian_eigs", recorded)
    with fresh_pool(2):
        critical_bounds(graph, asn, LayerWeights.uniform(2))
        assert len(threads) == 3 + 2 * 3 and len(set(threads)) == 2
        monkeypatch.setattr(spectral, "_DENSE_MAX_N", 512)
        critical_bounds(graph, asn, LayerWeights.uniform(2))
    assert threads[9:] == [threading.get_ident()] * 9


@pytest.mark.parametrize("cpus", [1, 2])
def test_bound_errors_come_in_layer_then_cluster_order(arpack_clusters, monkeypatch, cpus):
    # per layer, an overflowing strength (the smallest such node of any
    # cluster) wins over the layer's failed solves; a failed solve of a
    # layer wins over the next layer's overflow
    probe, asn = ragged_graph()
    members = [asn.members(k) for k in range(3)]
    late, early = members[1][5], members[2][members[2] < members[1][5]][0]  # cluster 2 holds the smaller node
    graph, _ = ragged_graph(overflow=(late, early))
    solve = theory.smallest_laplacian_eigs
    failing = set()

    def failed_solves(g, count):
        data = g.weight_matrix.data
        layer = 0 if np.all(data == 1.0) else 1 if np.all(data == 3.0) else None
        if (layer, g.n) in failing:
            raise ConvergenceError(f"layer {layer}, {g.n} nodes", residual=float("nan"))
        return solve(g, count)

    monkeypatch.setattr(theory, "smallest_laplacian_eigs", failed_solves)
    w = LayerWeights((0.9, 0.1))  # the aggregated products stay below overflow
    overflow = rf"^layer 1: within-cluster strength of node '{graph.node_ids[early]}' is not finite"
    with fresh_pool(cpus):
        with pytest.raises(ValueError, match=overflow):
            critical_bounds(graph, asn, w)
        failing.add((1, 40))  # layer 1's cluster 0 has no overflowing node
        with pytest.raises(ValueError, match=overflow):
            critical_bounds(graph, asn, w)
        failing.update({(0, 45), (0, 50)})
        with pytest.raises(ConvergenceError, match=r"^layer 0, 45 nodes$"):
            critical_bounds(graph, asn, w)
        failing.clear()
        failing.update({(1, 40), (1, 50)})
        with pytest.raises(ConvergenceError, match=r"^layer 1, 40 nodes$"):
            critical_bounds(probe, asn, w)


def test_arpack_refuses_a_cluster_whose_product_can_overflow(arpack_clusters):
    # an aggregated strength of 1e308: the product overflowed, and cluster
    # 1's sum came back 0.0 with only numpy's overflow warning
    _, asn = ragged_graph()
    graph, _ = ragged_graph(overflow=(asn.members(1)[5],))
    agg = aggregate(graph, LayerWeights.uniform(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"^ARPACK refused a node strength of 1e\+308: "):
            cluster_partial_sums(agg, asn)
        with mock.patch.object(spectral, "_DENSE_MAX_N", 512):
            assert np.all(cluster_partial_sums(agg, asn) > 0.0)
    sub = induced_subgraph(graph.layers[1], asn.members(1))  # a layer's strength that overflowed
    with pytest.raises(ConvergenceError, match=r"^ARPACK refused a node strength of inf: "):
        spectral.smallest_laplacian_eigs(sub, 3)


@pytest.mark.parametrize("cutoff", [512, 30], ids=["dense", "arpack"])
def test_cluster_partial_sums_name_an_overflowing_node(monkeypatch, cutoff):
    # both branches name the node before they solve: LAPACK fails on the
    # cluster's Laplacian, and ARPACK refuses its strength of inf
    monkeypatch.setattr(spectral, "_DENSE_MAX_N", cutoff)
    _, asn = ragged_graph()
    node = asn.members(1)[5]
    graph, _ = ragged_graph(overflow=(node,))
    layer = induced_subgraph(graph.layers[1], np.arange(graph.n))
    with pytest.raises(ValueError, match=rf"^within-cluster strength of node {node} is not finite: "
                                         r"its edge weights are too large$"):
        cluster_partial_sums(layer, asn)


def test_cluster_partial_sums_of_a_large_cluster_without_edges_are_zero():
    # ARPACK's first product on cluster 0's subgraph, which has no edge, is
    # the zero vector: it failed with "ARPACK error -9: Starting vector is zero"
    n = 520
    mat = np.zeros((2 * n, 2 * n))
    ring = n + np.arange(n)
    mat[ring, np.roll(ring, 1)] = mat[np.roll(ring, 1), ring] = 1.0
    mat[np.arange(n), ring] = mat[ring, np.arange(n)] = 1.0  # a matching joins the clusters
    sums = cluster_partial_sums(aggregate(dense_graph(ids(2 * n), mat), LayerWeights.uniform(1)),
                                balanced_assignment([n, n]))
    assert sums[0] == 0.0
    assert sums[1] == pytest.approx(2.0 - 2.0 * np.cos(2.0 * np.pi / n), rel=1e-9)


@pytest.mark.parametrize("top", [1e300, 1e306])
def test_arpack_solves_strengths_near_its_bound(arpack_clusters, top):
    probe, _ = ragged_graph()
    agg = aggregate(probe, LayerWeights.uniform(2))
    scaled = agg.weight_matrix * (top / agg.strength.max())
    big = AggregatedGraph(scaled, scaled.sum(axis=1))
    assert big.strength.max() == pytest.approx(top, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = spectral.smallest_laplacian_eigs(big, 4)
        with mock.patch.object(spectral, "_DENSE_MAX_N", 512):
            dense = spectral.smallest_laplacian_eigs(big, 4)
    assert np.allclose(values, dense, rtol=1e-8, atol=1e-12 * top)
    assert np.all(values[1:] > 0.0)


def test_layer_partial_sums_are_single_layer_cluster_sums():
    g, asn = large_cluster_graph()
    bounds = critical_bounds(g, asn, LayerWeights.uniform(2))
    assert bounds.layer_partial_sums.shape == (g.L, asn.K)
    for layer in range(g.L):
        vertex = LayerWeights(np.eye(g.L)[layer])
        assert bounds.layer_partial_sums[layer] == pytest.approx(
            cluster_partial_sums(aggregate(g, vertex), asn), rel=1e-8
        )
    K = asn.K
    assert bounds.universal_lb == bounds.layer_partial_sums.min() / ((K - 1) * asn.n_max)


@given(seed=st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_bound_ordering_on_generated_instances(seed):
    # the lower chain universal_lb <= t_lb <= t_ub holds unconditionally by
    # eigenvalue-sum concavity; the universal-UB ordering is only an
    # expectation-level relation that needs layer densities far enough apart
    # to dominate realized fluctuation (aggregating near-identical sparse
    # layers can push the aggregate partial sum past every single layer's).
    # At cluster sizes 30-60 with these density bands the full chain holds
    # for every seed in [0, 200] with at least 17% relative margin on the
    # upper inequality (checked exhaustively), so this cannot flake.
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(30, 60, size=3))
    params = GeneralRimParams(
        cluster_sizes=sizes, n_layers=2,
        within_probs=np.vstack(
            [rng.uniform(0.30, 0.45, size=3), rng.uniform(0.80, 0.95, size=3)]
        ),
        noise_probs=float(rng.uniform(0.01, 0.2)), seed=seed,
    )
    graph, truth = generate_rim(params)
    bounds = critical_bounds(graph, truth, LayerWeights.uniform(2))
    assert bounds.universal_lb <= bounds.t_lb + 1e-12
    assert bounds.t_lb <= bounds.t_ub + 1e-12
    assert bounds.t_ub <= bounds.universal_ub + 1e-12


@given(seed=st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_lower_bound_chain_for_arbitrary_densities(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(10, 25, size=3))
    params = GeneralRimParams(
        cluster_sizes=sizes, n_layers=2,
        within_probs=rng.uniform(0.5, 0.9, size=(2, 3)),
        noise_probs=float(rng.uniform(0.01, 0.2)), seed=seed,
    )
    graph, truth = generate_rim(params)
    bounds = critical_bounds(graph, truth, LayerWeights.uniform(2))
    assert bounds.universal_lb <= bounds.t_lb + 1e-12
    assert bounds.t_lb <= bounds.t_ub + 1e-12


# ------------------------------------------------------- breakdown matrix


def test_breakdown_identical_noise_reduces_to_nt_identity():
    asn = balanced_assignment([10, 20, 30])
    t = 0.07
    levels = np.full((2, 3, 3), t)
    for l in range(2):
        np.fill_diagonal(levels[l], 0.0)
    M = breakdown_matrix(asn, levels, LayerWeights.uniform(2))
    assert M == pytest.approx(60 * t * np.eye(2))


def test_breakdown_k2_single_pair():
    asn = balanced_assignment([4, 6])
    levels = np.zeros((1, 2, 2))
    levels[0, 0, 1] = levels[0, 1, 0] = 0.3
    M = breakdown_matrix(asn, levels, LayerWeights.uniform(1))
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx((4 + 6) * 0.3)


@pytest.mark.parametrize("level", [1e308, float("inf"), float("nan")])
def test_breakdown_names_an_entry_that_is_not_finite(level):
    asn = balanced_assignment([4, 6, 5])
    levels = np.full((2, 3, 3), 0.1)
    levels[1, 0, 2] = levels[1, 2, 0] = level
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^breakdown matrix entry \(0, 0\) is (inf|nan): the noise levels are too large$"):
            breakdown_matrix(asn, levels, LayerWeights((0.5, 0.5)))


def test_breakdown_linear_in_noise():
    rng = np.random.default_rng(1)
    asn = balanced_assignment([5, 7, 9])
    levels = rng.uniform(0.01, 0.3, size=(2, 3, 3))
    levels = (levels + levels.transpose(0, 2, 1)) / 2
    for l in range(2):
        np.fill_diagonal(levels[l], 0.0)
    w = LayerWeights((0.4, 0.6))
    assert breakdown_matrix(asn, 2.0 * levels, w) == pytest.approx(
        2.0 * breakdown_matrix(asn, levels, w)
    )


def test_breakdown_entry_formula_direct():
    # hand-evaluate both entry kinds on an asymmetric 3-cluster instance
    asn = balanced_assignment([2, 3, 4])
    levels = np.zeros((1, 3, 3))
    pairs = {(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.4}
    for (i, j), t in pairs.items():
        levels[0, i, j] = levels[0, j, i] = t
    M = breakdown_matrix(asn, levels, LayerWeights.uniform(1))
    # M[0,0] = (n_0 + n_2) t_02 + n_1 t_01 ; M[0,1] = n_0 (t_02 - t_01)
    assert M[0, 0] == pytest.approx((2 + 4) * 0.2 + 3 * 0.1)
    assert M[0, 1] == pytest.approx(2 * (0.2 - 0.1))
    assert M[1, 0] == pytest.approx(3 * (0.4 - 0.1))
    assert M[1, 1] == pytest.approx((3 + 4) * 0.4 + 2 * 0.1)


def test_breakdown_single_layer_reduction():
    rng = np.random.default_rng(2)
    asn = balanced_assignment([5, 6, 7])
    levels = rng.uniform(0.05, 0.3, size=(1, 3, 3))
    levels = (levels + levels.transpose(0, 2, 1)) / 2
    np.fill_diagonal(levels[0], 0.0)
    # duplicating the single layer across two layers with any convex weight
    # reproduces the single-layer matrix
    two_layer = np.repeat(levels, 2, axis=0)
    M1 = breakdown_matrix(asn, levels, LayerWeights.uniform(1))
    M2 = breakdown_matrix(asn, two_layer, LayerWeights((0.3, 0.7)))
    assert M2 == pytest.approx(M1)


def test_breakdown_condition_tolerance_contract():
    g = two_cliques_graph(5, bridge=0.1)  # connected, so lambda_2 > 0
    asn = balanced_assignment([5, 5])
    w = LayerWeights.uniform(1)
    agg = aggregate(g, w)
    lam2 = np.linalg.eigvalsh(agg.laplacian_dense())[1] / g.n

    def levels_for(t):
        # K=2: the breakdown matrix is 1x1 with value n*t, so its single
        # normalized eigenvalue is exactly t
        levels = np.zeros((1, 2, 2))
        levels[0, 0, 1] = levels[0, 1, 0] = t
        return levels

    # identical spectra by construction: breakdown eigenvalue == lambda_2/n
    coincide = breakdown_matrix(asn, levels_for(lam2), w)
    assert not breakdown_condition_holds(coincide, g, asn, w)

    # far above the Laplacian spectrum
    far = breakdown_matrix(asn, levels_for(100.0), w)
    assert breakdown_condition_holds(far, g, asn, w)

    # half-tolerance separation still counts as equality ...
    half_tol = breakdown_matrix(asn, levels_for(lam2 + 0.5e-6), w)
    assert not breakdown_condition_holds(half_tol, g, asn, w)

    # ... while a clearly-resolved separation does not
    resolved = breakdown_matrix(asn, levels_for(lam2 + 1e-4), w)
    assert breakdown_condition_holds(resolved, g, asn, w)


# --------------------------------------------------- predicted partial sum


def test_predicted_sum_zero_noise():
    g = two_cliques_graph(5)
    bounds = critical_bounds(g, balanced_assignment([5, 5]), LayerWeights.uniform(1))
    lo, hi = predicted_partial_sum(0.0, bounds)
    assert lo == 0.0 and hi == 0.0


def test_predicted_sum_below_threshold_slope():
    g = two_cliques_graph(5)
    bounds = critical_bounds(g, balanced_assignment([5, 5]), LayerWeights.uniform(1))
    t = 0.5 * bounds.t_lb
    lo, hi = predicted_partial_sum(t, bounds)
    assert lo == pytest.approx((bounds.K - 1) * t)
    assert hi == pytest.approx((bounds.K - 1) * t)


def test_predicted_sum_above_threshold_equal_sizes_slope():
    g = two_cliques_graph(5)
    bounds = critical_bounds(g, balanced_assignment([5, 5]), LayerWeights.uniform(1))
    K = bounds.K
    t = 2.0 * bounds.t_ub
    lo, hi = predicted_partial_sum(t, bounds)
    expected = bounds.c_star + ((K - 1) ** 2 / K) * t
    assert lo == pytest.approx(expected, rel=1e-12)
    assert hi == pytest.approx(expected, rel=1e-12)


def test_predicted_sum_continuous_at_threshold_equal_sizes():
    g = two_cliques_graph(5)
    bounds = critical_bounds(g, balanced_assignment([5, 5]), LayerWeights.uniform(1))
    t_star = bounds.t_lb  # equal sizes: t_lb == t_ub == threshold
    below = predicted_partial_sum(t_star, bounds)
    above = bounds.c_star + (bounds.K - 1) * (1 - bounds.n_max / bounds.n) * t_star
    assert below[0] == pytest.approx(above, abs=1e-9)


@given(t=st.floats(0.0, 5.0), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_predicted_interval_ordered(t, seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(5, 15, size=3))
    params = GeneralRimParams(
        cluster_sizes=sizes, n_layers=1,
        within_probs=np.full((1, 3), 0.8), noise_probs=0.1, seed=seed,
    )
    graph, truth = generate_rim(params)
    bounds = critical_bounds(graph, truth, LayerWeights.uniform(1))
    lo, hi = predicted_partial_sum(t, bounds)
    assert lo <= hi + 1e-12


# -------------------------------------------------------- critical weight


def test_critical_weight_symmetric_layers_degenerate():
    # identical layers sitting exactly at criticality: (2/3)*0.3 == 0.2,
    # so the crossing equation is 0 == 0 for every w1
    sol = critical_weight_w1(0.3, 0.3, 0.2, 0.2, 3)
    assert sol.value is None
    assert sol.degenerate


def test_critical_weight_symmetric_but_off_critical_has_no_crossing():
    # identical layers away from criticality: both sides constant, unequal
    sol = critical_weight_w1(0.3, 0.3, 0.25, 0.25, 3)
    assert sol.value is None
    assert not sol.degenerate


def test_critical_weight_clean_plus_noisy_layer_has_interior_crossing():
    # one clean layer (noise 0.2) against one noisy layer (0.5): the
    # crossing falls strictly inside the simplex
    sol = critical_weight_w1(0.2, 0.5, 0.2534, 0.1940, 3)
    assert sol.value is not None
    assert 0.0 < sol.value < 1.0
    assert not sol.degenerate
    # the solution satisfies the balance equation
    w1 = sol.value
    lhs = (2 / 3) * (w1 * 0.2 + (1 - w1) * 0.5)
    rhs = w1 * 0.2534 + (1 - w1) * 0.1940
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_critical_weight_out_of_range_returns_none():
    # coefficients chosen so the root is 1.7: a(w-1.7)=0 with a = 1
    # equation a*w1 + b = 0 with a = 1, b = -1.7 in the reduced form:
    # ((K-1)/K)(p1-p2) - (s1-s2) = 1 and ((K-1)/K) p2 - s2 = -1.7
    K = 2
    p2, s2 = 0.4, 0.4 * (K - 1) / K + 1.7
    p1 = p2 + 2.0
    s1 = ((K - 1) / K) * (p1 - p2) - 1.0 + s2
    sol = critical_weight_w1(p1, p2, s1, s2, K)
    assert sol.value is None
    assert not sol.degenerate


# ------------------------------------------------- eigenvalue bounds check


def test_eigenvalue_bounds_identical_noise_concentrates():
    t = 0.08
    params = GeneralRimParams(
        cluster_sizes=(100, 100, 100), n_layers=2,
        within_probs=np.full((2, 3), 0.5), noise_probs=t, seed=3,
    )
    graph, truth = generate_rim(params)
    w = LayerWeights.uniform(2)
    emb = smallest_eigenpairs(aggregate(graph, w), 3, rng=np.random.default_rng(0))
    # 3 standard errors of the pooled noise-probability estimate over the
    # L * sum_{i<j} n_i n_j = 60000 between-cluster node pairs
    slack = 3 * np.sqrt(t * (1 - t) / 60000)
    assert eigenvalue_bounds_check(emb, t, t, slack=slack)
    assert not eigenvalue_bounds_check(emb, 10 * t, 20 * t, slack=0.0)


def test_eigenvalue_bounds_two_level_noise():
    levels = np.zeros((1, 3, 3))
    levels[0, 0, 1] = levels[0, 1, 0] = 0.1
    levels[0, 0, 2] = levels[0, 2, 0] = 0.2
    levels[0, 1, 2] = levels[0, 2, 1] = 0.2
    params = GeneralRimParams(
        cluster_sizes=(300, 300, 300), n_layers=1,
        within_probs=np.full((1, 3), 0.6), noise_probs=levels, seed=6,
    )
    graph, truth = generate_rim(params)
    emb = smallest_eigenpairs(
        aggregate(graph, LayerWeights.uniform(1)), 3, rng=np.random.default_rng(0)
    )
    slack = 3 * np.sqrt(0.2 * 0.8 / (300 * 300))
    assert eigenvalue_bounds_check(emb, 0.1, 0.2, slack=slack)
    # a bracket that excludes lambda_2/n (measured near 0.13) fails
    assert not eigenvalue_bounds_check(emb, 0.15, 0.2, slack=slack)


def test_eigenvalue_bounds_k2_single_pair():
    t = 0.1
    params = GeneralRimParams(
        cluster_sizes=(150, 150), n_layers=1,
        within_probs=np.full((1, 2), 0.6), noise_probs=t, seed=7,
    )
    graph, truth = generate_rim(params)
    emb = smallest_eigenpairs(
        aggregate(graph, LayerWeights.uniform(1)), 2, rng=np.random.default_rng(0)
    )
    slack = 3 * np.sqrt(t * (1 - t) / (150 * 150))
    assert eigenvalue_bounds_check(emb, t, t, slack=slack)


# ------------------------------------------------------ perturbation bound


def test_perturbation_bound_frobenius_and_delta():
    g1 = two_cliques_graph(5)
    mat = g1.layers[0].toarray().copy()
    mat[0, 9] = mat[9, 0] = 1.0  # add one cross edge
    g2 = dense_graph(g1.node_ids, mat)
    w = LayerWeights.uniform(1)
    a1, a2 = aggregate(g1, w), aggregate(g2, w)
    lap_diff = a1.laplacian_dense() - a2.laplacian_dense()
    frob = float(np.linalg.norm(lap_diff))
    t_w, lam_k1 = 0.05, 3.0
    delta = min(t_w, abs(lam_k1 / g1.n - t_w))
    bound = subspace_perturbation_bound(a1, a2, t_w, lam_k1)
    assert bound == pytest.approx(frob / (g1.n * delta), rel=1e-12)


def test_perturbation_bound_degenerate_delta_is_infinite():
    g = two_cliques_graph(4)
    agg = aggregate(g, LayerWeights.uniform(1))
    assert subspace_perturbation_bound(agg, agg, 0.0, 1.0) == np.inf
