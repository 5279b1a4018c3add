"""Synthetic generators (correlated two-layer, general block-noise) and detectability."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from mlsgc import (
    ClusterAssignment,
    GeneralRimParams,
    LayerWeights,
    TwoLayerCorrelatedParams,
    detectability,
    estimate_noise,
    generate_rim,
    generate_two_layer,
)

from .conftest import balanced_assignment


def layer_dense(graph, layer):
    return graph.layers[layer].toarray()


# ---------------------------------------------------- two-layer generator


def test_q11_one_gives_identical_within_cliques():
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(4, 5), q11=1.0, q10=0.0, q01=0.0, q00=0.0,
        p1=0.0, p2=0.0, seed=0,
    )
    graph, truth = generate_two_layer(params)
    m1, m2 = layer_dense(graph, 0), layer_dense(graph, 1)
    assert np.array_equal(m1, m2)
    # block-diagonal cliques
    expected = np.zeros((9, 9))
    expected[:4, :4] = 1.0 - np.eye(4)
    expected[4:, 4:] = 1.0 - np.eye(5)
    assert np.array_equal(m1, expected)
    assert truth.sizes.tolist() == [4, 5]


def test_within_density_matches_marginals():
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(1000, 1000, 1000), q11=0.3, q10=0.2, q01=0.1, q00=0.4,
        p1=0.05, p2=0.05, seed=1,
    )
    graph, truth = generate_two_layer(params)
    pairs = 3 * (1000 * 999) // 2
    for layer, marginal in ((0, 0.3 + 0.2), (1, 0.3 + 0.1)):
        mat = graph.layers[layer].tocsr()
        within_edges = 0
        for k in range(3):
            idx = truth.members(k)
            within_edges += mat[np.ix_(idx, idx)].nnz // 2
        density = within_edges / pairs
        sigma = np.sqrt(marginal * (1 - marginal) / pairs)
        assert abs(density - marginal) <= 3 * sigma


def test_layers_share_within_edges_at_rate_q11():
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(500, 500), q11=0.25, q10=0.25, q01=0.25, q00=0.25,
        p1=0.0, p2=0.0, seed=2,
    )
    graph, truth = generate_two_layer(params)
    m1, m2 = layer_dense(graph, 0), layer_dense(graph, 1)
    pairs = 2 * (500 * 499) // 2
    both = np.sum((m1 > 0) & (m2 > 0)) / 2
    sigma = np.sqrt(0.25 * 0.75 / pairs)
    assert abs(both / pairs - 0.25) <= 3 * sigma


def test_zero_noise_means_no_between_edges():
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(50, 60), q11=0.2, q10=0.3, q01=0.3, q00=0.2,
        p1=0.0, p2=0.0, seed=3,
    )
    graph, truth = generate_two_layer(params)
    for layer in range(2):
        mat = layer_dense(graph, layer)
        assert np.all(mat[:50, 50:] == 0.0)


def test_between_edges_respect_per_layer_rates():
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(400, 400), q11=0.5, q10=0.0, q01=0.0, q00=0.5,
        p1=0.02, p2=0.3, seed=4,
    )
    graph, truth = generate_two_layer(params)
    pairs = 400 * 400
    for layer, p in ((0, 0.02), (1, 0.3)):
        count = np.sum(layer_dense(graph, layer)[:400, 400:] > 0)
        sigma = np.sqrt(p * (1 - p) / pairs)
        assert abs(count / pairs - p) <= 3 * sigma


def test_two_layer_params_validation():
    with pytest.raises(ValueError):
        TwoLayerCorrelatedParams(
            cluster_sizes=(5, 5), q11=0.5, q10=0.5, q01=0.5, q00=0.5,
            p1=0.1, p2=0.1,
        )
    with pytest.raises(ValueError):
        TwoLayerCorrelatedParams(
            cluster_sizes=(5, 5), q11=1.0, q10=0.0, q01=0.0, q00=0.0,
            p1=1.5, p2=0.1,
        )
    with pytest.raises(ValueError):
        TwoLayerCorrelatedParams(
            cluster_sizes=(5, 5), q11=1.2, q10=-0.2, q01=0.0, q00=0.0,
            p1=0.1, p2=0.1,
        )



@pytest.mark.parametrize("field", ["q11", "q10", "q01", "q00", "p1", "p2"])
def test_two_layer_params_reject_nan(field):
    # nan passed both `q < 0` and `abs(sum - 1) > 1e-12`, and the generator
    # then drew a graph with no within-cluster edges
    params = dict(cluster_sizes=(5, 5), q11=0.3, q10=0.2, q01=0.1, q00=0.4, p1=0.1, p2=0.1)
    params[field] = float("nan")
    with pytest.raises(ValueError, match=r"must (be in \[0, 1\]|sum to 1)"):
        TwoLayerCorrelatedParams(**params)


def test_node_pair_budget_is_checked_before_allocation():
    base = dict(q11=0.3, q10=0.2, q01=0.1, q00=0.4, p1=0.1, p2=0.1)
    # 8192 nodes are 33_550_336 pairs, within the 2**25 budget
    assert TwoLayerCorrelatedParams(cluster_sizes=(4096, 4096), **base).n == 8192
    with pytest.raises(ValueError, match="8193 nodes"):
        TwoLayerCorrelatedParams(cluster_sizes=(4096, 4097), **base)
    with pytest.raises(ValueError, match="10000000000 nodes"):
        GeneralRimParams(cluster_sizes=(10**10,), n_layers=1,
                         within_probs=np.full((1, 1), 0.5), noise_probs=0.1)

def test_two_layer_seed_reproducibility():
    params = dict(
        cluster_sizes=(30, 40), q11=0.2, q10=0.3, q01=0.1, q00=0.4,
        p1=0.1, p2=0.2,
    )
    g1, _ = generate_two_layer(TwoLayerCorrelatedParams(**params, seed=11))
    g2, _ = generate_two_layer(TwoLayerCorrelatedParams(**params, seed=11))
    g3, _ = generate_two_layer(TwoLayerCorrelatedParams(**params, seed=12))
    for layer in range(2):
        assert np.array_equal(layer_dense(g1, layer), layer_dense(g2, layer))
    assert any(
        not np.array_equal(layer_dense(g1, layer), layer_dense(g3, layer))
        for layer in range(2)
    )


# ------------------------------------------------------ general generator


def test_rim_identical_noise_estimator_round_trip():
    params = GeneralRimParams(
        cluster_sizes=(200, 200, 200), n_layers=2,
        within_probs=np.full((2, 3), 0.6),
        noise_probs=(0.10, 0.25), seed=5,
    )
    graph, truth = generate_rim(params)
    est = estimate_noise(graph, truth)
    pairs = 3 * 200 * 200
    for layer, p in ((0, 0.10), (1, 0.25)):
        sigma = np.sqrt(p * (1 - p) / pairs)
        assert abs(est.p_hat_layer[layer] - p) <= 3 * sigma


def test_rim_constant_weight_mean_exact():
    params = GeneralRimParams(
        cluster_sizes=(60, 60), n_layers=1,
        within_probs=np.full((1, 2), 0.7),
        noise_probs=0.2, noise_weight_means=2.0, seed=6,
    )
    graph, truth = generate_rim(params)
    est = estimate_noise(graph, truth)
    assert est.w_bar_layer[0] == pytest.approx(2.0)
    between = layer_dense(graph, 0)[:60, 60:]
    values = between[between > 0]
    assert values.size > 0
    assert np.all(values == 2.0)


def test_rim_uniform_weights_match_mean():
    params = GeneralRimParams(
        cluster_sizes=(150, 150), n_layers=1,
        within_probs=np.full((1, 2), 0.7),
        noise_probs=0.3, noise_weight_means=1.5,
        weight_distribution="uniform", seed=7,
    )
    graph, truth = generate_rim(params)
    between = layer_dense(graph, 0)[:150, 150:]
    values = between[between > 0]
    assert np.all((values > 0) & (values < 3.0))
    # mean of U(0, 3) is 1.5 with sd 3/sqrt(12)
    se = (3.0 / np.sqrt(12)) / np.sqrt(values.size)
    assert abs(values.mean() - 1.5) <= 3 * se


def test_rim_per_pair_noise_levels():
    levels = np.zeros((1, 3, 3))
    levels[0, 0, 1] = levels[0, 1, 0] = 0.05
    levels[0, 0, 2] = levels[0, 2, 0] = 0.30
    levels[0, 1, 2] = levels[0, 2, 1] = 0.30
    params = GeneralRimParams(
        cluster_sizes=(200, 200, 200), n_layers=1,
        within_probs=np.full((1, 3), 0.6), noise_probs=levels, seed=8,
    )
    graph, truth = generate_rim(params)
    est = estimate_noise(graph, truth)
    pairs = 200 * 200
    for (i, j), p in (((0, 1), 0.05), ((0, 2), 0.30), ((1, 2), 0.30)):
        pair_index = est.pairs.index((i, j))
        sigma = np.sqrt(p * (1 - p) / pairs)
        assert abs(est.p_hat[0, pair_index] - p) <= 3 * sigma


def test_rim_within_graphs_reused_verbatim():
    rng = np.random.default_rng(9)
    blocks = []
    for size in (6, 7):
        m = np.triu((rng.random((size, size)) < 0.5).astype(float), k=1)
        blocks.append(m + m.T)
    params = GeneralRimParams(
        cluster_sizes=(6, 7), n_layers=1,
        within_graphs=((blocks[0], blocks[1]),),
        noise_probs=0.0, seed=10,
    )
    graph, truth = generate_rim(params)
    mat = layer_dense(graph, 0)
    assert np.array_equal(mat[:6, :6], blocks[0])
    assert np.array_equal(mat[6:, 6:], blocks[1])
    assert np.all(mat[:6, 6:] == 0.0)


def _ring(size, weight=1.0):
    """The dense weight matrix of a cycle on ``size`` nodes."""
    mat = np.zeros((size, size))
    for a in range(size):
        b = (a + 1) % size
        mat[a, b] = mat[b, a] = weight
    return mat


@pytest.mark.parametrize("block, message", [
    (_ring(5), r"within_graphs\[0\]\[1\]: expected shape \(3, 3\) for a cluster of 3 nodes, got \(5, 5\)"),
    (_ring(2), r"within_graphs\[0\]\[1\]: expected shape \(3, 3\) for a cluster of 3 nodes, got \(2, 2\)"),
    (np.triu(_ring(3)), r"within_graphs\[0\]\[1\]: weight matrix must be exactly symmetric"),
    (_ring(3, -1.0), r"within_graphs\[0\]\[1\]: weights must be finite and nonnegative"),
    (_ring(3, np.nan), r"within_graphs\[0\]\[1\]: weights must be finite and nonnegative"),
    (_ring(3, np.inf), r"within_graphs\[0\]\[1\]: weights must be finite and nonnegative"),
], ids=["too-large", "too-small", "asymmetric", "negative", "nan", "inf"])
def test_rim_rejects_a_within_block_that_does_not_fit_its_cluster(block, message):
    # a too-large block used to spill edges into the next cluster, a too-small
    # one left nodes without within-cluster edges, and an asymmetric one was
    # read from its upper triangle; a weight that is negative, nan or
    # infinite is named as such, before the symmetry check
    with pytest.raises(ValueError, match=message):
        GeneralRimParams(cluster_sizes=(4, 3, 5), n_layers=1,
                         within_graphs=((_ring(4), block, _ring(5)),), noise_probs=0.2)


@pytest.mark.parametrize("fmt", ["csr", "coo", "lil"])
def test_rim_sparse_within_blocks_give_the_dense_copies_graph(fmt):
    rng = np.random.default_rng(12)
    dense = []
    for size in (6, 9):
        m = np.triu(rng.random((size, size)) * (rng.random((size, size)) < 0.5), k=1)
        dense.append(m + m.T)
    # an explicit zero and a split duplicate must read as the dense entries
    coo = sparse.coo_array(dense[1])
    split = sparse.coo_array((np.concatenate((coo.data / 2, coo.data / 2, [0.0, 0.0])),
                              (np.concatenate((coo.row, coo.row, [0, 1])), np.concatenate((coo.col, coo.col, [1, 0])))),
                             shape=coo.shape)
    blocks = [sparse.csr_array(dense[0]).asformat(fmt), split.asformat(fmt)]
    kwargs = dict(cluster_sizes=(6, 9), n_layers=2, noise_probs=0.3, weight_distribution="uniform", seed=4)
    from_dense, _ = generate_rim(GeneralRimParams(within_graphs=(dense, dense), **kwargs))
    from_sparse, _ = generate_rim(GeneralRimParams(within_graphs=(blocks, blocks), **kwargs))
    assert from_sparse == from_dense


def test_rim_reads_a_sparse_within_block_without_densifying_it():
    # the block used to go through toarray(): 72 MiB for 3000 nodes
    size = 3000
    path = sparse.diags_array([np.ones(size - 1), np.ones(size - 1)], offsets=[-1, 1], format="csr")
    tracemalloc.start()
    try:
        graph, _ = generate_rim(GeneralRimParams(cluster_sizes=(size,), n_layers=1, within_graphs=((path,),)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert graph.layers[0].nnz == 2 * (size - 1)


def test_rim_seed_reproducibility():
    kwargs = dict(
        cluster_sizes=(40, 50), n_layers=2,
        within_probs=np.full((2, 2), 0.5), noise_probs=0.15,
    )
    g1, _ = generate_rim(GeneralRimParams(**kwargs, seed=21))
    g2, _ = generate_rim(GeneralRimParams(**kwargs, seed=21))
    g3, _ = generate_rim(GeneralRimParams(**kwargs, seed=22))
    for layer in range(2):
        assert np.array_equal(layer_dense(g1, layer), layer_dense(g2, layer))
    assert any(
        not np.array_equal(layer_dense(g1, layer), layer_dense(g3, layer))
        for layer in range(2)
    )


def test_rim_validation():
    with pytest.raises(ValueError):
        GeneralRimParams(cluster_sizes=(10, 10), n_layers=1,
                         within_probs=np.full((1, 2), 1.2), noise_probs=0.1)
    with pytest.raises(ValueError):
        GeneralRimParams(cluster_sizes=(10, 10), n_layers=1,
                         within_probs=np.full((1, 2), 0.5),
                         noise_probs=0.1, noise_weight_means=0.0)
    with pytest.raises(ValueError):
        GeneralRimParams(cluster_sizes=(10, 10), n_layers=1, noise_probs=0.1)
    with pytest.raises(ValueError):
        GeneralRimParams(cluster_sizes=(10, 10), n_layers=1,
                         within_probs=np.full((1, 2), 0.5),
                         within_graphs=((np.zeros((10, 10)),) * 2,),
                         noise_probs=0.1)
    with pytest.raises(ValueError):
        GeneralRimParams(cluster_sizes=(10, 10), n_layers=2,
                         within_probs=np.full((1, 2), 0.5), noise_probs=0.1)



@pytest.mark.parametrize("spec", [
    dict(within_probs=np.array([[0.5, np.nan]]), noise_probs=0.1),
    dict(within_probs=np.full((1, 2), 0.5), noise_probs=np.nan),
    dict(within_probs=np.full((1, 2), 0.5), noise_probs=0.1, noise_weight_means=np.nan),
    dict(within_probs=np.full((1, 2), 0.5), noise_probs=0.1, noise_weight_means=np.inf),
], ids=["within-nan", "noise-nan", "mean-nan", "mean-inf"])
def test_rim_params_reject_non_finite(spec):
    with pytest.raises(ValueError):
        GeneralRimParams(cluster_sizes=(10, 10), n_layers=1, **spec)


def test_rim_params_reject_a_uniform_mean_whose_double_overflows():
    # rng.uniform(0, 2 * mean) raised OverflowError while sampling
    spec = dict(cluster_sizes=(3, 3), n_layers=1, within_probs=np.full((1, 2), 0.5), noise_probs=0.1)
    with pytest.raises(ValueError, match="noise_weight_means must be positive and at most 8.988465674311579e"):
        GeneralRimParams(**spec, noise_weight_means=1e308, weight_distribution="uniform")
    # the largest mean whose double is finite, a constant weight, and an unsampled block all pass
    graph, _ = generate_rim(GeneralRimParams(**spec, noise_weight_means=8.988465674311579e307,
                                             weight_distribution="uniform"))
    assert np.all(np.isfinite(graph.layers[0].data))
    GeneralRimParams(**spec, noise_weight_means=1e308)
    GeneralRimParams(**{**spec, "noise_probs": 0.0}, noise_weight_means=1e308, weight_distribution="uniform")


def test_rim_compact_noise_specs_read_as_their_dense_expansion():
    # scalar and per-layer specs stay compact; every block reads the value a
    # dense (L, K, K) expansion holds, and a full array reads back verbatim
    full = np.array([[[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.9]]] * 2)
    for probs, means in ((0.1, 2.0), ((0.1, 0.4), (1.5, 3.0)), (full, 0.5), ((0.2, 0.3), full + 1.0)):
        params = GeneralRimParams(cluster_sizes=(4, 5, 6), n_layers=2, within_probs=np.full((2, 3), 0.5),
                                  noise_probs=probs, noise_weight_means=means)
        dense = [np.asarray(v, dtype=float) for v in (probs, means)]
        dense = [np.broadcast_to(v if v.ndim == 3 else (v * np.ones(2)).reshape(2, 1, 1), (2, 3, 3)) for v in dense]
        for layer, i, j in itertools.product(range(2), range(3), range(3)):
            assert params.noise_prob(layer, i, j) == dense[0][layer, i, j]
            assert params.noise_weight_mean(layer, i, j) == dense[1][layer, i, j]
        expected = dense[0] * dense[1]
        expected[:, [0, 1, 2], [0, 1, 2]] = 0.0
        assert np.array_equal(params.noise_level_matrix(), expected)
    # a bad mean counts only where a between-cluster block is sampled
    with pytest.raises(ValueError, match="positive and finite"):
        GeneralRimParams(cluster_sizes=(4, 5), n_layers=2, within_probs=np.full((2, 2), 0.5),
                         noise_probs=(0.0, 0.1), noise_weight_means=(1.0, -1.0))
    GeneralRimParams(cluster_sizes=(4, 5), n_layers=2, within_probs=np.full((2, 2), 0.5),
                     noise_probs=(0.0, 0.1), noise_weight_means=(-1.0, 1.0))
    GeneralRimParams(cluster_sizes=(9,), n_layers=1, within_probs=np.full((1, 1), 0.5),
                     noise_probs=0.1, noise_weight_means=0.0)
    with pytest.raises(ValueError, match="symmetric"):
        GeneralRimParams(cluster_sizes=(4, 5, 6), n_layers=2, within_probs=np.full((2, 3), 0.5),
                         noise_probs=full + np.triu(np.ones((3, 3)), k=1) * 0.01)


def test_rim_params_allocate_no_per_block_arrays_for_compact_specs():
    # scalar and per-layer specs used to be expanded to dense (L, K, K)
    # arrays before sampling: a 41 MiB peak at K = 1000, L = 2
    tracemalloc.start()
    try:
        params = GeneralRimParams(cluster_sizes=(1,) * 1000, n_layers=2, within_probs=np.zeros((2, 1000)),
                                  noise_probs=(0.1, 0.2), noise_weight_means=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert params.noise_level(1, 998, 999) == 0.2 * 2.0

@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_generated_graphs_satisfy_invariants(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(3, 10, size=int(rng.integers(2, 4))))
    K = len(sizes)
    L = int(rng.integers(1, 4))
    params = GeneralRimParams(
        cluster_sizes=sizes, n_layers=L,
        within_probs=rng.uniform(0.0, 1.0, size=(L, K)),
        noise_probs=tuple(float(p) for p in rng.uniform(0.0, 1.0, size=L)),
        noise_weight_means=float(rng.uniform(0.5, 2.0)),
        weight_distribution=("constant", "uniform")[int(rng.integers(2))],
        seed=seed,
    )
    graph, truth = generate_rim(params)
    assert graph.n == sum(sizes)
    assert graph.L == L
    assert truth.n == graph.n
    for layer in range(L):
        mat = graph.layers[layer].toarray()
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)
        assert np.all(mat >= 0.0)


# ---------------------------------------------------------- detectability


def test_detectability_identical_partitions():
    truth = balanced_assignment([7, 5, 8])
    assert detectability(truth, truth) == 1.0


def test_detectability_is_relabel_invariant():
    rng = np.random.default_rng(0)
    truth = ClusterAssignment(rng.integers(0, 4, size=60))
    found = ClusterAssignment(rng.integers(0, 4, size=60))
    base = detectability(found, truth)
    perm = np.array([2, 0, 3, 1])
    relabeled = ClusterAssignment(perm[found.labels])
    assert detectability(relabeled, truth) == pytest.approx(base)
    relabeled_truth = ClusterAssignment(perm[truth.labels])
    assert detectability(found, relabeled_truth) == pytest.approx(base)


def test_detectability_random_labels_near_one_third():
    rng = np.random.default_rng(1)
    truth = balanced_assignment([1000, 1000, 1000])
    found = ClusterAssignment(rng.integers(0, 3, size=3000))
    value = detectability(found, truth)
    assert value == pytest.approx(1 / 3, abs=0.03)


def test_detectability_matches_brute_force_enumeration():
    rng = np.random.default_rng(2)
    for trial in range(100):
        K = int(rng.integers(2, 6))
        labels_t = rng.integers(0, K, size=20)
        labels_f = rng.integers(0, K, size=20)
        # force every label to appear so K matches the intended value
        labels_t[:K] = np.arange(K)
        labels_f[:K] = np.arange(K)
        truth = ClusterAssignment(labels_t)
        found = ClusterAssignment(labels_f)
        best = 0
        for perm in itertools.permutations(range(K)):
            mapped = np.array(perm)[labels_f]
            best = max(best, int(np.sum(mapped == labels_t)))
        assert detectability(found, truth) == pytest.approx(best / 20)


def test_detectability_handles_differing_cluster_counts():
    truth = balanced_assignment([10, 10])
    found = ClusterAssignment(np.repeat([0, 1, 2, 3], 5))
    # best matching pairs two found clusters with the two true ones: 10/20
    assert detectability(found, truth) == pytest.approx(0.5)
    assert detectability(truth, found) == pytest.approx(0.5)


def test_detectability_one_only_when_partitions_coincide():
    truth = balanced_assignment([5, 5])
    labels = truth.labels.copy()
    labels[0] = 1
    found = ClusterAssignment(labels)
    assert detectability(found, truth) < 1.0


def test_detectability_requires_matching_length():
    with pytest.raises(ValueError):
        detectability(balanced_assignment([3, 3]), balanced_assignment([3, 4]))
