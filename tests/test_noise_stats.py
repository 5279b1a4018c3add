"""Noise estimators and the three reliability tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from mlsgc import (
    ClusterAssignment,
    GeneralRimParams,
    TwoLayerCorrelatedParams,
    anscombe_nonidentical_test,
    chi_square_quantile,
    estimate_noise,
    generate_rim,
    generate_two_layer,
    glrt_identical_noise,
    normal_cdf,
    vtest_homogeneity,
)

from .conftest import adjacency_from_edges, balanced_assignment, dense_graph, ids, random_multilayer


def block_graph(between, sizes, within_value=0.0):
    """Two-cluster single-layer graph with an explicit between-cluster block."""
    n1, n2 = sizes
    n = n1 + n2
    mat = np.zeros((n, n))
    mat[:n1, n1:] = between
    mat[n1:, :n1] = np.asarray(between).T
    return dense_graph(ids(n), mat)


# -------------------------------------------------------------- estimators


def test_estimate_keeps_a_finite_pair_sum_next_to_an_overflowing_block():
    # cluster 1's own weights overflow; the one edge between the clusters
    # weighs 1.0, and the dense product used to read that sum as 0 * inf = nan
    g = dense_graph(ids(6), adjacency_from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 4, 1e308), (3, 5, 1e308)]))
    est = estimate_noise(g, balanced_assignment([3, 3]))
    assert est.weight_sum.tolist() == [[1.0]]
    assert est.m.tolist() == [[1.0]]


def test_estimate_names_the_pair_whose_weight_sum_overflows():
    # clusters 0 and 1 are joined by two 1e308 edges; 0 and 2 by one of weight 1.0
    edges = [(0, 3, 1.0), (1, 4, 1e308), (2, 5, 1e308), (0, 6, 1.0)]
    g = dense_graph(ids(7), adjacency_from_edges(7, edges))
    with pytest.raises(ValueError, match=r"^layer 0: edge weight between clusters 0 and 1 sums to infinity"):
        estimate_noise(g, balanced_assignment([3, 3, 1]))


def test_phat_is_count_ratio():
    between = np.zeros((2, 3))
    between[0, 0] = 1.0
    between[1, 2] = 1.0
    g = block_graph(between, (2, 3))
    est = estimate_noise(g, balanced_assignment([2, 3]))
    assert est.p_hat[0, 0] == pytest.approx(2.0 / 6.0)
    assert est.m[0, 0] == 2
    assert est.w_bar[0, 0] == pytest.approx(1.0)
    assert est.t_hat_pair[0, 0] == pytest.approx(1.0 / 3.0)


def test_empty_block_defaults():
    g = block_graph(np.zeros((2, 3)), (2, 3))
    est = estimate_noise(g, balanced_assignment([2, 3]))
    assert est.p_hat[0, 0] == 0.0
    assert est.w_bar[0, 0] == 0.0
    assert est.t_hat_pair[0, 0] == 0.0
    assert est.t_hat_layer[0] == 0.0
    assert est.t_max_layer[0] == 0.0


def test_constant_weight_mean_recovered_exactly():
    between = np.full((2, 3), 2.0)
    g = block_graph(between, (2, 3))
    est = estimate_noise(g, balanced_assignment([2, 3]))
    assert est.w_bar[0, 0] == 2.0
    assert est.p_hat[0, 0] == 1.0
    assert est.t_hat_pair[0, 0] == 2.0


def test_pooled_phat_is_weighted_across_pairs():
    # 3 clusters of sizes (1, 1, 2): pairs (0,1): 1 pair, (0,2): 2, (1,2): 2
    mat = np.zeros((4, 4))
    mat[0, 1] = mat[1, 0] = 1.0  # pair (0,1): 1 of 1
    mat[1, 2] = mat[2, 1] = 1.0  # pair (1,2): 1 of 2
    g = dense_graph(ids(4), mat)
    est = estimate_noise(g, balanced_assignment([1, 1, 2]))
    assert est.p_hat_layer[0] == pytest.approx(2.0 / 5.0)


def test_phat_within_three_standard_errors_over_100_trials():
    p = 0.2
    n_i = n_j = 200
    total = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        between = (rng.random((n_i, n_j)) < p).astype(float)
        g = block_graph(between, (n_i, n_j))
        est = estimate_noise(g, balanced_assignment([n_i, n_j]))
        total += est.p_hat[0, 0]
    mean = total / 100
    se_of_mean = math.sqrt(p * (1 - p) / (n_i * n_j * 100))
    assert abs(mean - p) <= 3 * se_of_mean


def test_estimator_error_shrinks_at_standard_error_rate():
    p = 0.3

    def rms(size, trials=40):
        errs = []
        for trial in range(trials):
            rng = np.random.default_rng(5000 + trial)
            between = (rng.random((size, size)) < p).astype(float)
            g = block_graph(between, (size, size))
            est = estimate_noise(g, balanced_assignment([size, size]))
            errs.append(est.p_hat[0, 0] - p)
        return float(np.sqrt(np.mean(np.square(errs))))

    # standard error scales as 1/size: a 4x size ratio gives ~4x error ratio
    assert rms(50) > 2.0 * rms(200)


def test_estimate_noise_on_rim_generator_recovers_levels():
    params = GeneralRimParams(
        cluster_sizes=(80, 80, 80),
        n_layers=2,
        within_probs=np.full((2, 3), 0.5),
        noise_probs=np.array([0.10, 0.25]),
        seed=3,
    )
    graph, truth = generate_rim(params)
    est = estimate_noise(graph, truth)
    assert est.p_hat_layer[0] == pytest.approx(0.10, abs=3 * math.sqrt(0.1 * 0.9 / 19200))
    assert est.p_hat_layer[1] == pytest.approx(0.25, abs=3 * math.sqrt(0.25 * 0.75 / 19200))
    assert est.t_hat_layer == pytest.approx(est.p_hat_layer)  # unit weights


def test_row_counts_match_the_dense_oracle():
    rng = np.random.default_rng(21)
    g = random_multilayer(rng, 30, 3, density=0.3)
    asn = ClusterAssignment(rng.permutation(np.arange(30) % 4))
    est = estimate_noise(g, asn)
    onehot = np.eye(4)[asn.labels]
    assert est.row_counts.shape == (3, 30, 4)
    assert not est.row_counts.flags.writeable
    for layer, W in enumerate(g.layers):
        oracle = (W.toarray() > 0) @ onehot
        assert np.array_equal(est.row_counts[layer], oracle)
        # m is the row counts summed over each pair's rows
        for idx, (i, j) in enumerate(est.pairs):
            assert est.m[layer, idx] == oracle[asn.labels == i, j].sum()


def one_hot_tallies(graph, assignment):
    """``(m, weight_sum, row_counts)`` by one-hot products, as the estimate
    was once computed: ``H^T (W H)`` with a sparse ``H^T``, and ``A H`` from a
    0/1 copy of each layer."""
    K = assignment.K
    onehot = np.zeros((graph.n, K))
    onehot[np.arange(graph.n), assignment.labels] = 1.0
    members = sparse.csr_array(onehot.T)
    upper = np.triu_indices(K, 1)  # the canonical pair order
    m, weight_sum, row_counts = [], [], []
    for W in graph.layers:
        weight_sum.append((members @ (W @ onehot))[upper])
        A = W.copy()
        A.data = np.ones_like(A.data)
        row_counts.append(A @ onehot)
        m.append((onehot.T @ row_counts[-1])[upper])
    return np.array(m), np.array(weight_sum), np.array(row_counts)


def planted_graph():
    params = TwoLayerCorrelatedParams(cluster_sizes=(200, 200, 200), q11=0.8, q10=0.05, q01=0.05, q00=0.1,
                                      p1=0.25, p2=0.25, seed=100)
    return generate_two_layer(params)


def weighted_rim_graph():
    params = GeneralRimParams(cluster_sizes=(70, 70, 70), n_layers=3, within_probs=np.full((3, 3), 0.4),
                              noise_probs=np.array([0.05, 0.1, 0.2]), noise_weight_means=np.array([0.7, 1.3, 2.9]),
                              weight_distribution="uniform", seed=5)
    return generate_rim(params)


@pytest.mark.parametrize("make_graph", [planted_graph, weighted_rim_graph], ids=["unit", "weighted"])
@pytest.mark.parametrize("K", [None, 2, 5, 9, 17, 40], ids=lambda K: "truth" if K is None else f"K{K}")
def test_estimate_has_the_bytes_of_the_one_hot_products(make_graph, K):
    # bincount adds within a row in storage order, then across nodes in node
    # order: the order of the CSR-times-dense products it replaced
    graph, truth = make_graph()
    if K is not None:
        truth = ClusterAssignment(np.random.default_rng(K).permutation(np.arange(graph.n) % K))
    est = estimate_noise(graph, truth)
    m, weight_sum, row_counts = one_hot_tallies(graph, truth)
    for got, want in ((est.m, m), (est.weight_sum, weight_sum), (est.row_counts, row_counts)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ------------------------------------------------------------------ V-test


def test_vtest_null_draw_is_unrejected():
    rng = np.random.default_rng(8)
    block = (rng.random((100, 120)) < 0.3).astype(float)
    p = vtest_homogeneity(block, 100, 120)
    assert p > 1e-4  # typical null draw is not near-certainly rejected


def test_vtest_null_pvalues_roughly_uniform():
    hits = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        block = (rng.random((60, 60)) < 0.4).astype(float)
        if vtest_homogeneity(block, 60, 60) > 0.9:
            hits += 1
    # P(p > 0.9) = 0.10 under the null; 200 trials give CI well inside [2, 40]
    assert 2 <= hits <= 40


def test_vtest_all_rows_exactly_equal_is_underdispersed_rejection():
    # A block whose rows are all identical has V = 0: far too regular for
    # binomial sampling, so the two-sided dispersion test rejects it.
    block = np.zeros((100, 50))
    block[:, :25] = 1.0  # every row sum = 25, p-hat = 0.5
    p = vtest_homogeneity(block, 100, 50)
    assert p < 0.01


def test_vtest_mixture_rejected_hard():
    rng = np.random.default_rng(77)
    top = (rng.random((25, 50)) < 0.05).astype(float)
    bottom = (rng.random((25, 50)) < 0.5).astype(float)
    block = np.vstack([top, bottom])
    assert vtest_homogeneity(block, 50, 50) < 1e-5


def test_vtest_empty_block_pvalue_one():
    assert vtest_homogeneity(np.zeros((4, 5)), 4, 5) == 1.0


def test_vtest_full_block_pvalue_one():
    assert vtest_homogeneity(np.ones((4, 5)), 4, 5) == 1.0


def test_vtest_single_row_or_column_degenerate():
    assert vtest_homogeneity(np.array([[1.0, 0.0]]), 1, 2) == 1.0
    assert vtest_homogeneity(np.array([[1.0], [0.0]]), 2, 1) == 1.0


# -------------------------------------------------------------------- GLRT


def three_cluster_noise_graph(rng, n_k, p12, p13, p23):
    sizes = [n_k, n_k, n_k]
    n = 3 * n_k
    mat = np.zeros((n, n))
    spans = [(0, n_k), (n_k, 2 * n_k), (2 * n_k, 3 * n_k)]
    probs = {(0, 1): p12, (0, 2): p13, (1, 2): p23}
    for (i, j), p in probs.items():
        block = (rng.random((n_k, n_k)) < p).astype(float)
        mat[spans[i][0]:spans[i][1], spans[j][0]:spans[j][1]] = block
        mat[spans[j][0]:spans[j][1], spans[i][0]:spans[i][1]] = block.T
    return dense_graph(ids(n), mat), balanced_assignment(sizes)


def test_glrt_k2_always_accepts():
    rng = np.random.default_rng(0)
    block = (rng.random((30, 30)) < 0.3).astype(float)
    g = block_graph(block, (30, 30))
    res = glrt_identical_noise(estimate_noise(g, balanced_assignment([30, 30])), 0, alpha=0.05)
    assert res.accept
    assert res.dof == 0


def test_glrt_identical_noise_accepted_on_typical_draw():
    g, asn = three_cluster_noise_graph(np.random.default_rng(4), 100, 0.2, 0.2, 0.2)
    res = glrt_identical_noise(estimate_noise(g, asn), 0, alpha=0.01)
    assert res.accept
    assert res.dof == 2


def test_glrt_rejects_an_alpha_whose_complement_rounds_to_one():
    est = estimate_noise(*three_cluster_noise_graph(np.random.default_rng(4), 20, 0.2, 0.2, 0.2))
    with pytest.raises(ValueError, match=r"^alpha level 1e-17 is too small: 1 - alpha rounds to 1\.0$"):
        glrt_identical_noise(est, 0, alpha=1e-17)
    assert glrt_identical_noise(est, 0, alpha=1e-16).threshold > glrt_identical_noise(est, 0, alpha=0.05).threshold


def test_glrt_heterogeneous_noise_rejected():
    rejections = 0
    for trial in range(5):
        g, asn = three_cluster_noise_graph(
            np.random.default_rng(100 + trial), 100, 0.05, 0.4, 0.4
        )
        res = glrt_identical_noise(estimate_noise(g, asn), 0, alpha=0.05)
        rejections += not res.accept
    assert rejections == 5


def test_glrt_statistic_matches_direct_loglikelihood():
    g, asn = three_cluster_noise_graph(np.random.default_rng(9), 40, 0.1, 0.3, 0.2)
    est = estimate_noise(g, asn)
    res = glrt_identical_noise(est, 0, alpha=0.05)

    def loglik(m, total, p):
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return m * math.log(p) + (total - m) * math.log(1 - p)

    pairs = [(0, 1), (0, 2), (1, 2)]
    sizes = est.sizes
    ll_alt = ll_null = 0.0
    pooled = est.p_hat_layer[0]
    for idx, (i, j) in enumerate(pairs):
        total = sizes[i] * sizes[j]
        m = est.m[0, idx]
        ll_alt += loglik(m, total, est.p_hat[0, idx])
        ll_null += loglik(m, total, pooled)
    assert res.statistic == pytest.approx(2.0 * (ll_alt - ll_null), rel=1e-9)


# ---------------------------------------------------------------- Anscombe


def test_anscombe_zero_phat_indicator_accepts():
    g = block_graph(np.zeros((10, 10)), (10, 10))
    est = estimate_noise(g, balanced_assignment([10, 10]))
    res = anscombe_nonidentical_test(est, 0, t_lb_hat=0.5, alpha_prime=0.05)
    assert res.accept
    assert res.product == 1.0


def test_anscombe_zero_phat_indicator_rejects_when_tlb_zero():
    g = block_graph(np.zeros((10, 10)), (10, 10))
    est = estimate_noise(g, balanced_assignment([10, 10]))
    # indicator I{t-hat < t-LB} with t-hat = 0 and t-LB = 0 is false
    res = anscombe_nonidentical_test(est, 0, t_lb_hat=0.0, alpha_prime=0.05)
    assert not res.accept


def test_anscombe_large_margin_factors_near_one():
    rng = np.random.default_rng(15)
    block = (rng.random((100, 100)) < 0.05).astype(float)
    g = block_graph(block, (100, 100))
    est = estimate_noise(g, balanced_assignment([100, 100]))
    res = anscombe_nonidentical_test(est, 0, t_lb_hat=0.5, alpha_prime=0.05)
    assert res.accept
    assert all(f > 0.999 for f in res.factors)


def test_anscombe_pair_above_tlb_rejects():
    rng = np.random.default_rng(16)
    block = (rng.random((100, 100)) < 0.30).astype(float)
    g = block_graph(block, (100, 100))
    est = estimate_noise(g, balanced_assignment([100, 100]))
    t_hat = est.t_hat_pair[0, 0]
    res = anscombe_nonidentical_test(est, 0, t_lb_hat=t_hat * 0.98, alpha_prime=0.5)
    assert res.factors[0] < 0.5
    assert not res.accept


@given(seed=st.integers(0, 400), bump=st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None)
def test_anscombe_monotone_in_tlb(seed, bump):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.5)
    block = (rng.random((40, 40)) < p).astype(float)
    g = block_graph(block, (40, 40))
    est = estimate_noise(g, balanced_assignment([40, 40]))
    t0 = float(rng.uniform(0.01, 0.6))
    low = anscombe_nonidentical_test(est, 0, t_lb_hat=t0, alpha_prime=0.1)
    high = anscombe_nonidentical_test(est, 0, t_lb_hat=t0 + bump, alpha_prime=0.1)
    assert high.product >= low.product - 1e-12
    if low.accept:
        assert high.accept


# ----------------------------------------------------- special functions


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-6)


def test_chi_square_quantile_dof2_closed_form():
    # For dof 2 the quantile is -2 ln(1 - p)
    assert chi_square_quantile(0.95, 2) == pytest.approx(5.991465, abs=1e-4)
    assert chi_square_quantile(0.95, 2) == pytest.approx(-2.0 * math.log(0.05), rel=1e-9)


def test_chi_square_quantile_domain_errors():
    with pytest.raises(ValueError):
        chi_square_quantile(0.0, 2)
    with pytest.raises(ValueError):
        chi_square_quantile(1.0, 2)
    with pytest.raises(ValueError):
        chi_square_quantile(0.5, 0)
