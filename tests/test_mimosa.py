"""Model-order selection loop: weight adaptation, SNR choice, reliability, serialization."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from mlsgc import (
    ConvergenceError,
    GeneralRimParams,
    LayerWeights,
    MimosaConfig,
    MultilayerGraph,
    TwoLayerCorrelatedParams,
    adapt_weights,
    aggregate,
    detectability,
    generate_rim,
    generate_two_layer,
    parse_result,
    partial_eigenvalue_sum,
    run_mimosa,
    serialize_result,
    smallest_eigenpairs,
    snr,
    vtest_homogeneity,
)
from mlsgc import graph_core, mimosa, spectral


# --------------------------------------------------------- adapt_weights


def test_adapt_weights_tau_zero_returns_initial():
    w_ini = LayerWeights((0.3, 0.7))
    out = adapt_weights(w_ini, np.array([0.1, 0.9]), 0.0)
    assert out.values == pytest.approx(w_ini.values)


def test_adapt_weights_equal_noise_cancels_for_every_tau():
    w_ini = LayerWeights((0.2, 0.5, 0.3))
    for tau in (0.0, 0.1, 1.0, 1e3, 1e5):
        out = adapt_weights(w_ini, np.array([0.4, 0.4, 0.4]), tau)
        assert out.values == pytest.approx(w_ini.values, rel=1e-12)


def test_adapt_weights_heavy_penalty_limit():
    out = adapt_weights(LayerWeights.uniform(2), np.array([0.0, 10.0]), 1e5)
    assert out.values[0] > 0.99999
    assert out.values[1] == pytest.approx(1 / (1 + 1e6), rel=1e-6)


def test_adapt_weights_at_an_overflowing_tau_keep_their_limit():
    # 1 + tau * t overflows here, in one layer or in both; the weights keep
    # the limit that tau = 1e4 reaches, without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limit = adapt_weights(LayerWeights.uniform(2), np.array([1e305, 1e303]), 1e4)
        out = adapt_weights(LayerWeights.uniform(2), np.array([1e305, 1e303]), 1e5)
        assert out.values == pytest.approx(limit.values, rel=1e-12)
        assert out.values == pytest.approx([1 / 101, 100 / 101], rel=1e-12)
        both = adapt_weights(LayerWeights.uniform(2), np.array([1e304, 1e304]), 1e5)
        assert both.values == pytest.approx([0.5, 0.5], rel=1e-12)


def test_adapt_weights_prefers_cleaner_layer():
    out = adapt_weights(LayerWeights.uniform(2), np.array([0.05, 0.30]), 10.0)
    assert out.values[0] > out.values[1]
    # exact form: w_l proportional to 1 / (1 + tau * t_l)
    raw = np.array([1 / (1 + 10 * 0.05), 1 / (1 + 10 * 0.30)])
    assert out.values == pytest.approx(raw / raw.sum(), rel=1e-12)


@given(
    tau=st.floats(0.0, 1e6),
    t1=st.floats(0.0, 5.0),
    t2=st.floats(0.0, 5.0),
    t3=st.floats(0.0, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_adapt_weights_stays_on_simplex(tau, t1, t2, t3):
    out = adapt_weights(LayerWeights((0.5, 0.25, 0.25)), np.array([t1, t2, t3]), tau)
    assert np.all(out.values >= 0.0)
    assert np.sum(out.values) == pytest.approx(1.0, abs=1e-12)


def test_adapt_weights_rejects_negative_tau():
    with pytest.raises(ValueError):
        adapt_weights(LayerWeights.uniform(2), np.array([0.1, 0.2]), -1.0)


# ------------------------------------------------------------------- SNR


def test_snr_ratio():
    assert snr(0.4, 0.1) == pytest.approx(4.0)


def test_snr_zero_noise_is_infinite():
    value = snr(0.25, 0.0)
    assert value == np.inf
    assert value > snr(0.25, 1e-12)  # infinity sorts above any finite ratio


# ------------------------------------------------------------ run_mimosa


@pytest.fixture(scope="module")
def reliable_three_cluster_result():
    # noise p=0.25 sits safely below the transition (aggregated within
    # density 0.45) while staying dense enough that a two-cluster merge
    # fails the noise-vs-threshold gate; see the low-noise test below
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(100, 100, 100), q11=0.3, q10=0.2, q01=0.1, q00=0.4,
        p1=0.25, p2=0.25, seed=42,
    )
    graph, truth = generate_two_layer(params)
    result = run_mimosa(graph, MimosaConfig(seed=0))
    return graph, truth, result


def test_reliable_regime_recovers_three_clusters(reliable_three_cluster_result):
    graph, truth, result = reliable_three_cluster_result
    assert result.status == "found"
    assert result.K == 3
    assert detectability(result.assignment, truth) >= 0.95


def test_found_result_maximizes_snr(reliable_three_cluster_result):
    _, _, result = reliable_three_cluster_result
    assert result.reliable_set
    best = max(entry.snr for entry in result.reliable_set)
    assert result.snr == best
    assert any(
        entry.snr == result.snr
        and np.array_equal(entry.w.values, result.w_star.values)
        for entry in result.reliable_set
    )
    # all reliable entries were recorded at the stopping K
    assert all(entry.K == result.K for entry in result.reliable_set)


def test_selected_candidate_holds_the_selection_and_its_eigenvalues(reliable_three_cluster_result):
    # sweep reads S2K_over_n from partial_sum; at 300 nodes solving the
    # selected aggregation again is the same dense solve, bit for bit
    graph, _, result = reliable_three_cluster_result
    best = result.selected
    assert (best.K, best.w, best.snr) == (result.K, result.w_star, result.snr)
    assert best.assignment is result.assignment
    embedding = smallest_eigenpairs(aggregate(graph, result.w_star), result.K)
    assert best.partial_sum == partial_eigenvalue_sum(embedding)


def test_trace_entries_are_recheckable(reliable_three_cluster_result):
    _, _, result = reliable_three_cluster_result
    assert result.trace
    for rec in result.trace:
        if not rec.reliable:
            continue
        assert rec.vtest_min_p > 1e-5
        if rec.route == "identical":
            assert all(rec.glrt_accepts)
            assert rec.t_hat_w < rec.t_lb_hat
        else:
            assert rec.route == "nonidentical"
            assert all(rec.anscombe_accepts)
            assert rec.t_max_w < rec.t_lb_hat
    ks = [rec.K for rec in result.trace]
    assert ks == sorted(ks)  # K never decreases along the trace


def test_candidates_ask_arpack_for_the_k_pairs_they_use(monkeypatch):
    # a 600-node aggregation takes ARPACK; no step reads eigenvalue K + 1
    graph, _ = generate_two_layer(TwoLayerCorrelatedParams(
        cluster_sizes=(200, 200, 200), q11=0.3, q10=0.2, q01=0.1, q00=0.4, p1=0.25, p2=0.25, seed=100,
    ))
    asked = []  # [K, k of each ARPACK call] per embedding
    embed, eigsh = mimosa.smallest_eigenpairs, spectral.sparse_linalg.eigsh

    def embedding(g, K, **kwargs):
        asked.append([K])
        return embed(g, K, **kwargs)

    def solve(*args, **kwargs):
        asked[-1].append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(mimosa, "smallest_eigenpairs", embedding)
    monkeypatch.setattr(spectral.sparse_linalg, "eigsh", solve)
    result = run_mimosa(graph, MimosaConfig(seed=0))
    assert (result.status, result.K) == ("found", 3)
    assert {K for K, *_ in asked} == {2, 3}
    assert all(ks == [K] for K, *ks in asked), asked


def test_determinism(reliable_three_cluster_result):
    graph, _, result = reliable_three_cluster_result
    again = run_mimosa(graph, MimosaConfig(seed=0))
    assert again.status == result.status
    assert again.K == result.K
    assert np.array_equal(again.assignment.labels, result.assignment.labels)
    assert again.w_star.values == pytest.approx(result.w_star.values)
    assert again.snr == result.snr
    assert serialize_result(again) == serialize_result(result)


def test_reliable_vtest_fields_match_dense_blocks(reliable_three_cluster_result):
    # the V-scan reads its row sums from the noise estimates; recompute every
    # block's p-value from the dense 0/1 layer instead
    graph, _, result = reliable_three_cluster_result
    adjacency = [W.toarray() > 0 for W in graph.layers]
    assert result.reliable_set
    for candidate in result.reliable_set:
        asg = candidate.assignment
        members = [asg.members(k) for k in range(asg.K)]
        best_p, best_arg = np.inf, None
        for layer, A in enumerate(adjacency):
            for i in range(asg.K):
                for j in range(asg.K):
                    if i == j:
                        continue
                    block = A[np.ix_(members[i], members[j])]
                    p = vtest_homogeneity(block, members[i].size, members[j].size)
                    if p < best_p:
                        best_p, best_arg = p, (i, j, layer)
        record = result.trace[candidate.trace_index]
        assert record.vtest_min_p == best_p
        assert record.vtest_min_arg == best_arg


def test_each_candidate_aggregates_and_counts_blocks_once(reliable_three_cluster_result, monkeypatch):
    # tau = 0 leaves w_ini unchanged, so it reuses the initial component and
    # the init step's embedding: one aggregation per run plus one per tau > 0
    # and K; one eigensolve per K plus one per tau > 0, and one K-means per
    # step; one noise estimate per distinct labeling among the init steps and
    # the candidates that reach the V-scan
    graph, _, expected = reliable_three_cluster_result
    counts = {"aggregate": 0, "estimate_noise": 0, "smallest_eigenpairs": 0, "kmeans": 0}
    step_labels = []
    for name in counts:
        real = getattr(mimosa, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            out = _real(*args, **kwargs)
            if _name == "kmeans":
                step_labels.append(out.labels.tobytes())
            return out

        monkeypatch.setattr(mimosa, name, counted)
    result = run_mimosa(graph, MimosaConfig(seed=0))
    assert serialize_result(result) == serialize_result(expected)
    assert not any(rec.disconnected for rec in result.trace)
    n_k = sum(rec.tau is None for rec in result.trace)
    scanned = sum(rec.vtest_min_p is not None for rec in result.trace)
    assert n_k == 2
    taus = len(MimosaConfig().tau_set)
    assert counts["aggregate"] == 1 + (taus - 1) * n_k
    assert counts["smallest_eigenpairs"] == (1 + (taus - 1)) * n_k
    assert counts["kmeans"] == (1 + taus) * n_k
    estimated = {labels for labels, rec in zip(step_labels, result.trace)
                 if rec.tau is None or rec.vtest_min_p is not None}
    assert counts["estimate_noise"] == len(estimated) < n_k + scanned


@pytest.mark.parametrize("p", [0.1, 0.2], ids=["found", "not-applicable"])
@pytest.mark.parametrize("disconnected", [False, True], ids=["connected", "disconnected"])
def test_noise_estimated_once_per_labeling_gives_the_run_that_estimates_every_step(monkeypatch, p, disconnected):
    # differential check of the run's noise memo, on a 36-node planted graph
    # and on it plus a separate two-node component
    graph, _ = generate_two_layer(TwoLayerCorrelatedParams(
        cluster_sizes=(12, 12, 12), q11=0.3, q10=0.2, q01=0.1, q00=0.4, p1=p, p2=p, seed=0,
    ))
    if disconnected:
        pair = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        graph = MultilayerGraph.from_matrices(
            graph.node_ids + ("zz0", "zz1"), [sparse.block_diag((layer, pair)) for layer in graph.layers],
        )
    calls = []
    real = mimosa.estimate_noise

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mimosa, "estimate_noise", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        memoized = run_mimosa(graph, MimosaConfig(seed=2))
        once = len(calls)
        monkeypatch.setattr(mimosa, "_noise", lambda memo, comp, assignment: counted(comp.graph, assignment))
        every_step = run_mimosa(graph, MimosaConfig(seed=2))
    assert serialize_result(every_step) == serialize_result(memoized)
    assert all(rec.disconnected == disconnected for rec in memoized.trace)
    assert once < len(calls) - once


def _memo_free_steps(graph, config, w_ini, levels):
    """MIMOSA's step loop with no memo: every step aggregates, finds the
    components, solves and estimates the noise anew.  At tau = 0 it solves
    from the tau step's own start vector, which the dense solver of these
    small graphs does not read."""
    seed, steps_per_k = int(config.seed), len(config.tau_set) + 1
    for K in range(2, min(config.max_k or math.inf, math.isqrt(mimosa._component(graph, w_ini).graph.n)) + 1):
        comp = mimosa._component(graph, w_ini)
        assignment = mimosa._cluster(mimosa._embed(comp, K, seed, 0), K, seed, 0)
        t_ini = mimosa.estimate_noise(comp.graph, assignment).t_hat_layer
        yield mimosa.TraceRecord(
            index=(K - 2) * steps_per_k, K=K, tau=None, w=tuple(w_ini.values), outcome="init_ok",
            disconnected=comp.nodes is not None, component_size=comp.size,
            cluster_sizes=tuple(int(s) for s in assignment.sizes), t_hat_layers=tuple(float(t) for t in t_ini),
        ), None
        steps = []
        for z, tau in enumerate(config.tau_set, start=1):
            w = adapt_weights(w_ini, t_ini, tau)
            steps.append(mimosa._candidate(
                config, mimosa._component(graph, w), None, w, K, z, (K - 2) * steps_per_k + z, levels, {}))
        yield from steps
        if any(candidate is not None for _, candidate in steps):
            return


@pytest.mark.parametrize("p", [0.1, 0.2], ids=["found", "not-applicable"])
@pytest.mark.parametrize("extra", [None, 2, 5], ids=["connected", "pair", "path"])
def test_run_equals_the_memo_free_loop(monkeypatch, p, extra):
    # differential check of every memo of a run (noise estimates, the tau = 0
    # component and embedding, the components of an aggregation) on a 36-node
    # planted graph, alone or with a separate path of `extra` nodes
    graph, _ = generate_two_layer(TwoLayerCorrelatedParams(
        cluster_sizes=(12, 12, 12), q11=0.3, q10=0.2, q01=0.1, q00=0.4, p1=p, p2=p, seed=0,
    ))
    if extra is not None:
        path = sparse.diags_array([np.ones(extra - 1), np.ones(extra - 1)], offsets=[-1, 1], format="csr")
        graph = MultilayerGraph.from_matrices(
            graph.node_ids + tuple(f"zz{i}" for i in range(extra)),
            [sparse.block_diag((layer, path)) for layer in graph.layers],
        )
    aggregations = []
    real = mimosa.aggregate

    def counted(*args):
        aggregations.append(1)
        return real(*args)

    monkeypatch.setattr(mimosa, "aggregate", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        memoized = run_mimosa(graph, MimosaConfig(seed=2))
        once = len(aggregations)
        monkeypatch.setattr(mimosa, "_steps", _memo_free_steps)
        monkeypatch.setattr(graph_core.AggregatedGraph, "_components", property(
            lambda g: csgraph.connected_components(g.weight_matrix, directed=False)))
        memo_free = run_mimosa(graph, MimosaConfig(seed=2))
    assert serialize_result(memo_free) == serialize_result(memoized)
    assert [c.partial_sum for c in memo_free.reliable_set] == [c.partial_sum for c in memoized.reliable_set]
    assert (memo_free.selected is None) == (p == 0.2)
    if memo_free.selected is not None:
        assert memo_free.selected.partial_sum == memoized.selected.partial_sum
    assert all(rec.disconnected == (extra is not None) for rec in memoized.trace)
    assert once < len(aggregations) - once


def test_eigensolver_failure_keeps_the_trace_up_to_the_failing_step(reliable_three_cluster_result, monkeypatch):
    graph, _, expected = reliable_three_cluster_result
    real = mimosa.smallest_eigenpairs

    def failing(agg, K, **kwargs):
        if K == 3:
            raise ConvergenceError("ARPACK eigensolver failed: test", residual=float("nan"))
        return real(agg, K, **kwargs)

    monkeypatch.setattr(mimosa, "smallest_eigenpairs", failing)
    with pytest.raises(ConvergenceError) as info:
        run_mimosa(graph, MimosaConfig(seed=0))
    # K = 2 logs its init step and eight tau steps; K = 3 fails in its init step
    assert info.value.mimosa_trace == expected.trace[:9]


def test_disconnected_graph_clusters_its_largest_component(reliable_three_cluster_result):
    # the three-cluster instance plus a separate two-node component: the
    # component gives the connected run's selection, and the pair becomes
    # one pseudo-cluster labeled K
    graph, _, connected = reliable_three_cluster_result
    pair = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    extended = MultilayerGraph.from_matrices(
        graph.node_ids + ("zz0", "zz1"),
        [sparse.block_diag((layer, pair)) for layer in graph.layers],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_mimosa(extended, MimosaConfig(seed=0))
    assert result.status == "found"
    assert result.K == 3
    assert result.assignment.K == 4
    assert np.array_equal(result.assignment.labels[:300], connected.assignment.labels)
    assert result.assignment.labels[300:].tolist() == [3, 3]
    assert result.snr == connected.snr
    assert all(rec.disconnected and rec.component_size == 300 for rec in result.trace)
    assert all(candidate.assignment.labels[300:].tolist() == [3, 3] for candidate in result.reliable_set)
    assert result.selected.partial_sum == connected.selected.partial_sum


def test_very_sparse_noise_stops_at_a_clean_merge():
    # at p=0.05 merging two true clusters leaves every between-block rate
    # identical, the identical-noise test has no degrees of freedom at K=2,
    # and the merged cluster's algebraic connectivity still clears n*t-hat,
    # so the loop legitimately stops at K=2 with a clean merge
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(100, 100, 100), q11=0.3, q10=0.2, q01=0.1, q00=0.4,
        p1=0.05, p2=0.05, seed=42,
    )
    graph, truth = generate_two_layer(params)
    result = run_mimosa(graph, MimosaConfig(seed=0))
    assert result.status == "found"
    assert result.K == 2
    # the two found clusters are unions of true clusters: each true cluster
    # lands entirely inside one found cluster
    for k in range(truth.K):
        found_labels = result.assignment.labels[truth.members(k)]
        assert len(set(found_labels.tolist())) == 1


def test_pure_noise_is_not_applicable():
    params = GeneralRimParams(
        cluster_sizes=(60,), n_layers=2,
        within_probs=np.full((2, 1), 0.2), noise_probs=(0.0, 0.0), seed=7,
    )
    graph, _ = generate_rim(params)
    result = run_mimosa(graph, MimosaConfig(seed=1))
    assert result.status == "not_applicable"
    assert result.assignment is None
    assert result.w_star is None
    assert not result.reliable_set
    assert result.selected is None
    assert result.trace  # every attempted (K, tau) is still logged


def test_clean_plus_noise_layer_weights_favor_clean():
    rng = np.random.default_rng(3)
    sizes = (80, 80, 80)
    n = sum(sizes)
    # layer 1: strong planted structure; layer 2: unstructured noise
    clean = GeneralRimParams(
        cluster_sizes=sizes, n_layers=1,
        within_probs=np.full((1, 3), 0.6), noise_probs=0.05, seed=11,
    )
    g_clean, truth = generate_rim(clean)
    noise_mat = np.triu((rng.random((n, n)) < 0.30).astype(float), k=1)
    noise_mat = noise_mat + noise_mat.T
    from .conftest import dense_graph

    graph = dense_graph(
        g_clean.node_ids, g_clean.layers[0].toarray(), noise_mat
    )
    result = run_mimosa(graph, MimosaConfig(seed=2))
    assert result.status == "found"
    assert result.K == 3
    assert detectability(result.assignment, truth) >= 0.95
    assert result.w_star.values[0] > 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        MimosaConfig(eta=0.0)
    with pytest.raises(ValueError):
        MimosaConfig(eta=1.0)
    with pytest.raises(ValueError):
        MimosaConfig(alpha=0.0)
    with pytest.raises(ValueError):
        MimosaConfig(alpha_prime=1.5)
    with pytest.raises(ValueError, match=r"^tau_set entries must be finite and nonnegative, got -1\.0$"):
        MimosaConfig(tau_set=(0.0, -1.0))
    with pytest.raises(ValueError, match=r"^tau_set entries must be finite and nonnegative, got nan$"):
        MimosaConfig(tau_set=(float("nan"),))
    with pytest.raises(ValueError):
        MimosaConfig(max_k=1)
    # a float max_k would fail later inside range(), and a float seed would be truncated
    with pytest.raises(ValueError, match=r"^max_k must be an integer, got 2\.5$"):
        MimosaConfig(max_k=2.5)
    with pytest.raises(ValueError, match=r"^max_k must be an integer, got 3\.0$"):
        MimosaConfig(max_k=np.float64(3.0))
    for seed in (1.7, -0.5, -1, "1"):
        with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, got {seed}$"):
            MimosaConfig(seed=seed)
    assert MimosaConfig(max_k=np.int64(3), seed=np.uint32(7)).seed == 7


def test_config_rejects_an_alpha_whose_complement_rounds_to_one():
    # the identical-noise test's quantile at 1 - alpha used to fail mid-run
    # with "probability must be in (0, 1), got 1.0"
    for alpha, tiny in ((1e-17, "1e-17"), ((0.05, 5e-17), "5e-17")):
        with pytest.raises(ValueError, match=rf"^alpha level {tiny} is too small: 1 - alpha rounds to 1\.0$"):
            MimosaConfig(alpha=alpha)
    assert MimosaConfig(alpha=1e-16).alpha == 1e-16
    assert MimosaConfig(alpha_prime=1e-17).alpha_prime == 1e-17


def test_default_tau_grid():
    config = MimosaConfig()
    assert config.tau_set == (0.0, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5)
    assert config.eta == 1e-5
    assert config.alpha == 0.05
    assert config.alpha_prime == 0.05


# ----------------------------------------------------------- serialization


def test_found_result_round_trips(reliable_three_cluster_result):
    _, _, result = reliable_three_cluster_result
    doc = serialize_result(result)
    parsed = parse_result(doc)
    assert parsed["status"] == "found"
    assert parsed["K"] == result.K
    assert parsed["snr"] == pytest.approx(result.snr)
    assert parsed["w_star"] == pytest.approx(list(result.w_star.values))
    labels = parsed["labels"]
    assert len(labels) == result.assignment.n
    for node, label in zip(result.node_ids, result.assignment.labels):
        assert labels[node] == int(label)
    assert len(parsed["trace"]) == len(result.trace)


def test_not_applicable_document_has_status_and_trace_only():
    params = GeneralRimParams(
        cluster_sizes=(60,), n_layers=1,
        within_probs=np.full((1, 1), 0.15), noise_probs=0.0, seed=13,
    )
    graph, _ = generate_rim(params)
    result = run_mimosa(graph, MimosaConfig(seed=3, max_k=4))
    assert result.status == "not_applicable"
    doc = serialize_result(result)
    parsed = parse_result(doc)
    assert parsed["status"] == "not_applicable"
    assert "labels" not in parsed or parsed["labels"] is None
    assert parsed["trace"]


def test_serialization_is_byte_identical_across_runs():
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(50, 50), q11=0.5, q10=0.1, q01=0.1, q00=0.3,
        p1=0.05, p2=0.05, seed=21,
    )
    graph, _ = generate_two_layer(params)
    doc1 = serialize_result(run_mimosa(graph, MimosaConfig(seed=5)))
    doc2 = serialize_result(run_mimosa(graph, MimosaConfig(seed=5)))
    assert doc1 == doc2


# ------------------------------------------------------------- K range


def _pure_noise_instance(seed):
    """The n=60 pure-noise instance of the acceptance gate (two independent
    Erdos-Renyi layers of density 0.25)."""
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(60,), q11=0.0625, q10=0.1875, q01=0.1875, q00=0.5625,
        p1=0.25, p2=0.25, seed=seed,
    )
    return generate_two_layer(params)[0]


def test_k_stops_at_isqrt_of_the_component():
    # K clusters of at least K nodes need K^2 nodes, so on 60 nodes no K
    # above isqrt(60) = 7 can pass the cluster-size test; no cap must give
    # the same document as the cap 7
    graph = _pure_noise_instance(600)
    result = run_mimosa(graph, MimosaConfig(seed=0))
    assert result.status == "not_applicable"
    assert max(rec.K for rec in result.trace) == 7
    capped = run_mimosa(graph, MimosaConfig(seed=0, max_k=math.isqrt(60)))
    assert serialize_result(result) == serialize_result(capped)


def test_disconnected_warning_is_issued_once_per_run():
    # the pure-noise instance plus a separate two-node component
    graph = _pure_noise_instance(600)
    pair = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    extended = MultilayerGraph.from_matrices(
        graph.node_ids + ("zz0", "zz1"),
        [sparse.block_diag((layer, pair)) for layer in graph.layers],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_mimosa(extended, MimosaConfig(seed=0, max_k=3))
    assert max(rec.K for rec in result.trace) == 3
    assert all(rec.disconnected for rec in result.trace)
    messages = [str(w.message) for w in caught if "aggregated graph is disconnected" in str(w.message)]
    assert messages == ["aggregated graph is disconnected; clustering its largest component (60 of 62 nodes)"]


def test_disconnected_warning_points_at_the_caller():
    graph = _pure_noise_instance(600)
    pair = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    extended = MultilayerGraph.from_matrices(
        graph.node_ids + ("zz0", "zz1"),
        [sparse.block_diag((layer, pair)) for layer in graph.layers],
    )
    with pytest.warns(UserWarning, match="aggregated graph is disconnected") as caught:
        run_mimosa(extended, MimosaConfig(seed=0, max_k=2))
    assert [w.filename for w in caught] == [__file__]
