"""Clustering quality metrics: NMI, Rand index, F-measure, conductance, NC."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mlsgc import (
    ClusterAssignment,
    conductance,
    contingency_table,
    f_measure,
    metric_report,
    nmi,
    normalized_cut,
    rand_index,
)

from .conftest import adjacency_from_edges, balanced_assignment, dense_graph, ids


def assignment(*labels):
    return ClusterAssignment(np.array(labels))


# ------------------------------------------------------------------- NMI


def test_nmi_identical_partitions():
    truth = balanced_assignment([4, 6, 5])
    assert nmi(truth, truth) == pytest.approx(1.0)


def test_nmi_single_cluster_both_sides():
    one = balanced_assignment([8])
    assert nmi(one, one) == 1.0  # 0/0 convention: identical trivial partitions


def test_nmi_independent_labels_near_zero():
    rng = np.random.default_rng(0)
    a = ClusterAssignment(rng.integers(0, 3, size=5000))
    b = ClusterAssignment(rng.integers(0, 3, size=5000))
    assert nmi(a, b) < 0.01


def test_nmi_hand_computed_six_nodes():
    found = assignment(0, 0, 0, 1, 1, 1)
    truth = assignment(0, 0, 1, 1, 1, 1)
    # contingency 2,1 / 0,3; I = (1/6)ln2 + (1/2)ln(3/2);
    # H(found) = ln2, H(truth) = entropy of (1/3, 2/3)
    mutual = (1 / 6) * math.log(2) + (1 / 2) * math.log(3 / 2)
    h_found = math.log(2)
    h_truth = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    expected = 2 * mutual / (h_found + h_truth)
    assert nmi(found, truth) == pytest.approx(expected, rel=1e-12)
    assert nmi(found, truth) == pytest.approx(0.47870, abs=1e-5)


def test_nmi_symmetric():
    rng = np.random.default_rng(1)
    a = ClusterAssignment(rng.integers(0, 3, size=40))
    b = ClusterAssignment(rng.integers(0, 4, size=40))
    assert nmi(a, b) == pytest.approx(nmi(b, a), rel=1e-12)


# ------------------------------------------------------------ Rand index


def test_rand_index_identical():
    truth = balanced_assignment([5, 5, 2])
    assert rand_index(truth, truth) == 1.0


def test_rand_index_three_nodes():
    found = assignment(0, 0, 1)
    truth = assignment(0, 1, 1)
    # pairs: (0,1) together/apart, (0,2) apart/apart, (1,2) apart/together
    assert rand_index(found, truth) == pytest.approx(1 / 3)


def test_rand_index_matches_pair_enumeration():
    rng = np.random.default_rng(2)
    n = 12
    for trial in range(100):
        kf, kt = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lf = rng.integers(0, kf, size=n)
        lt = rng.integers(0, kt, size=n)
        lf[:kf] = np.arange(kf)
        lt[:kt] = np.arange(kt)
        agree = 0
        for a, b in itertools.combinations(range(n), 2):
            agree += (lf[a] == lf[b]) == (lt[a] == lt[b])
        expected = agree / (n * (n - 1) // 2)
        got = rand_index(ClusterAssignment(lf), ClusterAssignment(lt))
        assert got == pytest.approx(expected, rel=1e-12)


def test_rand_index_equals_one_minus_disagreement_rate():
    rng = np.random.default_rng(3)
    n = 30
    lf = rng.integers(0, 3, size=n)
    lt = rng.integers(0, 3, size=n)
    lf[:3] = np.arange(3)
    lt[:3] = np.arange(3)
    disagreements = 0
    for a, b in itertools.combinations(range(n), 2):
        disagreements += (lf[a] == lf[b]) != (lt[a] == lt[b])
    expected = 1.0 - disagreements / (n * (n - 1) // 2)
    got = rand_index(ClusterAssignment(lf), ClusterAssignment(lt))
    assert got == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------- F-measure


def test_f_measure_identical():
    truth = balanced_assignment([3, 4, 5])
    assert f_measure(truth, truth) == pytest.approx(1.0)


def test_f_measure_one_cluster_vs_two_halves():
    found = balanced_assignment([10])
    truth = balanced_assignment([5, 5])
    # precision 0.5 against the best-overlap half, recall 1 -> F = 2/3
    assert f_measure(found, truth) == pytest.approx(2 / 3)


def test_f_measure_hand_computed_asymmetric():
    found = assignment(0, 0, 0, 1, 1, 1)
    truth = assignment(0, 0, 1, 1, 1, 1)
    # found 0: best truth 0 (overlap 2): prec 2/3, rec 1 -> F = 4/5
    # found 1: best truth 1 (overlap 3): prec 1, rec 3/4 -> F = 6/7
    assert f_measure(found, truth) == pytest.approx((4 / 5 + 6 / 7) / 2, rel=1e-12)


def test_f_measure_not_symmetric_by_design():
    found = assignment(0, 0, 0, 1, 1, 1, 1, 1)
    truth = assignment(0, 0, 0, 0, 0, 0, 1, 1)
    # forward: (2/3 + 6/11)/2 = 20/33; reversed: (2/3 + 4/7)/2 = 13/21
    assert f_measure(found, truth) == pytest.approx(20 / 33, rel=1e-12)
    assert f_measure(truth, found) == pytest.approx(13 / 21, rel=1e-12)


def test_f_measure_overlap_tie_prefers_larger_f():
    # the size-6 first-argument cluster overlaps both others equally (3, 3);
    # the smaller one (size 3, recall 1) must win the tie regardless of its
    # label, keeping the metric relabel-invariant
    first = assignment(0, 0, 0, 0, 0, 0, 1, 1)
    second = assignment(0, 0, 0, 1, 1, 1, 1, 1)
    swapped = assignment(1, 1, 1, 0, 0, 0, 0, 0)
    assert f_measure(first, second) == pytest.approx(f_measure(first, swapped))
    # tie pairing: prec 3/6, rec 3/3 -> 2/3; second cluster: prec 1, rec 2/5
    assert f_measure(first, second) == pytest.approx((2 / 3 + 4 / 7) / 2, rel=1e-12)


# ------------------------------------------------- relabeling invariance


def test_external_metrics_relabel_invariant():
    rng = np.random.default_rng(4)
    lf = rng.integers(0, 4, size=50)
    lt = rng.integers(0, 3, size=50)
    lf[:4] = np.arange(4)
    lt[:3] = np.arange(3)
    found, truth = ClusterAssignment(lf), ClusterAssignment(lt)
    perm_f = np.array([3, 1, 0, 2])
    perm_t = np.array([1, 2, 0])
    found_p = ClusterAssignment(perm_f[lf])
    truth_p = ClusterAssignment(perm_t[lt])
    for metric in (nmi, rand_index, f_measure):
        assert metric(found_p, truth_p) == pytest.approx(
            metric(found, truth), rel=1e-12
        )


def test_contingency_table_counts():
    found = assignment(0, 0, 0, 1, 1, 1)
    truth = assignment(0, 0, 1, 1, 1, 1)
    assert contingency_table(found, truth).tolist() == [[2, 1], [0, 3]]
    with pytest.raises(ValueError):
        contingency_table(found, balanced_assignment([3, 4]))


# ------------------------------------------------- conductance and NC


def disjoint_cliques_graph():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    return dense_graph(ids(8), adjacency_from_edges(8, edges))


def barbell_graph():
    return dense_graph(ids(4), adjacency_from_edges(4, [(0, 1), (2, 3), (1, 2)]))


def test_disjoint_cliques_have_zero_cut_metrics():
    g = disjoint_cliques_graph()
    truth = balanced_assignment([4, 4])
    assert conductance(truth, g) == 0.0
    assert normalized_cut(truth, g) == 0.0


def test_single_cluster_cut_metrics_are_zero():
    g = barbell_graph()
    one = balanced_assignment([4])
    assert conductance(one, g) == 0.0
    assert normalized_cut(one, g) == 0.0


def test_barbell_conductance_one_third():
    g = barbell_graph()
    split = balanced_assignment([2, 2])
    # each side: internal weight 1, boundary weight 1 -> 1/(2*1+1) = 1/3
    assert conductance(split, g) == pytest.approx(1 / 3)


def test_barbell_normalized_cut_hand_value():
    g = barbell_graph()
    split = balanced_assignment([2, 2])
    # per side: 1/(2*1+1) + 1/(2*(3-1)+1) = 1/3 + 1/5
    assert normalized_cut(split, g) == pytest.approx(1 / 3 + 1 / 5)


def test_cut_metrics_weighted_edges():
    mat = adjacency_from_edges(4, [(0, 1), (2, 3)], weight=2.0)
    mat[1, 2] = mat[2, 1] = 0.5
    g = dense_graph(ids(4), mat)
    split = balanced_assignment([2, 2])
    # W_in = 2, W_out = 0.5 per side
    assert conductance(split, g) == pytest.approx(0.5 / 4.5)
    assert normalized_cut(split, g) == pytest.approx(
        0.5 / 4.5 + 0.5 / (2 * (4.5 - 2) + 0.5)
    )


def test_cluster_with_no_edges_contributes_zero():
    # node 3 isolated in its own cluster: W_in = W_out = 0 -> term 0
    g = dense_graph(ids(4), adjacency_from_edges(4, [(0, 1), (0, 2), (1, 2)]))
    asn = assignment(0, 0, 0, 1)
    assert conductance(asn, g) == 0.0
    assert normalized_cut(asn, g) == 0.0


def test_cut_metrics_add_over_layers():
    layer1 = adjacency_from_edges(4, [(0, 1), (2, 3), (1, 2)])
    layer2 = adjacency_from_edges(4, [(0, 2), (1, 3), (0, 3)], weight=0.7)
    both = dense_graph(ids(4), layer1, layer2)
    only1 = dense_graph(ids(4), layer1)
    only2 = dense_graph(ids(4), layer2)
    split = balanced_assignment([2, 2])
    for metric in (conductance, normalized_cut):
        assert metric(split, both) == pytest.approx(
            metric(split, only1) + metric(split, only2), rel=1e-12
        )


def test_cut_metrics_check_node_count():
    g = barbell_graph()
    with pytest.raises(ValueError):
        conductance(balanced_assignment([3, 3]), g)
    with pytest.raises(ValueError):
        normalized_cut(balanced_assignment([3, 3]), g)


# ----------------------------------------------------------- full report


def test_metric_report_without_truth():
    g = barbell_graph()
    split = balanced_assignment([2, 2])
    report = metric_report(split, g)
    assert report.nmi is None and report.ri is None and report.f_measure is None
    assert report.conductance == pytest.approx(1 / 3)
    assert report.nc == pytest.approx(1 / 3 + 1 / 5)


def test_metric_report_with_truth_matches_components():
    g = disjoint_cliques_graph()
    truth = balanced_assignment([4, 4])
    found = assignment(0, 0, 0, 1, 1, 1, 1, 1)
    report = metric_report(found, g, truth)
    assert report.nmi == pytest.approx(nmi(found, truth))
    assert report.ri == pytest.approx(rand_index(found, truth))
    assert report.f_measure == pytest.approx(f_measure(found, truth))
    assert report.conductance == pytest.approx(conductance(found, g))
    assert report.nc == pytest.approx(normalized_cut(found, g))


@pytest.mark.parametrize("metric", [conductance, normalized_cut])
def test_cut_metrics_name_the_layer_whose_weight_overflows(metric):
    heavy = adjacency_from_edges(4, [(0, 1, 1e308), (0, 2, 1e308), (2, 3, 1.0)])
    graph = dense_graph(ids(4), adjacency_from_edges(4, [(0, 1), (2, 3)]), heavy)
    with pytest.raises(ValueError, match=r"^layer 1: total edge weight is not finite"):
        metric(assignment(0, 0, 1, 1), graph)
