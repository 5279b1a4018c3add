"""External and internal clustering quality metrics.

External metrics (need ground truth): detectability (the best-matching
fraction of nodes two assignments agree on), normalized mutual information,
Rand index, and mean per-cluster F-measure.  Internal metrics (need only the
graph): conductance and normalized cut, evaluated per layer with the
single-layer formulas, averaged over clusters within a layer, and summed
across layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import special
from scipy.optimize import linear_sum_assignment

from .graph_core import MultilayerGraph
from .spectral import ClusterAssignment

__all__ = [
    "MetricReport",
    "conductance",
    "contingency_table",
    "detectability",
    "f_measure",
    "metric_report",
    "nmi",
    "normalized_cut",
    "rand_index",
]


def contingency_table(found: ClusterAssignment, truth: ClusterAssignment) -> np.ndarray:
    """Integer overlap counts; entry (k, k') = |found cluster k ∩ truth cluster k'|.

    Raises:
        ValueError: the assignments cover different node counts.
    """
    if found.n != truth.n:
        raise ValueError("assignments must cover the same node set")
    table = np.zeros((found.K, truth.K), dtype=np.int64)
    np.add.at(table, (found.labels, truth.labels), 1)
    return table


def detectability(found: ClusterAssignment, truth: ClusterAssignment) -> float:
    """Best-matching agreement fraction between two assignments, in [0, 1].

    The maximum over cluster relabelings of ``(1/n) sum_k |found_perm(k) ∩
    truth_k|``, computed as a maximum-weight assignment on the overlap
    matrix (padded square when the cluster counts differ, extra clusters
    matching nothing).  Equals 1 iff the partitions coincide.
    """
    table = contingency_table(found, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.float64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum() / found.n)


def nmi(found: ClusterAssignment, truth: ClusterAssignment) -> float:
    """Normalized mutual information ``2 I / (H(found) + H(truth))``.

    Natural-log entropies (the base cancels).  When both partitions are the
    single all-nodes cluster, both entropies vanish and the partitions agree
    exactly; that 0/0 is defined as 1.
    """
    table = contingency_table(found, truth).astype(np.float64)
    n = float(found.n)
    joint = table / n
    pf = joint.sum(axis=1)
    pt = joint.sum(axis=0)
    outer = pf[:, None] * pt[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        log_ratio = np.where(joint > 0, np.log(np.where(joint > 0, joint, 1.0) / np.where(outer > 0, outer, 1.0)), 0.0)
    mutual = float(np.sum(joint * log_ratio))
    h_found = -float(np.sum(special.xlogy(pf, pf)))
    h_truth = -float(np.sum(special.xlogy(pt, pt)))
    if h_found + h_truth == 0.0:
        return 1.0
    value = 2.0 * mutual / (h_found + h_truth)
    return float(min(max(value, 0.0), 1.0))


def rand_index(found: ClusterAssignment, truth: ClusterAssignment) -> float:
    """Rand index: the fraction of unordered node pairs the partitions agree on.

    Agreement means together in both partitions or apart in both.  Computed
    exactly with integer pair counts from the contingency table.
    """
    table = contingency_table(found, truth)
    n = found.n
    if n < 2:
        return 1.0

    def pairs(x: np.ndarray) -> int:
        x = x.astype(object)  # exact integer arithmetic for large n
        return int(np.sum(x * (x - 1) // 2))

    together_both = pairs(table.ravel())
    together_found = pairs(table.sum(axis=1))
    together_truth = pairs(table.sum(axis=0))
    total = n * (n - 1) // 2
    # apart-in-both = total - together_found - together_truth + together_both
    agreements = together_both + (total - together_found - together_truth + together_both)
    return agreements / total


def f_measure(found: ClusterAssignment, truth: ClusterAssignment) -> float:
    """Mean per-found-cluster F score against each cluster's best-overlap truth cluster.

    For each found cluster, the truth cluster with the largest overlap
    defines precision = overlap / found size and recall = overlap / truth
    size; overlap ties resolve toward the smaller truth cluster (the larger
    recall, hence larger F), which keeps the metric invariant under
    relabeling of either argument.  A zero precision+recall contributes 0.
    """
    table = contingency_table(found, truth)
    found_sizes = table.sum(axis=1)
    truth_sizes = table.sum(axis=0)
    total = 0.0
    for k in range(found.K):
        best = int(table[k].max())
        candidates = np.flatnonzero(table[k] == best)
        j = int(candidates[np.argmin(truth_sizes[candidates])])
        overlap = float(best)
        prec = overlap / found_sizes[k]
        rec = overlap / truth_sizes[j] if truth_sizes[j] > 0 else 0.0
        total += 0.0 if prec + rec == 0.0 else 2.0 * prec * rec / (prec + rec)
    return total / found.K


def _layer_cut_stats(
    found: ClusterAssignment, graph: MultilayerGraph
) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Per layer: each cluster's within weight and cut weight, and the layer's total weight.

    Tallies each layer's stored entries by the cluster of their row: O(edges + K).

    Raises:
        ValueError: the assignment does not cover the node set, or a layer's
            weights are too large for its cut metrics to be finite.
    """
    if found.n != graph.n:
        raise ValueError("assignment does not cover the node set")
    for layer, W in enumerate(graph.layers):
        row_cluster = np.repeat(found.labels, np.diff(W.indptr))
        inside = row_cluster == found.labels[W.indices]
        totals = np.bincount(row_cluster, weights=W.data, minlength=found.K)
        twice_within = np.bincount(row_cluster[inside], weights=W.data[inside], minlength=found.K)
        with np.errstate(over="ignore"):
            volume = totals.sum()
        if not np.isfinite(volume):
            raise ValueError(f"layer {layer}: total edge weight is not finite: its edge weights are too large")
        yield twice_within / 2.0, totals - twice_within, float(volume) / 2.0


def conductance(found: ClusterAssignment, graph: MultilayerGraph) -> float:
    """Sum over layers of the mean per-cluster conductance.

    Within a layer, cluster k with internal weight W_in and boundary weight
    W_out contributes ``W_out / (2 W_in + W_out)`` (0 when the denominator
    is 0); the layer value is the mean over the K clusters, and layers add.
    Lower is better.
    """
    total = 0.0
    for within, cut, _ in _layer_cut_stats(found, graph):
        denom = 2.0 * within + cut
        terms = np.where(denom > 0, cut / np.where(denom > 0, denom, 1.0), 0.0)
        total += float(terms.mean())
    return total


def normalized_cut(found: ClusterAssignment, graph: MultilayerGraph) -> float:
    """Sum over layers of the mean per-cluster normalized cut.

    Cluster k contributes
    ``W_out/(2 W_in + W_out) + W_out/(2 (W_all - W_in) + W_out)`` where
    W_all is the layer's total edge weight; zero-denominator terms are 0.
    Lower is better.
    """
    total = 0.0
    for within, cut, w_all in _layer_cut_stats(found, graph):
        d1 = 2.0 * within + cut
        d2 = 2.0 * (w_all - within) + cut
        terms = np.where(d1 > 0, cut / np.where(d1 > 0, d1, 1.0), 0.0)
        terms = terms + np.where(d2 > 0, cut / np.where(d2 > 0, d2, 1.0), 0.0)
        total += float(terms.mean())
    return total


@dataclass(frozen=True)
class MetricReport:
    """Clustering quality summary.

    External metrics are None when no ground truth was supplied.
    """

    nmi: float | None
    ri: float | None
    f_measure: float | None
    conductance: float
    nc: float


def metric_report(
    found: ClusterAssignment,
    graph: MultilayerGraph,
    truth: ClusterAssignment | None = None,
) -> MetricReport:
    """Assemble all metrics for one clustering of one graph."""
    return MetricReport(
        nmi=None if truth is None else nmi(found, truth),
        ri=None if truth is None else rand_index(found, truth),
        f_measure=None if truth is None else f_measure(found, truth),
        conductance=conductance(found, graph),
        nc=normalized_cut(found, graph),
    )
