"""Output checks that recompute what they compare against.

Nothing here calls the mlsgc code path under test: agreement with planted
labels is a best permutation over the contingency table, eigenvalues come
from dense ``numpy.linalg.eigvalsh`` of Laplacians built here from the layer
matrices, and noise levels are between-cluster weight sums counted here.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

EIG_RTOL = 1e-8  # relative to the largest eigenvalue compared
SIMPLEX_TOL = 1e-12


def agreement(found: np.ndarray, truth: np.ndarray) -> float:
    """Largest share of nodes on which ``found`` equals ``truth`` under a relabeling."""
    found = np.asarray(found, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    k = int(max(found.max(), truth.max())) + 1
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (found, truth), 1)
    best = max(int(table[np.arange(k), list(perm)].sum()) for perm in permutations(range(k)))
    return best / found.size


def dense_laplacian(layers, weights, nodes: np.ndarray | None = None) -> np.ndarray:
    """Dense Laplacian of ``sum_l w_l W_l``, induced on ``nodes`` if given."""
    acc = None
    for w, mat in zip(weights, layers):
        block = mat.toarray() if nodes is None else mat[nodes][:, nodes].toarray()
        acc = w * block if acc is None else acc + w * block
    return np.diag(acc.sum(axis=1)) - acc


def smallest_eigvals(layers, weights, count: int, nodes: np.ndarray | None = None) -> np.ndarray:
    return np.linalg.eigvalsh(dense_laplacian(layers, weights, nodes))[:count]


def cluster_sums(layers, weights, labels: np.ndarray, K: int) -> np.ndarray:
    """Eigenvalues 2..K summed over each cluster's aggregated within-cluster Laplacian."""
    return np.array([
        float(np.sum(smallest_eigvals(layers, weights, K, np.flatnonzero(labels == k))[1:K]))
        for k in range(K)
    ])


def block_noise(layers, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer noise levels: pooled, and largest over cluster pairs.

    A block's level is its edge weight over its node pairs; the pooled level
    takes all between-cluster blocks together.
    """
    sizes = np.bincount(labels).astype(float)
    pairs = np.outer(sizes, sizes)
    off = ~np.eye(sizes.size, dtype=bool)
    pooled, largest = [], []
    for mat in layers:
        coo = mat.tocoo()
        weight = np.zeros_like(pairs)
        np.add.at(weight, (labels[coo.row], labels[coo.col]), coo.data)
        pooled.append(float(weight[off].sum() / pairs[off].sum()))
        largest.append(float((weight[off] / pairs[off]).max()))
    return np.array(pooled), np.array(largest)


def _close(got, want, what: str) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= EIG_RTOL * scale):
        return [f"{what}: got {got.tolist()}, dense oracle gives {want.tolist()}"]
    return []


def check_agreement(labels, truth, minimum: float, what: str) -> list[str]:
    share = agreement(labels, truth)
    return [] if share >= minimum else [f"{what}: agrees with the planted labels on {share:.4f} < {minimum}"]


def check_embedding(eigenvalues, lambda_kplus1: float, oracle: np.ndarray) -> list[str]:
    """Eigenvalues 2..K and K+1 of an embedding against the dense spectrum ``oracle``."""
    K = len(eigenvalues) + 1
    return _close(list(eigenvalues) + [lambda_kplus1], oracle[1:K + 1], "eigenvalues 2..K+1")


def check_bounds(bounds, oracle_sums: np.ndarray) -> list[str]:
    """Phase bounds of a planted assignment against dense partial sums."""
    problems = _close(bounds.cluster_partial_sums, oracle_sums, "cluster partial sums")
    want_lb = oracle_sums.min() / ((bounds.K - 1) * bounds.n_max)
    problems += _close([bounds.t_lb], [want_lb], "t_lb")
    if bounds.n_min == bounds.n_max and bounds.t_lb != bounds.t_ub:
        problems.append(f"equal cluster sizes but t_lb {bounds.t_lb!r} != t_ub {bounds.t_ub!r}")
    return problems


def check_declined(result) -> list[str]:
    """A pure-noise MIMOSA run: declined, and no trace record is reliable."""
    problems = []
    if result.status != "not_applicable" or result.K is not None or result.reliable_set:
        problems.append(f"pure-noise run was accepted: status {result.status}, K {result.K}")
    forged = [r.index for r in result.trace if r.reliable or r.outcome == "reliable"]
    if forged:
        problems.append(f"pure-noise run has reliable trace records {forged}")
    return problems


def check_selected(result, layers, truth: np.ndarray, K: int, eta: float) -> list[str]:
    """A planted MIMOSA run: the selection obeys the method's rules.

    K is the smallest K with a reliable record, ``w_star`` lies on the
    simplex and has the largest SNR among reliable records at K, and the
    chosen record satisfies the rule of its route, with the noise level and
    the transition bound recomputed here.
    """
    if result.status != "found" or result.K != K:
        return [f"expected K={K}, got status {result.status}, K {result.K}"]
    labels = np.asarray(result.assignment.labels)
    problems = check_agreement(labels, truth, 0.95, "MIMOSA")
    reliable = [r for r in result.trace if r.reliable]
    if min(r.K for r in reliable) != K:
        problems.append(f"K={K} but a reliable record exists at K={min(r.K for r in reliable)}")
    w = np.asarray(result.w_star.values)
    if np.any(w < 0) or abs(w.sum() - 1.0) > SIMPLEX_TOL:
        problems.append(f"w_star {w.tolist()} is not on the simplex")
    at_k = [r for r in reliable if r.K == K]
    best = max(r.t_lb_hat / r.t_hat_w if r.t_hat_w > 0 else np.inf for r in at_k)
    chosen = [r for r in at_k if np.array_equal(np.asarray(r.w), w)]
    if not chosen:
        return problems + ["no reliable record at K carries w_star"]
    record = chosen[0]
    if record.snr != result.snr or result.snr < best:
        problems.append(f"snr {result.snr} is not the largest reliable snr {best} at K={K}")
    if min(record.cluster_sizes) < K or record.vtest_min_p <= eta:
        problems.append(f"record {record.index} fails the size or homogeneity gate")
    pooled, largest = block_noise(layers, labels)
    t_hat_w, t_max_w = float(w @ pooled), float(w @ largest)
    t_lb_hat = float(cluster_sums(layers, w, labels, K).min() / ((K - 1) * np.bincount(labels).max()))
    problems += _close([record.t_hat_w, record.t_max_w, record.t_lb_hat], [t_hat_w, t_max_w, t_lb_hat],
                       "t_hat_w, t_max_w, t_lb_hat")
    if record.route == "identical":
        rule = all(record.glrt_accepts) and t_hat_w < t_lb_hat
    elif record.route == "nonidentical":
        rule = (not all(record.glrt_accepts) and all(record.anscombe_accepts)
                and t_max_w < t_lb_hat)
    else:
        rule = False
    if not rule:
        problems.append(f"record {record.index} does not satisfy the rule of route {record.route!r}")
    return problems


def check_label_file(text: str, node_ids, expected: np.ndarray) -> list[str]:
    """A CLI label file names each node once, with the labels of ``expected``."""
    seen: dict[str, int] = {}
    problems = []
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) != 2:
            problems.append(f"malformed label line {line!r}")
            continue
        node, label = fields
        if node in seen:
            problems.append(f"node {node} labeled twice")
        seen[node] = int(label)
    if set(seen) != set(node_ids):
        problems.append(f"label file names {len(seen)} nodes, the graph has {len(node_ids)}")
    elif any(seen[node] != int(want) for node, want in zip(node_ids, expected)):
        problems.append("labels differ from in-process multilayer_sgc on the same graph")
    return problems
