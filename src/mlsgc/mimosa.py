"""Automated model-order selection with noise-adaptive layer weighting.

The algorithm grows the cluster count K from 2 upward.  At each K it first
clusters with the initial layer weights and estimates each layer's noise
level, then scans a grid of adaptation strengths tau, reweighting layers
inversely to ``1 + tau * noise`` and re-clustering.  Each (component, K) is
embedded once: a tau whose weights equal the initial ones (always tau = 0)
shares the init step's component and embedding and runs only its own K-means.
Each candidate clustering must pass a battery of reliability tests:

1. every detected cluster has at least K nodes,
2. a block-wise homogeneity test on every ordered cluster pair in every
   layer finds no evidence against the block-constant edge model,
3. either all layers accept the identical-noise likelihood-ratio test and
   the aggregated noise estimate sits below the estimated phase-transition
   lower bound, or all layers accept the non-identical threshold test and
   the aggregated maximum noise level does.

The first K with any surviving candidates wins; among its candidates, the
one maximizing the signal-to-noise ratio (transition bound over aggregated
noise) provides the final weights and clustering.  Test 1 needs K^2 nodes,
so K stops at the integer square root of the clustered component's size,
or earlier at the user's cap.  When no K in that range produces a reliable
candidate, the result is marked not applicable.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .graph_core import AggregatedGraph, LayerWeights, MultilayerGraph, aggregate, connected_components, induced_subgraph
from .noise_stats import (
    NoiseEstimates,
    anscombe_nonidentical_test,
    estimate_noise,
    glrt_identical_noise,
    vtest_from_row_sums,
)
from .spectral import ClusterAssignment, SpectralEmbedding, kmeans, partial_eigenvalue_sum, smallest_eigenpairs
from .theory import cluster_partial_sums

__all__ = [
    "MimosaConfig",
    "MimosaResult",
    "ReliableCandidate",
    "TraceRecord",
    "adapt_weights",
    "parse_result",
    "run_mimosa",
    "serialize_result",
    "snr",
    "strict_json",
]

_DEFAULT_TAUS = (0.0, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5)


@dataclass(frozen=True)
class MimosaConfig:
    """Tuning knobs of the model-order selection loop.

    Attributes:
        w_ini: initial layer weights; None means uniform.
        tau_set: ordered grid of adaptation strengths (nonnegative).
        eta: homogeneity-test significance level; any block p-value at or
            below it rejects the candidate clustering.
        alpha: identical-noise test level, one scalar for every layer or a
            per-layer sequence.
        alpha_prime: non-identical threshold test level, scalar or per-layer.
        max_k: largest cluster count to try, an integer of at least 2;
            None sets no cap of its own.
            K always stops at ``isqrt`` of the clustered component's size,
            since a larger K cannot give every cluster K nodes.
        seed: nonnegative integer root seed; the whole run is a pure
            function of (graph, config).
    """

    w_ini: LayerWeights | None = None
    tau_set: tuple[float, ...] = _DEFAULT_TAUS
    eta: float = 1e-5
    alpha: float | tuple[float, ...] = 0.05
    alpha_prime: float | tuple[float, ...] = 0.05
    max_k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        taus = tuple(float(t) for t in self.tau_set)
        if not taus:
            raise ValueError("tau_set must not be empty")
        for t in taus:
            if not math.isfinite(t) or t < 0.0:
                raise ValueError(f"tau_set entries must be finite and nonnegative, got {t}")
        object.__setattr__(self, "tau_set", taus)
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        for name in ("alpha", "alpha_prime"):
            value = getattr(self, name)
            levels = (value,) if np.isscalar(value) else tuple(float(a) for a in value)
            if any(not 0.0 < a < 1.0 for a in levels):
                raise ValueError(f"{name} levels must be in (0, 1)")
            tiny = [float(a) for a in levels if 1.0 - a == 1.0]
            if name == "alpha" and tiny:  # the identical-noise test's quantile needs 1 - alpha < 1
                raise ValueError(f"alpha level {tiny[0]} is too small: 1 - alpha rounds to 1.0")
            if not np.isscalar(value):
                object.__setattr__(self, name, levels)
        if self.max_k is not None:
            if not isinstance(self.max_k, (int, np.integer)):
                raise ValueError(f"max_k must be an integer, got {self.max_k}")
            if self.max_k < 2:
                raise ValueError(f"max_k must be at least 2, got {self.max_k}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


def adapt_weights(w_ini: LayerWeights, t_hat: np.ndarray, tau: float) -> LayerWeights:
    """Reweight layers inversely to their estimated noise.

    ``w_l proportional to w_ini_l / (1 + tau * t_hat_l)``, renormalized to
    the simplex.  ``tau = 0`` returns ``w_ini`` unchanged; equal noise across
    layers cancels in the normalization for every tau.  Where some
    ``tau * t_hat_l`` overflows, every denominator is divided by
    ``max(t_hat)`` first, which leaves the proportions as they are.

    Raises:
        ValueError: negative tau, negative noise estimates, or length
            mismatch.
    """
    t_hat = np.asarray(t_hat, dtype=np.float64).ravel()
    if tau < 0.0 or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if t_hat.size != len(w_ini):
        raise ValueError("noise vector length must match the weight vector")
    if np.any(t_hat < 0.0):
        raise ValueError("noise estimates must be nonnegative")
    with np.errstate(over="ignore"):
        denominators = 1.0 + tau * t_hat
    if not np.all(np.isfinite(denominators)):
        scale = t_hat.max()
        denominators = 1.0 / scale + tau * (t_hat / scale)
    return LayerWeights(w_ini.values / denominators)


def snr(t_lb_hat: float, t_hat_w: float) -> float:
    """Signal-to-noise ratio of a candidate: transition bound over noise.

    A zero (or negative) aggregated noise estimate returns +infinity, which
    sorts above every finite ratio.
    """
    if t_hat_w <= 0.0:
        return float("inf")
    return float(t_lb_hat / t_hat_w)


@dataclass(frozen=True)
class TraceRecord:
    """One logged step of the selection loop.

    ``tau`` is None on per-K initialization records.  ``outcome`` is one of
    ``init_ok``, ``component_too_small``, ``degenerate_cluster``,
    ``homogeneity_reject``, ``reliable`` and ``not_reliable``.
    """

    index: int
    K: int
    tau: float | None
    w: tuple[float, ...] | None
    outcome: str
    disconnected: bool = False
    component_size: int | None = None
    cluster_sizes: tuple[int, ...] | None = None
    vtest_min_p: float | None = None
    vtest_min_arg: tuple[int, int, int] | None = None
    t_hat_layers: tuple[float, ...] | None = None
    t_max_layers: tuple[float, ...] | None = None
    t_hat_w: float | None = None
    t_max_w: float | None = None
    t_lb_hat: float | None = None
    glrt_accepts: tuple[bool, ...] | None = None
    anscombe_accepts: tuple[bool, ...] | None = None
    route: str | None = None
    reliable: bool = False
    snr: float | None = None


@dataclass(frozen=True)
class ReliableCandidate:
    """A clustering that passed every reliability test.

    ``assignment`` always covers the full node set; when the aggregation was
    disconnected, nodes outside the clustered component carry pseudo-cluster
    labels K, K+1, ... (one per extra component) for reporting only.
    ``partial_sum`` is ``lambda_2 + .. + lambda_K`` of the embedding it was clustered from.
    """

    w: LayerWeights
    assignment: ClusterAssignment
    snr: float
    K: int
    tau: float
    trace_index: int
    t_lb_hat: float
    t_hat_w: float
    t_max_w: float
    route: str
    partial_sum: float


def _rank(candidate: ReliableCandidate) -> tuple[float, float, int]:
    """Selection order: highest SNR, then smallest tau, then earliest step."""
    return (-candidate.snr, candidate.tau, candidate.trace_index)


@dataclass(frozen=True)
class MimosaResult:
    """Outcome of a selection run.

    ``status`` is "found" (all selection fields populated) or
    "not_applicable" (only the trace is populated).  ``K`` is the selected
    model order; on disconnected fallbacks the assignment may contain extra
    pseudo-clusters beyond K.
    """

    status: str
    node_ids: tuple[str, ...]
    K: int | None
    assignment: ClusterAssignment | None
    w_star: LayerWeights | None
    snr: float | None
    reliable_set: tuple[ReliableCandidate, ...]
    trace: tuple[TraceRecord, ...]

    @property
    def selected(self) -> ReliableCandidate | None:
        """The reliable candidate whose K, clustering and weights were selected."""
        return min(self.reliable_set, key=_rank, default=None)


def _per_layer(value: float | tuple[float, ...], L: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * L
    levels = tuple(float(v) for v in value)
    if len(levels) != L:
        raise ValueError(f"{name} has {len(levels)} levels for {L} layers")
    return levels


@dataclass(frozen=True)
class _Component:
    """The part of the graph that one weight vector's step clusters.

    ``agg`` aggregates ``graph`` with the weights.  When the full aggregation
    is connected, ``graph`` is the full graph and ``nodes`` is None;
    otherwise ``graph`` is the subgraph induced by the largest component,
    ``nodes`` holds its node indices and ``others`` the other components.
    """

    agg: AggregatedGraph
    graph: MultilayerGraph
    nodes: np.ndarray | None
    others: tuple[np.ndarray, ...]

    @property
    def size(self) -> int | None:
        """Clustered node count when disconnected (as traced), else None."""
        return None if self.nodes is None else self.graph.n

    def lift(self, assignment: ClusterAssignment) -> ClusterAssignment:
        """Extend a component assignment to all nodes.

        Each other component becomes one pseudo-cluster, labeled K, K+1, ...
        """
        if self.nodes is None:
            return assignment
        labels = np.empty(self.graph.n + sum(c.size for c in self.others), dtype=np.int64)
        labels[self.nodes] = assignment.labels
        for label, nodes in enumerate(self.others, start=assignment.K):
            labels[nodes] = label
        return ClusterAssignment(labels)


def _component(graph: MultilayerGraph, w: LayerWeights) -> _Component:
    """Aggregate with ``w``; restrict to the largest component if disconnected.

    The component of maximal size (ties: smallest node index) is clustered.
    """
    agg = aggregate(graph, w)
    comps = connected_components(agg)
    if len(comps) == 1:
        return _Component(agg, graph, None, ())
    main = int(np.argmax([c.size for c in comps]))  # first maximal component wins ties
    nodes = comps[main]
    sub = MultilayerGraph.from_matrices(
        tuple(graph.node_ids[i] for i in nodes), [mat[nodes][:, nodes] for mat in graph.layers]
    )
    others = tuple(c for i, c in enumerate(comps) if i != main)
    return _Component(induced_subgraph(agg.weight_matrix, nodes), sub, nodes, others)


def _vtest_scan(est: NoiseEstimates, assignment: ClusterAssignment) -> tuple[float, tuple[int, int, int]]:
    """Smallest homogeneity p-value over all ordered cluster pairs and layers.

    Block (i, j)'s row sums are ``est.row_counts`` at cluster i's rows and
    column j.  Returns (min p, (i, j, layer)); ties keep the first in
    (layer, i, j) scan order.
    """
    K = assignment.K
    members = [assignment.members(k) for k in range(K)]
    sizes = assignment.sizes
    best_p, best_arg = np.inf, (0, 0, 0)
    for layer, counts in enumerate(est.row_counts):
        for i in range(K):
            for j in range(K):
                if i == j:
                    continue
                p = vtest_from_row_sums(counts[members[i], j], int(sizes[j]))
                if p < best_p:
                    best_p, best_arg = p, (i, j, layer)
    return float(best_p), best_arg


def run_mimosa(graph: MultilayerGraph, config: MimosaConfig | None = None) -> MimosaResult:
    """Select the model order and layer weights of a multilayer graph.

    See the module docstring for the loop structure.  The run is
    deterministic given (graph, config).  A disconnected aggregation is
    handled by clustering the largest connected component and reporting the
    remaining components as whole pseudo-clusters (flagged in the trace).

    Raises:
        ValueError: fewer than 4 nodes, or config/graph shape mismatches.
        Numeric errors from the eigensolver propagate with the partial
        trace attached as a ``mimosa_trace`` attribute.
    """
    if config is None:
        config = MimosaConfig()
    n = graph.n
    if n < 4:
        raise ValueError(f"model-order selection needs at least 4 nodes, got {n}")
    w_ini = config.w_ini if config.w_ini is not None else LayerWeights.uniform(graph.L)
    if len(w_ini) != graph.L:
        raise ValueError(f"w_ini has {len(w_ini)} entries for {graph.L} layers")
    levels = (_per_layer(config.alpha, graph.L, "alpha"), _per_layer(config.alpha_prime, graph.L, "alpha_prime"))

    trace: list[TraceRecord] = []
    reliable: list[ReliableCandidate] = []
    try:
        for record, candidate in _steps(graph, config, w_ini, levels):
            trace.append(record)
            if candidate is not None:
                reliable.append(candidate)
    except Exception as err:  # attach partial trace for post-mortem inspection
        err.mimosa_trace = tuple(trace)  # type: ignore[attr-defined]
        raise

    best = min(reliable, key=_rank, default=None)
    K, assignment, w_star, ratio = (None,) * 4 if best is None else (best.K, best.assignment, best.w, best.snr)
    return MimosaResult(
        status="not_applicable" if best is None else "found", node_ids=graph.node_ids, K=K,
        assignment=assignment, w_star=w_star, snr=ratio, reliable_set=tuple(reliable), trace=tuple(trace),
    )


_Levels = tuple[tuple[float, ...], tuple[float, ...]]  # per-layer (alpha, alpha_prime)
_Step = tuple[TraceRecord, ReliableCandidate | None]
_NoiseMemo = dict[tuple[bytes | None, bytes], NoiseEstimates]  # (component nodes, labels) -> estimates


def _noise(memo: _NoiseMemo, comp: _Component, assignment: ClusterAssignment) -> NoiseEstimates:
    """Noise estimates of ``comp`` under ``assignment``, made once per run.

    They depend on the component's graph and the labels only, not on the
    weights, and a component's graph is fixed by its node set.
    """
    key = (None if comp.nodes is None else comp.nodes.tobytes(), assignment.labels.tobytes())
    if key not in memo:
        memo[key] = estimate_noise(comp.graph, assignment)
    return memo[key]


def _steps(graph: MultilayerGraph, config: MimosaConfig, w_ini: LayerWeights, levels: _Levels) -> Iterator[_Step]:
    """Yield each step's trace record and reliable candidate, in trace order.

    Per K: the init step, then one step per tau; stops after the first K
    with a reliable candidate.
    """
    seed = int(config.seed)
    steps_per_k = len(config.tau_set) + 1
    noise: _NoiseMemo = {}
    comp_ini = _component(graph, w_ini)
    if comp_ini.nodes is not None:
        warnings.warn(
            f"aggregated graph is disconnected; clustering its largest component "
            f"({comp_ini.graph.n} of {graph.n} nodes)",
            stacklevel=3,
        )
    # K clusters of at least K nodes need K^2 nodes, and no tau's component is
    # larger than this one: adapt_weights never makes a zero layer weight
    # positive.  So no K above isqrt(component size) can be reliable.
    for K in range(2, min(config.max_k or math.inf, math.isqrt(comp_ini.graph.n)) + 1):
        # The init step clusters with the initial weights; its embedding is kept for this K.
        emb_ini = _embed(comp_ini, K, seed, 0)
        asg_ini = _cluster(emb_ini, K, seed, 0)
        t_ini = _noise(noise, comp_ini, asg_ini).t_hat_layer
        yield TraceRecord(
            index=(K - 2) * steps_per_k, K=K, tau=None, w=tuple(w_ini.values), outcome="init_ok",
            disconnected=comp_ini.nodes is not None, component_size=comp_ini.size,
            cluster_sizes=tuple(int(s) for s in asg_ini.sizes),
            t_hat_layers=tuple(float(t) for t in t_ini),
        ), None

        found_at_k = False
        for z, tau in enumerate(config.tau_set, start=1):
            w = adapt_weights(w_ini, t_ini, tau)
            # equal weights (always so at tau = 0) share the init step's component and embedding
            comp, embedding = (comp_ini, emb_ini) if w == w_ini else (_component(graph, w), None)
            step = _candidate(config, comp, embedding, w, K, z, (K - 2) * steps_per_k + z, levels, noise)
            found_at_k |= step[1] is not None
            yield step
        if found_at_k:
            return


def _embed(comp: _Component, K: int, seed: int, z: int) -> SpectralEmbedding:
    """Spectral embedding of one component.

    ``z`` is the step within K: 0 for the initial weights, i for the i-th
    tau.  ARPACK's start vector (components over 512 nodes) derives from
    (seed, K, z) alone; ARPACK solves the K pairs the embedding uses, not
    eigenvalue K+1, which no step reads.  A tau step whose weights equal
    the initial ones solves nothing: it shares the init step's embedding,
    start vector included.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, K, z, 0]))
    return smallest_eigenpairs(comp.agg, K, rng=rng, next_eigenvalue=False)


def _cluster(embedding: SpectralEmbedding, K: int, seed: int, z: int) -> ClusterAssignment:
    """K-means of an embedding, seeded from (seed, K, z) alone."""
    kmeans_seed = int(np.random.SeedSequence([seed, K, z, 1]).generate_state(1)[0])
    return kmeans(embedding.Y, K, seed=kmeans_seed)


def _candidate(
    config: MimosaConfig, comp: _Component, embedding: SpectralEmbedding | None, w: LayerWeights,
    K: int, z: int, index: int, levels: _Levels, noise: _NoiseMemo,
) -> _Step:
    """The z-th tau step of K: cluster ``comp`` (aggregated with ``w``) and test it.

    ``embedding`` is the component's embedding when already solved (the init
    step's, when ``w`` equals the initial weights); None solves it here.
    ``noise`` holds the run's noise estimates so far.
    Returns the step's trace record and, when every reliability test passes,
    its candidate; the record's index is ``index``.
    """
    tau = config.tau_set[z - 1]
    base = dict(index=index, K=K, tau=tau, w=tuple(w.values), disconnected=comp.nodes is not None,
                component_size=comp.size)
    if comp.graph.n < K + 1:
        return TraceRecord(outcome="component_too_small", **base), None

    seed = int(config.seed)
    if embedding is None:
        embedding = _embed(comp, K, seed, z)
    sub_assignment = _cluster(embedding, K, seed, z)
    base["cluster_sizes"] = tuple(int(s) for s in sub_assignment.sizes)

    if sub_assignment.n_min < K:
        return TraceRecord(outcome="degenerate_cluster", **base), None

    est = _noise(noise, comp, sub_assignment)
    min_p, min_arg = _vtest_scan(est, sub_assignment)
    base["vtest_min_p"] = min_p
    base["vtest_min_arg"] = min_arg
    if min_p <= config.eta:
        return TraceRecord(outcome="homogeneity_reject", **base), None

    sums = cluster_partial_sums(comp.agg, sub_assignment)
    t_lb_hat = float(sums.min() / ((K - 1) * sub_assignment.n_max))
    t_hat_w = float(w.values @ est.t_hat_layer)
    t_max_w = float(w.values @ est.t_max_layer)
    base.update(
        t_hat_layers=tuple(float(t) for t in est.t_hat_layer),
        t_max_layers=tuple(float(t) for t in est.t_max_layer),
        t_hat_w=t_hat_w,
        t_max_w=t_max_w,
        t_lb_hat=t_lb_hat,
    )

    alpha, alpha_prime = levels
    glrt = tuple(glrt_identical_noise(est, layer, a).accept for layer, a in enumerate(alpha))
    base["glrt_accepts"] = glrt
    route = None
    if all(glrt):
        if t_hat_w < t_lb_hat:
            route = "identical"
    else:
        ans = tuple(
            anscombe_nonidentical_test(est, layer, t_lb_hat, a).accept for layer, a in enumerate(alpha_prime)
        )
        base["anscombe_accepts"] = ans
        if all(ans) and t_max_w < t_lb_hat:
            route = "nonidentical"

    if route is None:
        return TraceRecord(outcome="not_reliable", **base), None

    ratio = snr(t_lb_hat, t_hat_w)
    candidate = ReliableCandidate(
        w=w, assignment=comp.lift(sub_assignment), snr=ratio, K=K, tau=tau, trace_index=index,
        t_lb_hat=t_lb_hat, t_hat_w=t_hat_w, t_max_w=t_max_w, route=route,
        partial_sum=partial_eigenvalue_sum(embedding),
    )
    return TraceRecord(outcome="reliable", route=route, reliable=True, snr=ratio, **base), candidate


# ---------------------------------------------------------------------------
# Result document
# ---------------------------------------------------------------------------


def _encode(value):
    """Recursively convert a result structure to strict-JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return value


def _decode(value):
    """Inverse of :func:`_encode` for value positions."""
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    if value == "nan":
        return float("nan")
    return value


def _candidate_dict(candidate: ReliableCandidate, node_ids: tuple[str, ...]) -> dict:
    return {
        "K": candidate.K,
        "tau": candidate.tau,
        "trace_index": candidate.trace_index,
        "snr": candidate.snr,
        "t_lb_hat": candidate.t_lb_hat,
        "t_hat_w": candidate.t_hat_w,
        "t_max_w": candidate.t_max_w,
        "route": candidate.route,
        "w": list(candidate.w.values),
        "labels": {node: int(label) for node, label in zip(node_ids, candidate.assignment.labels)},
    }


def strict_json(doc: dict) -> str:
    """Key-sorted, indented JSON text of ``doc`` (non-finite floats as strings)."""
    return json.dumps(_encode(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def serialize_result(result: MimosaResult) -> str:
    """Serialize a result to a deterministic key-sorted JSON document.

    Non-finite floats are encoded as the strings "inf"/"-inf"/"nan" so the
    document stays strict JSON.  A not-applicable result carries only the
    status and the trace.
    """
    doc: dict = {
        "status": result.status,
        "trace": [asdict(r) for r in result.trace],
    }
    if result.status == "found":
        doc["K"] = result.K
        doc["labels"] = {
            node: int(label) for node, label in zip(result.node_ids, result.assignment.labels)
        }
        doc["w_star"] = list(result.w_star.values)
        doc["snr"] = result.snr
        doc["reliable_set"] = [_candidate_dict(c, result.node_ids) for c in result.reliable_set]
    return strict_json(doc)


def parse_result(text: str) -> dict:
    """Parse a serialized result document back into plain Python structures.

    Numeric sentinels ("inf"/"-inf"/"nan") decode back to floats.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "status" not in doc:
        raise ValueError("not a result document: missing status field")
    return _decode(doc)
