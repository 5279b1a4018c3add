"""System-level acceptance gates.

Each test pins an end-to-end behavioral contract of the package on scaled
synthetic instances: the detectability phase transition and its predicted
location, the slope change of the aggregated partial eigenvalue sum, the
embedding geometry on both sides of the transition, the critical
layer-weight crossing, model-order selection end to end, type-I calibration
of the statistical tests, exact agreement with brute-force oracles, the
embedding perturbation bound, and bit-for-bit CLI determinism.

The noise sweep shared by the first four tests is module-scoped; the whole
module runs in a few minutes single-threaded.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from mlsgc import (
    ClusterAssignment,
    GeneralRimParams,
    LayerWeights,
    MimosaConfig,
    MimosaResult,
    TwoLayerCorrelatedParams,
    aggregate,
    critical_bounds,
    critical_weight_w1,
    detectability,
    estimate_noise,
    generate_rim,
    generate_two_layer,
    glrt_identical_noise,
    kmeans,
    multilayer_sgc,
    partial_eigenvalue_sum,
    rand_index,
    run_mimosa,
    smallest_eigenpairs,
    subspace_distance,
    subspace_perturbation_bound,
    vtest_from_row_sums,
)
from mlsgc.cli import main as cli_main
from mlsgc.graph_core import induced_subgraph

from .conftest import connected_random_multilayer

# Three equal planted clusters, two correlated layers.  With unit edge
# weights and equal per-layer noise probabilities p, the aggregated noise
# level t^w equals p for every convex weight vector.
CORRELATION = dict(q11=0.3, q10=0.2, q01=0.1, q00=0.4)
SIZES = (200, 200, 200)
K = 3
HALF_HALF = LayerWeights.uniform(2)
NOISE_GRID = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85)
TRIALS_PER_POINT = 10


@dataclass(frozen=True)
class SweepTrial:
    p: float
    det: float
    t_lb: float
    t_ub: float
    s2k_over_n: float
    Y: np.ndarray
    truth: ClusterAssignment


@dataclass(frozen=True)
class NoiseSweep:
    trials: tuple[SweepTrial, ...]
    elapsed: float
    easy: tuple[float, ...]  # grid points with t^w <= 0.9 * mean t_LB
    hard: tuple[float, ...]  # grid points with t^w >= 1.5 * mean t_UB

    def at(self, p: float) -> list[SweepTrial]:
        return [t for t in self.trials if t.p == p]


@pytest.fixture(scope="module")
def noise_sweep() -> NoiseSweep:
    """Clustering runs across the noise grid, with per-trial bounds kept."""
    start = time.monotonic()
    records = []
    for p in NOISE_GRID:
        for trial in range(TRIALS_PER_POINT):
            params = TwoLayerCorrelatedParams(
                cluster_sizes=SIZES, **CORRELATION, p1=p, p2=p,
                seed=round(p * 1000) * 100 + trial,
            )
            graph, truth = generate_two_layer(params)
            found, embedding = multilayer_sgc(graph, HALF_HALF, K, seed=trial)
            bounds = critical_bounds(graph, truth, HALF_HALF)
            records.append(SweepTrial(
                p=p,
                det=detectability(found, truth),
                t_lb=bounds.t_lb,
                t_ub=bounds.t_ub,
                s2k_over_n=partial_eigenvalue_sum(embedding) / graph.n,
                Y=embedding.Y,
                truth=truth,
            ))
    elapsed = time.monotonic() - start

    easy, hard = [], []
    for p in NOISE_GRID:
        points = [t for t in records if t.p == p]
        if p <= 0.9 * float(np.mean([t.t_lb for t in points])):
            easy.append(p)
        if p >= 1.5 * float(np.mean([t.t_ub for t in points])):
            hard.append(p)
    return NoiseSweep(tuple(records), elapsed, tuple(easy), tuple(hard))


def test_detectability_phase_transition_across_noise_grid(noise_sweep):
    """Noise separates clustering into reliable and unreliable regimes.

    Every grid point whose noise level sits at most 0.9x the lower bound
    must cluster near-perfectly; every point at or beyond 1.5x the upper
    bound must have collapsed.  The whole sweep stays under five minutes.
    """
    assert noise_sweep.easy, "no grid point below the transition"
    assert noise_sweep.hard, "no grid point above the transition"
    for p in noise_sweep.easy:
        mean_det = float(np.mean([t.det for t in noise_sweep.at(p)]))
        assert mean_det >= 0.95, f"p={p}: mean detectability {mean_det:.4f} < 0.95"
    for p in noise_sweep.hard:
        mean_det = float(np.mean([t.det for t in noise_sweep.at(p)]))
        assert mean_det <= 0.60, f"p={p}: mean detectability {mean_det:.4f} > 0.60"
    assert noise_sweep.elapsed <= 300.0


def _slope(trials: list[SweepTrial]) -> float:
    x = np.array([t.p for t in trials])
    y = np.array([t.s2k_over_n for t in trials])
    return float(np.polyfit(x, y, 1)[0])


def test_partial_sum_slope_changes_at_the_transition(noise_sweep):
    """S_{2:K}(L^w)/n grows with slope K-1 below the transition and
    (K-1)^2/K above it (equal cluster sizes)."""
    below = [t for t in noise_sweep.trials if t.p in noise_sweep.easy]
    above = [t for t in noise_sweep.trials if t.p in noise_sweep.hard]
    slope_below = _slope(below)
    slope_above = _slope(above)
    assert abs(slope_below - (K - 1)) <= 0.05 * (K - 1), slope_below
    expected_above = (K - 1) ** 2 / K
    assert abs(slope_above - expected_above) <= 0.10 * expected_above, slope_above


def test_embedding_rows_cluster_tightly_below_the_transition(noise_sweep):
    """Deep below the transition the embedding rows concentrate at K
    centroids: every cluster's row spread is at most a tenth of the minimum
    centroid separation in at least 9 of 10 trials."""
    p = min(noise_sweep.easy)
    passes = 0
    for t in noise_sweep.at(p):
        members = [t.truth.members(k) for k in range(t.truth.K)]
        centroids = np.array([t.Y[m].mean(axis=0) for m in members])
        spreads = [
            float(np.sqrt(((t.Y[m] - c) ** 2).sum(axis=1).mean()))
            for m, c in zip(members, centroids)
        ]
        gaps = [
            float(np.linalg.norm(centroids[i] - centroids[j]))
            for i in range(t.truth.K)
            for j in range(i + 1, t.truth.K)
        ]
        passes += max(spreads) <= 0.1 * min(gaps)
    assert passes >= 9, f"p={p}: only {passes}/10 trials well separated"


def test_embedding_centroids_collapse_above_the_transition(noise_sweep):
    """Far above the transition the cluster structure vanishes: every
    cluster's row mean has norm at most a tenth of the overall row RMS in at
    least 9 of 10 trials."""
    for p in (min(noise_sweep.hard), max(noise_sweep.hard)):
        passes = 0
        for t in noise_sweep.at(p):
            rms = float(np.sqrt((t.Y**2).sum(axis=1).mean()))
            norms = [
                float(np.linalg.norm(t.Y[t.truth.members(k)].mean(axis=0)))
                for k in range(t.truth.K)
            ]
            passes += max(norms) <= 0.1 * rms
        assert passes >= 9, f"p={p}: only {passes}/10 trials collapsed"


def _layer_signal_levels(graph, truth, K: int) -> list[float]:
    """Per-layer signal level: min over clusters of S_{2:K}(within-cluster
    Laplacian) / n, from the realized (not idealized) subgraphs."""
    return [
        min(
            float(np.linalg.eigvalsh(induced_subgraph(mat, truth.members(k)).laplacian_dense())[1:K].sum())
            for k in range(truth.K)
        ) / graph.n
        for mat in graph.layers
    ]


def test_detectability_crossing_matches_predicted_critical_weight():
    """With one clean layer (p1=0.2) and one noisy layer (p2=0.5), the layer
    weight where mean detectability crosses 0.7 lies within 0.1 of the
    critical weight solved from the noise/signal balance equation."""
    p1, p2 = 0.2, 0.5
    instances = [
        generate_two_layer(TwoLayerCorrelatedParams(
            cluster_sizes=SIZES, **CORRELATION, p1=p1, p2=p2, seed=4000 + trial,
        ))
        for trial in range(20)
    ]
    levels = np.array(
        [_layer_signal_levels(g, truth, K) for g, truth in instances[:3]]
    ).mean(axis=0)
    predicted = critical_weight_w1(p1, p2, levels[0], levels[1], K)
    assert predicted.value is not None and not predicted.degenerate

    grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    curve = np.array([
        float(np.mean([
            detectability(
                multilayer_sgc(g, LayerWeights(np.array([w1, 1.0 - w1])), K, seed=trial)[0],
                truth,
            )
            for trial, (g, truth) in enumerate(instances)
        ]))
        for w1 in grid
    ])
    assert curve[0] < 0.7 < curve[-1], "no transition along the weight axis"
    i = int(np.flatnonzero(curve >= 0.7)[0])
    crossing = grid[i - 1] + 0.05 * (0.7 - curve[i - 1]) / (curve[i] - curve[i - 1])
    assert abs(crossing - predicted.value) <= 0.1, (crossing, predicted.value)


def test_detectability_floor_at_high_noise_matches_random_guessing():
    """With both layers at noise 0.5 the mean detectability over 50 trials
    sits at the random-guess floor 1/K = 0.33 (within 0.05)."""
    dets = []
    for trial in range(50):
        params = TwoLayerCorrelatedParams(
            cluster_sizes=SIZES, **CORRELATION, p1=0.5, p2=0.5, seed=5000 + trial,
        )
        graph, truth = generate_two_layer(params)
        found, _ = multilayer_sgc(graph, HALF_HALF, K, seed=trial)
        dets.append(detectability(found, truth))
    assert abs(float(np.mean(dets)) - 0.33) <= 0.05


@pytest.fixture(scope="module")
def selection_runs() -> dict[int, tuple[ClusterAssignment, MimosaResult]]:
    """MIMOSA's result and the planted truth on the 40 acceptance instances,
    keyed by generator seed: seeds 100..119 are three planted clusters
    (3x200, p = 0.25), seeds 600..619 pure noise (n = 60); instance i of
    each runs with ``MimosaConfig(seed=i)``."""
    runs = {}
    for trial in range(20):
        planted = TwoLayerCorrelatedParams(
            cluster_sizes=SIZES, **CORRELATION, p1=0.25, p2=0.25, seed=100 + trial,
        )
        null = TwoLayerCorrelatedParams(
            cluster_sizes=(60,), q11=0.0625, q10=0.1875, q01=0.1875, q00=0.5625,
            p1=0.25, p2=0.25, seed=600 + trial,
        )
        for params in (planted, null):
            graph, truth = generate_two_layer(params)
            runs[params.seed] = (truth, run_mimosa(graph, MimosaConfig(seed=trial)))
    return runs


def test_model_order_selection_recovers_planted_clusters(selection_runs):
    """In the reliable regime (p=0.25, below 0.9x the lower bound) the
    selection loop finds K=3 with detectability >= 0.95 in >= 18/20 runs."""
    successes = 0
    for trial in range(20):
        truth, result = selection_runs[100 + trial]
        if (
            result.status == "found"
            and result.K == K
            and detectability(result.assignment, truth) >= 0.95
        ):
            successes += 1
    assert successes >= 18, f"only {successes}/20 runs recovered the clusters"


def test_model_order_selection_reports_pure_noise_as_not_applicable(selection_runs):
    """On two independent Erdos-Renyi layers (n=60, density 0.25, no planted
    structure) the selection loop declines in >= 18/20 runs.  A single
    planted cluster with independent within-layer edges (q11 = 0.25^2) is
    exactly that null model."""
    declined = 0
    for trial in range(20):
        _, result = selection_runs[600 + trial]
        declined += result.status == "not_applicable"
    assert declined >= 18, f"only {declined}/20 pure-noise runs declined"


# One entry per acceptance instance, as ``_record`` gives it; the file was
# written before theory reused MIMOSA's aggregations.  A change that moves a
# selection on purpose rewrites it and names the change.
SELECTION_RECORD = Path(__file__).with_name("mimosa_acceptance_record.json")


def _record(seed: int, result: MimosaResult) -> dict:
    found = result.status == "found"
    return {
        "seed": seed,
        "status": result.status,
        "K": result.K,
        "labels_sha256": hashlib.sha256(result.assignment.labels.astype("<i8").tobytes()).hexdigest()
        if found else None,
        "w_star": [repr(float(w)) for w in result.w_star.values] if found else None,
        "snr": repr(float(result.snr)) if found else None,
    }


def test_model_order_selection_matches_the_committed_record(selection_runs):
    """Status, K and labels are exactly as recorded; ``w_star`` and ``snr``
    agree to 1e-12 relative, since LAPACK builds may differ in the last ulp."""
    expected = json.loads(SELECTION_RECORD.read_text(encoding="utf-8"))
    assert [entry["seed"] for entry in expected] == sorted(selection_runs)
    exact = ("seed", "status", "K", "labels_sha256")
    for entry in expected:
        got = _record(entry["seed"], selection_runs[entry["seed"]][1])
        assert {key: got[key] for key in exact} == {key: entry[key] for key in exact}
        for key in ("w_star", "snr"):
            if entry[key] is None:
                assert got[key] is None, (entry["seed"], key)
            else:
                assert np.asarray(got[key], dtype=float) == pytest.approx(
                    np.asarray(entry[key], dtype=float), rel=1e-12, abs=0.0), (entry["seed"], key)


def test_homogeneity_test_type_one_error_is_calibrated():
    """Under the null (iid binomial row sums) the homogeneity test rejects
    at close to its nominal rate: within [alpha/2, 2 alpha] over 1000
    trials for alpha in {0.01, 0.05}."""
    rng = np.random.default_rng(7003)
    pvals = np.array([
        vtest_from_row_sums(rng.binomial(100, 0.2, size=100), 100)
        for _ in range(1000)
    ])
    for alpha in (0.01, 0.05):
        rate = float(np.mean(pvals <= alpha))
        assert alpha / 2 <= rate <= 2 * alpha, f"alpha={alpha}: rate={rate}"


def test_identical_noise_test_type_one_error_is_calibrated():
    """Under the null (every between-cluster block at p=0.2) the identical-
    noise likelihood-ratio test rejects at close to its nominal rate over
    1000 generated graphs (K=3, n_k=100)."""
    pvals = []
    for trial in range(1000):
        params = GeneralRimParams(
            cluster_sizes=(100, 100, 100), n_layers=1,
            within_probs=[[0.5, 0.5, 0.5]], noise_probs=[0.2], seed=40000 + trial,
        )
        graph, truth = generate_rim(params)
        pvals.append(glrt_identical_noise(estimate_noise(graph, truth), 0).p_value)
    pvals = np.array(pvals)
    for alpha in (0.01, 0.05):
        rate = float(np.mean(pvals <= alpha))
        assert alpha / 2 <= rate <= 2 * alpha, f"alpha={alpha}: rate={rate}"


def test_eigensolver_matches_dense_oracle():
    """Eigenvalues 2..K+1 from the sparse iterative solver agree with a
    dense symmetric eigendecomposition to 1e-8 on random small graphs."""
    rng = np.random.default_rng(8000)
    for _ in range(20):
        n = int(rng.integers(10, 51))
        L = int(rng.integers(1, 4))
        graph = connected_random_multilayer(rng, n, L)
        k = int(rng.integers(2, 6))
        weights = LayerWeights(rng.dirichlet(np.ones(L)))
        agg = aggregate(graph, weights)
        embedding = smallest_eigenpairs(agg, k, rng=np.random.default_rng(int(rng.integers(1 << 31))))
        dense = np.linalg.eigvalsh(agg.laplacian_dense())
        assert np.max(np.abs(embedding.eigenvalues - dense[1:k])) <= 1e-8
        assert abs(embedding.lambda_kplus1 - dense[k]) <= 1e-8


def _compact(labels: np.ndarray) -> np.ndarray:
    """Relabel to consecutive 0..K-1 (required by ClusterAssignment)."""
    return np.unique(labels, return_inverse=True)[1]


def test_rand_index_matches_pair_enumeration_oracle():
    n = 12
    for case in range(100):
        rng = np.random.default_rng(8100 + case)
        a = _compact(rng.integers(0, int(rng.integers(2, 5)), size=n))
        b = _compact(rng.integers(0, int(rng.integers(2, 5)), size=n))
        agree = sum(
            (a[u] == a[v]) == (b[u] == b[v])
            for u in range(n)
            for v in range(u + 1, n)
        )
        oracle = agree / (n * (n - 1) / 2)
        assert rand_index(ClusterAssignment(a), ClusterAssignment(b)) == oracle


def test_detectability_matches_permutation_search_oracle():
    n = 20
    for case in range(100):
        rng = np.random.default_rng(8200 + case)
        k = int(rng.integers(2, 6))

        def draw() -> np.ndarray:
            labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            rng.shuffle(labels)
            return labels

        found, truth = draw(), draw()
        oracle = max(
            int(np.sum(np.array(perm)[found] == truth))
            for perm in permutations(range(k))
        ) / n
        assert detectability(ClusterAssignment(found), ClusterAssignment(truth)) == oracle


def _wcss(rows: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for k in np.unique(labels):
        points = rows[labels == k]
        total += float(((points - points.mean(axis=0)) ** 2).sum())
    return total


def test_kmeans_attains_exhaustive_optimum_on_small_inputs():
    """Seeded K-means with restarts reaches the globally optimal 2-way
    within-cluster sum of squares (checked against all 254 nonempty
    bipartitions of 8 points) in at least 95 of 100 cases."""
    hits = 0
    for case in range(100):
        rows = np.random.default_rng(8300 + case).normal(size=(8, 2))
        got = _wcss(rows, kmeans(rows, 2, seed=case).labels)
        best = min(
            _wcss(rows, np.array([(mask >> i) & 1 for i in range(8)]))
            for mask in range(1, 255)
        )
        hits += got <= best + 1e-9
    assert hits >= 95, f"optimal in only {hits}/100 cases"


def test_embedding_perturbation_bound_is_never_violated():
    """The sin-theta distance between the embeddings of a block-wise
    non-identically noisy graph and its identical-noise twin (same
    within-cluster signal, all blocks at the maximum aggregated level) never
    exceeds ||L^w - L~^w||_F / (n delta) across 20 sampled configurations
    whose maximum aggregated noise stays below the lower bound."""
    sizes = (150, 150, 150)
    iu = np.triu_indices(K, 1)
    violations = []
    for c in range(20):
        crng = np.random.default_rng(9000 + c)
        for _ in range(50):
            within = crng.uniform(0.40, 0.60, size=(2, K))
            noise = np.zeros((2, K, K))
            for layer in range(2):
                block = np.zeros((K, K))
                block[iu] = crng.uniform(0.02, 0.10, size=len(iu[0]))
                noise[layer] = block + block.T
            weights = LayerWeights(crng.dirichlet(np.ones(2)))
            params = GeneralRimParams(
                cluster_sizes=sizes, n_layers=2,
                within_probs=within, noise_probs=noise, seed=100 + c,
            )
            graph, truth = generate_rim(params)
            bounds = critical_bounds(graph, truth, weights)
            t_max = float(
                np.tensordot(weights.values, params.noise_level_matrix(), axes=1)[iu].max()
            )
            if t_max < bounds.t_lb:
                break
        else:
            pytest.fail(f"config {c}: no admissible noise draw in 50 attempts")
        within_graphs = tuple(
            tuple(W[truth.members(k)][:, truth.members(k)] for k in range(K))
            for W in graph.layers
        )
        twin, _ = generate_rim(GeneralRimParams(
            cluster_sizes=sizes, n_layers=2,
            within_graphs=within_graphs, noise_probs=[t_max, t_max], seed=500 + c,
        ))
        agg, agg_twin = aggregate(graph, weights), aggregate(twin, weights)
        embedding = smallest_eigenpairs(agg, K, rng=np.random.default_rng(c))
        embedding_twin = smallest_eigenpairs(agg_twin, K, rng=np.random.default_rng(c + 77))
        measured = subspace_distance(embedding.Y, embedding_twin.Y)
        bound = subspace_perturbation_bound(agg, agg_twin, t_max, embedding.lambda_kplus1)
        if measured > bound:
            violations.append((c, measured, bound))
    assert not violations, f"bound violations (config, measured, bound): {violations}"


# ----------------------------------------------------------------- CLI


GENERATE_PARAMS = """\
generator = two_layer
cluster_sizes = 100,100,100
q11 = 0.3
q10 = 0.2
q01 = 0.1
q00 = 0.4
p1 = 0.25
p2 = 0.25
seed = 7
"""

SWEEP_SPEC = """\
axis = p1:0.1:0.2:0.1
p2 = 0.1
cluster_sizes = 30,30,30
q11 = 0.3
q10 = 0.2
q01 = 0.1
q00 = 0.4
k = 3
mode = sgc
trials = 2
seed = 11
"""

# mode = mimosa from the base weights w, with per-layer alpha levels
MIMOSA_SWEEP_SPEC = """\
axis = p1:0.02:0.04:0.02
p2 = 0.03
cluster_sizes = 15,15
q11 = 0.6
q10 = 0.2
q01 = 0.1
q00 = 0.1
mode = mimosa
max_k = 4
w = 0.9,0.1
alpha = 0.05,0.01
trials = 2
seed = 5
"""


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_commands_are_byte_identical_across_reruns(tmp_path, capsys):
    """Every CLI command produces byte-identical stdout (and files) when run
    twice with the same seed."""
    transcripts = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        root.mkdir()
        params = root / "params.cfg"
        params.write_text(GENERATE_PARAMS, encoding="utf-8")
        spec = root / "sweep.cfg"
        spec.write_text(SWEEP_SPEC, encoding="utf-8")
        mimosa_spec = root / "mimosa-sweep.cfg"
        mimosa_spec.write_text(MIMOSA_SWEEP_SPEC, encoding="utf-8")
        edges, labels = root / "graph.tsv", root / "truth.labels"

        transcript = {}
        code, out, err = _run_cli(
            capsys, "generate", str(params), "--edges", str(edges), "--labels", str(labels)
        )
        assert code == 0, err
        transcript["generate"] = (out, edges.read_bytes(), labels.read_bytes())
        for name, argv in {
            "cluster": ("cluster", str(edges), "--k", "3"),
            "mimosa": ("mimosa", str(edges), "--seed", "0", "--tau-set", "0,1,100"),
            "sweep": ("sweep", str(spec)),
            "sweep-mimosa": ("sweep", str(mimosa_spec)),
            "evaluate": ("evaluate", str(edges), str(labels), "--truth", str(labels)),
            "theory-check": ("theory-check", str(edges), str(labels)),
        }.items():
            code, out, err = _run_cli(capsys, *argv)
            assert code == 0, (name, err)
            transcript[name] = out
        transcripts.append(transcript)
    assert transcripts[0] == transcripts[1]
