"""The four workloads: seeded inputs, one round of operations, and checks.

Every input comes from ``mlsgc.synth.generate_two_layer`` with the models of
the acceptance tests.  A round is a fixed list of operations that depends on
the seed only; the benchmark repeats whole rounds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

import mlsgc
from mlsgc import LayerWeights, MimosaConfig, MultilayerGraph, TwoLayerCorrelatedParams

import checks
from tracing import span

# Two correlated layers with three planted clusters (the acceptance tests' model).
CORRELATION = dict(q11=0.3, q10=0.2, q01=0.1, q00=0.4)
# One 60-node cluster whose two layers are independent G(n, 0.25): pure noise.
NULL_MODEL = dict(cluster_sizes=(60,), q11=0.0625, q10=0.1875, q01=0.1875, q00=0.5625, p1=0.25, p2=0.25)
PLANTED_MODEL = dict(cluster_sizes=(200, 200, 200), **CORRELATION, p1=0.25, p2=0.25)
LARGE_MODEL = dict(cluster_sizes=(1000, 1000, 1000), **CORRELATION, p1=0.05, p2=0.05)
GATE_TRIALS = 20  # the acceptance gates run trials 0..19 of each MIMOSA model
# Instances per round, drawn from the gate's trials: several instances average
# out how much the MIMOSA work differs from one instance to the next.
PER_ROUND = {"mimosa-null": 2, "mimosa-planted": 10}
SETUP_REPEATS = 3
MIN_AGREEMENT = 0.95
K = 3


@dataclass
class Instance:
    """One generated input: the graph, its planted labels and the op's seed."""

    graph: MultilayerGraph
    truth: np.ndarray
    seed: int


def instance_seeds(workload: str, seed: int) -> list[tuple[int, int]]:
    """(generator seed, operation seed) of each instance of a round."""
    if workload in PER_ROUND:
        base = 600 if workload == "mimosa-null" else 100
        trials = np.random.default_rng(seed).choice(GATE_TRIALS, size=PER_ROUND[workload], replace=False)
        return [(base + int(t), int(t)) for t in sorted(trials)]
    return [(3000 + seed, seed)]


def model(workload: str) -> dict:
    return {"mimosa-null": NULL_MODEL, "mimosa-planted": PLANTED_MODEL}.get(workload, LARGE_MODEL)


def generate(workload: str, seed: int) -> list[Instance]:
    out = []
    for graph_seed, op_seed in instance_seeds(workload, seed):
        graph, truth = mlsgc.generate_two_layer(TwoLayerCorrelatedParams(**model(workload), seed=graph_seed))
        out.append(Instance(graph, np.asarray(truth.labels), op_seed))
    return out


def save(instances: list[Instance], path: Path) -> None:
    arrays = {}
    for i, inst in enumerate(instances):
        arrays[f"{i}.truth"] = inst.truth
        arrays[f"{i}.seed"] = np.array(inst.seed)
        arrays[f"{i}.ids"] = np.array(inst.graph.node_ids)
        for layer, mat in enumerate(inst.graph.layers):
            for part in ("data", "indices", "indptr"):
                arrays[f"{i}.{layer}.{part}"] = getattr(mat, part)
    np.savez(path, count=np.array(len(instances)), layers=np.array(instances[0].graph.L), **arrays)


def load(path: Path) -> list[Instance]:
    with np.load(path) as npz:
        out = []
        for i in range(int(npz["count"])):
            ids = tuple(str(s) for s in npz[f"{i}.ids"])
            layers = tuple(
                sparse.csr_array((npz[f"{i}.{l}.data"], npz[f"{i}.{l}.indices"], npz[f"{i}.{l}.indptr"]),
                                 shape=(len(ids), len(ids)))
                for l in range(int(npz["layers"]))
            )
            out.append(Instance(MultilayerGraph(node_ids=ids, layers=layers), npz[f"{i}.truth"],
                                int(npz[f"{i}.seed"])))
    return out


def timed_setup(workload: str, seed: int, work: Path) -> tuple[list[Instance], list[float], list[float]]:
    """Generate (and for the CLI, serialize and write) the inputs several times.

    Returns the inputs and, per repetition, the generation time and the
    serialization-plus-write time (zero when nothing is serialized).
    """
    generate_s, serialize_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances = generate(workload, seed)
        t1 = time.perf_counter()
        if workload == "cli-cluster-large":
            text = mlsgc.serialize_multilayer_edge_list(instances[0].graph)
            (work / "edges.tsv").write_text(text, encoding="utf-8")
        generate_s.append(t1 - t0)
        serialize_s.append(time.perf_counter() - t1)
    return instances, generate_s, serialize_s


# ---------------------------------------------------------------------------
# In-process operations (run by worker.py)
# ---------------------------------------------------------------------------


def warm_up(workload: str, instances: list[Instance]) -> None:
    """Load lazily imported code and fill caches before timing.

    The MIMOSA workloads run their first instance up to K=3 only; the
    large workload runs its full operation once.
    """
    inst = instances[0]
    if workload == "sgc-bounds-large":
        run_sgc_bounds(inst)
    else:
        mlsgc.run_mimosa(inst.graph, MimosaConfig(seed=inst.seed, max_k=K))


def run_sgc_bounds(inst: Instance, tracer=None):
    weights = LayerWeights.uniform(inst.graph.L)
    assignment, embedding = mlsgc.multilayer_sgc(inst.graph, weights, K, seed=inst.seed)
    with span(tracer, "theory.bounds"):
        bounds = mlsgc.critical_bounds(inst.graph, mlsgc.ClusterAssignment(inst.truth), weights)
    return assignment.labels, embedding, bounds


def operation(workload: str, inst: Instance, tracer=None):
    """Run one operation; under a tracer, inside its root span."""
    if workload == "sgc-bounds-large":
        with span(tracer, "bench.operation"):
            return run_sgc_bounds(inst, tracer)
    with span(tracer, "mimosa.run"):
        return mlsgc.run_mimosa(inst.graph, MimosaConfig(seed=inst.seed))


class Oracle:
    """Dense references, computed once per input outside the timed region."""

    def __init__(self, workload: str, instances: list[Instance]) -> None:
        self.workload = workload
        if workload == "sgc-bounds-large":
            inst = instances[0]
            uniform = LayerWeights.uniform(inst.graph.L).values
            self.spectrum = checks.smallest_eigvals(inst.graph.layers, uniform, K + 1)
            self.sums = checks.cluster_sums(inst.graph.layers, uniform, inst.truth, K)

    def check(self, inst: Instance, out) -> list[str]:
        if self.workload == "mimosa-null":
            return checks.check_declined(out)
        if self.workload == "mimosa-planted":
            return checks.check_selected(out, inst.graph.layers, inst.truth, K, MimosaConfig().eta)
        labels, embedding, bounds = out
        return (checks.check_agreement(labels, inst.truth, MIN_AGREEMENT, "multilayer_sgc")
                + checks.check_embedding(embedding.eigenvalues, embedding.lambda_kplus1, self.spectrum)
                + checks.check_bounds(bounds, self.sums))


def mimosa_counts(results) -> dict[str, float]:
    """Per-layer counts read from the traces of one round of MIMOSA runs."""
    candidates = [r for result in results for r in result.trace if r.tau is not None]
    return {
        "mimosa.candidates": len(candidates),
        "mimosa.degenerate_candidates": sum(r.outcome == "degenerate_cluster" for r in candidates),
        "mimosa.k_max_tried": max(r.K for result in results for r in result.trace),
        "mimosa.reliable_ratio": sum(r.reliable for r in candidates) / len(candidates) if candidates else 0.0,
    }


def summarize(metrics: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds of each per-layer metric."""
    return {name: float(np.median([m[name] for m in metrics])) for name in metrics[0]}


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")
