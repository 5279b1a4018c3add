"""The benchmark tracer still finds, and counts, every library name it wraps."""

from __future__ import annotations

import importlib.util
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import mlsgc.cli
from mlsgc import graph_core, spectral
from mlsgc import (
    ClusterAssignment,
    LayerWeights,
    MimosaConfig,
    TwoLayerCorrelatedParams,
    critical_bounds,
    generate_two_layer,
    multilayer_sgc,
    run_mimosa,
)

from .conftest import connected_random_multilayer, fresh_pool

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_boundary(tracing):
    # install() raises AttributeError when a refactor drops a name it wraps
    names = [(tracing._resolve(path), attr) for path, attr, _, _ in tracing.LIBRARY_BOUNDARIES]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(owner, attr) for owner, attr in names]
    finally:
        tracer.restore()
    unwrapped = [f"{owner.__name__}.{attr}" for (owner, attr), orig, now in zip(names, originals, wrapped)
                 if now is orig]
    assert unwrapped == []
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(names, originals))


def test_traced_mimosa_run_counts_every_stage(tracing):
    # a refactor that calls a stage under a name the tracer does not wrap
    # would make its counter read 0 instead of failing
    params = TwoLayerCorrelatedParams(
        cluster_sizes=(100, 100, 100), q11=0.3, q10=0.2, q01=0.1, q00=0.4,
        p1=0.25, p2=0.25, seed=42,
    )
    graph, _ = generate_two_layer(params)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        result = run_mimosa(graph, MimosaConfig(seed=0, max_k=3))
    finally:
        tracer.restore()
    assert result.status == "found"
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    stages = ("graph_core.aggregate", "graph_core.components", "spectral.eigensolve", "spectral.kmeans",
              "noise_stats.estimate", "noise_stats.vtest", "theory.partial_sums")
    assert {stage: metrics[f"{stage}_calls"] > 0 for stage in stages} == dict.fromkeys(stages, True)
    # theory measures the aggregation the candidate was clustered from
    spans = tracer.spans
    assert [i for i, (name, _, _, parent) in enumerate(spans)
            if name == "graph_core.aggregate" and parent >= 0 and spans[parent][0] == "theory.partial_sums"] == []


def test_traced_cli_run_records_one_parse(tracing, tmp_path, capsys):
    # the tracer wraps the parser under the name the CLI calls it by; calling
    # it under another name would make graph_core.parse_s read 0
    triangles = ["a\tb", "b\tc", "a\tc", "d\te", "e\tf", "d\tf", "c\td"]
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"0\t{pair}\t1.0\n" for pair in triangles), encoding="utf-8")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = mlsgc.cli.main(["cluster", str(edges), "--k", "2"])
    finally:
        tracer.restore()
    assert code == 0, capsys.readouterr().err
    assert [name for name, *_ in tracer.spans].count("graph_core.parse") == 1


def test_traced_row_block_products_keep_the_span_tree_and_the_count(tracing, monkeypatch):
    # the row blocks after the first run on pool threads; only the product on
    # the solver's thread may count, and no span may open on another thread
    graph = connected_random_multilayer(np.random.default_rng(23), 600, 2, density=0.02)

    def traced_run():
        tracer = tracing.Tracer()
        try:
            tracer.install()
            start = time.monotonic()
            root = tracer.begin("op", start)
            multilayer_sgc(graph, LayerWeights.uniform(2), 3, seed=0)
            end = time.monotonic()
            tracer.end(root, end)
        finally:
            tracer.restore()
        assert tracing.check_span_tree(tracer.spans, root, end - start) == []
        return tracing.layer_metrics(tracer.spans, tracer.counts)["spectral.matvecs"]

    one_block = traced_run()
    monkeypatch.setattr(graph_core, "_CPUS", 2)
    monkeypatch.setattr(graph_core, "_BLOCK_ENTRIES", 1)
    assert traced_run() == one_block > 0


def test_traced_arpack_solve_counts_its_operator_applications(tracing):
    # above 512 nodes ARPACK applies AggregatedGraph.laplacian_matvec, the name
    # the tracer counts; an operator that went round it would read 0
    graph = connected_random_multilayer(np.random.default_rng(23), 600, 2, density=0.02)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        multilayer_sgc(graph, LayerWeights.uniform(2), 3, seed=0)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["spectral.eigensolve_calls"] == 1
    assert metrics["spectral.matvecs"] > 0


def test_traced_concurrent_cluster_solves_keep_the_span_tree_and_count_every_solve(tracing, monkeypatch):
    # the bounds' ARPACK solves run two at once, one on a pool thread; that
    # thread opens no span, and each of its solves still counts
    rng = np.random.default_rng(8)
    labels = np.repeat(np.arange(3), 40)
    graph = connected_random_multilayer(rng, labels.size, 2, density=0.3)
    monkeypatch.setattr(spectral, "_DENSE_MAX_N", 30)
    threads = []
    gate = threading.Barrier(2)
    eigsh = spectral.sparse_linalg.eigsh

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        if len(threads) <= 2:  # the first two solves pass only together
            gate.wait(timeout=30)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.sparse_linalg, "eigsh", recorded)
    tracer = tracing.Tracer()
    with fresh_pool(2):
        try:
            tracer.install()
            start = time.monotonic()
            root = tracer.begin("theory.bounds", start)
            critical_bounds(graph, ClusterAssignment(labels), LayerWeights.uniform(2))
            end = time.monotonic()
            tracer.end(root, end)
        finally:
            tracer.restore()
    assert len(set(threads)) == 2
    assert tracing.check_span_tree(tracer.spans, root, end - start) == []
    assert [name for name, *_ in tracer.spans] == ["theory.bounds", "graph_core.aggregate", "theory.partial_sums"]
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert (metrics["theory.sparse_solves"], metrics["theory.dense_solves"]) == (3 + 2 * 3, 0)
