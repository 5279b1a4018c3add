"""Quick self-check of the benchmark's checks and tracer on tiny inputs.

Each check must pass on real library output and fail on a deliberately
corrupted copy of it.  Run from the root of an mlsgc checkout:

    python3 bench/selftest.py

Prints one line per case and exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import dataclasses
import io
import os
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import mlsgc  # noqa: E402
from mlsgc import LayerWeights, MimosaConfig, TwoLayerCorrelatedParams  # noqa: E402
from mlsgc.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, check_span_tree, layer_metrics  # noqa: E402

K = 3
FAILURES: list[str] = []


def expect(case: str, problems: list[str], should_pass: bool) -> None:
    ok = not problems if should_pass else bool(problems)
    print(f"{'ok    ' if ok else 'WRONG '} {case}: {'passes' if not problems else problems[0][:100]}")
    if not ok:
        FAILURES.append(case)


def planted(sizes, p, seed):
    return mlsgc.generate_two_layer(TwoLayerCorrelatedParams(
        cluster_sizes=sizes, **workloads.CORRELATION, p1=p, p2=p, seed=seed))


def sgc_cases() -> None:
    graph, truth = planted((30, 30, 30), 0.05, 1)
    uniform = LayerWeights.uniform(2)
    assignment, embedding = mlsgc.multilayer_sgc(graph, uniform, K, seed=0)
    bounds = mlsgc.critical_bounds(graph, truth, uniform)
    spectrum = checks.smallest_eigvals(graph.layers, uniform.values, K + 1)
    sums = checks.cluster_sums(graph.layers, uniform.values, truth.labels, K)
    labels = assignment.labels.copy()
    expect("agreement, real labels", checks.check_agreement(labels, truth.labels, 0.95, "sgc"), True)
    members0, members1 = np.flatnonzero(labels == labels[0]), np.flatnonzero(labels == labels[-1])
    labels[members0[:5]], labels[members1[:5]] = labels[-1], labels[0]
    expect("agreement, 10 labels swapped", checks.check_agreement(labels, truth.labels, 0.95, "sgc"), False)
    expect("eigenvalues, real", checks.check_embedding(embedding.eigenvalues, embedding.lambda_kplus1, spectrum),
           True)
    bumped = embedding.eigenvalues * np.array([1.0 + 1e-6, 1.0])
    expect("eigenvalues, one perturbed by 1e-6", checks.check_embedding(bumped, embedding.lambda_kplus1, spectrum),
           False)
    expect("partial sums, real", checks.check_bounds(bounds, sums), True)
    forged = dataclasses.replace(bounds, cluster_partial_sums=bounds.cluster_partial_sums + [0.0, 0.0, 1e-5])
    expect("partial sums, one perturbed", checks.check_bounds(forged, sums), False)
    expect("t_lb == t_ub, forged t_ub", checks.check_bounds(dataclasses.replace(bounds, t_ub=bounds.t_ub * 2), sums),
           False)


def mimosa_cases() -> None:
    graph, truth = planted((60, 60, 60), 0.2, 0)
    result = mlsgc.run_mimosa(graph, MimosaConfig(seed=0))
    eta = MimosaConfig().eta
    expect("MIMOSA selection, real", checks.check_selected(result, graph.layers, truth.labels, K, eta), True)
    early = [dataclasses.replace(r, reliable=True, outcome="reliable") if r.K == 2 else r for r in result.trace]
    expect("MIMOSA selection, forged reliable record at K=2",
           checks.check_selected(dataclasses.replace(result, trace=tuple(early)), graph.layers, truth.labels, K, eta),
           False)
    chosen = [r.index for r in result.trace if r.reliable and np.array_equal(r.w, result.w_star.values)][0]
    noisy = [dataclasses.replace(r, t_hat_w=r.t_hat_w * 1.01) if r.index == chosen else r for r in result.trace]
    expect("MIMOSA selection, forged noise level",
           checks.check_selected(dataclasses.replace(result, trace=tuple(noisy)), graph.layers, truth.labels, K, eta),
           False)
    broken = [dataclasses.replace(r, glrt_accepts=(False,) * graph.L, route="identical") if r.index == chosen else r
              for r in result.trace]
    expect("MIMOSA selection, route rule broken",
           checks.check_selected(dataclasses.replace(result, trace=tuple(broken)), graph.layers, truth.labels, K,
                                 eta), False)
    expect("MIMOSA selection, snr below the best at K",
           checks.check_selected(dataclasses.replace(result, snr=result.snr / 2), graph.layers, truth.labels, K, eta),
           False)
    off = dataclasses.replace(result, w_star=LayerWeights(result.w_star.values[::-1] * 0.5 + [0.3, 0.2]))
    expect("MIMOSA selection, w_star not a reliable candidate",
           checks.check_selected(off, graph.layers, truth.labels, K, eta), False)

    null, _ = mlsgc.generate_two_layer(TwoLayerCorrelatedParams(**{**workloads.NULL_MODEL, "cluster_sizes": (24,)},
                                                                  seed=600))
    declined = mlsgc.run_mimosa(null, MimosaConfig(seed=0))
    expect("MIMOSA decline, real", checks.check_declined(declined), True)
    forged = list(declined.trace)
    forged[-1] = dataclasses.replace(forged[-1], reliable=True, outcome="reliable")
    expect("MIMOSA decline, forged reliable record",
           checks.check_declined(dataclasses.replace(declined, trace=tuple(forged))), False)


def label_file_cases(tmp: Path) -> None:
    graph, _ = planted((20, 20, 20), 0.05, 3)
    edges = tmp / "edges.tsv"
    edges.write_text(mlsgc.serialize_multilayer_edge_list(graph), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["cluster", str(edges), "--k", "3"])
    reference = mlsgc.multilayer_sgc(graph, LayerWeights.uniform(2), K, seed=0)[0].labels
    text = out.getvalue()
    expect("CLI exit code", [] if code == 0 else [f"exit {code}"], True)
    expect("label file, real", checks.check_label_file(text, graph.node_ids, reference), True)
    lines = text.splitlines(keepends=True)
    expect("label file, a node listed twice", checks.check_label_file(text + lines[0], graph.node_ids, reference),
           False)
    expect("label file, a node missing", checks.check_label_file("".join(lines[1:]), graph.node_ids, reference),
           False)
    node, label = lines[0].split()
    swapped = f"{node}\t{(int(label) + 1) % K}\n" + "".join(lines[1:])
    expect("label file, one label swapped", checks.check_label_file(swapped, graph.node_ids, reference), False)


def tracer_cases() -> None:
    graph, truth = planted((30, 30, 30), 0.05, 1)
    inst = workloads.Instance(graph, truth.labels, 0)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.monotonic()
        workloads.operation("sgc-bounds-large", inst, tracer)
        wall = time.monotonic() - t0
    finally:
        tracer.restore()
    expect("span tree, real", check_span_tree(tracer.spans, 0, wall), True)
    expect("span tree, wall time off by 10 ms", check_span_tree(tracer.spans, 0, wall + 0.01), False)
    spans = [list(s) for s in tracer.spans]
    spans[1][2] = spans[0][2] + 1.0
    expect("span tree, child outlives its parent", check_span_tree(spans, 0, wall), False)
    metrics = layer_metrics(tracer.spans, tracer.counts)
    expect("tracer counts one eigensolve and dense solves",
           [] if metrics["spectral.eigensolve_calls"] == 1 and metrics["theory.dense_solves"] == 9
           else [f"counts {metrics}"], True)
    expect("tracer restores the library", [] if mlsgc.mimosa.aggregate is mlsgc.graph_core.aggregate
           else ["mlsgc.mimosa.aggregate is still wrapped"], True)


def main() -> int:
    sgc_cases()
    mimosa_cases()
    scratch = Path.cwd() / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        label_file_cases(Path(tmp))
    tracer_cases()
    print(f"{len(FAILURES)} case(s) went the wrong way" if FAILURES else "all cases ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
