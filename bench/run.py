"""Benchmark of the mlsgc pipeline on four seeded workloads.

Run from the root of an mlsgc checkout (the library is imported from its
``src`` directory):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from the seed, repeats whole rounds of the
workload's operations for at least S seconds, checks every output, and prints
one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (wall_s, peak_rss_mib, setup_s); with ``--trace 1`` the
operations run under a tracer and the metrics are the per-layer ones.  BLAS is
pinned to one thread.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
STARTED = time.monotonic()
WORKLOADS = ("mimosa-null", "mimosa-planted", "sgc-bounds-large", "cli-cluster-large")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170  # every child is killed before the run as a whole reaches this
END_TO_END = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "graph_core.parse_s": "s",
    "graph_core.aggregate_calls": "count",
    "graph_core.aggregate_s": "s",
    "graph_core.components_calls": "count",
    "graph_core.components_s": "s",
    "graph_core.serialize_s": "s",
    "spectral.eigensolve_calls": "count",
    "spectral.eigensolve_s": "s",
    "spectral.matvecs": "count",
    "spectral.kmeans_calls": "count",
    "spectral.kmeans_s": "s",
    "noise_stats.estimate_calls": "count",
    "noise_stats.estimate_s": "s",
    "noise_stats.vtest_calls": "count",
    "noise_stats.tests_s": "s",
    "theory.partial_sums_calls": "count",
    "theory.partial_sums_s": "s",
    "theory.bounds_s": "s",
    "theory.dense_solves": "count",
    "theory.sparse_solves": "count",
    "mimosa.self_s": "s",
    "mimosa.candidates": "count",
    "mimosa.degenerate_candidates": "count",
    "mimosa.k_max_tried": "count",
    "mimosa.reliable_ratio": "ratio",
    "cli.startup_s": "s",
    "synth.generate_s": "s",
}


def time_left() -> float:
    return max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED))


def run_in_process(args, work: Path) -> dict:
    """Set up in this process, run the operations in worker.py."""
    import workloads

    instances, generate_s, _ = workloads.timed_setup(args.workload, args.seed, work)
    t0 = time.perf_counter()
    workloads.save(instances, work / "inputs.npz")
    workloads.write_json(work / "spec.json", {"workload": args.workload, "seconds": args.seconds,
                                              "trace": args.trace})
    save_s = time.perf_counter() - t0
    del instances
    launch = time.monotonic()
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work)], stdout=sys.stderr,
                   check=True, timeout=time_left())
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = statistics.median(generate_s) + save_s + (result["ready"] - launch)
    result["generate_s"] = statistics.median(generate_s)
    result["serialize_s"] = 0.0
    return result


def wait_child(proc: subprocess.Popen):
    """Wait for ``proc`` and return its resource usage; kill it after the timeout."""
    timer = threading.Timer(time_left(), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_cli(args, work: Path) -> dict:
    """Time ``mlsgc cluster FILE --k 3``, one child process at a time."""
    import checks
    import mlsgc
    import workloads
    from tracing import Tracer, check_span_tree, layer_metrics

    instances, generate_s, serialize_s = workloads.timed_setup(args.workload, args.seed, work)
    inst = instances[0]
    edges = work / "edges.tsv"
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import mlsgc.cli"], check=True, timeout=time_left())
    edges.read_bytes()
    warm_s = time.monotonic() - t0

    tracer = Tracer() if args.trace else None
    argv = ["cluster", str(edges), "--k", str(workloads.K)]
    walls, peaks, texts, layers, problems = [], [], [], [], []
    failed = 0
    start = time.monotonic()
    while not walls or time.monotonic() - start < args.seconds:
        spans_file = work / "spans.json"
        if tracer:
            tracer.reset()
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_file)] + argv
        else:
            cmd = [sys.executable, "-m", "mlsgc.cli"] + argv
        with open(work / "labels.tsv", "w") as out, open(work / "stderr.txt", "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            usage = wait_child(proc)
            t1 = time.monotonic()
        walls.append(t1 - t0)
        if proc.returncode != 0:
            failed += 1
            print(f"operation failed, exit {proc.returncode}: {(work / 'stderr.txt').read_text()[-500:]}",
                  file=sys.stderr)
            continue
        peaks.append(usage.ru_maxrss / 1024.0)
        texts.append((work / "labels.tsv").read_text(encoding="utf-8"))
        if tracer:
            child = json.loads(spans_file.read_text(encoding="utf-8"))
            root = tracer.begin("cli.process", start=t0)
            tracer.end(tracer.begin("cli.startup", start=t0), end=child["imported"])
            tracer.adopt(child["spans"], root)
            tracer.end(root, end=t1)
            problems += check_span_tree(tracer.spans, root, t1 - t0)
            layers.append(layer_metrics(tracer.spans, Counter(child["counts"])))

    weights = mlsgc.LayerWeights.uniform(inst.graph.L)
    reference = mlsgc.multilayer_sgc(inst.graph, weights, workloads.K, seed=0)[0].labels
    for text in texts:
        problems += checks.check_label_file(text, inst.graph.node_ids, reference)
    problems += checks.check_agreement(reference, inst.truth, workloads.MIN_AGREEMENT, "multilayer_sgc")
    setups = [g + s for g, s in zip(generate_s, serialize_s)]
    return {
        "attempted": len(walls),
        "failed": failed,
        "round_walls": walls,
        "peak_rss_mib": statistics.median(peaks) if peaks else 0.0,
        "problems": sorted(set(problems)),
        "layers": layers,
        "setup_s": statistics.median(setups) + warm_s,
        "generate_s": statistics.median(generate_s),
        "serialize_s": statistics.median(serialize_s),
    }


def per_layer(result: dict) -> dict[str, float]:
    import workloads

    values = dict.fromkeys(PER_LAYER, 0.0)
    if result["layers"]:
        values.update(workloads.summarize(result["layers"]))
    values["synth.generate_s"] = result["generate_s"]
    values["graph_core.serialize_s"] = result["serialize_s"]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mlsgc" / "__init__.py").is_file():
        print(f"error: {src / 'mlsgc'} not found; run from the root of an mlsgc checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy loads BLAS, here and in every child
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run_cli(args, work) if args.workload == "cli-cluster-large" else run_in_process(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(result), PER_LAYER
    else:
        values = {"wall_s": statistics.median(result["round_walls"]), "peak_rss_mib": result["peak_rss_mib"],
                  "setup_s": result["setup_s"]}
        units = END_TO_END
    print("env: " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {key: os.environ[key] for key in PINNED},
    }))
    print("rounds: " + json.dumps({key: result[key] for key in
                                   ("round_walls", "setup_s", "generate_s", "serialize_s")}))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
