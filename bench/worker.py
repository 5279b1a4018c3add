"""Run the in-process operations of one workload in a fresh interpreter.

``run.py`` generates the inputs, writes them to a work directory and starts
this script on it, so that the peak resident memory reported for the
operations includes none of the memory that generating the inputs took.

Usage: python3 bench/worker.py WORKDIR
Reads WORKDIR/spec.json and WORKDIR/inputs.npz, writes WORKDIR/result.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, check_span_tree, layer_metrics


def main(work: Path) -> None:
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    name = spec["workload"]
    instances = workloads.load(work / "inputs.npz")
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    workloads.warm_up(name, instances)
    ready = time.monotonic()

    attempted = failed = 0
    problems: list[str] = []
    outputs = []
    round_walls: list[float] = []
    layers: list[dict[str, float]] = []
    start = time.monotonic()
    while not round_walls or time.monotonic() - start < spec["seconds"]:
        if tracer:
            tracer.reset()
        round_wall = 0.0
        round_outputs = []
        for i, inst in enumerate(instances):
            attempted += 1
            root = len(tracer.spans) if tracer else None
            t0 = time.monotonic()
            try:
                out = workloads.operation(name, inst, tracer)
            except Exception as err:  # an operation that raises is counted as failed
                failed += 1
                print(f"operation failed on instance {i}: {type(err).__name__}: {err}", file=sys.stderr)
                continue
            finally:
                wall = time.monotonic() - t0
                round_wall += wall
            outputs.append((i, out))
            round_outputs.append(out)
            if tracer:
                problems += check_span_tree(tracer.spans, root, wall)
        round_walls.append(round_wall)
        if tracer:
            metrics = layer_metrics(tracer.spans, tracer.counts)
            if name.startswith("mimosa") and round_outputs:
                metrics.update(workloads.mimosa_counts(round_outputs))
            layers.append(metrics)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()

    oracle = workloads.Oracle(name, instances)
    for i, out in outputs:
        problems += oracle.check(instances[i], out)
    workloads.write_json(work / "result.json", {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "round_walls": round_walls,
        "peak_rss_mib": peak_rss_mib,
        "problems": sorted(set(problems)),
        "layers": layers,
    })


if __name__ == "__main__":
    main(Path(sys.argv[1]))
