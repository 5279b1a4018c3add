"""The benchmark tracer still finds every library name it wraps."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from mlsgc import mimosa
from mlsgc.graph_core import AggregatedGraph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_restores_every_boundary():
    # install() raises AttributeError when a refactor drops a name it wraps
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(mimosa, "kmeans"), (mimosa, "smallest_eigenpairs"), (mimosa, "estimate_noise"),
             (AggregatedGraph, "laplacian_matvec")]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not orig for (owner, attr), orig in zip(names, originals))
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(names, originals))
