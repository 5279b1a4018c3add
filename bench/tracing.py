"""Spans and counts recorded at the boundaries between mlsgc's modules.

A :class:`Tracer` replaces the functions one module calls in another with
thin wrappers, at the name the caller looks them up under (for example
``mlsgc.mimosa.smallest_eigenpairs``).  Each wrapped call becomes a span
(name, start, end, parent span); a few hot calls are only counted.  The
library itself is not edited, and :meth:`Tracer.restore` puts every original
back.  Span names are ``<layer>.<stage>``; :func:`layer_metrics` turns the
spans of one round of operations into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

# (owner module or class path, attribute, span name or None, count name or None).
# A span name makes every call a span; a count name without a span only counts
# calls made while the innermost open span belongs to the count's layer.
LIBRARY_BOUNDARIES = (
    ("mlsgc.mimosa", "aggregate", "graph_core.aggregate", None),
    ("mlsgc.spectral", "aggregate", "graph_core.aggregate", None),
    ("mlsgc.theory", "aggregate", "graph_core.aggregate", None),
    ("mlsgc.mimosa", "connected_components", "graph_core.components", None),
    ("mlsgc.spectral", "connected_components", "graph_core.components", None),
    ("mlsgc.cli", "parse_multilayer_edge_list", "graph_core.parse", None),
    ("mlsgc.mimosa", "smallest_eigenpairs", "spectral.eigensolve", None),
    ("mlsgc.spectral", "smallest_eigenpairs", "spectral.eigensolve", None),
    ("mlsgc.mimosa", "kmeans", "spectral.kmeans", None),
    ("mlsgc.spectral", "kmeans", "spectral.kmeans", None),
    ("mlsgc.graph_core.AggregatedGraph", "laplacian_matvec", None, "spectral.matvecs"),
    ("mlsgc.mimosa", "estimate_noise", "noise_stats.estimate", None),
    ("mlsgc.mimosa", "vtest_from_row_sums", "noise_stats.vtest", None),
    ("mlsgc.mimosa", "glrt_identical_noise", "noise_stats.glrt", None),
    ("mlsgc.mimosa", "anscombe_nonidentical_test", "noise_stats.anscombe", None),
    ("mlsgc.mimosa", "cluster_partial_sums", "theory.partial_sums", None),
    ("mlsgc.theory", "cluster_partial_sums", "theory.partial_sums", None),
    ("numpy.linalg", "eigvalsh", None, "theory.dense_solves"),
    ("scipy.sparse.linalg", "eigsh", None, "theory.sparse_solves"),
)

# Per-layer metrics taken from spans: metric -> (span names, "s" for the sum of
# their self times or "calls" for their number).
SPAN_METRICS = {
    "graph_core.parse_s": (("graph_core.parse",), "s"),
    "graph_core.aggregate_calls": (("graph_core.aggregate",), "calls"),
    "graph_core.aggregate_s": (("graph_core.aggregate",), "s"),
    "graph_core.components_calls": (("graph_core.components",), "calls"),
    "graph_core.components_s": (("graph_core.components",), "s"),
    "spectral.eigensolve_calls": (("spectral.eigensolve",), "calls"),
    "spectral.eigensolve_s": (("spectral.eigensolve",), "s"),
    "spectral.kmeans_calls": (("spectral.kmeans",), "calls"),
    "spectral.kmeans_s": (("spectral.kmeans",), "s"),
    "noise_stats.estimate_calls": (("noise_stats.estimate",), "calls"),
    "noise_stats.estimate_s": (("noise_stats.estimate",), "s"),
    "noise_stats.vtest_calls": (("noise_stats.vtest",), "calls"),
    "noise_stats.tests_s": (("noise_stats.vtest", "noise_stats.glrt", "noise_stats.anscombe"), "s"),
    "theory.partial_sums_calls": (("theory.partial_sums",), "calls"),
    "theory.partial_sums_s": (("theory.partial_sums",), "s"),
    "theory.bounds_s": (("theory.bounds",), "s"),
    "mimosa.self_s": (("mimosa.run",), "s"),
    "cli.startup_s": (("cli.startup",), "s"),
}
COUNT_METRICS = ("spectral.matvecs", "theory.dense_solves", "theory.sparse_solves")


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` (or a module)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory spans and counts of one process.

    ``spans`` holds ``[name, start, end, parent]`` lists, times from
    :func:`time.monotonic` (system-wide on Linux, so spans recorded in a child
    process nest under spans of its parent), parent an index or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.monotonic() if start is None else start, None, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, end: float | None = None) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._open.pop()
        self.spans[index][2] = time.monotonic() if end is None else end

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        offset = len(self.spans)
        for name, start, end, up in spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset])

    def reset(self) -> None:
        if self._open:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans.clear()
        self.counts.clear()

    def wrap(self, owner, attr: str, span: str | None, count: str | None) -> None:
        original = getattr(owner, attr)
        layer = count.split(".")[0] + "." if count else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None and self._open and self.spans[self._open[-1]][0].startswith(layer):
                self.counts[count] += 1
            if span is None:
                return original(*args, **kwargs)
            with self.span(span):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for path, attr, span, count in LIBRARY_BOUNDARIES:
            self.wrap(_resolve(path), attr, span, count)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span(tracer: Tracer | None, name: str):
    """A span of ``tracer``, or nothing when the run is not traced."""
    return nullcontext() if tracer is None else tracer.span(name)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_span_tree(spans: list[list], root: int, wall: float) -> list[str]:
    """Problems with the spans under ``root``, whose operation took ``wall`` s.

    Every span must close inside its parent, no self time may be negative,
    and the self times of the tree must add up to the measured wall time.
    """
    problems = []
    own = self_times(spans)
    members = {root}
    for i, (name, start, end, parent) in enumerate(spans):
        if i in members or parent not in members:
            continue
        members.add(i)
        p_start, p_end = spans[parent][1], spans[parent][2]
        if start < p_start or end > p_end:
            problems.append(f"span {name} [{start}, {end}] leaves its parent [{p_start}, {p_end}]")
    negative = [spans[i][0] for i in members if own[i] < -1e-9]
    if negative:
        problems.append(f"negative self time in {sorted(set(negative))}")
    total = sum(own[i] for i in members)
    if abs(total - wall) > 1e-3 + 1e-3 * wall:
        problems.append(f"self times sum to {total:.6f} s, operation took {wall:.6f} s")
    return problems


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Span-derived per-layer metrics of one round of operations."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for metric, (names, kind) in SPAN_METRICS.items():
        picked = [i for i, (name, *_) in enumerate(spans) if name in names]
        out[metric] = float(len(picked)) if kind == "calls" else float(sum(own[i] for i in picked))
    for metric in COUNT_METRICS:
        out[metric] = float(counts[metric])
    return out
