"""Multilayer graph data model, file ingestion, and convex layer aggregation.

A multilayer graph is a set of ``L`` undirected weighted graphs ("layers")
sharing one node set of size ``n``.  Each layer is stored as an ``n x n``
sparse symmetric nonnegative weight matrix with zero diagonal; an edge exists
in a layer exactly where the matrix entry is positive.  Aggregation collapses
the layers into a single weighted graph using a convex combination
``W = sum_l w_l * W_l`` with ``w`` on the probability simplex, whose graph
Laplacian ``diag(strength) - W`` drives the spectral clustering pipeline.

All types here are immutable after construction and safe for concurrent
reads; construction is single-threaded.  An :class:`AggregatedGraph`
computes its connected components on first use and keeps them: the type is
frozen, so the memo cannot go stale, and two threads that race on the first
read both store the same result, so concurrent reads stay harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "AggregatedGraph",
    "DuplicateEdgeError",
    "EdgeListFormatError",
    "LabelFileError",
    "LayerWeights",
    "MAX_LAYERS",
    "MultilayerGraph",
    "aggregate",
    "connected_components",
    "degree_normalize",
    "parse_label_file",
    "parse_multilayer_edge_list",
    "serialize_label_file",
    "serialize_multilayer_edge_list",
    "within_cluster_laplacians",
]


class EdgeListFormatError(ValueError):
    """A malformed line in a multilayer edge-list file."""


class DuplicateEdgeError(ValueError):
    """The same (layer, u, v) edge appears more than once in an edge list."""


class LabelFileError(ValueError):
    """A malformed or incomplete node-label file."""


def _canonical_csr(matrix: sparse.sparray | sparse.spmatrix | np.ndarray,
                   n: int) -> sparse.csr_array:
    """Return ``matrix`` as a canonical float64 CSR array of shape (n, n).

    Canonical means: duplicate entries summed, explicit zeros removed, and
    column indices sorted within each row, so equal graphs have byte-equal
    storage.
    """
    mat = sparse.csr_array(matrix, shape=(n, n), dtype=np.float64)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _validate_layer(mat: sparse.csr_array, n: int, layer: int) -> None:
    if mat.shape != (n, n):
        raise ValueError(f"layer {layer}: expected shape {(n, n)}, got {mat.shape}")
    if mat.nnz == 0:
        return
    if not np.all(np.isfinite(mat.data)):
        raise ValueError(f"layer {layer}: non-finite weight")
    if np.any(mat.data <= 0.0):
        raise ValueError(f"layer {layer}: weights must be positive where edges exist")
    if np.any(mat.diagonal() != 0.0):
        raise ValueError(f"layer {layer}: diagonal must be zero (no self-loops)")
    if (mat != mat.T).nnz != 0:
        raise ValueError(f"layer {layer}: weight matrix must be exactly symmetric")


@dataclass(frozen=True, eq=False)
class MultilayerGraph:
    """``L`` sparse symmetric nonnegative weight matrices over a common node set.

    Attributes:
        node_ids: ordered external string identifiers; the storage order of
            every matrix row/column.  Assigned by lexicographic sort when
            parsing files, so embeddings and seeds are reproducible
            regardless of file row order.
        layers: per-layer ``n x n`` canonical CSR weight matrices (symmetric,
            zero diagonal, entries > 0 exactly where edges exist).  All-zero
            layers are permitted; they simply contribute nothing to any
            aggregation.
    """

    node_ids: tuple[str, ...]
    layers: tuple[sparse.csr_array, ...]

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        if len(set(self.node_ids)) != n:
            raise ValueError("node identifiers must be distinct")
        for layer, mat in enumerate(self.layers):
            _validate_layer(mat, n, layer)

    @property
    def n(self) -> int:
        """Node count."""
        return len(self.node_ids)

    @property
    def L(self) -> int:
        """Layer count."""
        return len(self.layers)

    @classmethod
    def from_matrices(
        cls,
        node_ids: Sequence[str],
        matrices: Iterable[sparse.sparray | sparse.spmatrix | np.ndarray],
    ) -> "MultilayerGraph":
        """Build a graph from any matrix-like layers, canonicalizing storage."""
        ids = tuple(node_ids)
        layers = tuple(_canonical_csr(m, len(ids)) for m in matrices)
        return cls(node_ids=ids, layers=layers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilayerGraph):
            return NotImplemented
        if self.node_ids != other.node_ids or self.L != other.L:
            return False
        for a, b in zip(self.layers, other.layers):
            if (
                not np.array_equal(a.indptr, b.indptr)
                or not np.array_equal(a.indices, b.indices)
                or not np.array_equal(a.data, b.data)
            ):
                return False
        return True

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("MultilayerGraph is not hashable")


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """A nonnegative layer-weight vector on the probability simplex.

    Weights are normalized to sum to 1 on construction (the input only needs
    a positive sum); entries must be nonnegative.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).ravel().copy()
        if values.size == 0:
            raise ValueError("at least one layer weight is required")
        if not np.all(np.isfinite(values)):
            raise ValueError("layer weights must be finite")
        if np.any(values < 0.0):
            raise ValueError("layer weights must be nonnegative")
        total = values.sum()
        if total <= 0.0:
            raise ValueError("layer weights must have a positive sum")
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-12):
            values = values / total
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, n_layers: int) -> "LayerWeights":
        return cls(np.full(n_layers, 1.0 / n_layers))

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerWeights):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("LayerWeights is not hashable")


@dataclass(frozen=True, eq=False)
class AggregatedGraph:
    """A convex combination of the layers of a multilayer graph.

    Attributes:
        weight_matrix: canonical CSR combined weight matrix.
        strength: per-node strength vector (row sums of ``weight_matrix``).

    The graph Laplacian ``diag(strength) - weight_matrix`` is kept implicit;
    use :meth:`laplacian`, :meth:`laplacian_dense` or
    :meth:`laplacian_matvec`.
    """

    weight_matrix: sparse.csr_array
    strength: np.ndarray

    @property
    def n(self) -> int:
        return self.weight_matrix.shape[0]

    def laplacian(self) -> sparse.csr_array:
        """Sparse Laplacian ``diag(strength) - weight_matrix``."""
        lap = sparse.diags_array(self.strength, format="csr") - self.weight_matrix
        return sparse.csr_array(lap)

    def laplacian_dense(self) -> np.ndarray:
        """Dense Laplacian; intended for small graphs and test oracles."""
        dense = -self.weight_matrix.toarray()
        np.fill_diagonal(dense, self.strength)
        return dense

    def laplacian_matvec(self, x: np.ndarray) -> np.ndarray:
        """O(m) product of the Laplacian with a vector."""
        return self.strength * x - self.weight_matrix @ x

    @cached_property
    def _components(self) -> tuple[int, np.ndarray]:
        """``csgraph.connected_components`` of the weight matrix, computed once."""
        n_components, labels = csgraph.connected_components(self.weight_matrix, directed=False)
        labels.setflags(write=False)
        return n_components, labels


# ---------------------------------------------------------------------------
# Edge-list file format
#
# UTF-8 text, one edge per line: ``layer<TAB>u<TAB>v<TAB>weight`` where layer
# is a 0-based integer, u/v are node identifier strings, and weight is a
# positive decimal.  Lines beginning with ``#`` are comments.  The layer
# count is max layer index + 1 (intermediate all-zero layers are allowed);
# a layer index must be below MAX_LAYERS, because every layer up to the
# largest index is allocated.
# ---------------------------------------------------------------------------

MAX_LAYERS = 1024


def parse_multilayer_edge_list(source: str | IO[str]) -> MultilayerGraph:
    """Parse a multilayer edge-list file into a :class:`MultilayerGraph`.

    Node indices are assigned by lexicographic sort of all distinct node
    identifiers, independent of row order.  Each undirected edge is stored
    symmetrically.

    Args:
        source: the file text, or a readable text stream.

    Raises:
        EdgeListFormatError: wrong field count, non-numeric or non-positive
            weight, a layer index that is negative or at least
            ``MAX_LAYERS``, a self-loop, or a node id that a label
            file cannot carry: empty, or starting with whitespace or ``#``
            (with the line number).
        DuplicateEdgeError: the same (layer, u, v) edge listed twice, in
            either orientation.
    """
    text = source.read() if hasattr(source, "read") else source
    entries: list[tuple[int, str, str, float]] = []
    seen: set[tuple[int, str, str]] = set()
    max_layer = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        if len(fields) != 4:
            raise EdgeListFormatError(
                f"line {line_no}: expected 4 fields (layer, u, v, weight), got {len(fields)}"
            )
        layer_text, u, v, weight_text = fields
        try:
            layer = int(layer_text)
        except ValueError:
            raise EdgeListFormatError(f"line {line_no}: layer index {layer_text!r} is not an integer") from None
        if layer < 0:
            raise EdgeListFormatError(f"line {line_no}: layer index must be >= 0, got {layer}")
        if layer >= MAX_LAYERS:
            raise EdgeListFormatError(f"line {line_no}: layer index must be < {MAX_LAYERS}, got {layer}")
        if u == v:
            raise EdgeListFormatError(f"line {line_no}: self-loop on node {u!r} is not allowed")
        try:
            weight = float(weight_text)
        except ValueError:
            raise EdgeListFormatError(f"line {line_no}: weight {weight_text!r} is not numeric") from None
        if not math.isfinite(weight) or weight <= 0.0:
            raise EdgeListFormatError(f"line {line_no}: weight must be a positive finite number, got {weight_text}")
        key = (layer, u, v) if u < v else (layer, v, u)
        if key in seen:
            raise DuplicateEdgeError(f"line {line_no}: duplicate edge {key[1]!r}-{key[2]!r} in layer {layer}")
        seen.add(key)
        entries.append((layer, u, v, weight))
        max_layer = max(max_layer, layer)

    node_ids = tuple(sorted({u for _, u, _, _ in entries} | {v for _, _, v, _ in entries}))
    # parse_label_file strips lines and skips "#" lines, so it would lose these
    # ids; they are checked once, and the lines rescanned only to name one
    bad = {node for node in node_ids if node[:1].strip() in ("", "#")}
    if bad:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            fields = line.split("\t") if "\t" in line else line.split()
            named = [node for node in fields[1:3] if node in bad and not line.startswith("#")]
            if named:
                raise EdgeListFormatError(
                    f"line {line_no}: node id {named[0]!r} must be non-empty and not start with whitespace or '#'"
                )
    index = {node: i for i, node in enumerate(node_ids)}
    n = len(node_ids)
    n_layers = max_layer + 1

    rows: list[list[int]] = [[] for _ in range(n_layers)]
    cols: list[list[int]] = [[] for _ in range(n_layers)]
    data: list[list[float]] = [[] for _ in range(n_layers)]
    for layer, u, v, weight in entries:
        ui, vi = index[u], index[v]
        rows[layer].extend((ui, vi))
        cols[layer].extend((vi, ui))
        data[layer].extend((weight, weight))

    matrices = [
        sparse.coo_array((data[layer], (rows[layer], cols[layer])), shape=(n, n))
        for layer in range(n_layers)
    ]
    return MultilayerGraph.from_matrices(node_ids, matrices)


def serialize_multilayer_edge_list(graph: MultilayerGraph) -> str:
    """Serialize a graph to the edge-list format (inverse of the parser).

    Rows are emitted sorted by (layer, u-index, v-index) with u < v, so a
    parse -> serialize -> parse round trip is the identity and serialization
    is byte-deterministic.
    """
    lines = []
    for layer, mat in enumerate(graph.layers):
        coo = mat.tocoo()
        upper = coo.row < coo.col
        order = np.lexsort((coo.col[upper], coo.row[upper]))
        for r, c, w in zip(coo.row[upper][order], coo.col[upper][order], coo.data[upper][order]):
            lines.append(f"{layer}\t{graph.node_ids[r]}\t{graph.node_ids[c]}\t{float(w)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Node-label file format: one line per node, ``node<TAB>label``.
# ---------------------------------------------------------------------------


def parse_label_file(source: str | IO[str]) -> dict[str, str]:
    """Parse a node-label file into an ordered ``{node_id: label}`` mapping.

    Raises:
        LabelFileError: malformed line or a node listed twice.
    """
    text = source.read() if hasattr(source, "read") else source
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        if len(fields) != 2:
            raise LabelFileError(f"line {line_no}: expected 2 fields (node, label), got {len(fields)}")
        node, label = fields
        if node in mapping:
            raise LabelFileError(f"line {line_no}: node {node!r} labeled twice")
        mapping[node] = label
    return mapping


def serialize_label_file(node_ids: Sequence[str], labels: Sequence[int] | np.ndarray) -> str:
    """Serialize per-node integer labels as a node-label file, in node order."""
    if len(node_ids) != len(labels):
        raise ValueError("node_ids and labels must have the same length")
    return "".join(f"{node}\t{int(label)}\n" for node, label in zip(node_ids, labels))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def degree_normalize(graph: MultilayerGraph) -> MultilayerGraph:
    """Degree-normalize the unweighted layers of a graph.

    A layer counts as unweighted exactly when all its positive entries equal
    1.0.  For such layers, each entry becomes ``1/sqrt(d_u * d_v)`` where
    ``d`` is the node degree (neighbor count) in that layer; entries
    incident to a zero-degree node would be zero, but such entries cannot
    exist.  Weighted layers pass through unchanged; this function never
    applies silently — callers opt in (e.g. the CLI ``--normalize`` flag).
    """
    new_layers: list[sparse.csr_array] = []
    for mat in graph.layers:
        if mat.nnz and not np.all(mat.data == 1.0):
            new_layers.append(mat)
            continue
        degrees = np.diff(mat.indptr).astype(np.float64)  # neighbor counts per row
        coo = mat.tocoo()
        scaled = 1.0 / np.sqrt(degrees[coo.row] * degrees[coo.col])
        new_layers.append(
            _canonical_csr(sparse.coo_array((scaled, (coo.row, coo.col)), shape=mat.shape), graph.n)
        )
    return MultilayerGraph(node_ids=graph.node_ids, layers=tuple(new_layers))


def aggregate(graph: MultilayerGraph, weights: LayerWeights) -> AggregatedGraph:
    """Convex combination of the layers: ``W = sum_l w_l * W_l``.

    Aggregation is linear in the weights, and the Laplacian of the result
    equals the same convex combination of the per-layer Laplacians.

    Raises:
        ValueError: weight vector length differs from the layer count.
    """
    if len(weights) != graph.L:
        raise ValueError(f"weight vector has {len(weights)} entries for {graph.L} layers")
    n = graph.n
    acc: sparse.csr_array | None = None
    for w, mat in zip(weights.values, graph.layers):
        if w == 0.0 or mat.nnz == 0:
            continue
        term = mat * w
        acc = term if acc is None else acc + term
    if acc is None:
        acc = sparse.csr_array((n, n), dtype=np.float64)
    acc = _canonical_csr(acc, n)
    strength = np.asarray(acc.sum(axis=1)).ravel()
    strength.setflags(write=False)
    return AggregatedGraph(weight_matrix=acc, strength=strength)


def connected_components(g: AggregatedGraph) -> list[np.ndarray]:
    """Partition node indices by connectivity over positive-weight edges.

    The labeling is computed on the first call for ``g`` and kept on it, so
    later calls (such as the eigensolver's connectivity check) only split it.

    Returns:
        A list of sorted node-index arrays, ordered by each component's
        smallest node index (the discovery order over nodes 0..n-1).
    """
    n_components, labels = g._components
    return [np.flatnonzero(labels == c) for c in range(n_components)]


def subgraph_laplacian(weight_matrix: sparse.csr_array, nodes: np.ndarray) -> sparse.csr_array:
    """Laplacian of the induced subgraph on ``nodes`` (sorted index array)."""
    sub = weight_matrix[nodes][:, nodes]
    strength = np.asarray(sub.sum(axis=1)).ravel()
    lap = sparse.diags_array(strength, format="csr") - sub
    return sparse.csr_array(lap)


def within_cluster_laplacians(graph: MultilayerGraph, assignment) -> list[list[sparse.csr_array]]:
    """Laplacians of each cluster's induced subgraph in each layer.

    Args:
        assignment: a cluster assignment covering all nodes (anything with
            ``labels``/``K``/``members``).

    Returns:
        Nested list indexed ``[layer][cluster]``; each entry is the sparse
        Laplacian of the induced subgraph on that cluster's nodes in that
        layer (a cluster of size s gives an s x s matrix with zero row sums).
    """
    if len(assignment.labels) != graph.n:
        raise ValueError("assignment does not cover the node set")
    members = [assignment.members(k) for k in range(assignment.K)]
    return [[subgraph_laplacian(mat, idx) for idx in members] for mat in graph.layers]
