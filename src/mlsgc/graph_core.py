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
computes its connected components and its row blocks on first use and keeps
them: the type is frozen, so the memo cannot go stale, and two threads that
race on the first read both store equal results, so concurrent reads stay
harmless.

One module-wide thread pool, started on first use and dropped in a forked
child, has one worker per CPU the process may run on, less one for the
calling thread.  :func:`run_tasks` is its only entry: the calling thread and
every idle worker take a list's tasks from one queue.  The Laplacian product
runs its row blocks as such tasks, and theory its ARPACK cluster solves.
Each row is summed on its own in storage order, so the product has the same
bytes for any block count and any split between threads.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, islice, repeat
from typing import IO, Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

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
    "induced_subgraph",
    "parse_label_file",
    "parse_multilayer_edge_list",
    "run_tasks",
    "serialize_label_file",
    "serialize_multilayer_edge_list",
]


class EdgeListFormatError(ValueError):
    """A malformed line in a multilayer edge-list file."""


class DuplicateEdgeError(ValueError):
    """The same (layer, u, v) edge appears more than once in an edge list."""


class LabelFileError(ValueError):
    """A malformed or incomplete node-label file."""


def _canonical_csr(matrix: sparse.sparray | sparse.spmatrix | np.ndarray,
                   n: int, *, copy: bool = False) -> sparse.csr_array:
    """Return ``matrix`` as a canonical float64 CSR array of shape (n, n).

    Canonical means: duplicate entries summed, explicit zeros removed, and
    column indices sorted within each row, so equal graphs have byte-equal
    storage.  This happens in place on a CSR ``matrix`` unless ``copy`` is
    set; any other input is converted into fresh arrays first.  The index
    arrays are int32 whenever every index and offset fits: the Laplacian
    product then reads 12 bytes per stored entry instead of 16, and scipy
    keeps that width through sums, slicing and ``csgraph``.
    """
    mat = sparse.csr_array(matrix, shape=(n, n), dtype=np.float64, copy=copy)
    if max(n, mat.nnz) < 2**31:
        mat.indices = mat.indices.astype(np.int32, copy=False)
        mat.indptr = mat.indptr.astype(np.int32, copy=False)
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

    The constructor checks every layer: square of the node count, finite and
    positive stored weights, zero diagonal, exact symmetry.  Build one from
    matrices with :meth:`from_matrices`, or from undirected edge lists with
    :meth:`from_edges`, which also rejects a layer that lists a pair twice,
    a self-loop, or a weight that is zero; the edge-list parser and both
    synthetic generators build their graphs through it.  :meth:`edges` is
    its inverse, and the only reader of a layer's edges: the edge-list
    writer and :func:`degree_normalize` work from it.

    Attributes:
        node_ids: ordered external string identifiers; the storage order of
            every matrix row/column.  Assigned in code-point order (Python
            ``sorted``) when parsing files, so embeddings and seeds are
            reproducible regardless of file row order.
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
        """Build a graph from any matrix-like layers, canonicalizing copies of them."""
        ids = tuple(node_ids)
        layers = tuple(_canonical_csr(m, len(ids), copy=True) for m in matrices)
        return cls(node_ids=ids, layers=layers)

    @classmethod
    def from_edges(
        cls,
        node_ids: Sequence[str],
        edges: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> "MultilayerGraph":
        """Build a graph from one ``(u, v, weight)`` column triple per layer.

        ``u`` and ``v`` index ``node_ids``, and each undirected edge is listed
        once.  Both orientations are stored, and each layer is canonicalized
        before the next is read, so one layer's symmetric COO exists at a time.

        Raises:
            ValueError: a layer lists a pair twice (in either orientation), a
                self-loop, or a weight that is zero (each leaves fewer than
                two stored entries per listed edge), or fails a check of the
                constructor.
        """
        ids = tuple(node_ids)
        n = len(ids)
        layers = []
        for layer, (u, v, w) in enumerate(edges):
            mat = _canonical_csr(sparse.coo_array(
                (np.concatenate((w, w)), (np.concatenate((u, v)), np.concatenate((v, u)))), shape=(n, n)), n)
            if mat.nnz < 2 * len(u):
                raise ValueError(f"layer {layer}: a pair listed twice, a self-loop, or a zero weight")
            layers.append(mat)
        return cls(node_ids=ids, layers=tuple(layers))

    def edges(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One ``(u, v, weight)`` column triple per layer: the inverse of :meth:`from_edges`.

        Each undirected edge appears once, with ``u < v``, sorted by
        ``(u, v)``, so ``MultilayerGraph.from_edges(g.node_ids, g.edges()) == g``.
        The columns are the upper triangle of each layer's canonical CSR in
        storage order; a layer stored with unsorted or duplicate entries is
        read from a canonical copy.
        """
        for mat in self.layers:
            if not mat.has_canonical_format:
                mat = _canonical_csr(mat, self.n, copy=True)
            row = np.repeat(np.arange(self.n, dtype=mat.indices.dtype), np.diff(mat.indptr))
            upper = row < mat.indices
            yield row[upper], mat.indices[upper], mat.data[upper]

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
        with np.errstate(over="ignore"):
            total = values.sum()
        if total <= 0.0:
            raise ValueError("layer weights must have a positive sum")
        if not math.isfinite(total):  # entries near the float maximum: scale them down first
            values = values / values.max()
            total = values.sum()
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


# Stored entries per row block of the Laplacian product.  Below two blocks'
# worth (the n = 600 aggregations hold 176 k entries) a split breaks even, so
# the product stays one CSR pass on the calling thread.
_BLOCK_ENTRIES = 1 << 17

# No more row blocks, and no more busy threads, than the CPUs the process may run on.
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity outside Linux
    _CPUS = os.cpu_count() or 1
_pool: tuple[ThreadPoolExecutor, threading.Semaphore] | None = None  # the workers and their idle tokens
_pool_lock = threading.Lock()

_T = TypeVar("_T")


def _submit_if_idle(fn: Callable[..., _T], *args):
    """The future of ``fn(*args)`` on an idle pool worker, or None when no worker is idle.

    The pool and its ``_CPUS - 1`` tokens are made on first use, its threads
    on first submit.  A task holds its token until it ends, so it never
    waits in the pool's queue behind another.
    """
    global _pool
    if _CPUS < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = (ThreadPoolExecutor(max_workers=_CPUS - 1, thread_name_prefix="mlsgc-worker"),
                     threading.Semaphore(_CPUS - 1))
        pool, tokens = _pool
    if not tokens.acquire(blocking=False):
        return None
    return pool.submit(_holding_token, tokens, fn, *args)


def _holding_token(tokens: threading.Semaphore, fn: Callable[..., _T], *args) -> _T:
    try:
        return fn(*args)
    finally:
        tokens.release()


def _drop_pool() -> None:
    # a forked child inherits the pool but not its threads: its tasks would
    # never start, the tokens of the parent's running tasks would never come
    # back, and the lock may have been held by a thread the child does not have
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def run_tasks(tasks: Sequence[Callable[[], _T]]) -> list[_T]:
    """Run independent tasks and return their results in list order.

    The calling thread and every idle pool worker, up to one fewer than the
    tasks, take the tasks from one queue in list order: one thread per CPU
    at most.  When tasks raise, the queue stops, and the first of them in
    list order raises here once the tasks already started have ended.  So
    the results and the error are those of running the tasks one after
    another on the calling thread.
    """
    results: list = [None] * len(tasks)
    errors: dict[int, Exception] = {}
    queue = deque(range(len(tasks)))  # popleft is thread-safe: each task goes to one thread

    def pull() -> None:
        while not errors:
            try:
                index = queue.popleft()
            except IndexError:
                return
            try:
                results[index] = tasks[index]()
            except Exception as err:
                errors[index] = err

    # idle workers, one per task after the first, until none is idle
    helpers = list(islice(iter(partial(_submit_if_idle, pull), None), len(tasks) - 1))
    try:
        pull()
    finally:
        queue.clear()  # after an interrupt here, each worker stops after its task
        for helper in helpers:
            helper.result()
    if errors:
        raise errors[min(errors)]
    return results


@dataclass(frozen=True, eq=False)
class AggregatedGraph:
    """A convex combination of the layers of a multilayer graph, or a subgraph
    of a weight matrix induced on a node set (:func:`induced_subgraph`).

    Attributes:
        weight_matrix: canonical CSR combined weight matrix, symmetric, as
            every constructor in this module makes it: the connected
            components are found as the matrix's strong components.
        strength: per-node strength vector (row sums of ``weight_matrix``).

    The graph Laplacian ``diag(strength) - weight_matrix`` is kept implicit:
    :meth:`laplacian_dense` builds it dense for LAPACK, and
    :meth:`laplacian_matvec` applies it to a vector for ARPACK (applied to
    the columns of the identity, it gives the dense matrix's bytes).  The
    eigensolver takes the graph and uses whichever its solver needs.

    Concurrency: with ``2**18`` stored entries or more, the product runs as
    :func:`run_tasks` tasks, row blocks of about ``2**17`` entries, at most
    one per CPU, with the same bytes however many find an idle worker.
    """

    weight_matrix: sparse.csr_array
    strength: np.ndarray

    @property
    def n(self) -> int:
        return self.weight_matrix.shape[0]

    def laplacian_dense(self) -> np.ndarray:
        """Dense Laplacian ``diag(strength) - weight_matrix``.

        ``0.0 - W`` rather than ``-W``: a missing edge is ``+0.0``, as
        :meth:`laplacian_matvec` gives it, not ``-0.0``; LAPACK's output bits
        can depend on the sign of a zero.
        """
        dense = 0.0 - self.weight_matrix.toarray()
        np.fill_diagonal(dense, self.strength)
        return dense

    def laplacian_matvec(self, x: np.ndarray) -> np.ndarray:
        """O(m) product of the Laplacian with a vector ``(n,)`` or block ``(n, k)``.

        Each column of a block product has the bytes of that column's product
        alone, and so does the product for any number of row blocks.
        """
        strength = self.strength if x.ndim == 1 else self.strength[:, None]
        blocks = self._row_blocks
        if len(blocks) == 1:
            return strength * x - self.weight_matrix @ x
        return strength * x - np.concatenate(run_tasks([partial(block.__matmul__, x) for block in blocks]))

    @cached_property
    def _row_blocks(self) -> tuple[sparse.csr_array, ...]:
        """Row blocks of the weight matrix with about equal stored entries.

        One block per ``_BLOCK_ENTRIES`` stored entries, at most one per CPU.
        The blocks share the matrix's ``data`` and ``indices``; only their
        ``indptr`` slices are rebased to 0.
        """
        mat = self.weight_matrix
        count = min(_CPUS, mat.nnz // _BLOCK_ENTRIES)
        if count < 2:
            return (mat,)
        indptr = mat.indptr
        cuts = np.searchsorted(indptr, mat.nnz * np.arange(1, count) // count)
        rows = np.unique(np.concatenate(([0], cuts, [self.n])))
        blocks = []
        for start, stop in zip(rows[:-1], rows[1:]):
            # set after construction: given the slices, the constructor would
            # copy any that is under half its matrix's arrays
            block = sparse.csr_array((stop - start, self.n))
            lo, hi = indptr[start], indptr[stop]
            block.data, block.indices, block.indptr = mat.data[lo:hi], mat.indices[lo:hi], indptr[start:stop + 1] - lo
            blocks.append(block)
        return tuple(blocks)

    @cached_property
    def _components(self) -> tuple[int, np.ndarray]:
        """Connected-component labels of the weight matrix, computed once.

        The strong components of a symmetric matrix are its undirected ones,
        and finding them builds no transposed copy.  They are numbered in the
        order of each one's smallest node, as the undirected search numbers
        them, so the labels equal ``directed=False``'s byte for byte.
        """
        n_components, labels = csgraph.connected_components(self.weight_matrix, directed=True, connection="strong")
        rank = np.empty(n_components, dtype=labels.dtype)
        rank[np.argsort(np.unique(labels, return_index=True)[1])] = np.arange(n_components)
        labels = rank[labels]
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

    Node indices are assigned by code-point order of all distinct node
    identifiers (Python ``sorted``), independent of row order.  The text is
    tokenized in pieces into numeric columns, which checks field counts,
    number syntax, layer indices and node ids; :meth:`MultilayerGraph.from_edges`
    then stores each layer symmetrically and rejects self-loops, weights that
    are not positive and finite, and pairs listed twice.  Memory grows about
    linearly in the number of edges, with one layer's symmetric copy at a
    time.  A file that fails any check is read again line by line to name
    the first offending line.

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
    columns = _edge_columns(text)
    if columns is not None:
        try:
            return MultilayerGraph.from_edges(*columns)
        except ValueError:
            pass
    _raise_first_error(text)


# Characters per piece of text; a piece ends just after a "\n", which is also
# a splitlines boundary ("\r\n" stays whole).  Per-line strings live for one
# piece at a time.
_PIECE_CHARS = 1 << 20


def _pieces(text: str) -> Iterator[str]:
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _PIECE_CHARS - 1)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end]
        start = end


def _piece_columns(piece: str, codes: dict[str, int]) -> tuple[np.ndarray, ...] | None:
    """Layer, provisional u and v codes, and weight of each edge in ``piece``.

    ``codes`` maps node ids to provisional codes and gains this piece's new
    ids.  The layer column is int16 and the codes int32.  Returns None when
    a record has the wrong field count or a layer index is out of range;
    ``int`` and ``float`` raise ValueError on a bad number, and
    ``np.fromiter`` OverflowError on a layer index outside int64.
    """
    records = [line for line in map(str.strip, piece.splitlines()) if line and line[0] != "#"]
    tabs = list(map(str.count, records, repeat("\t")))
    tabbed = tabs.count(3)
    if tabbed + tabs.count(0) != len(tabs):
        return None
    fields = "\t".join(compress(records, map((3).__eq__, tabs))).split("\t") if tabbed else []
    if tabbed < len(records):
        # records without a tab split on any whitespace; files rarely have them
        spaced = list(map(str.split, compress(records, map((0).__eq__, tabs))))
        if any(len(split) != 4 for split in spaced):
            return None
        fields.extend(chain.from_iterable(spaced))
    m = len(fields) // 4
    us, vs = fields[1::4], fields[2::4]
    new = [node for node in set(us).union(vs) if node not in codes]
    codes.update(zip(new, range(len(codes), len(codes) + len(new))))
    # read as int64 and checked before narrowing, since a cast would wrap
    layer = np.fromiter(map(int, fields[0::4]), np.int64, m)
    if m and (layer.min() < 0 or layer.max() >= MAX_LAYERS):
        return None
    return (
        layer.astype(np.int16),
        np.fromiter(map(codes.__getitem__, us), np.int32, m),
        np.fromiter(map(codes.__getitem__, vs), np.int32, m),
        np.fromiter(map(float, fields[3::4]), np.float64, m),
    )


def _edge_columns(text: str) -> tuple[tuple[str, ...], Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]] | None:
    """Sorted node ids and, layer by layer, the (u, v, weight) columns of its edges.

    ``u`` and ``v`` index the node ids; each layer's columns are gathered
    when the iteration reaches it.  Returns None when a record has the wrong
    field count or a bad number, a layer index is out of range, or a node id
    is unlabelable; every other check is left to the graph.
    """
    codes: dict[str, int] = {}
    parts: list[list[np.ndarray]] = [[], [], [], []]
    try:
        for piece in _pieces(text):
            columns = _piece_columns(piece, codes)
            if columns is None:
                return None
            for part, column in zip(parts, columns):
                part.append(column)
    except (ValueError, OverflowError):
        return None
    if not parts[0]:
        return (), ()
    # each column's pieces are dropped as soon as the column is joined
    weight, v, u, layer = (np.concatenate(parts.pop()) for _ in range(4))
    node_ids = tuple(sorted(codes))
    n = len(node_ids)
    if any(map(_unlabelable, node_ids)):
        return None
    position = np.empty(n, np.int32)
    position[np.fromiter(map(codes.__getitem__, node_ids), np.int32, n)] = np.arange(n, dtype=np.int32)
    u, v = position[u], position[v]
    # layers are int16 below MAX_LAYERS <= 2**15, so this stable sort is a radix sort
    order = np.argsort(layer, kind="stable")
    n_layers = int(layer.max()) + 1 if layer.size else 0
    bounds = np.searchsorted(layer[order], np.arange(n_layers + 1))
    rows = (order[a:b] for a, b in zip(bounds[:-1], bounds[1:]))
    return node_ids, ((u[r], v[r], weight[r]) for r in rows)


def _unlabelable(node: str) -> bool:
    """Whether a label file would lose ``node``: parse_label_file strips
    lines and skips "#" lines."""
    return node[:1].strip() in ("", "#")


def _check_writable(node_ids: Iterable[str]) -> None:
    """Raise ValueError naming the first node id the parsers would not read back."""
    for node in node_ids:
        if _unlabelable(node) or "\t" in node or node.splitlines() != [node]:
            raise ValueError(
                f"node id {node!r} cannot be written: it must be non-empty, not start with whitespace or '#', "
                "and hold no tab or line break"
            )


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and fields of each stripped line that is not blank or
    a "#" comment: split on tabs if it has one, else on whitespace."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split("\t") if "\t" in line else line.split()


def _raise_first_error(text: str) -> NoReturn:
    """Raise the error of the first offending line of a rejected edge list.

    Rows are checked in file order, so the message and line number are the
    first the file earns; a node id a label file cannot carry is reported
    only when no row fails another check.
    """
    seen: set[tuple[int, str, str]] = set()
    unlabelable: tuple[int, str] | None = None
    for line_no, fields in _records(text):
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
        named = [node for node in (u, v) if _unlabelable(node)]
        if named and unlabelable is None:
            unlabelable = (line_no, named[0])
    if unlabelable is not None:
        line_no, node = unlabelable
        raise EdgeListFormatError(
            f"line {line_no}: node id {node!r} must be non-empty and not start with whitespace or '#'"
        )
    raise AssertionError("the columnar checks rejected an edge list that every line check accepts")


# Edges per chunk of the writer; one chunk's (edges, 3) block of strings
# exists at a time.
_WRITE_EDGES = 1 << 16


def serialize_multilayer_edge_list(graph: MultilayerGraph) -> str:
    """Serialize a graph to the edge-list format (inverse of the parser).

    Rows are the columns of :meth:`MultilayerGraph.edges`, sorted by
    (layer, u-index, v-index) with u < v, so a parse -> serialize -> parse
    round trip is the identity and serialization is byte-deterministic.
    A node id the parser would not read back raises ValueError.

    No string is formatted per edge.  A row is three prebuilt strings:
    ``"{layer}\\t{u}\\t"`` (built once per node of each layer with edges),
    ``"{v}\\t"`` (once per node) and ``repr(weight) + "\\n"`` (once per
    distinct weight of a chunk of ``_WRITE_EDGES`` edges), gathered by index
    into an object block that is joined chunk by chunk.  Weights are
    positive and finite, so ``np.unique`` merges no two bit patterns.
    Beside the graph's columns the memory is one layer's node strings, one
    chunk's block and the text twice: the joined chunks and the result.
    """
    _check_writable(graph.node_ids)
    seconds = np.array([f"{node}\t" for node in graph.node_ids], dtype=object)
    chunks = []
    for layer, (u, v, w) in enumerate(graph.edges()):
        if not len(u):
            continue
        firsts = np.array([f"{layer}\t{node}\t" for node in graph.node_ids], dtype=object)
        for start in range(0, len(u), _WRITE_EDGES):
            rows = slice(start, start + _WRITE_EDGES)
            weights, which = np.unique(w[rows], return_inverse=True)
            block = np.empty((len(which), 3), dtype=object)
            block[:, 0] = firsts[u[rows]]
            block[:, 1] = seconds[v[rows]]
            block[:, 2] = np.array([f"{weight!r}\n" for weight in weights.tolist()], dtype=object)[which]
            chunks.append("".join(block.ravel().tolist()))
    return "".join(chunks)


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
    for line_no, fields in _records(text):
        if len(fields) != 2:
            raise LabelFileError(f"line {line_no}: expected 2 fields (node, label), got {len(fields)}")
        node, label = fields
        if node in mapping:
            raise LabelFileError(f"line {line_no}: node {node!r} labeled twice")
        mapping[node] = label
    return mapping


def serialize_label_file(node_ids: Sequence[str], labels: Sequence[int] | np.ndarray) -> str:
    """Serialize per-node integer labels as a node-label file, in node order;
    a node id the parser would not read back raises ValueError."""
    if len(node_ids) != len(labels):
        raise ValueError("node_ids and labels must have the same length")
    _check_writable(node_ids)
    return "".join(f"{node}\t{int(label)}\n" for node, label in zip(node_ids, labels))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def degree_normalize(graph: MultilayerGraph) -> MultilayerGraph:
    """Degree-normalize the unweighted layers of a graph.

    A layer counts as unweighted exactly when all its positive entries equal
    1.0.  For such layers, each edge weight becomes ``1/sqrt(d_u * d_v)``
    where ``d`` is the node degree (neighbor count) in that layer, counted
    from the layer's edges.  Weighted layers pass through with equal values;
    this function never applies silently — callers opt in (e.g. the CLI
    ``--normalize`` flag).
    """
    def normalized(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not np.all(w == 1.0):
            return u, v, w
        degrees = (np.bincount(u, minlength=graph.n) + np.bincount(v, minlength=graph.n)).astype(np.float64)
        return u, v, 1.0 / np.sqrt(degrees[u] * degrees[v])

    return MultilayerGraph.from_edges(graph.node_ids, (normalized(*columns) for columns in graph.edges()))


def aggregate(graph: MultilayerGraph, weights: LayerWeights) -> AggregatedGraph:
    """Convex combination of the layers: ``W = sum_l w_l * W_l``.

    Aggregation is linear in the weights, and the Laplacian of the result
    equals the same convex combination of the per-layer Laplacians.

    Raises:
        ValueError: weight vector length differs from the layer count, or a
            node's strength overflows to infinity (naming the first such node).
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
    with np.errstate(over="ignore"):
        strength = np.asarray(acc.sum(axis=1)).ravel()
    if not np.isfinite(strength).all():
        node = graph.node_ids[int(np.argmin(np.isfinite(strength)))]
        raise ValueError(f"aggregated strength of node {node!r} is not finite: its edge weights are too large")
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
    ends = np.cumsum(np.bincount(labels, minlength=n_components))
    return np.split(np.argsort(labels, kind="stable"), ends[:-1]) if n_components else []


def induced_subgraph(weight_matrix: sparse.csr_array, nodes: np.ndarray) -> AggregatedGraph:
    """The subgraph of ``weight_matrix`` induced on ``nodes`` (sorted index array).

    A strength that overflows is left infinite, without a warning; callers
    that can name the node check it.
    """
    sub = weight_matrix[nodes][:, nodes]
    with np.errstate(over="ignore"):
        strength = np.asarray(sub.sum(axis=1)).ravel()
    strength.setflags(write=False)
    return AggregatedGraph(weight_matrix=sub, strength=strength)
