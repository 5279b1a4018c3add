"""Graph containers, edge-list parsing, aggregation, normalization."""

from __future__ import annotations

import io
import math
import multiprocessing
import re
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from mlsgc import (
    AggregatedGraph,
    ClusterAssignment,
    DuplicateEdgeError,
    EdgeListFormatError,
    LayerWeights,
    MultilayerGraph,
    aggregate,
    connected_components,
    critical_bounds,
    degree_normalize,
    parse_label_file,
    parse_multilayer_edge_list,
    serialize_label_file,
    serialize_multilayer_edge_list,
)
from mlsgc import graph_core
from mlsgc.graph_core import MAX_LAYERS, induced_subgraph, run_tasks
from mlsgc.spectral import smallest_laplacian_eigs

from .conftest import adjacency_from_edges, balanced_assignment, dense_graph, fresh_pool, ids, random_multilayer


# ---------------------------------------------------------------- parsing


def test_parse_two_layer_two_rows():
    g = parse_multilayer_edge_list("0 a b 1.0\n1 a b 2.0\n")
    assert g.n == 2
    assert g.L == 2
    assert g.node_ids == ("a", "b")
    assert g.layers[0][0, 1] == 1.0
    assert g.layers[1][0, 1] == 2.0


def test_parse_self_loop_rejected():
    with pytest.raises(EdgeListFormatError):
        parse_multilayer_edge_list("0 a a 1.0\n")


def test_parse_empty_middle_layer():
    g = parse_multilayer_edge_list("0 a b 1.0\n2 a b 2.0\n")
    assert g.L == 3
    assert g.layers[1].nnz == 0
    # downstream ops tolerate the zero layer
    agg = aggregate(g, LayerWeights.uniform(3))
    assert agg.weight_matrix[0, 1] == pytest.approx(1.0)


def test_parse_rejects_layer_index_at_the_limit():
    # every layer up to the largest index is allocated, so a huge index must
    # fail before any allocation
    with pytest.raises(EdgeListFormatError) as info:
        parse_multilayer_edge_list(f"{10**9} a b 1.0\n0 a c 1.0\n")
    assert str(info.value) == f"line 1: layer index must be < 1024, got {10**9}"
    with pytest.raises(EdgeListFormatError) as info:
        parse_multilayer_edge_list(f"0 a b 1.0\n{MAX_LAYERS} a b 1.0\n")
    assert str(info.value) == f"line 2: layer index must be < {MAX_LAYERS}, got {MAX_LAYERS}"


def test_parse_accepts_the_largest_layer_index():
    g = parse_multilayer_edge_list(f"{MAX_LAYERS - 1} a b 1.0\n")
    assert g.L == MAX_LAYERS
    assert g.layers[-1][0, 1] == 1.0
    assert all(mat.nnz == 0 for mat in g.layers[:-1])


def test_parse_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        parse_multilayer_edge_list("0 a b 1.0\n0 b a 2.0\n")


def test_parse_comments_blank_lines_and_tabs():
    text = "# comment\n\n0\ta\tb\t1.5\n  # indented comment\n0 a c 2.5\n"
    g = parse_multilayer_edge_list(text)
    assert g.n == 3
    assert g.layers[0][0, 1] == 1.5
    assert g.layers[0][0, 2] == 2.5


def test_parse_bad_row_reports_line_number():
    with pytest.raises(EdgeListFormatError) as exc:
        parse_multilayer_edge_list("0 a b 1.0\n0 a b\n")
    assert "2" in str(exc.value)


def test_parse_negative_weight_rejected():
    with pytest.raises(EdgeListFormatError) as info:
        parse_multilayer_edge_list("0 a b -1.0\n")
    assert str(info.value) == "line 1: weight must be a positive finite number, got -1.0"


def test_parse_accepts_file_object():
    g = parse_multilayer_edge_list(io.StringIO("0 x y 1.0\n"))
    assert g.node_ids == ("x", "y")


def test_node_order_is_lexicographic_not_file_order():
    g = parse_multilayer_edge_list("0 zeta alpha 1.0\n0 zeta beta 2.0\n")
    assert g.node_ids == ("alpha", "beta", "zeta")


def test_node_order_is_code_point_order_for_non_ascii_ids():
    names = ["é", "Z", "a", "ß", "ǅ", "\U0001F600"]
    # a cycle through the ids in file order, each edge with its own weight
    edges = [(names[i], names[(i + 1) % len(names)], float(i + 1)) for i in range(len(names))]
    g = parse_multilayer_edge_list("".join(f"0\t{u}\t{v}\t{w}\n" for u, v, w in edges))
    assert g.node_ids == tuple(sorted(names)) == ("Z", "a", "ß", "é", "ǅ", "\U0001F600")
    position = {node: i for i, node in enumerate(g.node_ids)}
    expected = np.zeros((len(names), len(names)))
    for u, v, w in edges:
        expected[position[u], position[v]] = expected[position[v], position[u]] = w
    assert np.array_equal(g.layers[0].toarray(), expected)


def test_label_file_round_trip():
    text = serialize_label_file(["a", "b", "c"], [1, 0, 1])
    mapping = parse_label_file(text)
    assert mapping == {"a": "1", "b": "0", "c": "1"}


UNLABELABLE_ID = "must be non-empty and not start with whitespace or '#'"


@pytest.mark.parametrize("bad", [" a", "#a", "", "a\tb", "a\nb", "a\n", "a\x1cb", "a\u2028b"])
def test_writers_reject_an_id_the_parsers_would_not_read_back(bad):
    # " a" read back from a label file as "a", "#a" as a comment, and a tab
    # or line boundary made both files unparseable
    g = MultilayerGraph.from_matrices(["z", bad], [adjacency_from_edges(2, [(0, 1)])])
    message = f"node id {bad!r} cannot be written"
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_multilayer_edge_list(g)
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_label_file(g.node_ids, [0, 1])


def test_writers_keep_ids_with_inner_and_trailing_spaces():
    g = MultilayerGraph.from_matrices(["a b", "c ", "z"], [adjacency_from_edges(3, [(0, 1), (1, 2)])])
    assert parse_multilayer_edge_list(serialize_multilayer_edge_list(g)) == g
    assert parse_label_file(serialize_label_file(g.node_ids, [0, 1, 2])) == {"a b": "0", "c ": "1", "z": "2"}


def test_parse_rejects_id_starting_with_hash():
    # a label file would read the line "#a\t0" as a comment
    with pytest.raises(EdgeListFormatError) as info:
        parse_multilayer_edge_list("0\ta\tb\t1\n0\t#a\tb\t1\n")
    assert str(info.value) == f"line 2: node id '#a' {UNLABELABLE_ID}"


def test_parse_rejects_empty_id():
    with pytest.raises(EdgeListFormatError) as info:
        parse_multilayer_edge_list("0\t\tb\t1\n")
    assert str(info.value) == f"line 1: node id '' {UNLABELABLE_ID}"


def test_parse_rejects_id_with_leading_whitespace():
    # a label file would read " a" back as "a"
    with pytest.raises(EdgeListFormatError) as info:
        parse_multilayer_edge_list("# header\n0\ta\tb\t1\n0\tb\t a\t1\n")
    assert str(info.value) == f"line 3: node id ' a' {UNLABELABLE_ID}"


@given(u=st.text(max_size=4), v=st.text(max_size=4))
@settings(max_examples=200, deadline=None)
def test_accepted_node_ids_survive_a_label_file(u, v):
    try:
        g = parse_multilayer_edge_list(f"0\t{u}\t{v}\t1\n")
    except EdgeListFormatError:
        return
    labels = list(range(g.n))
    mapping = parse_label_file(serialize_label_file(g.node_ids, labels))
    assert mapping == {node: str(label) for node, label in zip(g.node_ids, labels)}


def reference_parse(source):
    """The line-loop parser the columnar one replaced, verbatim: the oracle."""
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


def parse_outcome(parse, text):
    """The parsed graph, or the type and message of the error raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


# Field and layout pools.  A "bad" value breaks the line it is in.
GOOD_LAYERS = ["0", "1", "2", "+1", "01", "1_0", "\u0663"]
BAD_LAYERS = ["-1", str(MAX_LAYERS), str(10**30), str(-10**30), "x", "1.0"]
GOOD_IDS = ["a", "b", "c", "Z", "é", "ß", "ǅ", "\U0001F600"]
BAD_IDS = ["", " a", "#a", "a b", "a\tb"]
GOOD_WEIGHTS = ["1", "2.5", "0.5", "1e3", "1_0", "\u0663"]
BAD_WEIGHTS = ["1e-400", "inf", "-inf", "nan", "-0", "0", "x"]
SPACES = [" ", "  ", "\u3000", "\xa0", "\x1f", " \u2003 "]
BAD_GAPS = ["\x0b", "\u2028", " \t", "\t\t"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
PADS = ["", " ", "\t", "\u3000"]
OTHER_LINES = ["", "   ", "# comment", "  #\tindented\tcomment", "\u3000", "#"]
# the bad values of each slot of a record: layer, gap, u, gap, v, gap, weight
BAD_SLOTS = [BAD_LAYERS, BAD_GAPS, BAD_IDS, BAD_GAPS, BAD_IDS, BAD_GAPS, BAD_WEIGHTS]


@st.composite
def edge_list_texts(draw):
    """Edge-list text with at most one bad value or self-loop in one record.

    Duplicate edges come from the small id pool.
    """
    lines = []
    records = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(("", [draw(st.sampled_from(OTHER_LINES))], ""))
            continue
        gaps = ["\t"] if draw(st.booleans()) else SPACES
        u = draw(st.sampled_from(GOOD_IDS))
        v = draw(st.sampled_from([node for node in GOOD_IDS if node != u]))
        record = [draw(st.sampled_from(GOOD_LAYERS))]
        for field in (u, v, draw(st.sampled_from(GOOD_WEIGHTS))):
            record += [draw(st.sampled_from(gaps)), field]
        records.append(record)
        lines.append((draw(st.sampled_from(PADS)), record, draw(st.sampled_from(PADS))))
    if records and draw(st.booleans()):
        record = draw(st.sampled_from(records))
        slot = draw(st.integers(0, len(BAD_SLOTS)))
        if slot == len(BAD_SLOTS):
            record[4] = record[2]  # a self-loop
        else:
            record[slot] = draw(st.sampled_from(BAD_SLOTS[slot]))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(pad + "".join(record) + trail + end for (pad, record, trail), end in zip(lines, ends))


@given(text=edge_list_texts(), piece_chars=st.integers(1, 24))
@example(text="+1\ta\tb\t1\r\n01 b c 2\x0b\u0663\u3000a\u3000c\u30001_0\u2028", piece_chars=1)
@example(text="0 a b 1\n0\tb\ta\t2\n", piece_chars=8)
@example(text="0\ta\tb\t1e-400\n", piece_chars=1)
@example(text="0 a b -0\r\n", piece_chars=1)
@example(text="0 a b nan\n", piece_chars=1)
@example(text=f"{10**30}\ta\tb\t1\n", piece_chars=1)
@settings(max_examples=500, deadline=None)
def test_parse_matches_the_line_loop_oracle(text, piece_chars):
    # small pieces make every text span several of them
    with mock.patch.object(graph_core, "_PIECE_CHARS", piece_chars):
        got = parse_outcome(parse_multilayer_edge_list, text)
    want = parse_outcome(reference_parse, text)
    if isinstance(want, MultilayerGraph):
        assert isinstance(got, MultilayerGraph) and got == want
    else:
        assert got == want


def large_edge_list(n_nodes=600, n_layers=3, density=0.3, seed=0):
    """A valid tab-separated edge list of about 2.9 M characters."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n_nodes, 1)
    lines = []
    for layer in range(n_layers):
        keep = rng.random(iu.size) < density
        lines += [f"{layer}\tn{i:04d}\tn{j:04d}\t1.0" for i, j in zip(iu[keep], ju[keep])]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def large_text():
    text = large_edge_list()
    assert len(text) > 2 * graph_core._PIECE_CHARS
    return text


def test_parse_allocation_is_bounded_by_a_multiple_of_the_text(large_text):
    # the columnar parser peaks at about 8x the text length on this file; a
    # parser that keeps Python objects per line (a tuple, a key, boxed
    # numbers) peaks at about 27x
    tracemalloc.start()
    try:
        g = parse_multilayer_edge_list(large_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(mat.nnz for mat in g.layers) == 2 * large_text.count("\n")
    assert peak < 12 * len(large_text)


@pytest.fixture(scope="module")
def text_of_9_mib():
    text = large_edge_list(n_nodes=1100)
    assert len(text) > 8 << 20
    return text


def test_parse_peak_on_a_large_text_is_under_four_times_the_text(text_of_9_mib):
    # on this text the peak is set by the columns and one layer's symmetric
    # copy, not by the 1 MiB tokenizer pieces: int16 layers and int32 node
    # codes, each column joined on its own, peak at about 3.6x
    tracemalloc.start()
    try:
        g = parse_multilayer_edge_list(text_of_9_mib)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(mat.nnz for mat in g.layers) == 2 * text_of_9_mib.count("\n")
    assert peak < 4 * len(text_of_9_mib)


@pytest.mark.parametrize("layer", [2**15 - 1, 2**15, 40000, 65536, 65537, -(2**15) - 1, 2**63])
def test_parse_names_a_layer_index_beyond_the_int16_column(layer):
    text = f"0\ta\tb\t1.0\n{layer}\ta\tc\t1.0\n"
    bound = f"must be >= 0, got {layer}" if layer < 0 else f"must be < {MAX_LAYERS}, got {layer}"
    with pytest.raises(EdgeListFormatError, match=re.escape(f"line 2: layer index {bound}")):
        parse_multilayer_edge_list(text)


def test_parse_names_a_duplicate_whose_copies_lie_in_different_pieces(large_text):
    first = large_text.split("\n", 1)[0]
    layer, u, v, _ = first.split("\t")
    text = large_text + f"{layer}\t{v}\t{u}\t2.5\n"
    with pytest.raises(DuplicateEdgeError) as info:
        parse_multilayer_edge_list(text)
    assert str(info.value) == f"line {text.count(chr(10))}: duplicate edge {u!r}-{v!r} in layer {layer}"


@pytest.mark.parametrize("bad, message", [
    ("0\tn0001\tn0002", "expected 4 fields (layer, u, v, weight), got 3"),
    ("0\tn0001\tn0002\tx", "weight 'x' is not numeric"),
    (f"{10**30}\tn0001\tn0002\t1.0", f"layer index must be < {MAX_LAYERS}, got {10**30}"),
])
def test_parse_names_a_malformed_line_deep_in_a_large_file(large_text, bad, message):
    lines = large_text.split("\n")
    deep = len(lines) * 2 // 3
    lines[deep - 1] = bad
    with pytest.raises(EdgeListFormatError) as info:
        parse_multilayer_edge_list("\n".join(lines))
    assert str(info.value) == f"line {deep}: {message}"


# ------------------------------------------------------- graph invariants


def test_asymmetric_matrix_rejected():
    mat = np.zeros((2, 2))
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        MultilayerGraph.from_matrices(["a", "b"], [mat])


def test_nonzero_diagonal_rejected():
    mat = np.eye(2)
    with pytest.raises(ValueError):
        MultilayerGraph.from_matrices(["a", "b"], [mat])


def test_nonfinite_weight_rejected():
    mat = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError):
        MultilayerGraph.from_matrices(["a", "b"], [mat])


def test_duplicate_node_ids_rejected():
    with pytest.raises(ValueError):
        MultilayerGraph.from_matrices(["a", "a"], [np.zeros((2, 2))])


@st.composite
def edge_layers(draw):
    """Node count and per-layer (u, v, weight) columns, each pair listed once
    in a random orientation."""
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    layers = []
    for _ in range(draw(st.integers(0, 3))):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        weights = draw(st.lists(st.floats(5e-324, 1e308), min_size=len(chosen), max_size=len(chosen)))
        ends = [(b, a) if flip else (a, b) for (a, b), flip in zip(chosen, flips)]
        u = np.array([a for a, _ in ends], dtype=np.int64)
        v = np.array([b for _, b in ends], dtype=np.int64)
        layers.append((u, v, np.array(weights, dtype=np.float64)))
    return n, layers


@given(edge_layers())
@settings(max_examples=200, deadline=None)
def test_from_edges_equals_from_matrices_of_both_orientations(case):
    n, layers = case
    both = [
        sparse.coo_array((np.concatenate((w, w)), (np.concatenate((u, v)), np.concatenate((v, u)))), shape=(n, n))
        for u, v, w in layers
    ]
    built = MultilayerGraph.from_edges(ids(n), iter(layers))
    expected = MultilayerGraph.from_matrices(ids(n), both)
    assert built == expected
    for got, want in zip(built.layers, expected.layers):
        assert (got.indptr.dtype, got.indices.dtype) == (want.indptr.dtype, want.indices.dtype)


@pytest.mark.parametrize("bad", [
    ([0, 0], [1, 1], [1.0, 2.0]),  # the pair 0-1 listed twice
    ([0, 1], [1, 0], [1.0, 1.0]),  # the pair 0-1 listed in both orientations
    ([2], [2], [1.0]),  # a self-loop
    ([0], [2], [0.0]),  # a zero weight
    ([0], [2], [1e-400]),  # a weight that underflowed to zero
], ids=["repeat", "reversed", "self-loop", "zero", "underflow"])
def test_from_edges_names_the_layer_that_loses_an_entry(bad):
    good = (np.array([0]), np.array([1]), np.array([1.0]))
    columns = tuple(np.array(c) for c in bad)
    with pytest.raises(ValueError, match=r"^layer 1: "):
        MultilayerGraph.from_edges(ids(3), [good, columns])


def test_from_edges_leaves_a_nan_weight_to_the_constructor():
    with pytest.raises(ValueError, match=r"^layer 0: non-finite weight$"):
        MultilayerGraph.from_edges(ids(2), [(np.array([0]), np.array([1]), np.array([np.nan]))])


@given(edge_layers())
@settings(max_examples=200, deadline=None)
def test_edges_is_the_inverse_of_from_edges(case):
    n, layers = case
    g = MultilayerGraph.from_edges(ids(n), iter(layers))
    rebuilt = MultilayerGraph.from_edges(g.node_ids, g.edges())
    assert rebuilt == g
    for got, want in zip(rebuilt.layers, g.layers):
        assert (got.indptr.dtype, got.indices.dtype) == (want.indptr.dtype, want.indices.dtype)
    for (u, v, w), (lu, lv, lw) in zip(g.edges(), layers):
        assert np.all(u < v)
        assert list(zip(u.tolist(), v.tolist())) == sorted(zip(np.minimum(lu, lv).tolist(), np.maximum(lu, lv).tolist()))
        assert sorted(w.tolist()) == sorted(lw.tolist())


def non_canonical_graph():
    """Three nodes, one layer whose CSR rows are unsorted and whose edge a-c
    is stored as two entries (1.5 + 0.5) in row a; the constructor accepts it."""
    layer = sparse.csr_array((np.array([1.5, 1.0, 0.5, 1.0, 2.0]), np.array([2, 1, 2, 0, 0]), np.array([0, 3, 4, 5])),
                             shape=(3, 3))
    return MultilayerGraph(node_ids=("a", "b", "c"), layers=(layer,))


def test_edges_reads_a_non_canonical_layer_from_a_canonical_copy():
    g = non_canonical_graph()
    (u, v, w), = g.edges()
    assert (u.tolist(), v.tolist(), w.tolist()) == ([0, 0], [1, 2], [1.0, 2.0])
    assert g.layers[0].indices.tolist() == [2, 1, 2, 0, 0]  # the graph's own storage is untouched
    assert MultilayerGraph.from_edges(g.node_ids, g.edges()) == MultilayerGraph.from_matrices(g.node_ids, g.layers)


def test_from_matrices_does_not_share_the_callers_arrays():
    m = sparse.csr_array(np.array([[0, 1.0, 0], [1.0, 0, 2.0], [0, 2.0, 0]]))
    g = MultilayerGraph.from_matrices("abc", [m])
    assert not any(np.shares_memory(a, b) for a in (g.layers[0].data, g.layers[0].indices, g.layers[0].indptr)
                   for b in (m.data, m.indices, m.indptr))
    m.data[0] = -7.0
    assert g.layers[0].data.tolist() == [1.0, 1.0, 2.0, 2.0]


def test_from_matrices_leaves_the_callers_explicit_zeros_in_place():
    m = sparse.csr_array((np.array([0.0, 1.0, 1.0, 0.0]), np.array([0, 1, 0, 2]), np.array([0, 2, 3, 4])), shape=(3, 3))
    g = MultilayerGraph.from_matrices("abc", [m])
    assert (m.indptr.tolist(), m.indices.tolist(), m.data.tolist()) == ([0, 2, 3, 4], [0, 1, 0, 2], [0.0, 1.0, 1.0, 0.0])
    assert g.layers[0].indptr.tolist() == [0, 1, 2, 2]


def test_graph_equality_by_content():
    m = adjacency_from_edges(3, [(0, 1), (1, 2)])
    assert dense_graph(ids(3), m) == dense_graph(ids(3), m)
    assert dense_graph(ids(3), m) != dense_graph(ids(3), 2.0 * m)


# ------------------------------------------------------------ aggregation


def test_aggregate_convex_combination_of_single_edge():
    g = parse_multilayer_edge_list("0 a b 2.0\n1 a b 4.0\n")
    agg = aggregate(g, LayerWeights((0.5, 0.5)))
    assert agg.weight_matrix[0, 1] == pytest.approx(3.0)


def test_aggregate_simplex_vertex_recovers_layer():
    g = parse_multilayer_edge_list("0 a b 2.0\n1 a b 4.0\n1 b c 1.0\n")
    agg = aggregate(g, LayerWeights((1.0, 0.0)))
    assert np.allclose(agg.weight_matrix.toarray(), g.layers[0].toarray())



def test_aggregate_names_the_first_node_whose_strength_overflows():
    # every weight is finite, but a's, b's and c's strengths exceed the
    # float range; the row sum's overflow warning is not shown
    g = parse_multilayer_edge_list("0 a b 1e308\n0 a c 1e308\n0 b c 1e308\n0 c d 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="strength of node 'a' is not finite"):
            aggregate(g, LayerWeights.uniform(1))

def test_every_constructor_stores_int32_indices():
    rng = np.random.default_rng(8)
    weighted = random_multilayer(rng, 40, 2)
    unweighted = MultilayerGraph.from_matrices(weighted.node_ids, [layer > 0 for layer in weighted.layers])
    wide = [sparse.csr_array(layer.toarray()) for layer in weighted.layers]
    for mat in wide:
        mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    graphs = {
        "from_matrices": weighted,
        "from_matrices of int64 input": MultilayerGraph.from_matrices(weighted.node_ids, wide),
        "from_edges": MultilayerGraph.from_edges(weighted.node_ids, weighted.edges()),
        "parser": parse_multilayer_edge_list(serialize_multilayer_edge_list(weighted)),
        "degree_normalize": degree_normalize(unweighted),
    }
    matrices = {f"{name} layer {l}": mat for name, g in graphs.items() for l, mat in enumerate(g.layers)}
    matrices["aggregate"] = aggregate(weighted, LayerWeights.uniform(2)).weight_matrix
    matrices["aggregate of nothing"] = aggregate(weighted, LayerWeights((1.0, 0.0))).weight_matrix
    for name, mat in matrices.items():
        assert (mat.indices.dtype, mat.indptr.dtype) == (np.int32, np.int32), name


def test_laplacian_product_has_the_bytes_of_an_int64_copy():
    rng = np.random.default_rng(6)
    narrow = aggregate(random_multilayer(rng, 200, 2, density=0.3), LayerWeights((0.3, 0.7)))
    mat = narrow.weight_matrix.copy()
    mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    wide = AggregatedGraph(mat, narrow.strength)
    x = rng.standard_normal((200, 3))
    for v in (x[:, 0], x):
        assert narrow.laplacian_matvec(v).tobytes() == wide.laplacian_matvec(v).tobytes()


def test_laplacian_linearity_two_routes():
    rng = np.random.default_rng(5)
    g = random_multilayer(rng, 3, 2, density=0.9)
    w = LayerWeights((0.3, 0.7))
    agg = aggregate(g, w)
    lap_direct = agg.laplacian_dense()
    lap_sum = np.zeros((3, 3))
    for lw, layer in zip(w.values, g.layers):
        dense = layer.toarray()
        lap_sum += lw * (np.diag(dense.sum(axis=1)) - dense)
    assert np.allclose(lap_direct, lap_sum, atol=1e-12)


def test_layer_weights_normalize_and_validate():
    w = LayerWeights((2.0, 6.0))
    assert np.allclose(w.values, [0.25, 0.75])
    with pytest.raises(ValueError):
        LayerWeights((-1.0, 2.0))
    with pytest.raises(ValueError):
        LayerWeights((0.0, 0.0))


def test_layer_weights_whose_sum_overflows_stay_on_the_simplex():
    # the sum was inf, so every weight came out 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LayerWeights((1e308, 1e308)).values.tolist() == [0.5, 0.5]
        assert LayerWeights((1e308, 1e308, 0.0, 1e308 / 2)).values.tolist() == [0.4, 0.4, 0.0, 0.2]


def test_aggregate_stores_no_entry_for_a_weight_that_underflows():
    # the only bridge is a layer-0 edge of 1e-320, which 1e-10 rounds to 0
    g = parse_multilayer_edge_list("0 a b 1\n0 b c 1e-320\n0 c d 1\n1 a b 1\n1 c d 1\n")
    agg = aggregate(g, LayerWeights((1e-10, 1.0)))
    assert agg.weight_matrix.nnz == 4
    assert np.all(agg.weight_matrix.data > 0.0)
    assert agg.weight_matrix[1, 2] == 0.0
    assert [c.tolist() for c in connected_components(agg)] == [[0, 1], [2, 3]]
    assert len(connected_components(aggregate(g, LayerWeights.uniform(2)))) == 1


@given(
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 500),
)
@settings(max_examples=40, deadline=None)
def test_aggregate_linear_in_weights(alpha, seed):
    rng = np.random.default_rng(seed)
    g = random_multilayer(rng, 6, 2)
    w1 = LayerWeights((1.0, 0.0))
    w2 = LayerWeights((0.0, 1.0))
    mixed = LayerWeights((alpha, 1.0 - alpha)) if 0.0 < alpha < 1.0 else (w1 if alpha == 1.0 else w2)
    lhs = aggregate(g, mixed).weight_matrix.toarray()
    rhs = (
        alpha * aggregate(g, w1).weight_matrix.toarray()
        + (1.0 - alpha) * aggregate(g, w2).weight_matrix.toarray()
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_laplacian_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    g = random_multilayer(rng, n, 2)
    agg = aggregate(g, LayerWeights.uniform(2))
    lap = agg.laplacian_dense()
    for _ in range(5):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        assert x @ lap @ x >= -1e-9


@given(seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_parse_serialize_round_trip(seed):
    # The format cannot express isolated nodes or a trailing empty layer, so
    # the identity is stated on parse-reachable graphs: parse∘serialize∘parse
    # equals parse.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    L = int(rng.integers(1, 4))
    rows = []
    for layer in range(L):
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    rows.append(f"{layer} x{i} x{j} {rng.uniform(0.2, 2.0)!r}")
    text_in = "\n".join(rows) + "\n"
    try:
        g = parse_multilayer_edge_list(text_in)
    except EdgeListFormatError:  # pragma: no cover - rows are well-formed
        raise
    assert parse_multilayer_edge_list(serialize_multilayer_edge_list(g)) == g


def lexsort_serialize_multilayer_edge_list(graph):
    """The COO-and-lexsort writer that MultilayerGraph.edges() replaced, kept verbatim as an oracle."""
    lines = []
    for layer, mat in enumerate(graph.layers):
        coo = mat.tocoo()
        upper = coo.row < coo.col
        order = np.lexsort((coo.col[upper], coo.row[upper]))
        for r, c, w in zip(coo.row[upper][order], coo.col[upper][order], coo.data[upper][order]):
            lines.append(f"{layer}\t{graph.node_ids[r]}\t{graph.node_ids[c]}\t{float(w)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def coo_degree_normalize(graph):
    """The COO degree_normalize that MultilayerGraph.edges() replaced, kept verbatim as an oracle."""
    new_layers = []
    for mat in graph.layers:
        if mat.nnz and not np.all(mat.data == 1.0):
            new_layers.append(mat)
            continue
        degrees = np.diff(mat.indptr).astype(np.float64)  # neighbor counts per row
        coo = mat.tocoo()
        scaled = 1.0 / np.sqrt(degrees[coo.row] * degrees[coo.col])
        new_layers.append(
            graph_core._canonical_csr(sparse.coo_array((scaled, (coo.row, coo.col)), shape=mat.shape), graph.n)
        )
    return MultilayerGraph(node_ids=graph.node_ids, layers=tuple(new_layers))


_WRITER_WEIGHTS = st.one_of(st.sampled_from([5e-324, 1e-310, 1e308, 1.0, 0.1, 2.5]), st.floats(1e-3, 1e3))


@st.composite
def writer_graphs(draw):
    """Graphs with non-ASCII ids, empty layers, and weights from subnormal to 1e308;
    a layer is unweighted (all 1.0) about half the time."""
    n = draw(st.integers(1, 8))
    node_ids = draw(st.lists(st.text("aé中Ω𝔸z_", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    layers = []
    for _ in range(draw(st.integers(0, 3))):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        unweighted = draw(st.booleans())
        weights = [1.0 if unweighted else draw(_WRITER_WEIGHTS) for _ in chosen]
        layers.append((np.array([a for a, _ in chosen], dtype=np.int64), np.array([b for _, b in chosen], dtype=np.int64),
                       np.array(weights, dtype=np.float64)))
    return MultilayerGraph.from_edges(node_ids, layers)


@given(writer_graphs())
@settings(max_examples=200, deadline=None)
def test_serialize_equals_the_lexsort_writer(g):
    assert serialize_multilayer_edge_list(g) == lexsort_serialize_multilayer_edge_list(g)


@given(writer_graphs(), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_serialize_in_small_chunks_equals_the_lexsort_writer(g, write_edges):
    with mock.patch.object(graph_core, "_WRITE_EDGES", write_edges):
        assert serialize_multilayer_edge_list(g) == lexsort_serialize_multilayer_edge_list(g)


def test_serialize_a_layer_of_several_chunks_equals_the_lexsort_writer():
    # a repeated weight that every chunk holds, distinct weights down to the
    # smallest subnormal and up to 1e308, an empty layer between two full ones
    # and ids outside ASCII
    n = 700
    node_ids = [f"{'é中𝔸z'[i % 4]}{i}" for i in range(n)]
    iu, ju = np.triu_indices(n, 1)
    rng = np.random.default_rng(0)
    full = rng.random(iu.size) < 0.7
    weights = np.where(rng.random(iu.size) < 0.5, 1.0, rng.uniform(1e-3, 1e3, iu.size))
    weights[rng.choice(iu.size, 40, replace=False)] = 5e-324
    weights[rng.choice(iu.size, 40, replace=False)] = 1e308
    sparse_keep = rng.random(iu.size) < 0.01
    g = MultilayerGraph.from_edges(node_ids, [
        (iu[full], ju[full], weights[full]),
        (iu[:0], ju[:0], weights[:0]),
        (iu[sparse_keep], ju[sparse_keep], weights[sparse_keep]),
    ])
    assert g.layers[0].nnz // 2 > 2 * graph_core._WRITE_EDGES  # three chunks or more
    text = serialize_multilayer_edge_list(g)
    assert text == lexsort_serialize_multilayer_edge_list(g)
    assert "\t5e-324\n" in text and "\t1e+308\n" in text and "\n1\t" not in text


def test_serialize_peak_is_under_three_times_the_text(text_of_9_mib):
    # the joined chunks and the result hold the text twice; the rest is one
    # layer's columns and one chunk's block, about 2.5x in all
    g = parse_multilayer_edge_list(text_of_9_mib)
    tracemalloc.start()
    try:
        text = serialize_multilayer_edge_list(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == text_of_9_mib
    assert peak < 3 * len(text)


def test_serialize_equals_the_lexsort_writer_on_an_unsorted_layer():
    # rows out of order (no duplicate): lexsort and edges()'s canonical copy
    # give the same text
    layer = sparse.csr_array((np.array([2.0, 1.0, 1.0, 2.0]), np.array([2, 1, 0, 0]), np.array([0, 2, 3, 4])), shape=(3, 3))
    g = MultilayerGraph(node_ids=("é", "b", "a"), layers=(layer,))
    assert serialize_multilayer_edge_list(g) == lexsort_serialize_multilayer_edge_list(g) == "0\té\tb\t1.0\n0\té\ta\t2.0\n"


def test_serialize_sums_an_edge_stored_as_two_entries():
    # the lexsort writer wrote a-c twice (1.5 and 0.5), a file the parser rejects
    g = non_canonical_graph()
    text = serialize_multilayer_edge_list(g)
    assert text == "0\ta\tb\t1.0\n0\ta\tc\t2.0\n"
    assert parse_multilayer_edge_list(text) == MultilayerGraph.from_matrices(g.node_ids, g.layers)


def test_serialize_emits_upper_triangle_sorted():
    g = parse_multilayer_edge_list("1 c a 1.0\n0 b a 2.0\n")
    lines = serialize_multilayer_edge_list(g).strip().split("\n")
    assert lines == ["0\ta\tb\t2.0", "1\ta\tc\t1.0"]


# ------------------------------------------------------------- components


def test_two_disjoint_triangles_two_components(two_triangles):
    agg = aggregate(two_triangles, LayerWeights.uniform(1))
    comps = connected_components(agg)
    assert sorted(len(c) for c in comps) == [3, 3]


def test_path_graph_one_component():
    g = parse_multilayer_edge_list("0 a b 1.0\n0 b c 1.0\n")
    agg = aggregate(g, LayerWeights.uniform(1))
    assert len(connected_components(agg)) == 1


def test_zero_weight_layer_isolates_node():
    # node c has edges only in layer 1; weighting layer 1 by 0 isolates it
    g = parse_multilayer_edge_list("0 a b 1.0\n1 b c 1.0\n")
    agg = aggregate(g, LayerWeights((1.0, 0.0)))
    comps = connected_components(agg)
    assert sorted(len(c) for c in comps) == [1, 2]


def _components_graphs():
    """Seeded random symmetric graphs with isolated nodes, their induced
    subgraphs, one node, no node, and nodes without an edge."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 120))
        graph = random_multilayer(rng, n, 2, density=float(rng.uniform(0.002, 0.05)))
        agg = aggregate(graph, LayerWeights(rng.uniform(0.0, 1.0, 2) + 1e-3))
        yield agg
        yield induced_subgraph(agg.weight_matrix, np.flatnonzero(rng.random(n) < 0.7))
    for n in (1, 0, 5):
        yield aggregate(dense_graph(ids(n), np.zeros((n, n))), LayerWeights.uniform(1))


@pytest.mark.parametrize("numbering", ["scipy", "reversed"])
def test_component_labels_equal_the_undirected_search(monkeypatch, numbering):
    # the strong components of a symmetric matrix, numbered by first node,
    # are the undirected search's labels byte for byte, whichever numbering
    # the strong search gives them
    from scipy.sparse import csgraph

    def reversed_numbering(*args, **kwargs):
        count, labels = csgraph.connected_components(*args, **kwargs)
        return count, (count - 1 - labels).astype(labels.dtype)

    if numbering == "reversed":
        monkeypatch.setattr(graph_core, "csgraph", SimpleNamespace(connected_components=reversed_numbering))
    seen = set()
    for agg in _components_graphs():
        count, labels = csgraph.connected_components(agg.weight_matrix, directed=False)
        got_count, got = agg._components
        assert got_count == count and got.dtype == labels.dtype and got.tobytes() == labels.tobytes()
        comps = connected_components(agg)
        assert [c.tobytes() for c in comps] == [np.flatnonzero(labels == c).tobytes() for c in range(count)]
        seen.add(min(count, 3))
    assert seen == {0, 1, 2, 3}


def test_components_split_like_one_scan_per_component():
    # the oracle is the scan that once ran ``labels == c`` for every component
    rng = np.random.default_rng(29)
    graphs = [aggregate(random_multilayer(rng, int(rng.integers(1, 90)), 1, density=float(rng.uniform(0.0, 0.08))),
                        LayerWeights.uniform(1)) for _ in range(200)]
    matching = sparse.csr_array((np.ones(400), (np.arange(400), np.arange(400) ^ 1)), shape=(400, 400))
    graphs += [aggregate(MultilayerGraph.from_matrices(ids(400), [matching]), LayerWeights.uniform(1)),
               aggregate(dense_graph(ids(0), np.zeros((0, 0))), LayerWeights.uniform(1))]
    for agg in graphs:
        count, labels = agg._components
        comps = connected_components(agg)
        oracle = [np.flatnonzero(labels == c) for c in range(count)]
        assert len(comps) == len(oracle)
        for got, want in zip(comps, oracle):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert connected_components(graphs[-1]) == [] and len(connected_components(graphs[-2])) == 200


# ---------------------------------------------------- induced subgraphs


def test_whole_graph_cluster_recovers_full_laplacian(triangle):
    asn = balanced_assignment([3])
    sub = induced_subgraph(triangle.layers[0], asn.members(0))
    agg = aggregate(triangle, LayerWeights.uniform(1))
    assert np.allclose(sub.laplacian_dense(), agg.laplacian_dense())


def test_singleton_cluster_gives_zero_matrix(triangle):
    asn = balanced_assignment([1, 2])
    sub = induced_subgraph(triangle.layers[0], asn.members(0))
    assert sub.laplacian_dense().shape == (1, 1)
    assert sub.laplacian_dense() == pytest.approx(0.0)


def test_within_cluster_laplacian_rows_sum_to_zero(barbell4):
    asn = balanced_assignment([2, 2])
    for k in range(2):
        lap = induced_subgraph(barbell4.layers[0], asn.members(k)).laplacian_dense()
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)


def test_critical_bounds_name_the_node_whose_within_cluster_strength_overflows():
    # three 6e307 edges at n002 in layer 1 sum past the float range; two do not
    heavy = [(2, 1, 6e307), (2, 3, 6e307), (2, 4, 6e307)]
    g = dense_graph(ids(6), adjacency_from_edges(6, [(0, 5), (1, 2), (3, 4)]), adjacency_from_edges(6, heavy))
    together = ClusterAssignment(np.array([0, 1, 1, 1, 1, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(induced_subgraph(g.layers[1], together.members(1)).strength[1])
        with pytest.raises(ValueError, match=r"^layer 1: within-cluster strength of node 'n002' is not finite"):
            critical_bounds(g, together, LayerWeights.uniform(2))
        # apart, the heavy edges leave every within-cluster strength finite
        critical_bounds(g, ClusterAssignment(np.array([0, 0, 1, 1, 0, 0])), LayerWeights.uniform(2))


@given(edge_layers(), st.data())
@settings(max_examples=200, deadline=None)
def test_dense_laplacian_is_byte_equal_to_the_product_on_the_identity(case, data):
    """Also in its signs: a missing edge is +0.0 in both, never -0.0."""
    n, layers = case
    g = MultilayerGraph.from_edges(ids(n), iter(layers))
    nodes = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    graphs = [induced_subgraph(mat, nodes) for mat in g.layers]
    if g.L:
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=g.L, max_size=g.L).filter(lambda w: sum(w) > 0))
        try:
            graphs.append(aggregate(g, LayerWeights(weights)))
        except ValueError:  # a strength overflowed
            pass
    for sub in graphs:
        if not np.isfinite(sub.strength).all():  # inf * 0 is nan in the product
            continue
        dense = sub.laplacian_dense().tobytes()
        columns = np.array([sub.laplacian_matvec(e) for e in np.eye(sub.n)]).reshape(sub.n, sub.n).T
        assert dense == columns.tobytes()
        for blocks in (2, 3):
            with forced_row_blocks(blocks):
                blocked = AggregatedGraph(sub.weight_matrix, sub.strength)
                columns = np.array([blocked.laplacian_matvec(e) for e in np.eye(sub.n)]).reshape(sub.n, sub.n).T
            assert dense == columns.tobytes()


@contextmanager
def forced_row_blocks(blocks):
    """Split the Laplacian product of graphs built inside into up to ``blocks`` row blocks."""
    with mock.patch.object(graph_core, "_CPUS", blocks), mock.patch.object(graph_core, "_BLOCK_ENTRIES", 1):
        yield


def test_laplacian_product_of_a_block_of_columns():
    # an (n, 1) column once broadcast against strength into an (n, n) array
    rng = np.random.default_rng(7)
    g = aggregate(random_multilayer(rng, 9, 2), LayerWeights.uniform(2))
    dense = g.laplacian_dense()
    x = rng.standard_normal((9, 3))
    for block in (x[:, 0], x[:, :1], x):
        product = g.laplacian_matvec(block)
        assert product.shape == block.shape
        assert np.allclose(product, dense @ block, rtol=0, atol=1e-12)
        for column, own in zip(product.reshape(9, -1).T, block.reshape(9, -1).T):
            assert column.tobytes() == g.laplacian_matvec(np.ascontiguousarray(own)).tobytes()


def empty_middle_rows_graph():
    """Two 10-node cliques with five isolated nodes between them: the half-way
    split of the stored entries falls at the first isolated row."""
    rng = np.random.default_rng(11)
    clique = np.triu(rng.uniform(0.5, 2.0, (10, 10)), 1)
    mat = np.zeros((25, 25))
    mat[:10, :10] = mat[15:, 15:] = clique + clique.T
    return dense_graph(ids(25), mat)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_row_blocks_give_the_same_bytes_and_share_the_matrix(blocks):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((25, 2))
    for graph in (empty_middle_rows_graph(), random_multilayer(rng, 25, 2)):
        weights = LayerWeights.uniform(graph.L)
        whole = aggregate(graph, weights)
        with forced_row_blocks(blocks):
            split = aggregate(graph, weights)
            assert len(split._row_blocks) == blocks
            for v in (x[:, 0], x):
                assert split.laplacian_matvec(v).tobytes() == whole.laplacian_matvec(v).tobytes()
        mat = split.weight_matrix
        assert sum(block.shape[0] for block in split._row_blocks) == split.n
        for block in split._row_blocks:
            assert np.shares_memory(block.data, mat.data) and np.shares_memory(block.indices, mat.indices)


def test_a_row_block_may_start_at_an_empty_row():
    with forced_row_blocks(2):
        split = aggregate(empty_middle_rows_graph(), LayerWeights.uniform(1))
        first, second = split._row_blocks
    assert first.shape[0] == 10 and second.indptr[5] == 0


def test_concurrent_first_products_start_one_pool_and_agree(monkeypatch):
    rng = np.random.default_rng(4)
    graph = random_multilayer(rng, 60, 2)
    x = rng.standard_normal(60)
    expected = aggregate(graph, LayerWeights.uniform(2)).laplacian_matvec(x).tobytes()
    started = []

    def counted_pool(**kwargs):
        started.append(kwargs)
        time.sleep(0.01)  # a slow start: every other caller arrives before the pool is stored
        return ThreadPoolExecutor(**kwargs)

    monkeypatch.setattr(graph_core, "ThreadPoolExecutor", counted_pool)
    monkeypatch.setattr(graph_core, "_pool", None)
    with forced_row_blocks(3):
        split = aggregate(graph, LayerWeights.uniform(2))
        assert len(split._row_blocks) == 3
        gate = threading.Barrier(8)

        def products():
            gate.wait(timeout=30)
            return [split.laplacian_matvec(x).tobytes() for _ in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as callers:
                results = [future.result(timeout=60) for future in [callers.submit(products) for _ in range(8)]]
        finally:
            sys.setswitchinterval(interval)
    assert len(started) == 1
    assert all(product == expected for result in results for product in result)


def test_pool_forked_child_runs_a_blocked_product():
    # a child forked after the pool started inherits the pool but none of
    # its threads, and none of the tokens its busy workers hold; the product
    # must not wait on them, and two tasks must still run at once
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    rng = np.random.default_rng(2)
    graph = random_multilayer(rng, 40, 2)
    x = rng.standard_normal(40)
    release = threading.Event()
    with fresh_pool(2), forced_row_blocks(2):
        agg = aggregate(graph, LayerWeights.uniform(2))
        expected = agg.laplacian_matvec(x)
        spectrum = smallest_laplacian_eigs(agg, 3)
        busy = graph_core._submit_if_idle(release.wait, 30)  # the parent's one worker is busy at the fork

        def child():
            product = aggregate(graph, LayerWeights.uniform(2)).laplacian_matvec(x)
            gate = threading.Barrier(2)

            def solve():
                gate.wait(timeout=10)  # both tasks wait here: it passes only if two run at once
                return smallest_laplacian_eigs(aggregate(graph, LayerWeights.uniform(2)), 3)

            solves = run_tasks([solve, solve])
            same = product.tobytes() == expected.tobytes() and all(s.tobytes() == spectrum.tobytes() for s in solves)
            sys.exit(0 if same else 1)

        try:
            process = multiprocessing.get_context("fork").Process(target=child)
            process.start()
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
                process.join()
        finally:
            release.set()
            busy.result(timeout=30)
    assert busy is not None and process.exitcode == 0


def test_run_tasks_runs_two_at_once_and_returns_results_in_order():
    gate = threading.Barrier(2)

    def task(i):
        if i < 2:
            gate.wait(timeout=30)  # passes only when the first two tasks run at once
        return i, threading.get_ident()

    with fresh_pool(2):
        results = run_tasks([partial(task, i) for i in range(6)])
    assert [i for i, _ in results] == list(range(6))
    assert len({ident for _, ident in results[:2]}) == 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_tasks_raises_the_first_error_in_list_order(cpus):
    ran = []

    def task(i):
        ran.append(i)
        if i == 1:
            time.sleep(0.05)  # on two threads, task 2 raises first
        if i in (1, 2):
            raise ValueError(f"task {i}")
        return i

    with fresh_pool(cpus), pytest.raises(ValueError, match=r"^task 1$"):
        run_tasks([partial(task, i) for i in range(6)])
    if cpus == 1:
        assert ran == [0, 1]
    assert 5 not in ran


def test_concurrent_callers_of_run_tasks_share_the_workers_and_return_every_token():
    rng = np.random.default_rng(9)
    graph = random_multilayer(rng, 30, 2)
    x = rng.standard_normal(30)
    expected = aggregate(graph, LayerWeights.uniform(2)).laplacian_matvec(x).tobytes()
    with fresh_pool(3), forced_row_blocks(3):
        split = aggregate(graph, LayerWeights.uniform(2))
        assert len(split._row_blocks) == 3

        def caller(base):  # tasks and their products take tokens from one another
            return run_tasks([partial(lambda i: (i, split.laplacian_matvec(x).tobytes()), base + i)
                              for i in range(20)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                results = [future.result(timeout=60) for future in [callers.submit(caller, 100 * c) for c in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        tokens = graph_core._pool[1]
        assert [tokens.acquire(blocking=False) for _ in range(3)] == [True, True, False]
    assert results == [[(100 * c + i, expected) for i in range(20)] for c in range(6)]


def test_one_cpu_or_one_task_runs_on_the_calling_thread():
    here = threading.get_ident()
    with fresh_pool(1):
        assert run_tasks([threading.get_ident] * 3) == [here] * 3
        assert graph_core._pool is None
    with fresh_pool(2):
        assert run_tasks([threading.get_ident]) == [here]
        assert graph_core._pool is None


def test_busy_workers_leave_tasks_and_products_to_the_calling_thread():
    rng = np.random.default_rng(6)
    graph = random_multilayer(rng, 30, 2)
    x = rng.standard_normal(30)
    whole = aggregate(graph, LayerWeights.uniform(2)).laplacian_matvec(x)
    here = threading.get_ident()
    release = threading.Event()
    with fresh_pool(2), forced_row_blocks(2):
        split = aggregate(graph, LayerWeights.uniform(2))
        assert len(split._row_blocks) == 2
        busy = graph_core._submit_if_idle(release.wait, 30)
        try:
            assert graph_core._submit_if_idle(len, ()) is None
            idents = run_tasks([threading.get_ident] * 3)
            product = split.laplacian_matvec(x)
        finally:
            release.set()
        assert busy.result(timeout=30) is True
        # the worker's token came back with its result: the next product splits again
        handed = graph_core._submit_if_idle(threading.get_ident)
        assert handed is not None and handed.result(timeout=30) != here
    assert idents == [here] * 3
    assert product.tobytes() == whole.tobytes()


def test_run_tasks_takes_every_idle_worker():
    gate = threading.Barrier(3)

    def task(i):
        if i < 3:
            gate.wait(timeout=30)  # passes only when the first three tasks run at once
        return i, threading.get_ident()

    with fresh_pool(3):
        results = run_tasks([partial(task, i) for i in range(5)])
    assert [i for i, _ in results] == list(range(5))
    assert len({ident for _, ident in results[:3]}) == 3


def test_a_product_inside_a_task_on_a_busy_pool_has_the_one_pass_bytes():
    rng = np.random.default_rng(8)
    graph = random_multilayer(rng, 30, 2)
    x = rng.standard_normal((30, 2))
    whole = aggregate(graph, LayerWeights.uniform(2)).laplacian_matvec(x).tobytes()
    started, finished = threading.Barrier(3), threading.Barrier(3)
    with fresh_pool(3), forced_row_blocks(3):
        split = aggregate(graph, LayerWeights.uniform(2))
        assert len(split._row_blocks) == 3

        def task():
            started.wait(timeout=30)  # both workers hold a task: the product's blocks stay here
            idle = graph_core._submit_if_idle(len, ())
            product = split.laplacian_matvec(x).tobytes()
            finished.wait(timeout=30)
            return idle, product

        results = run_tasks([task] * 3)
    assert results == [(None, whole)] * 3


# ---------------------------------------------------------- normalization


def test_degree_normalize_path_graph_formula():
    g = parse_multilayer_edge_list("0 a b 1.0\n0 b c 1.0\n")
    normalized = degree_normalize(g)
    assert normalized.layers[0][0, 1] == pytest.approx(1.0 / np.sqrt(1 * 2))


def test_degree_normalize_isolated_node_stays_zero():
    g = parse_multilayer_edge_list("0 a b 1.0\n1 c d 1.0\n")
    normalized = degree_normalize(g)
    row = normalized.layers[0].toarray()[2:, :]
    assert np.allclose(row, 0.0)


def test_degree_normalize_weighted_layer_passthrough():
    g = parse_multilayer_edge_list("0 a b 2.5\n")
    normalized = degree_normalize(g)
    assert normalized.layers[0][0, 1] == 2.5


@given(writer_graphs())
@settings(max_examples=200, deadline=None)
def test_degree_normalize_equals_the_coo_oracle(g):
    normalized, expected = degree_normalize(g), coo_degree_normalize(g)
    assert normalized == expected
    for got, want in zip(normalized.layers, expected.layers):
        assert (got.indptr.dtype, got.indices.dtype) == (want.indptr.dtype, want.indices.dtype)
