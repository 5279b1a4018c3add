"""Graph containers, edge-list parsing, aggregation, normalization."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgc import (
    AggregatedGraph,
    DuplicateEdgeError,
    EdgeListFormatError,
    LayerWeights,
    MultilayerGraph,
    aggregate,
    connected_components,
    degree_normalize,
    parse_label_file,
    parse_multilayer_edge_list,
    serialize_label_file,
    serialize_multilayer_edge_list,
    within_cluster_laplacians,
)
from mlsgc.graph_core import MAX_LAYERS

from .conftest import adjacency_from_edges, balanced_assignment, dense_graph, ids, random_multilayer


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


def test_label_file_round_trip():
    text = serialize_label_file(["a", "b", "c"], [1, 0, 1])
    mapping = parse_label_file(text)
    assert mapping == {"a": "1", "b": "0", "c": "1"}


UNLABELABLE_ID = "must be non-empty and not start with whitespace or '#'"


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


# ------------------------------------------------- within-cluster Laplacians


def test_whole_graph_cluster_recovers_full_laplacian(triangle):
    asn = balanced_assignment([3])
    wcl = within_cluster_laplacians(triangle, asn)
    agg = aggregate(triangle, LayerWeights.uniform(1))
    assert np.allclose(wcl[0][0].toarray(), agg.laplacian_dense())


def test_singleton_cluster_gives_zero_matrix(triangle):
    asn = balanced_assignment([1, 2])
    wcl = within_cluster_laplacians(triangle, asn)
    assert wcl[0][0].shape == (1, 1)
    assert wcl[0][0].toarray() == pytest.approx(0.0)


def test_within_cluster_laplacian_rows_sum_to_zero(barbell4):
    asn = balanced_assignment([2, 2])
    wcl = within_cluster_laplacians(barbell4, asn)
    for k in range(2):
        rows = np.asarray(wcl[0][k].sum(axis=1)).ravel()
        assert np.allclose(rows, 0.0, atol=1e-12)


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
