"""End-to-end command-line interface tests (in-process via main(argv))."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsgc.cli
import mlsgc.spectral

from mlsgc import (
    ClusterAssignment,
    LayerWeights,
    MimosaConfig,
    TwoLayerCorrelatedParams,
    conductance,
    critical_bounds,
    detectability,
    f_measure,
    generate_two_layer,
    nmi,
    normalized_cut,
    parse_label_file,
    parse_result,
    rand_index,
    run_mimosa,
    serialize_label_file,
    serialize_multilayer_edge_list,
)
from mlsgc.cli import main

from .conftest import adjacency_from_edges, connected_random_multilayer, dense_graph, ids

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_in_process(argv, broken=()):
    """Exit code of ``main(argv)`` with stdout dropped and warnings silenced,
    after checking the code is documented and stderr starts as it says.
    ``broken`` holds the names of the one key the input breaks, if any: an
    exit 2 then names one of them, and without them there is no exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv[0], code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error:"), (argv[0], err.getvalue())
        assert any(re.search(rf"\b{name}\b", err.getvalue()) for name in broken), (argv[0], broken, err.getvalue())
    if code == 4:
        assert err.getvalue().startswith("numerical failure:"), (argv[0], err.getvalue())
    return code


# Each params file or spec is valid except, most of the time, one key: a
# value outside [0, 1], nan or inf, a zero size or one over the 2**25
# node-pair budget, a ragged row, a bad name, a zero or oversized step.
_VALID_SIZES = ["3,3", "4,4,4", "2,5", "12", "6"]
_BAD_SIZES = ["0,3", "3,-1", "8193", "10000000000", "", "3,x"]
# the last is sparse: with small p most samples are disconnected
_VALID_Q = [("0.3", "0.2", "0.1", "0.4"), ("0.0625", "0.1875", "0.1875", "0.5625"),
            ("0.02", "0.03", "0.03", "0.92")]
_BAD_Q = [("nan", "0.2", "0.1", "0.4"), ("0.3", "inf", "0.1", "0.4"), ("-0.1", "0.2", "0.1", "0.8"),
          ("1.5", "0", "0", "-0.5"), ("0.9", "0.2", "0.1", "0.4"), ("x", "0.2", "0.1", "0.4")]
_VALID_P = ["0", "0.25", "0.5", "1"]
_BAD_P = ["nan", "inf", "-0.1", "1.5", "x"]


def _config(items):
    return "".join(f"{key} = {value}\n" for key, value in items if value is not None)


def _value(draw, key, bad_key, valid, invalid):
    return draw(st.sampled_from(invalid if key == bad_key else valid))


def _names(bad, **groups):
    """The names an error about the broken key ``bad`` may use (none when
    nothing is broken): a group key stands for each of its members."""
    return () if bad is None else groups.get(bad, (bad,))


_Q_KEYS = ("q11", "q10", "q01", "q00")


@st.composite
def generate_params(draw):
    """A ``generate`` params file for either generator on at most 12 nodes,
    and the names of its broken key."""
    rim = draw(st.booleans())
    keys = ["generator", "cluster_sizes", "seed"] + (
        ["n_layers", "within_probs", "noise_probs", "noise_weight_means", "weight_distribution"] if rim
        else ["q", "p1", "p2"])
    bad = draw(st.one_of(st.none(), st.sampled_from(keys)))
    sizes = _value(draw, "cluster_sizes", bad, _VALID_SIZES, _BAD_SIZES)
    items = [("generator", _value(draw, "generator", bad, ["rim" if rim else "two_layer"], ["other"])),
             ("cluster_sizes", sizes), ("seed", _value(draw, "seed", bad, ["0", "7"], ["-1", "x"]))]
    if not rim:
        q = _value(draw, "q", bad, _VALID_Q, _BAD_Q)
        return _config(items + [*zip(_Q_KEYS, q),
                                ("p1", _value(draw, "p1", bad, _VALID_P, _BAD_P)),
                                ("p2", _value(draw, "p2", bad, _VALID_P, _BAD_P))]), _names(bad, q=_Q_KEYS)
    n_layers = draw(st.integers(1, 3))
    K = len(sizes.split(",")) if bad != "cluster_sizes" else 2
    row = ",".join(draw(st.sampled_from(_VALID_P)) for _ in range(K))
    rows = [row] * n_layers
    if bad == "within_probs":
        rows[-1] = draw(st.sampled_from([row + ",0.5", "nan" + row[1:] if K > 1 else "nan", "1.5", "x"]))
    return _config(items + [
        ("n_layers", _value(draw, "n_layers", bad, [str(n_layers)], ["0", "-1", str(n_layers + 1), "x"])),
        ("within_probs", ";".join(rows)),
        ("noise_probs", _value(draw, "noise_probs", bad, ["0.1", ",".join(["0.2"] * n_layers)],
                               ["nan", "2", ",".join(["0.1"] * (n_layers + 1))])),
        ("noise_weight_means", _value(draw, "noise_weight_means", bad, [None, "1.5"], ["0", "inf", "-2"])),
        ("weight_distribution", _value(draw, "weight_distribution", bad, [None, "constant", "uniform"], ["gamma"])),
    ]), _names(bad)


# valid axes have at most 3 points; the bad ones are rejected before the grid exists
_VALID_AXES = ["p1:0:1:0.5", "p2:0.25:0.75:0.5", "w1:0:1:1", "tau:0:1:0.5", "p1:0.5:0.5:1e-15"]
_BAD_AXES = ["q11:0:1:0.5", "p1:0:1:0", "p1:0:1:nan", "p1:0:inf:0.5", "p1:1:0:0.5", "p1:0:1:1e-5", "p1:0:1",
             "p1:0:1:-0.5", "p1:0:nan:0.5"]


@st.composite
def sweep_specs(draw):
    """A ``sweep`` spec in either mode, each sample on at most 12 nodes, and
    the names of its broken key."""
    mimosa = draw(st.booleans())
    bad = draw(st.one_of(st.none(), st.sampled_from(
        ["axis", "axis2", "cluster_sizes", "q", "p", "w", "k", "mode", "trials", "seed"])))
    axis = _value(draw, "axis", bad, _VALID_AXES, _BAD_AXES)
    others = [a for a in _VALID_AXES if a.split(":")[0] != axis.split(":")[0]]
    axis2 = _value(draw, "axis2", bad, [None, *others], [axis, "p2:0:0.5:1e-5", "p2:0:1:0"])
    fixed = {name: _value(draw, "p", bad, _VALID_P, _BAD_P) for name in ("p1", "p2")}
    if "w1" in (axis + str(axis2)):
        w = None
    else:
        w = _value(draw, "w", bad, [None, "0.5,0.5", "1,0"], ["-1,2", "0.5", "0,0"])
    return _config([
        ("axis", axis), ("axis2", axis2), ("cluster_sizes", _value(draw, "cluster_sizes", bad, _VALID_SIZES, _BAD_SIZES)),
        *zip(_Q_KEYS, _value(draw, "q", bad, _VALID_Q, _BAD_Q)), *fixed.items(), ("w", w),
        ("k", None if mimosa else _value(draw, "k", bad, ["2", "3"], ["0", "1", "50", "x"])),
        ("max_k", _value(draw, "k", bad, ["2", "3"], ["0", "-1"]) if mimosa else None),
        ("mode", _value(draw, "mode", bad, ["mimosa" if mimosa else "sgc"], ["other"])),
        ("trials", _value(draw, "trials", bad, ["1", "2"], ["0", "-1", "x"])),
        ("seed", _value(draw, "seed", bad, ["0", "11"], ["-1", "x"])),
    ]), _names(bad, q=_Q_KEYS, p=("p1", "p2"), k=("max_k",) if mimosa else ("k",))


@given(generate_params(), sweep_specs())
@settings(max_examples=100, deadline=None)
def test_generate_and_sweep_exit_with_a_documented_code(params, spec):
    (params, params_broken), (spec, spec_broken) = params, spec
    with tempfile.TemporaryDirectory() as work:
        run_in_process(["generate", write(Path(work) / "params.cfg", params),
                        "--edges", str(Path(work) / "g.tsv"), "--labels", str(Path(work) / "g.labels")],
                       params_broken)
        run_in_process(["sweep", write(Path(work) / "sweep.cfg", spec)], spec_broken)

GENERATE_PARAMS = """\
# three planted clusters, correlated layers
generator = two_layer
cluster_sizes = 100,100,100
q11 = 0.3
q10 = 0.2
q01 = 0.1
q00 = 0.4
p1 = 0.25
p2 = 0.25
seed = 7
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def generated(tmp_path, capsys):
    params = write(tmp_path / "params.cfg", GENERATE_PARAMS)
    edges = str(tmp_path / "graph.tsv")
    labels = str(tmp_path / "truth.labels")
    code, out, err = run_cli(
        capsys, "generate", params, "--edges", edges, "--labels", labels
    )
    assert code == 0, err
    return edges, labels, out


# ---------------------------------------------------------------- generate


def test_generate_writes_files_and_prints_bounds(generated, tmp_path):
    edges, labels, out = generated
    stats = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert stats["n"] == "300"
    assert stats["L"] == "2"
    assert stats["K"] == "3"
    # equal cluster sizes: printed lower and upper bounds coincide
    assert float(stats["t_lb"]) == pytest.approx(float(stats["t_ub"]))
    assert float(stats["universal_lb"]) <= float(stats["t_lb"])
    label_map = parse_label_file((tmp_path / "truth.labels").read_text())
    assert len(label_map) == 300


def test_generate_rejects_bad_q_sum(tmp_path, capsys):
    bad = GENERATE_PARAMS.replace("q00 = 0.4", "q00 = 0.9")
    params = write(tmp_path / "bad.cfg", bad)
    code, out, err = run_cli(
        capsys, "generate", params,
        "--edges", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "g.labels"),
    )
    assert code == 2
    assert "error:" in err


def test_generate_is_deterministic(tmp_path, capsys):
    params = write(tmp_path / "params.cfg", GENERATE_PARAMS)
    outputs = []
    for tag in ("a", "b"):
        edges = tmp_path / f"{tag}.tsv"
        labels = tmp_path / f"{tag}.labels"
        code, out, _ = run_cli(
            capsys, "generate", params, "--edges", str(edges), "--labels", str(labels)
        )
        assert code == 0
        outputs.append((edges.read_text(), labels.read_text(), out))
    assert outputs[0] == outputs[1]


def test_generate_names_a_negative_seed(tmp_path, capsys):
    # used to print numpy's bare "expected non-negative integer"
    params = write(tmp_path / "bad.cfg", GENERATE_PARAMS.replace("seed = 7", "seed = -1"))
    code, out, err = run_cli(
        capsys, "generate", params,
        "--edges", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "g.labels"),
    )
    assert (code, out) == (2, "")
    assert err == "error: generate: seed must be >= 0, got -1\n"


def test_generate_rim_params(tmp_path, capsys):
    rim = """\
generator = rim
cluster_sizes = 20,20
n_layers = 2
within_probs = 0.8,0.8;0.7,0.7
noise_probs = 0.05,0.10
seed = 3
"""
    params = write(tmp_path / "rim.cfg", rim)
    edges = tmp_path / "rim.tsv"
    labels = tmp_path / "rim.labels"
    code, out, err = run_cli(
        capsys, "generate", params, "--edges", str(edges), "--labels", str(labels)
    )
    assert code == 0, err
    assert "t_lb=" in out
    assert len(parse_label_file(labels.read_text())) == 40



README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(marker):
    """The README's one untagged code block that contains ``marker``."""
    blocks, lines = [], None
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("```"):
            if lines is None:
                lines, tag = [], line[3:].strip()
            else:
                if not tag and marker in "".join(lines):
                    blocks.append("".join(lines))
                lines = None
        elif lines is not None:
            lines.append(line)
    assert len(blocks) == 1, marker
    return blocks[0]


@pytest.mark.parametrize("marker", ["generator = two_layer", "generator = rim", "axis = p1"])
def test_readme_example_specs_run_verbatim(tmp_path, capsys, marker):
    # the examples carry trailing comments, which used to end up in the values
    spec = write(tmp_path / "spec.cfg", readme_block(marker))
    if marker.startswith("axis"):
        code, out, err = run_cli(capsys, "sweep", spec)
        assert code == 0, err
        assert out.startswith("p1,trial,detectability,")
    else:
        code, out, err = run_cli(
            capsys, "generate", spec,
            "--edges", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "g.labels"),
        )
        assert code == 0, err
        assert out.startswith("n=")


def test_config_comment_runs_to_end_of_line():
    from mlsgc.cli import parse_config

    assert parse_config("# head\nq11 = 0.3   # both layers\n  # indented\nk=3#tight\n") == {
        "q11": "0.3", "k": "3",
    }


RIM_PARAMS = """\
generator = rim
cluster_sizes = 20,20
n_layers = 2
within_probs = 0.8,0.8;0.7,0.7
noise_probs = 0.05,0.10
seed = 3
"""


@pytest.mark.parametrize("within, message", [
    # these used to print numpy's or float()'s message, naming no key
    ("0.5,x;0.4,0.5", "within_probs: expected comma-separated numbers, got '0.5,x'"),
    ("0.5;0.4,0.5", "within_probs: rows have unequal lengths [1, 2]"),
], ids=["non-numeric", "ragged"])
def test_generate_rim_names_within_probs(tmp_path, capsys, within, message):
    params = write(tmp_path / "rim.cfg", RIM_PARAMS.replace("0.8,0.8;0.7,0.7", within))
    code, out, err = run_cli(
        capsys, "generate", params, "--edges", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "g.labels")
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_generate_rejects_a_uniform_mean_whose_double_overflows(tmp_path, capsys):
    # used to end in numpy's OverflowError traceback, exit 1
    rim = RIM_PARAMS + "noise_weight_means = 1e308\nweight_distribution = uniform\n"
    params = write(tmp_path / "rim.cfg", rim)
    code, out, err = run_cli(
        capsys, "generate", params, "--edges", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "g.labels")
    )
    assert (code, out) == (2, "")
    assert err == ("error: noise_weight_means must be positive and at most 8.988465674311579e+307 wherever "
                   "noise_probs is positive\n")


@pytest.mark.parametrize("text, old, new", [
    (GENERATE_PARAMS, "q11 = 0.3", "q11 = nan"),
    (RIM_PARAMS, "0.8,0.8;0.7,0.7", "0.8,nan;0.7,0.7"),
    (RIM_PARAMS, "noise_probs = 0.05,0.10", "noise_probs = nan"),
], ids=["q11", "within_probs", "noise_probs"])
def test_generate_rejects_nan_probabilities(tmp_path, capsys, text, old, new):
    # a nan probability used to pass validation and exit 0 with a graph
    # that has no edges of that kind
    params = write(tmp_path / "nan.cfg", text.replace(old, new))
    code, out, err = run_cli(
        capsys, "generate", params, "--edges", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "g.labels")
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be in [0, 1]" in err


def test_generate_rejects_sizes_over_the_pair_budget_without_allocating(tmp_path, capsys):
    # used to end in an _ArrayMemoryError traceback, exit 1
    params = write(tmp_path / "huge.cfg", GENERATE_PARAMS.replace("100,100,100", "10000000000"))
    edges = tmp_path / "g.tsv"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "generate", params, "--edges", str(edges), "--labels", str(tmp_path / "g.l"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == "error: cluster_sizes give 10000000000 nodes, more than the budget of 33554432 node pairs allows\n"
    assert peak < 1 << 20
    assert not edges.exists()


# ----------------------------------------------------------------- cluster


def cliques_files(tmp_path, n_per=8, bridge=0.2):
    n = 2 * n_per
    mat = np.zeros((n, n))
    for base in (0, n_per):
        for a in range(n_per):
            for b in range(a + 1, n_per):
                mat[base + a, base + b] = mat[base + b, base + a] = 1.0
    mat[0, n_per] = mat[n_per, 0] = bridge
    graph = dense_graph(ids(n), mat)
    edges = tmp_path / "cliques.tsv"
    edges.write_text(serialize_multilayer_edge_list(graph))
    truth = serialize_label_file(graph.node_ids, np.repeat([0, 1], n_per))
    labels = tmp_path / "cliques.labels"
    labels.write_text(truth)
    return str(edges), str(labels), graph


def test_cluster_recovers_bridged_cliques(tmp_path, capsys):
    edges, _, graph = cliques_files(tmp_path)
    code, out, err = run_cli(capsys, "cluster", edges, "--k", "2")
    assert code == 0, err
    label_map = parse_label_file(out)
    groups = {label_map[node] for node in graph.node_ids[:8]}
    assert len(groups) == 1
    assert {label_map[node] for node in graph.node_ids[8:]} != groups


def test_cluster_imports_only_what_it_runs(tmp_path, capsys):
    # metrics loads scipy.optimize; selection, noise, bounds and generators
    # load on the first command that runs them
    edges, _, _ = cliques_files(tmp_path)
    code = (
        "import sys, mlsgc.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('mlsgc.') or m == 'scipy.optimize')\n"
        "print(loaded(), file=sys.stderr)\n"
        f"code = mlsgc.cli.main(['cluster', {edges!r}, '--k', '2'])\n"
        "print(code, loaded(), file=sys.stderr)\n"
        "print(mlsgc.generate_two_layer is mlsgc.synth.generate_two_layer, loaded(), file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
                          check=True, timeout=120)
    cli_only = "['mlsgc.cli', 'mlsgc.graph_core', 'mlsgc.spectral']"
    assert done.stderr.splitlines() == [cli_only, f"0 {cli_only}",
                                        "True ['mlsgc.cli', 'mlsgc.graph_core', 'mlsgc.spectral', 'mlsgc.synth']"]
    assert (0, done.stdout) == run_cli(capsys, "cluster", edges, "--k", "2")[:2]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mlsgc.cli.no_such_name


_CLI_MODULES = ["mlsgc.cli", "mlsgc.graph_core", "mlsgc.spectral"]
_SELECTION_MODULES = ["mlsgc.mimosa", "mlsgc.noise_stats", "mlsgc.theory"]
_EVALUATE_MODULES = sorted(["mlsgc.metrics", *_SELECTION_MODULES, "scipy.optimize"])


# the modules each command adds to those of ``import mlsgc.cli``
_COMMAND_MODULES = {
    "cluster": [],
    "generate": ["mlsgc.synth", "mlsgc.theory"],
    "mimosa": _SELECTION_MODULES,
    "theory-check": _SELECTION_MODULES,
    "evaluate": _EVALUATE_MODULES,
    "sweep": sorted([*_EVALUATE_MODULES, "mlsgc.synth"]),
    "sweep-sgc": ["mlsgc.metrics", "mlsgc.synth", "mlsgc.theory", "scipy.optimize"],
}


@pytest.mark.parametrize("command", _COMMAND_MODULES)
def test_each_command_imports_only_what_it_runs(tmp_path, command):
    # commands reach the library through the package's lazy namespace, so
    # each loads the modules it runs and no others
    edges, labels, _ = cliques_files(tmp_path)
    argv = {
        "cluster": [edges, "--k", "2"],
        "generate": [write(tmp_path / "params.cfg", GENERATE_PARAMS),
                     "--edges", str(tmp_path / "g.tsv"), "--labels", str(tmp_path / "g.labels")],
        "mimosa": [edges, "--max-k", "3"],
        "theory-check": [edges, labels],
        "evaluate": [edges, labels, "--truth", labels],
        "sweep": [write(tmp_path / "sweep.cfg", MIMOSA_SWEEP_SPEC)],
        # an sgc sweep with no tau axis runs no selection code
        "sweep-sgc": [write(tmp_path / "sgc.cfg", SWEEP_SPEC)],
    }[command]
    code = (
        "import sys, mlsgc.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('mlsgc.') or m == 'scipy.optimize')\n"
        "print(loaded(), file=sys.stderr)\n"
        f"code = mlsgc.cli.main({[command.partition('-sgc')[0], *argv]!r})\n"
        "print(code, loaded(), file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
                          check=True, timeout=120)
    lines = done.stderr.splitlines()
    assert lines[0] == str(_CLI_MODULES)
    exit_code, _, after = lines[-1].partition(" ")
    assert exit_code in ("0", "3"), done.stderr
    assert after == str(sorted([*_CLI_MODULES, *_COMMAND_MODULES[command]]))


def test_cluster_rejects_wrong_weight_count(tmp_path, capsys):
    edges, _, _ = cliques_files(tmp_path)
    code, _, err = run_cli(capsys, "cluster", edges, "--k", "2", "--w", "0.5,0.5")
    assert code == 2
    assert "error:" in err


def test_cluster_reads_weights_whose_sum_overflows_as_equal_weights(tmp_path, capsys):
    # the sum was inf, so every weight came out 0: an overflow warning, then
    # "aggregated graph is disconnected", exit 2
    edges, _, _ = cliques_files(tmp_path)
    text = Path(edges).read_text()
    two_layers = write(tmp_path / "two.tsv", text + "".join("1" + line[1:] for line in text.splitlines(True)))
    huge = run_cli(capsys, "cluster", two_layers, "--k", "2", "--w", "1e308,1e308")
    assert huge == run_cli(capsys, "cluster", two_layers, "--k", "2", "--w", "1,1")
    assert huge[0] == 0 and huge[2] == ""


def test_cluster_normalize_flag(tmp_path, capsys):
    edges, _, _ = cliques_files(tmp_path)
    code, out, err = run_cli(capsys, "cluster", edges, "--k", "2", "--normalize")
    assert code == 0, err
    assert len(parse_label_file(out)) == 16


def test_cluster_names_a_negative_seed(tmp_path, capsys):
    # used to print numpy's bare "expected non-negative integer"
    edges, _, _ = cliques_files(tmp_path)
    code, out, err = run_cli(capsys, "cluster", edges, "--k", "2", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [("cluster", "--k", "2"), ("mimosa",)], ids=["cluster", "mimosa"])
def test_overflowing_strength_names_the_node(tmp_path, capsys, argv):
    # every weight is finite but a's strength is not; this used to print
    # scipy's overflow warning and "array must not contain infs or NaNs"
    edges = write(tmp_path / "big.tsv", "".join(
        f"0\t{u}\t{v}\t1e308\n" for u, v in (("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"))
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv[0], edges, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: aggregated strength of node 'a' is not finite: its edge weights are too large\n"


# ------------------------------------------------------------------ mimosa


def test_mimosa_reliable_input(generated, capsys):
    edges, labels, _ = generated
    code, out, err = run_cli(capsys, "mimosa", edges, "--seed", "0")
    assert code == 0, err
    doc = parse_result(out)
    assert doc["status"] == "found"
    assert doc["K"] == 3


def test_mimosa_pure_noise_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(5)
    n = 60
    mat = np.triu((rng.random((n, n)) < 0.2).astype(float), k=1)
    mat = mat + mat.T
    graph = dense_graph(ids(n), mat)
    edges = tmp_path / "noise.tsv"
    edges.write_text(serialize_multilayer_edge_list(graph))
    code, out, err = run_cli(
        capsys, "mimosa", str(edges), "--seed", "1", "--max-k", "6"
    )
    assert code == 3
    assert parse_result(out)["status"] == "not_applicable"


def test_mimosa_rejects_wrong_w_ini_length(generated, capsys):
    edges, _, _ = generated
    code, _, err = run_cli(capsys, "mimosa", edges, "--w-ini", "0.2,0.3,0.5")
    assert code == 2
    assert "error:" in err


def test_mimosa_deterministic_output(generated, capsys):
    edges, _, _ = generated
    docs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "mimosa", edges, "--seed", "0", "--tau-set", "0,1,100"
        )
        assert code == 0
        docs.append(out)
    assert docs[0] == docs[1]


def test_mimosa_names_an_alpha_whose_complement_rounds_to_one(generated, capsys):
    # used to exit 2 with "probability must be in (0, 1), got 1.0" from inside the run
    edges, _, _ = generated
    code, out, err = run_cli(capsys, "mimosa", edges, "--alpha", "1e-17", "--max-k", "3")
    assert (code, out) == (2, "")
    assert err == "error: alpha level 1e-17 is too small: 1 - alpha rounds to 1.0\n"
    code, out, err = run_cli(capsys, "mimosa", edges, "--alpha-prime", "1e-17", "--max-k", "3")
    assert code == 0, err
    assert parse_result(out)["K"] == 3


def test_mimosa_names_a_negative_seed(generated, capsys):
    # used to print MimosaConfig's "seed must be nonnegative"
    edges, _, _ = generated
    code, out, err = run_cli(capsys, "mimosa", edges, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be >= 0, got -1\n"


def test_mimosa_prints_the_disconnected_warning_as_one_line(tmp_path, capsys):
    # two triangles joined by c-d, and a separate edge x-y; the warning used
    # to come with its source file, line and code
    edges = write(tmp_path / "split.tsv", "".join(
        f"0\t{u}\t{v}\t1\n" for u, v in ("ab", "ac", "bc", "cd", "de", "df", "ef", "xy")
    ))
    code, out, err = run_cli(capsys, "mimosa", edges, "--max-k", "2")
    assert code == 0
    assert parse_result(out)["status"] == "found"
    assert err == "warning: aggregated graph is disconnected; clustering its largest component (6 of 8 nodes)\n"


def test_mimosa_weights_at_an_overflowing_tau_keep_their_limit(tmp_path, capsys):
    # two 8-node groups with edge weights near the float range, where
    # 1 + tau * t overflows at tau = 1e5: layer 0 keeps its limit weight, and
    # no overflow warning is printed
    rows = []
    for layer, weight, shift in ((0, "1e305", 0), (1, "1e303", 1)):
        for base in (0, 8):
            rows += [f"{layer}\tn{u + base:02d}\tn{v + base:02d}\t{weight}\n"
                     for u in range(8) for v in range(u + 1, 8)]
        rows += [f"{layer}\tn{i:02d}\tn{(i + shift) % 8 + 8:02d}\t{weight}\n" for i in range(0, 8, 2)]
    code, out, err = run_cli(capsys, "mimosa", write(tmp_path / "heavy.tsv", "".join(rows)), "--max-k", "2")
    assert (code, err) == (0, "")
    w = {record["tau"]: record["w"] for record in parse_result(out)["trace"]}
    assert w[1e5] == pytest.approx(w[1e4], rel=1e-12)
    assert w[1e5][0] == pytest.approx(1 / 101, rel=1e-12)


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**threads):
    """This process's environment without the BLAS thread variables, plus
    ``threads``, with the package's source on the path."""
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**env, **threads}


def test_mimosa_stdout_does_not_depend_on_unset_blas_threads(tmp_path):
    # A threaded OpenBLAS used to change trailing t_lb_hat digits of this
    # graph's trace: the CLI pins one thread unless the caller chose a count.
    graph, _ = generate_two_layer(TwoLayerCorrelatedParams(
        cluster_sizes=(200, 200, 200), q11=0.3, q10=0.2, q01=0.1, q00=0.4, p1=0.25, p2=0.3, seed=7,
    ))
    edges = write(tmp_path / "g.tsv", serialize_multilayer_edge_list(graph))
    argv = [sys.executable, "-m", "mlsgc.cli", "mimosa", edges, "--seed", "3", "--max-k", "2"]
    unset, pinned = (
        subprocess.run(argv, env=env, capture_output=True, timeout=300)
        for env in (_child_env(), _child_env(**dict.fromkeys(_BLAS_THREADS, "1")))
    )
    # K = 2 of three planted clusters is not reliable
    assert (unset.returncode, pinned.returncode) == (3, 3), unset.stderr
    assert unset.stdout == pinned.stdout
    # an explicit count is the caller's choice and stays
    probe = "import os, mlsgc.cli; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    shown = subprocess.run([sys.executable, "-c", probe], env=_child_env(OPENBLAS_NUM_THREADS="2"),
                           capture_output=True, text=True, check=True, timeout=60).stdout
    assert shown == "2 1\n"


# ------------------------------------------------------------------- sweep


SWEEP_SPEC = """\
axis = p1:0.1:0.1:0.05
p2 = 0.1
cluster_sizes = 30,30,30
q11 = 0.3
q10 = 0.2
q01 = 0.1
q00 = 0.4
k = 3
mode = sgc
trials = 1
seed = 11
"""


def test_sweep_single_point_csv_shape(tmp_path, capsys):
    spec = write(tmp_path / "sweep.cfg", SWEEP_SPEC)
    code, out, err = run_cli(capsys, "sweep", spec)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "p1,trial,detectability,t_w,t_LB_hat,t_UB_hat,S2K_over_n"
    assert len(lines) == 3  # header, one data row, one mean row
    data = lines[1].split(",")
    mean = lines[2].split(",")
    assert data[0] == "0.1" and data[1] == "0"
    assert mean[1] == "mean"
    # single trial: the mean row repeats the data row's statistics
    assert mean[2:] == data[2:]
    det = float(data[2])
    assert 0.0 <= det <= 1.0


def test_sweep_geometric_mean(tmp_path, capsys):
    spec = write(tmp_path / "sweep.cfg", SWEEP_SPEC.replace("trials = 1", "trials = 2"))
    code, out, err = run_cli(capsys, "sweep", spec, "--mean", "geometric")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 4
    d1 = float(lines[1].split(",")[2])
    d2 = float(lines[2].split(",")[2])
    mean_det = float(lines[3].split(",")[2])
    assert mean_det == pytest.approx(np.sqrt(d1 * d2), rel=1e-12)


def test_sweep_two_axes_grid_order(tmp_path, capsys):
    spec = SWEEP_SPEC.replace("axis = p1:0.1:0.1:0.05", "axis = p1:0.1:0.2:0.1")
    spec = spec.replace("p2 = 0.1", "axis2 = p2:0.3:0.4:0.1")
    path = write(tmp_path / "sweep2.cfg", spec)
    code, out, err = run_cli(capsys, "sweep", path)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("p1,p2,trial,")
    # 2 x 2 grid, 1 trial + 1 mean row each
    assert len(lines) == 1 + 4 * 2
    firsts = [tuple(line.split(",")[:2]) for line in lines[1::2]]
    assert firsts == [
        ("0.1", "0.3"), ("0.1", "0.4"), ("0.2", "0.3"), ("0.2", "0.4")
    ]


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    spec = write(tmp_path / "bad.cfg", SWEEP_SPEC.replace("p1:0.1:0.1:0.05", "zeta:0:1:0.5"))
    code, _, err = run_cli(capsys, "sweep", spec)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("axis", ["p1:0:inf:0.1", "p1:0:nan:0.1", "p1:-inf:0.2:0.1", "p1:0:0.2:inf"])
def test_sweep_rejects_non_finite_axis(tmp_path, capsys, axis):
    # an infinite stop used to end in an OverflowError traceback, a nan stop
    # in "cannot convert float NaN to integer"
    spec = write(tmp_path / "bad.cfg", SWEEP_SPEC.replace("p1:0.1:0.1:0.05", axis))
    code, out, err = run_cli(capsys, "sweep", spec)
    assert code == 2
    assert out == ""
    assert err == f"error: axis: start, stop and step must be finite in {axis!r}\n"


@pytest.mark.parametrize("axes, message", [
    ("axis = p1:0:1:1e-15", "axis: more than 10000 points in 'p1:0:1:1e-15'"),
    ("axis = p1:-1e308:1e308:1e-300", "axis: more than 10000 points in 'p1:-1e308:1e308:1e-300'"),
    ("axis = p1:0:1:0.001\naxis2 = p2:0:1:0.01", "axis2: more than 9 points in 'p2:0:1:0.01'"),
], ids=["one-axis", "infinite-span", "two-axes"])
def test_sweep_rejects_a_grid_over_the_point_limit(tmp_path, capsys, axes, message):
    # the first used to ask np.arange for 10^15 values (an _ArrayMemoryError
    # traceback), the second to end in an OverflowError traceback, and two
    # axes of 1001 x 101 points would build every point's parameters up front
    spec = SWEEP_SPEC.replace("axis = p1:0.1:0.1:0.05", axes).replace("p2 = 0.1\n", "")
    code, out, err = run_cli(capsys, "sweep", write(tmp_path / "big.cfg", spec))
    assert (code, out) == (2, "")
    assert err == f"error: {message}; a sweep grid has at most 10000 points over all axes\n"
    assert "Traceback" not in err


MIMOSA_SWEEP_SPEC = """\
axis = p1:0.02:0.04:0.02
p2 = 0.03
cluster_sizes = 15,15
q11 = 0.6
q10 = 0.2
q01 = 0.1
q00 = 0.1
mode = mimosa
max_k = 4
trials = 2
seed = 5
"""


@pytest.mark.parametrize("spec, header, points, trials", [
    (SWEEP_SPEC, "p1", 1, 1),
    (MIMOSA_SWEEP_SPEC, "p1", 2, 2),
    (SWEEP_SPEC.replace("axis = p1:0.1:0.1:0.05", "axis = w1:0.2:0.8:0.3\np1 = 0.1"), "w1", 3, 1),
    (SWEEP_SPEC.replace("axis = p1:0.1:0.1:0.05", "axis = tau:0:10:5\np1 = 0.1"), "tau", 3, 1),
    (SWEEP_SPEC + "w = 0.7,0.3\n", "p1", 1, 1),
], ids=["sgc-p1", "mimosa-p1", "w1-axis", "tau-axis", "fixed-w"])
def test_sweep_is_deterministic(tmp_path, capsys, spec, header, points, trials):
    path = write(tmp_path / "sweep.cfg", spec)
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "sweep", path)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[0] == f"{header},trial,detectability,t_w,t_LB_hat,t_UB_hat,S2K_over_n"
    assert len(lines) == 1 + points * (trials + 1)
    assert [line.split(",")[1] for line in lines[1:]] == ([str(t) for t in range(trials)] + ["mean"]) * points


@pytest.mark.parametrize("spec, message", [
    (SWEEP_SPEC.replace("k = 3", "k = x"), "sweep: key 'k' is not an integer: 'x'"),
    (MIMOSA_SWEEP_SPEC.replace("max_k = 4", "max_k = 1"), "max_k must be at least 2, got 1"),
    (MIMOSA_SWEEP_SPEC + "w = 0.5,0.3,0.2\n", "w: 3 weights for 2 layers"),
    (SWEEP_SPEC.replace("p1:0.1:0.1:0.05", "p1:0.5:1.5:0.5"), "p1 must be in [0, 1], got 1.5"),
    (SWEEP_SPEC + "w = 0.7,0.3\nw1 = 0.2\n", "sweep: give w or w1, not both"),
    (SWEEP_SPEC.replace("axis = p1:0.1:0.1:0.05", "axis = w1:0.2:0.8:0.3\np1 = 0.1") + "w = 0.7,0.3\n",
     "sweep: cannot combine a w1 axis with a fixed w vector"),
], ids=["sgc-k", "mimosa-max_k", "w-length", "last-grid-point", "w-and-w1", "w1-axis-and-w"])
def test_sweep_reads_every_key_before_sampling(tmp_path, capsys, monkeypatch, spec, message):
    calls = []
    monkeypatch.setattr(mlsgc, "generate_two_layer", lambda params: calls.append(params))
    code, out, err = run_cli(capsys, "sweep", write(tmp_path / "bad.cfg", spec))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert calls == []


def test_sweep_names_a_negative_seed(tmp_path, capsys):
    # used to print numpy's bare "expected non-negative integer"
    spec = write(tmp_path / "bad.cfg", SWEEP_SPEC.replace("seed = 11", "seed = -1"))
    code, out, err = run_cli(capsys, "sweep", spec)
    assert (code, out) == (2, "")
    assert err == "error: sweep: seed must be >= 0, got -1\n"


# Sparse enough that trial 0 of the first point samples a graph with an
# isolated node; every other trial is connected.
DISCONNECTED_SWEEP_SPEC = """\
axis = p1:0.01:0.02:0.01
p2 = 0.01
cluster_sizes = 20,20
q11 = 0.05
q10 = 0.1
q01 = 0.1
q00 = 0.75
trials = 3
seed = 2
"""


@pytest.mark.parametrize("mode, note", [
    ("mode = sgc\nk = 2\n", "aggregated graph is disconnected; the row is nan"),
    ("mode = mimosa\nmax_k = 3\n",
     "aggregated graph is disconnected; clustering its largest component (39 of 40 nodes)"),
], ids=["sgc", "mimosa"])
def test_sweep_survives_a_disconnected_sample(tmp_path, capsys, mode, note):
    # both modes used to exit 2 with "aggregated graph is disconnected" and no CSV
    spec = write(tmp_path / "sparse.cfg", DISCONNECTED_SWEEP_SPEC + mode)
    code, out, err = run_cli(capsys, "sweep", spec)
    assert code == 0, err
    assert err == f"warning: p1=0.01, trial 0: {note}\n"
    lines = out.splitlines()
    assert len(lines) == 1 + 2 * (3 + 1)
    nan_rows = [line for line in lines[1:] if line.endswith(",nan,nan,nan,nan,nan")]
    # sgc gives the disconnected trial, and so its point's mean, a nan row;
    # mimosa clusters the largest component and fills every row
    assert nan_rows == (["0.01,0,nan,nan,nan,nan,nan", "0.01,mean,nan,nan,nan,nan,nan"] if "sgc" in mode else [])


def test_mimosa_sweep_starts_from_the_points_weights(tmp_path, capsys):
    # mode = mimosa used to check the spec's w and then run from uniform weights
    code, out, err = run_cli(capsys, "sweep", write(tmp_path / "w.cfg", MIMOSA_SWEEP_SPEC + "w = 0.9,0.1\n"))
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:] if ",mean," not in line]
    assert len(rows) == 4
    for index, row in enumerate(rows):
        p1, trial = float(row[0]), int(row[1])
        seed = int(np.random.SeedSequence([5, index // 2, trial]).generate_state(1)[0])
        graph, truth = generate_two_layer(TwoLayerCorrelatedParams(
            cluster_sizes=(15, 15), q11=0.6, q10=0.2, q01=0.1, q00=0.1, p1=p1, p2=0.03, seed=seed,
        ))
        best = run_mimosa(graph, MimosaConfig(w_ini=LayerWeights((0.9, 0.1)), seed=seed, max_k=4)).selected
        bounds = critical_bounds(graph, truth, best.w)
        expected = (detectability(best.assignment, truth), best.w.values @ np.array([p1, 0.03]), bounds.t_lb,
                    bounds.t_ub, best.partial_sum / int(best.assignment.sizes[: best.K].sum()))
        assert row[2:] == [repr(float(value)) for value in expected]


@pytest.mark.parametrize("key, value, message", [
    ("alpha", "0.05,0.01", None),
    ("alpha_prime", "0.01,0.05", None),
    ("tau_set", "0,10", None),
    ("alpha", "0.05,x", "{name}: expected comma-separated numbers, got '0.05,x'"),
    ("alpha_prime", "0.05,1.5", "alpha_prime levels must be in (0, 1)"),
    ("tau_set", "0,x", "{name}: expected comma-separated numbers, got '0,x'"),
    ("tau_set", "0,-1", "tau_set entries must be finite and nonnegative, got -1.0"),
    ("eta", "x", "{name} is not a number: 'x'"),
    ("eta", "2", "eta must be in (0, 1), got 2.0"),
    ("max_k", "2.5", "{name} is not an integer: '2.5'"),
    ("max_k", "1", "max_k must be at least 2, got 1"),
], ids=["alpha-list", "alpha_prime-list", "tau_set-list", "alpha-text", "alpha_prime-range", "tau_set-text",
        "tau_set-range", "eta-text", "eta-range", "max_k-text", "max_k-range"])
def test_mimosa_flags_and_sweep_keys_read_a_setting_alike(tmp_path, capsys, key, value, message):
    # sweep used to read alpha and alpha_prime as one number each
    graph, _ = generate_two_layer(TwoLayerCorrelatedParams(
        cluster_sizes=(15, 15), q11=0.6, q10=0.2, q01=0.1, q00=0.1, p1=0.02, p2=0.03, seed=1,
    ))
    edges = write(tmp_path / "g.tsv", serialize_multilayer_edge_list(graph))
    spec = write(tmp_path / "s.cfg", MIMOSA_SWEEP_SPEC.replace("max_k = 4\n", "") + f"{key} = {value}\n")
    flag = "--" + key.replace("_", "-")
    for name, (code, out, err) in {
        flag: run_cli(capsys, "mimosa", edges, flag, value),
        key: run_cli(capsys, "sweep", spec),
    }.items():
        if message is None:
            assert code in ((0, 3) if name == flag else (0,)), err
        else:
            assert (code, out, err) == (2, "", f"error: {message.format(name=name)}\n")


# ---------------------------------------------------------------- evaluate


def test_evaluate_identical_labels(tmp_path, capsys):
    edges, labels, _ = cliques_files(tmp_path)
    code, out, err = run_cli(capsys, "evaluate", edges, labels, "--truth", labels)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["nmi"] == pytest.approx(1.0)
    assert doc["ri"] == pytest.approx(1.0)
    assert doc["f_measure"] == pytest.approx(1.0)


def test_evaluate_disjoint_cliques_zero_conductance(tmp_path, capsys):
    edges, labels, _ = cliques_files(tmp_path, bridge=0.0)
    code, out, err = run_cli(capsys, "evaluate", edges, labels)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["conductance"] == 0.0
    assert doc["nc"] == 0.0
    assert "nmi" not in doc  # external metrics need --truth


def test_evaluate_hand_built_six_nodes(tmp_path, capsys):
    mat = adjacency_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (2, 3)])
    graph = dense_graph(ids(6), mat)
    edges = tmp_path / "six.tsv"
    edges.write_text(serialize_multilayer_edge_list(graph))
    found_labels = np.array([0, 0, 0, 1, 1, 1])
    truth_labels = np.array([0, 0, 1, 1, 1, 1])
    found_path = tmp_path / "found.labels"
    truth_path = tmp_path / "truth.labels"
    found_path.write_text(serialize_label_file(graph.node_ids, found_labels))
    truth_path.write_text(serialize_label_file(graph.node_ids, truth_labels))
    code, out, err = run_cli(
        capsys, "evaluate", str(edges), str(found_path), "--truth", str(truth_path)
    )
    assert code == 0, err
    doc = json.loads(out)
    found = ClusterAssignment(found_labels)
    truth = ClusterAssignment(truth_labels)
    assert doc["nmi"] == pytest.approx(nmi(found, truth))
    assert doc["ri"] == pytest.approx(rand_index(found, truth))
    assert doc["f_measure"] == pytest.approx(f_measure(found, truth))
    assert doc["conductance"] == pytest.approx(conductance(found, graph))
    assert doc["nc"] == pytest.approx(normalized_cut(found, graph))


# ------------------------------------------------------------ theory-check


def test_theory_check_equal_sizes(tmp_path, capsys):
    edges, labels, _ = cliques_files(tmp_path)
    code, out, err = run_cli(capsys, "theory-check", edges, labels)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["bounds"]["t_lb"] == pytest.approx(doc["bounds"]["t_ub"])
    assert "critical_weight" not in doc  # single layer
    assert doc["breakdown"]["separation_holds"] in (True, False)
    assert doc["predicted_partial_sum"]["low"] <= doc["predicted_partial_sum"]["high"] + 1e-12


def test_theory_check_degenerate_critical_weight(tmp_path, capsys):
    # complete graph split in half, duplicated across two layers: each
    # layer's noise level is exactly twice its per-node signal level, the
    # identity case where every w1 solves the crossing equation
    n = 8
    mat = 1.0 - np.eye(n)
    graph = dense_graph(ids(n), mat, mat.copy())
    edges = tmp_path / "k8.tsv"
    edges.write_text(serialize_multilayer_edge_list(graph))
    labels = tmp_path / "k8.labels"
    labels.write_text(serialize_label_file(graph.node_ids, np.repeat([0, 1], 4)))
    code, out, err = run_cli(capsys, "theory-check", str(edges), str(labels))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["critical_weight"]["degenerate"] is True
    assert doc["critical_weight"]["w1"] is None


def test_theory_check_noise_override_changes_breakdown(tmp_path, capsys):
    edges, labels, _ = cliques_files(tmp_path)
    override = tmp_path / "override.txt"
    override.write_text("0 0 1 0.5\n")
    code, out, err = run_cli(
        capsys, "theory-check", edges, labels, "--noise-override", str(override)
    )
    assert code == 0, err
    doc = json.loads(out)
    # K=2: the 1x1 breakdown matrix is n * t with the overridden level
    assert doc["breakdown"]["matrix"][0][0] == pytest.approx(16 * 0.5)


def test_theory_check_names_an_overflowing_noise_override(generated, tmp_path, capsys):
    # used to print two overflow warnings, then "numerical failure: Array
    # must not contain infs or NaNs" with exit 4
    edges, labels, _ = generated
    override = write(tmp_path / "override.txt", "0 0 1 1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "theory-check", edges, labels, "--noise-override", override)
    assert (code, out, [str(w.message) for w in caught]) == (2, "", [])
    assert err == "error: breakdown matrix entry (0, 0) is inf: the noise levels are too large\n"


def test_theory_check_cluster_too_small(tmp_path, capsys):
    edges, _, graph = cliques_files(tmp_path)
    labels = tmp_path / "tiny.labels"
    skew = np.zeros(16, dtype=int)
    skew[0] = 1
    labels.write_text(serialize_label_file(graph.node_ids, skew))
    code, _, err = run_cli(capsys, "theory-check", edges, str(labels))
    assert code == 2
    assert "error:" in err


def test_theory_check_rejects_small_clusters_before_estimating_noise(tmp_path, capsys):
    # the noise estimate's O(n K) arrays came first: 539 MiB traced for a
    # 2000-node path with a cluster per node, then the same error
    n = 2000
    path = "".join(f"{layer}\tv{i}\tv{i + 1}\t1\n" for layer in (0, 1) for i in range(n - 1))
    edges = write(tmp_path / "path.tsv", path)
    labels = write(tmp_path / "path.labels", "".join(f"v{i}\t{i}\n" for i in range(n)))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "theory-check", edges, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: every cluster needs at least K={n} nodes; smallest has 1\n"
    assert peak < 20 << 20


def test_theory_check_solves_clusters_without_edges_in_a_layer(tmp_path, capsys):
    # two 520-node clusters, each a ring in layer 1, joined only by a
    # matching in layer 0: ARPACK got layer 0's within-cluster subgraphs,
    # which have no edge, and exited 4 with "Starting vector is zero"
    n = 520
    rings = "".join(f"1\tc{c}v{i}\tc{c}v{(i + 1) % n}\t1\n" for c in (0, 1) for i in range(n))
    edges = write(tmp_path / "rings.tsv", rings + "".join(f"0\tc0v{i}\tc1v{i}\t1\n" for i in range(n)))
    labels = write(tmp_path / "rings.labels", "".join(f"c{c}v{i}\t{c}\n" for c in (0, 1) for i in range(n)))
    code, out, err = run_cli(capsys, "theory-check", edges, labels)
    assert (code, err) == (0, "")
    assert json.loads(out)["bounds"]["universal_lb"] == 0.0  # layer 0's within-cluster sums are 0


# two clusters, a b c and d e f; one node's within-cluster weights in layer 0
# overflow its strength, while every aggregated strength stays finite
OVERFLOW_LABELS = "a\t0\nb\t0\nc\t0\nd\t1\ne\t1\nf\t1\n"
LAYER_1 = (("a", "b"), ("c", "d"), ("e", "f"), ("a", "f"))
OVERFLOW_FILES = {
    # used to exit 0 with "universal_lb": "nan" and scipy's overflow warning
    "a": (("a", "b", "1e308"), ("a", "c", "1e308"), ("c", "d", "1"), ("d", "e", "1"), ("e", "f", "1"), ("b", "d", "1")),
    # a-d is the only edge between the clusters; the noise estimate used to
    # read its weight sum as nan and theory-check exited 4
    "d": (("a", "b", "1"), ("b", "c", "1"), ("a", "d", "1"), ("d", "e", "1e308"), ("d", "f", "1e308")),
}


def overflow_files(tmp_path, node):
    text = "".join(f"0\t{u}\t{v}\t{w}\n" for u, v, w in OVERFLOW_FILES[node])
    text += "".join(f"1\t{u}\t{v}\t1\n" for u, v in LAYER_1)
    return write(tmp_path / "big.tsv", text), write(tmp_path / "big.labels", OVERFLOW_LABELS)


@pytest.mark.parametrize("node", ["a", "d"])
def test_theory_check_names_the_node_whose_layer_strength_overflows(tmp_path, capsys, node):
    edges, labels = overflow_files(tmp_path, node)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "theory-check", edges, labels)
    assert (code, out, [str(w.message) for w in caught]) == (2, "", [])
    assert err == f"error: layer 0: within-cluster strength of node {node!r} is not finite: its edge weights are too large\n"


def test_evaluate_names_the_layer_whose_weight_overflows(tmp_path, capsys):
    # used to exit 0 with two RuntimeWarnings, reading inf - inf as a cut
    edges, labels = overflow_files(tmp_path, "a")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "evaluate", edges, labels, "--truth", labels)
    assert (code, out, [str(w.message) for w in caught]) == (2, "", [])
    assert err == "error: layer 0: total edge weight is not finite: its edge weights are too large\n"


def test_evaluate_memory_is_linear_in_its_input(tmp_path, capsys):
    # the cut metrics' dense (n, K) one-hot arrays traced 488 MiB for this
    # 4000-node path (a 156 KiB edge file) with a cluster per node
    n = 4000
    path = "".join(f"{layer}\tv{i}\tv{i + 1}\t1\n" for layer in (0, 1) for i in range(n - 1))
    edges = write(tmp_path / "path.tsv", path)
    labels = write(tmp_path / "path.labels", "".join(f"v{i}\t{i}\n" for i in range(n)))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "evaluate", edges, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert json.loads(out)["conductance"] == 2.0  # every edge is cut, in both layers
    assert peak < 40 << 20


def test_cluster_memory_with_k_near_n_is_bounded(tmp_path, capsys):
    # K-means ran its 20 restarts at once, with (20, n, K) distances and
    # (20, n, d) bins for the sums: 225.0 MiB traced for this 600-node path (an
    # 11 KiB edge file) with --k 599
    n = 600
    edges = write(tmp_path / "path.tsv", "".join(f"0\tv{i}\tv{i + 1}\t1\n" for i in range(n - 1)))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "cluster", edges, "--k", str(n - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert len({line.split("\t")[1] for line in out.splitlines()}) == n - 1
    assert peak <= 225.0 * 2**20 / 5


# ------------------------------------------------------------------ misc


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_file_is_validation_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "cluster", str(tmp_path / "nope.tsv"), "--k", "2")
    assert code == 2
    assert "error:" in err


def test_cluster_rejects_a_layer_index_at_the_limit(tmp_path, capsys):
    edges = write(tmp_path / "huge_layer.tsv", f"{10**9}\ta\tb\t1\n")
    code, out, err = run_cli(capsys, "cluster", edges, "--k", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: line 1: layer index must be < 1024, got {10**9}\n"


# --------------------------------------------------- numerical failure


@pytest.fixture()
def large_graph_files(tmp_path):
    """A connected 540-node graph (above the dense-solver cutoff) whose label
    file puts 520 nodes in one cluster."""
    graph = connected_random_multilayer(np.random.default_rng(4), 540, 2, density=0.02)
    labels = np.where(np.arange(graph.n) < 520, 0, 1)
    edges = write(tmp_path / "large.tsv", serialize_multilayer_edge_list(graph))
    truth = write(tmp_path / "large.labels", serialize_label_file(graph.node_ids, labels))
    return edges, truth


def test_cluster_arpack_failure_exits_4(large_graph_files, arpack_fails, capsys):
    edges, _ = large_graph_files
    code, out, err = run_cli(capsys, "cluster", edges, "--k", "3")
    assert code == 4
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


def test_theory_check_arpack_failure_exits_4(large_graph_files, arpack_fails, capsys):
    code, out, err = run_cli(capsys, "theory-check", *large_graph_files)
    assert code == 4
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


def test_cluster_exits_4_when_arpack_is_refused_an_overflowing_strength(tmp_path, capsys):
    graph = connected_random_multilayer(np.random.default_rng(4), 540, 2, density=0.02)
    layers = [layer.toarray() for layer in graph.layers]
    i, j = np.argwhere(layers[0] > 0)[0]
    layers[0][i, j] = layers[0][j, i] = 1e308  # an aggregated strength of about 5e307
    edges = write(tmp_path / "heavy.tsv", serialize_multilayer_edge_list(dense_graph(graph.node_ids, *layers)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "cluster", edges, "--k", "3")
    assert (code, out, [str(w.message) for w in caught]) == (4, "", [])
    assert err.startswith("numerical failure: ARPACK refused a node strength of 5")


def _lapack_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_cluster_dense_eigh_failure_exits_4(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it must not be reported as an input error
    edges, _, _ = cliques_files(tmp_path)
    monkeypatch.setattr(mlsgc.spectral.linalg, "eigh", _lapack_fails)
    code, out, err = run_cli(capsys, "cluster", edges, "--k", "2")
    assert code == 4
    assert out == ""
    assert err == "numerical failure: Eigenvalues did not converge\n"


def test_theory_check_eigvalsh_failure_exits_4(tmp_path, monkeypatch, capsys):
    edges, labels, _ = cliques_files(tmp_path)
    monkeypatch.setattr(mlsgc.spectral.np.linalg, "eigvalsh", _lapack_fails)
    code, out, err = run_cli(capsys, "theory-check", edges, labels)
    assert code == 4
    assert out == ""
    assert err == "numerical failure: Eigenvalues did not converge\n"


# ------------------------------------------------------- exit-code property

# weights at both ends of the float range: strengths that overflow, and
# subnormals whose Laplacians underflow
_EXTREME_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 1e308, 5e-324, 1e-310, 1e-300, 2.5]),
    st.floats(1e-3, 1e3),
)


@st.composite
def small_cli_inputs(draw):
    """Edge-list and label-file texts on at most 12 nodes, and a cluster count."""
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    lines = []
    for layer in range(draw(st.integers(1, 2))):
        # few edges leave the graph disconnected, many make it dense
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 20))):
            lines.append(f"{layer}\tv{a:02d}\tv{b:02d}\t{draw(_EXTREME_WEIGHTS)!r}\n")
    nodes = sorted({field for line in lines for field in line.split("\t")[1:3]})
    k = draw(st.one_of(st.just(max(len(nodes) - 1, 1)), st.integers(1, max(len(nodes), 1))))
    # contiguous blocks pass theory-check's cluster-size checks more often than random labels
    blocks = draw(st.integers(1, 3))
    labels = draw(st.one_of(
        st.just([i * blocks // max(len(nodes), 1) for i in range(len(nodes))]),
        st.lists(st.integers(0, blocks - 1), min_size=len(nodes), max_size=len(nodes)),
    ))
    label_text = "".join(f"{node}\t{label}\n" for node, label in zip(nodes, labels))
    return "".join(lines), label_text, k


@given(small_cli_inputs())
@settings(max_examples=100, deadline=None)
def test_every_command_exits_with_a_documented_code(inputs):
    edge_text, label_text, k = inputs
    with tempfile.TemporaryDirectory() as work:
        edges = write(Path(work) / "g.tsv", edge_text)
        labels = write(Path(work) / "g.labels", label_text)
        for argv in (["cluster", edges, "--k", str(k)],
                     ["mimosa", edges, "--max-k", "3"],
                     ["evaluate", edges, labels, "--truth", labels],
                     ["theory-check", edges, labels]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
            assert code in (0, 2, 3, 4), (argv[0], code, err.getvalue())
            if code == 2:
                assert err.getvalue().startswith("error:"), (argv[0], err.getvalue())
            if code == 4:
                assert err.getvalue().startswith("numerical failure:"), (argv[0], err.getvalue())
