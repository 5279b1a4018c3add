"""The package namespace: every public name, each loaded on first use."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import mlsgc

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The public names, by the submodule that defines each.
PUBLIC = {
    "graph_core": [
        "AggregatedGraph", "DuplicateEdgeError", "EdgeListFormatError", "LabelFileError", "LayerWeights",
        "MultilayerGraph", "aggregate", "connected_components", "degree_normalize", "parse_label_file",
        "parse_multilayer_edge_list", "serialize_label_file", "serialize_multilayer_edge_list",
    ],
    "metrics": [
        "MetricReport", "conductance", "contingency_table", "detectability", "f_measure", "metric_report", "nmi",
        "normalized_cut", "rand_index",
    ],
    "mimosa": [
        "MimosaConfig", "MimosaResult", "ReliableCandidate", "TraceRecord", "adapt_weights", "parse_result",
        "run_mimosa", "serialize_result", "snr",
    ],
    "noise_stats": [
        "AnscombeResult", "GlrtResult", "NoiseEstimates", "anscombe_nonidentical_test", "chi_square_quantile",
        "estimate_noise", "glrt_identical_noise", "normal_cdf", "vtest_from_row_sums", "vtest_homogeneity",
    ],
    "spectral": [
        "ClusterAssignment", "ConvergenceError", "DisconnectedGraphError", "SpectralEmbedding", "kmeans",
        "multilayer_sgc", "partial_eigenvalue_sum", "smallest_eigenpairs", "subspace_distance",
    ],
    "synth": ["GeneralRimParams", "TwoLayerCorrelatedParams", "generate_rim", "generate_two_layer"],
    "theory": [
        "ClusterTooSmallError", "CriticalWeightSolution", "PhaseBounds", "breakdown_condition_holds",
        "breakdown_matrix", "cluster_partial_sums", "critical_bounds", "critical_weight_w1",
        "eigenvalue_bounds_check", "predicted_partial_sum", "subspace_perturbation_bound",
    ],
}


def test_importing_the_package_loads_no_submodule_numpy_or_scipy():
    code = ("import sys, mlsgc; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('numpy', 'scipy') or m.startswith('mlsgc.')))")
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


def test_generators_and_selection_load_no_metrics_or_optimizer():
    code = "import sys, mlsgc.synth, mlsgc.mimosa; print(sorted({'scipy.optimize', 'mlsgc.metrics'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


def test_all_lists_every_public_name_once():
    names = [name for module_names in PUBLIC.values() for name in module_names]
    assert len(names) == 65
    assert sorted(mlsgc.__all__) == sorted(names)
    assert len(set(mlsgc.__all__)) == len(mlsgc.__all__)


def test_each_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"mlsgc.{module}")
        assert getattr(mlsgc, module) is submodule
        for name in names:
            assert getattr(mlsgc, name) is getattr(submodule, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from mlsgc import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(mlsgc.__all__)
    assert all(namespace[name] is getattr(mlsgc, name) for name in mlsgc.__all__)


def test_version_dir_and_unknown_names():
    assert mlsgc.__version__ == "0.1.0"
    assert set(mlsgc.__all__) | set(PUBLIC) <= set(dir(mlsgc))
    assert not hasattr(mlsgc, "no_such_name")


def test_import_and_one_block_solves_start_no_thread():
    # the worker pool starts on a graph's first multi-block product or on
    # ARPACK-sized cluster solves, never at import, for a dense solve, for
    # ARPACK on fewer than two blocks' worth of stored entries (n = 600
    # here), for theory's dense cluster solves or for MIMOSA on 600 nodes
    code = (
        "import threading\n"
        "counts = [threading.active_count()]\n"
        "import numpy as np, mlsgc\n"
        "counts.append(threading.active_count())\n"
        "rng = np.random.default_rng(0)\n"
        "for n in (60, 600):\n"
        "    upper = np.triu(rng.random((n, n)) < 0.3, 1)\n"
        "    g = mlsgc.MultilayerGraph.from_matrices([str(i) for i in range(n)], [(upper | upper.T) * 1.0])\n"
        "    mlsgc.multilayer_sgc(g, mlsgc.LayerWeights.uniform(1), 3, seed=0)\n"
        "    counts.append(threading.active_count())\n"
        "g, truth = mlsgc.generate_two_layer(mlsgc.TwoLayerCorrelatedParams(cluster_sizes=(200, 200, 200),\n"
        "    q11=0.3, q10=0.2, q01=0.1, q00=0.4, p1=0.25, p2=0.25, seed=100))\n"
        "mlsgc.critical_bounds(g, truth, mlsgc.LayerWeights.uniform(2))\n"
        "counts.append(threading.active_count())\n"
        "mlsgc.run_mimosa(g, mlsgc.MimosaConfig(seed=0, max_k=3))\n"
        "counts.append(threading.active_count())\n"
        "print(counts)\n"
    )
    env = {"PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out == "[1, 1, 1, 1, 1, 1]\n"
