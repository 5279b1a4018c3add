"""Multilayer spectral graph clustering via convex layer aggregation.

The package clusters multilayer graphs by aggregating layers with a convex
weight vector, embedding nodes with the aggregated Laplacian's smallest
nontrivial eigenvectors, and running seeded K-means.  On top of the
clustering pipeline it provides phase-transition bound calculators,
statistical reliability tests, an automated model-order selection loop
(:func:`run_mimosa`), synthetic generators with ground truth, clustering
quality metrics, and a command-line interface (``mlsgc``).

Importing the package loads no submodule (and so neither numpy nor scipy):
each public name below, and each submodule, is imported on first access.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, listed once under the submodule that defines it.
_EXPORTS = {
    "graph_core": "AggregatedGraph DuplicateEdgeError EdgeListFormatError LabelFileError LayerWeights "
                  "MultilayerGraph aggregate connected_components degree_normalize parse_label_file "
                  "parse_multilayer_edge_list serialize_label_file serialize_multilayer_edge_list",
    "metrics": "MetricReport conductance contingency_table detectability f_measure metric_report nmi normalized_cut "
               "rand_index",
    "mimosa": "MimosaConfig MimosaResult ReliableCandidate TraceRecord adapt_weights parse_result run_mimosa "
              "serialize_result snr",
    "noise_stats": "AnscombeResult GlrtResult NoiseEstimates anscombe_nonidentical_test chi_square_quantile "
                   "estimate_noise glrt_identical_noise normal_cdf vtest_from_row_sums vtest_homogeneity",
    "spectral": "ClusterAssignment ConvergenceError DisconnectedGraphError SpectralEmbedding kmeans multilayer_sgc "
                "partial_eigenvalue_sum smallest_eigenpairs subspace_distance",
    "synth": "GeneralRimParams TwoLayerCorrelatedParams generate_rim generate_two_layer",
    "theory": "ClusterTooSmallError CriticalWeightSolution PhaseBounds breakdown_condition_holds breakdown_matrix "
              "cluster_partial_sums critical_bounds critical_weight_w1 eigenvalue_bounds_check "
              "predicted_partial_sum subspace_perturbation_bound",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
