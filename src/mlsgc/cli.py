"""Command-line interface: generate, cluster, mimosa, sweep, evaluate, theory-check.

Conventions shared by all subcommands:

* graphs travel as the tab-separated edge-list format and clusterings as
  node/label files (both defined in :mod:`mlsgc.graph_core`);
* configuration files are flat ``key=value`` text with ``#`` comments;
* every command is deterministic given its ``--seed``;
* exit codes: 0 success, 2 usage or validation error, 3 model-order
  selection found no reliable clustering, 4 numerical failure;
* warnings go to stderr as single ``warning: <message>`` lines.

Commands reach the library beyond parsing and clustering through the
package's lazy namespace (``mlsgc.run_mimosa``), so each imports only the
modules it runs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import warnings
from dataclasses import replace
from typing import Sequence

# BLAS sizes its thread pool when numpy is first imported, and a threaded
# OpenBLAS changes trailing digits of MIMOSA's trace floats.  Importing this
# module pins one thread unless the caller chose a count; importing the
# package loads no numpy, so this runs first.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np  # noqa: E402

import mlsgc  # noqa: E402

from .graph_core import (
    LayerWeights,
    MultilayerGraph,
    aggregate,
    degree_normalize,
    parse_label_file,
    parse_multilayer_edge_list,
    serialize_label_file,
    serialize_multilayer_edge_list,
)
from .spectral import ClusterAssignment, ConvergenceError, DisconnectedGraphError, multilayer_sgc, partial_eigenvalue_sum

__all__ = ["main"]

# ---------------------------------------------------------------------------
# Small parsing helpers
# ---------------------------------------------------------------------------


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``key=value`` configuration text.

    Everything from the first ``#`` on a line is a comment; blank lines are
    skipped; keys may not repeat.
    """
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"config line {line_no}: empty key")
        if key in out:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def _read(config: dict[str, str], key: str, what: str, convert=str, default=None):
    """``convert(config[key])`` (``str``, ``int`` or ``float``); a key with no
    ``default`` is required."""
    if key not in config:
        if default is None:
            raise ValueError(f"{what}: missing required key {key!r}")
        return default
    return _convert(config[key], f"{what}: key {key!r}", convert)


def _convert(text: str, what: str, convert=float):
    """``convert(text)`` (``str``, ``int`` or ``float``)."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{what} is not {'an integer' if convert is int else 'a number'}: {text!r}") from None


def _at_least(value: int, minimum: int, what: str) -> int:
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def _number_list(text: str, what: str, convert=float) -> tuple:
    """Comma-separated ``float`` (or ``int``) values; empty parts are skipped."""
    try:
        values = tuple(convert(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        kind = "integers" if convert is int else "numbers"
        raise ValueError(f"{what}: expected comma-separated {kind}, got {text!r}") from None
    if not values:
        raise ValueError(f"{what}: empty list")
    return values


def _scalar_or_list(text: str, what: str) -> float | tuple[float, ...]:
    """Comma-separated numbers; one number as its scalar (applies to every layer)."""
    values = _number_list(text, what)
    return values[0] if len(values) == 1 else values


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str, normalize: bool) -> MultilayerGraph:
    graph = parse_multilayer_edge_list(_read_text(path))
    if graph.n == 0:
        raise ValueError(f"{path}: empty graph")
    return degree_normalize(graph) if normalize else graph


def _layer_weights(values: Sequence[float], what: str) -> LayerWeights:
    try:
        return LayerWeights(np.array(values))
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


def _weights_or_uniform(text: str | None, n_layers: int, what: str) -> LayerWeights:
    if text is None:
        return LayerWeights.uniform(n_layers)
    values = _number_list(text, what)
    if len(values) != n_layers:
        raise ValueError(f"{what}: {len(values)} weights for {n_layers} layers")
    return _layer_weights(values, what)


def _load_assignment(path: str, graph: MultilayerGraph) -> ClusterAssignment:
    return ClusterAssignment.from_label_map(parse_label_file(_read_text(path)), graph.node_ids)


def _fmt(value: float) -> str:
    """CSV/stdout float formatting: repr round-trips exactly."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _two_layer_model(config: dict[str, str], what: str) -> dict:
    """The two-layer model's ``cluster_sizes`` and joint probabilities
    ``q11, q10, q01, q00``, as :class:`TwoLayerCorrelatedParams` keywords."""
    model: dict = {"cluster_sizes": _number_list(_read(config, "cluster_sizes", what), "cluster_sizes", int)}
    for key in ("q11", "q10", "q01", "q00"):
        model[key] = _read(config, key, what, float)
    return model


def _generator_from_config(config: dict[str, str]):
    kind = config.get("generator", "two_layer")
    seed = _at_least(_read(config, "seed", "generate", int, 0), 0, "generate: seed")
    if kind == "two_layer":
        params = mlsgc.TwoLayerCorrelatedParams(
            **_two_layer_model(config, "generate"),
            p1=_read(config, "p1", "generate", float),
            p2=_read(config, "p2", "generate", float),
            seed=seed,
        )
        return mlsgc.generate_two_layer(params)
    if kind == "rim":
        sizes = _number_list(_read(config, "cluster_sizes", "generate"), "cluster_sizes", int)
        n_layers = _read(config, "n_layers", "generate", int)
        rows = [_number_list(row, "within_probs") for row in _read(config, "within_probs", "generate").split(";")]
        if len({len(row) for row in rows}) > 1:
            raise ValueError(f"within_probs: rows have unequal lengths {[len(row) for row in rows]}")
        means = config.get("noise_weight_means")
        params = mlsgc.GeneralRimParams(
            cluster_sizes=sizes,
            n_layers=n_layers,
            within_probs=np.array(rows),
            noise_probs=_scalar_or_list(_read(config, "noise_probs", "generate"), "noise_probs"),
            noise_weight_means=1.0 if means is None else _scalar_or_list(means, "noise_weight_means"),
            weight_distribution=config.get("weight_distribution", "constant"),
            seed=seed,
        )
        return mlsgc.generate_rim(params)
    raise ValueError(f"generate: unknown generator {kind!r} (expected two_layer or rim)")


def _cmd_generate(args: argparse.Namespace) -> int:
    config = parse_config(_read_text(args.params))
    graph, truth = _generator_from_config(config)
    weights = _weights_or_uniform(args.w, graph.L, "--w")

    with open(args.edges, "w", encoding="utf-8") as handle:
        handle.write(serialize_multilayer_edge_list(graph))
    with open(args.labels, "w", encoding="utf-8") as handle:
        handle.write(serialize_label_file(graph.node_ids, truth.labels))

    bounds = mlsgc.critical_bounds(graph, truth, weights)
    out = sys.stdout
    out.write(f"n={graph.n}\n")
    out.write(f"L={graph.L}\n")
    out.write(f"K={bounds.K}\n")
    out.write(f"t_lb={_fmt(bounds.t_lb)}\n")
    out.write(f"t_ub={_fmt(bounds.t_ub)}\n")
    out.write(f"universal_lb={_fmt(bounds.universal_lb)}\n")
    out.write(f"universal_ub={_fmt(bounds.universal_ub)}\n")
    out.write(f"c_star={_fmt(bounds.c_star)}\n")
    return 0


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def _cmd_cluster(args: argparse.Namespace) -> int:
    graph = _load_graph(args.edges, args.normalize)
    weights = _weights_or_uniform(args.w, graph.L, "--w")
    assignment, _ = multilayer_sgc(graph, weights, args.k, seed=_at_least(args.seed, 0, "--seed"))
    sys.stdout.write(serialize_label_file(graph.node_ids, assignment.labels))
    return 0


# ---------------------------------------------------------------------------
# mimosa
# ---------------------------------------------------------------------------


# MIMOSA's settings and their readers.  The keys are the ``sweep`` spec keys
# and also the argparse ``dest`` names of the ``mimosa`` flags.
_MIMOSA_SETTINGS = {"tau_set": _number_list, "eta": _convert, "alpha": _scalar_or_list,
                    "alpha_prime": _scalar_or_list, "max_k": lambda text, what: _convert(text, what, int)}


def _mimosa_config(settings: dict, flags: bool, **fields) -> mlsgc.MimosaConfig:
    """``MimosaConfig(**fields)`` with every MIMOSA setting that ``settings``
    holds (not None): the ``mimosa`` command's parsed flags (``flags``, so
    errors name ``--max-k``) or a ``sweep`` spec (errors name ``max_k``)."""
    for key, read in _MIMOSA_SETTINGS.items():
        if settings.get(key) is not None:
            fields[key] = read(settings[key], "--" + key.replace("_", "-") if flags else key)
    return mlsgc.MimosaConfig(**fields)


def _cmd_mimosa(args: argparse.Namespace) -> int:
    graph = _load_graph(args.edges, args.normalize)
    w_ini = _weights_or_uniform(args.w_ini, graph.L, "--w-ini")
    config = _mimosa_config(vars(args), True, w_ini=w_ini, seed=_at_least(args.seed, 0, "--seed"))
    result = mlsgc.run_mimosa(graph, config)
    sys.stdout.write(mlsgc.serialize_result(result))
    return 0 if result.status == "found" else 3


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_AXIS_NAMES = ("p1", "p2", "w1", "tau")
_SWEEP_COLUMNS = ("detectability", "t_w", "t_LB_hat", "t_UB_hat", "S2K_over_n")
_MAX_GRID_POINTS = 10_000  # a sweep's grid points, over all axes


def _parse_axis(text: str, what: str, max_points: int) -> tuple[str, np.ndarray]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"{what}: expected name:start:stop:step, got {text!r}")
    name = parts[0].strip()
    if name not in _AXIS_NAMES:
        raise ValueError(f"{what}: axis name must be one of {_AXIS_NAMES}, got {name!r}")
    try:
        start, stop, step = (float(p) for p in parts[1:])
    except ValueError:
        raise ValueError(f"{what}: non-numeric axis bounds in {text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"{what}: start, stop and step must be finite in {text!r}")
    if step <= 0.0:
        raise ValueError(f"{what}: step must be positive, got {step}")
    if start > stop:
        raise ValueError(f"{what}: start must not exceed stop")
    span = (stop - start) / step + 1e-9  # may be inf; the count is floor(span) + 1
    if span >= max_points:
        raise ValueError(
            f"{what}: more than {max_points} points in {text!r}; a sweep grid has at most "
            f"{_MAX_GRID_POINTS} points over all axes"
        )
    return name, start + step * np.arange(int(math.floor(span)) + 1)


def _mean(values: Sequence[float], geometric: bool) -> float:
    arr = np.array(values, dtype=np.float64)
    if np.any(np.isnan(arr)):
        return float("nan")
    if not geometric:
        return float(arr.mean())
    if np.any(arr < 0.0):
        raise ValueError("geometric mean needs nonnegative values")
    if np.any(arr == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(arr))))


def _sweep_trial(
    params: mlsgc.TwoLayerCorrelatedParams, weights: LayerWeights, k: int | None, mimosa: mlsgc.MimosaConfig | None
) -> tuple[float, ...]:
    """Sample one graph (seeded by ``params.seed``) and return its statistics
    in ``_SWEEP_COLUMNS`` order: SGC with ``k`` clusters under ``weights``, or
    MIMOSA under ``mimosa`` from ``weights``.  All are nan when MIMOSA declines
    or SGC's aggregation is disconnected; the latter is warned about.  The
    bounds are ``critical_bounds``' ``t_lb`` and ``t_ub`` of the planted
    clusters, computed without its per-layer problems."""
    graph, truth = mlsgc.generate_two_layer(params)
    if mimosa is None:
        try:
            found, embedding = multilayer_sgc(graph, weights, k, seed=params.seed)
        except DisconnectedGraphError as err:
            warnings.warn(f"{err}; the row is nan")
            return (float("nan"),) * len(_SWEEP_COLUMNS)
        s2k_over_n = partial_eigenvalue_sum(embedding) / graph.n
    else:
        best = mlsgc.run_mimosa(graph, replace(mimosa, w_ini=weights, seed=params.seed)).selected
        if best is None:
            return (float("nan"),) * len(_SWEEP_COLUMNS)
        found, weights = best.assignment, best.w
        # labels K, K+1, ... are the components outside the clustered one
        s2k_over_n = best.partial_sum / int(best.assignment.sizes[: best.K].sum())
    sums = mlsgc.cluster_partial_sums(aggregate(graph, weights), truth)
    K = truth.K
    with np.errstate(invalid="ignore"):  # K == 1 has no transition: 0/0 -> nan
        t_lb = float(sums.min() / ((K - 1) * truth.n_max))
        t_ub = float(sums.min() / ((K - 1) * truth.n_min))
    t_w = float(weights.values @ np.array([params.p1, params.p2]))
    return mlsgc.detectability(found, truth), t_w, t_lb, t_ub, s2k_over_n


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = parse_config(_read_text(args.spec))
    axes = [_parse_axis(_read(config, "axis", "sweep"), "axis", _MAX_GRID_POINTS)]
    if "axis2" in config:
        axes.append(_parse_axis(config["axis2"], "axis2", _MAX_GRID_POINTS // axes[0][1].size))
        if axes[1][0] == axes[0][0]:
            raise ValueError("sweep: axis2 must name a different parameter than axis")
    axis_names = [name for name, _ in axes]
    trials = _at_least(_read(config, "trials", "sweep", int, 1), 1, "sweep: trials")
    mode = config.get("mode", "sgc")
    if mode not in ("sgc", "mimosa"):
        raise ValueError(f"sweep: mode must be sgc or mimosa, got {mode!r}")
    base_seed = _at_least(_read(config, "seed", "sweep", int, 0), 0, "sweep: seed")
    geometric = args.mean == "geometric"

    # Every key, and every grid point's parameters, is checked here, before
    # the first graph is sampled.
    for key in ("p1", "p2"):
        if key not in axis_names and key not in config:
            raise ValueError(f"sweep: missing required key {key!r} (not on an axis)")
    fixed = {key: _read(config, key, "sweep", float) for key in ("p1", "p2") if key not in axis_names}
    model = _two_layer_model(config, "sweep")
    if "w1" in axis_names and "w" in config:
        raise ValueError("sweep: cannot combine a w1 axis with a fixed w vector")
    if "w1" in config and "w" in config:
        raise ValueError("sweep: give w or w1, not both")
    if "w1" in config and "w1" not in axis_names:
        fixed["w1"] = _read(config, "w1", "sweep", float)
    base_w = _weights_or_uniform(config.get("w"), 2, "w")
    k = _read(config, "k", "sweep", int) if mode == "sgc" else None
    mimosa = _mimosa_config(config, False) if mode == "mimosa" else None
    grid = []
    for values in itertools.product(*(values for _, values in axes)):
        point = {**fixed, **{name: float(v) for name, v in zip(axis_names, values)}}
        params = mlsgc.TwoLayerCorrelatedParams(**model, p1=point["p1"], p2=point["p2"])
        weights = _layer_weights([point["w1"], 1.0 - point["w1"]], "w1") if "w1" in point else base_w
        if "tau" in point:
            weights = mlsgc.adapt_weights(weights, np.array([point["p1"], point["p2"]]), point["tau"])
        grid.append(([_fmt(v) for v in values], params, weights))
    if k is not None and not 2 <= k < params.n:  # every point has the same cluster_sizes
        raise ValueError(f"sweep: k must satisfy 2 <= k <= n-1 = {params.n - 1}, got {k}")

    lines = [",".join([*axis_names, "trial", *_SWEEP_COLUMNS])]
    for point_index, (prefix, params, weights) in enumerate(grid):
        stats = []
        where = ", ".join(f"{name}={value}" for name, value in zip(axis_names, prefix))
        for trial in range(trials):
            trial_seed = int(np.random.SeedSequence([base_seed, point_index, trial]).generate_state(1)[0])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                stats.append(_sweep_trial(replace(params, seed=trial_seed), weights, k, mimosa))
            for message in dict.fromkeys(str(w.message) for w in caught):
                warnings.warn(f"{where}, trial {trial}: {message}")
            lines.append(",".join(prefix + [str(trial)] + [_fmt(v) for v in stats[-1]]))
        lines.append(",".join(prefix + ["mean"] + [_fmt(_mean(column, geometric)) for column in zip(*stats)]))

    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.edges, False)
    found = _load_assignment(args.found, graph)
    truth = _load_assignment(args.truth, graph) if args.truth is not None else None
    report = mlsgc.metric_report(found, graph, truth)
    doc: dict = {"conductance": report.conductance, "nc": report.nc}
    if truth is not None:
        doc["nmi"] = report.nmi
        doc["ri"] = report.ri
        doc["f_measure"] = report.f_measure
    sys.stdout.write(mlsgc.mimosa.strict_json(doc))
    return 0


# ---------------------------------------------------------------------------
# theory-check
# ---------------------------------------------------------------------------


def _parse_noise_override(text: str, L: int, K: int) -> list[tuple[int, int, int, float]]:
    overrides = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"noise override line {line_no}: expected 'layer i j t'")
        try:
            layer, i, j = int(fields[0]), int(fields[1]), int(fields[2])
            t = float(fields[3])
        except ValueError:
            raise ValueError(f"noise override line {line_no}: non-numeric field") from None
        if not 0 <= layer < L:
            raise ValueError(f"noise override line {line_no}: layer {layer} out of range")
        if not (0 <= i < K and 0 <= j < K and i != j):
            raise ValueError(f"noise override line {line_no}: bad cluster pair ({i}, {j})")
        if t < 0.0 or not math.isfinite(t):
            raise ValueError(f"noise override line {line_no}: bad noise level {fields[3]!r}")
        overrides.append((layer, i, j, t))
    return overrides


def _cmd_theory_check(args: argparse.Namespace) -> int:
    graph = _load_graph(args.edges, False)
    assignment = _load_assignment(args.labels, graph)
    if assignment.K < 2:
        raise ValueError("theory-check: need at least two clusters in the label file")
    weights = _weights_or_uniform(args.w, graph.L, "--w")
    mlsgc.ClusterTooSmallError.check(assignment)  # before estimate_noise's O(n K) arrays

    estimates = mlsgc.estimate_noise(graph, assignment)
    noise = np.stack([estimates.t_hat_matrix(layer) for layer in range(graph.L)])
    if args.noise_override is not None:
        for layer, i, j, t in _parse_noise_override(_read_text(args.noise_override), graph.L, assignment.K):
            noise[layer, i, j] = noise[layer, j, i] = t

    bounds = mlsgc.critical_bounds(graph, assignment, weights)
    matrix = mlsgc.breakdown_matrix(assignment, noise, weights)
    holds = mlsgc.breakdown_condition_holds(matrix, graph, assignment, weights)
    t_hat_w = float(weights.values @ estimates.t_hat_layer)
    lo, hi = mlsgc.predicted_partial_sum(t_hat_w, bounds)

    doc: dict = {
        "bounds": {
            "t_lb": bounds.t_lb,
            "t_ub": bounds.t_ub,
            "universal_lb": bounds.universal_lb,
            "universal_ub": bounds.universal_ub,
            "c_star": bounds.c_star,
            "cluster_partial_sums": list(bounds.cluster_partial_sums),
            "K": bounds.K,
            "n": bounds.n,
            "n_min": bounds.n_min,
            "n_max": bounds.n_max,
        },
        "breakdown": {
            "matrix": [list(row) for row in matrix],
            "separation_holds": holds,
        },
        "t_hat_w": t_hat_w,
        "predicted_partial_sum": {"low": lo, "high": hi},
    }
    if graph.L == 2:
        t1, t2 = estimates.t_hat_layer
        s1, s2 = bounds.layer_partial_sums.min(axis=1) / graph.n
        solution = mlsgc.critical_weight_w1(float(t1), float(t2), float(s1), float(s2), assignment.K)
        doc["critical_weight"] = {"w1": solution.value, "degenerate": solution.degenerate}
    sys.stdout.write(mlsgc.mimosa.strict_json(doc))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsgc",
        description="Multilayer spectral graph clustering with automated model-order selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic multilayer graph and print its phase bounds")
    p.add_argument("params", help="flat key=value generator parameter file")
    p.add_argument("--edges", required=True, help="output edge-list path")
    p.add_argument("--labels", required=True, help="output ground-truth label path")
    p.add_argument("--w", default=None, help="layer weights for the printed bounds (comma list; default uniform)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cluster", help="spectral clustering with fixed layer weights")
    p.add_argument("edges", help="edge-list file")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--w", default=None, help="layer weights (comma list; default uniform)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true", help="degree-normalize unweighted layers first")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("mimosa", help="automated model-order selection")
    p.add_argument("edges", help="edge-list file")
    p.add_argument("--w-ini", default=None, help="initial layer weights (comma list; default uniform)")
    p.add_argument("--tau-set", default=None, help="adaptation strengths (comma list)")
    p.add_argument("--eta", default=None, help="homogeneity-test level")
    p.add_argument("--alpha", default=None, help="identical-noise test level (scalar or per-layer comma list)")
    p.add_argument("--alpha-prime", default=None, help="threshold test level (scalar or per-layer comma list)")
    p.add_argument("--max-k", default=None,
                   help="largest cluster count to try; K also stops at isqrt of the component size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true", help="degree-normalize unweighted layers first")
    p.set_defaults(func=_cmd_mimosa)

    p = sub.add_parser("sweep", help="Monte-Carlo parameter sweep, CSV on stdout")
    p.add_argument("spec", help="flat key=value sweep specification file")
    p.add_argument("--mean", choices=("arithmetic", "geometric"), default="arithmetic",
                   help="aggregation for the per-point mean rows")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="clustering quality metrics as JSON")
    p.add_argument("edges", help="edge-list file")
    p.add_argument("found", help="label file of the clustering to score")
    p.add_argument("--truth", default=None, help="ground-truth label file (enables external metrics)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("theory-check", help="phase bounds, breakdown predicate, and predictions as JSON")
    p.add_argument("edges", help="edge-list file")
    p.add_argument("labels", help="cluster label file (ground truth or candidate)")
    p.add_argument("--w", default=None, help="layer weights (comma list; default uniform)")
    p.add_argument("--noise-override", default=None,
                   help="file of 'layer i j t' lines replacing estimated block noise levels")
    p.set_defaults(func=_cmd_theory_check)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A :func:`warnings.showwarning` that prints only ``warning: <message>``."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # the caller's filters still decide which warnings show; only their form changes
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        # LinAlgError subclasses ValueError, so the numerical clause comes first
        except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as err:
            print(f"numerical failure: {err}", file=sys.stderr)
            return 4
        except (ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
