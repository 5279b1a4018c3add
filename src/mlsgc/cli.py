"""Command-line interface: generate, cluster, mimosa, sweep, evaluate, theory-check.

Conventions shared by all subcommands:

* graphs travel as the tab-separated edge-list format and clusterings as
  node/label files (both defined in :mod:`mlsgc.graph_core`);
* configuration files are flat ``key=value`` text with ``#`` comments;
* every command is deterministic given its ``--seed``;
* exit codes: 0 success, 2 usage or validation error, 3 model-order
  selection found no reliable clustering, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import IO, Sequence

import numpy as np

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
from .metrics import metric_report
from .mimosa import MimosaConfig, adapt_weights, run_mimosa, serialize_result, strict_json
from .noise_stats import estimate_noise
from .spectral import ClusterAssignment, ConvergenceError, multilayer_sgc, partial_eigenvalue_sum, smallest_eigenpairs
from .synth import GeneralRimParams, TwoLayerCorrelatedParams, detectability, generate_rim, generate_two_layer
from .theory import breakdown_condition_holds, breakdown_matrix, critical_bounds, critical_weight_w1, predicted_partial_sum

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Small parsing helpers
# ---------------------------------------------------------------------------


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``key=value`` configuration text.

    Blank lines and ``#`` comments are skipped; keys may not repeat.
    """
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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


def _float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{what}: empty list")
    return values


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{what}: empty list")
    return values


def _require(config: dict[str, str], key: str, what: str) -> str:
    if key not in config:
        raise ValueError(f"{what}: missing required key {key!r}")
    return config[key]


def _config_float(config: dict[str, str], key: str, what: str, default: float | None = None) -> float:
    if key not in config:
        if default is None:
            raise ValueError(f"{what}: missing required key {key!r}")
        return default
    try:
        return float(config[key])
    except ValueError:
        raise ValueError(f"{what}: key {key!r} is not a number: {config[key]!r}") from None


def _config_int(config: dict[str, str], key: str, what: str, default: int | None = None) -> int:
    if key not in config:
        if default is None:
            raise ValueError(f"{what}: missing required key {key!r}")
        return default
    try:
        return int(config[key])
    except ValueError:
        raise ValueError(f"{what}: key {key!r} is not an integer: {config[key]!r}") from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str, normalize: bool) -> MultilayerGraph:
    graph = parse_multilayer_edge_list(_read_text(path))
    if graph.n == 0:
        raise ValueError(f"{path}: empty graph")
    return degree_normalize(graph) if normalize else graph


def _weights_or_uniform(text: str | None, n_layers: int, what: str) -> LayerWeights:
    if text is None:
        return LayerWeights.uniform(n_layers)
    values = _float_list(text, what)
    if len(values) != n_layers:
        raise ValueError(f"{what}: {len(values)} weights for {n_layers} layers")
    return LayerWeights(np.array(values))


def _load_assignment(path: str, graph: MultilayerGraph) -> ClusterAssignment:
    return ClusterAssignment.from_label_map(parse_label_file(_read_text(path)), graph.node_ids)


def _print_json(doc: dict, stream: IO[str]) -> None:
    stream.write(strict_json(doc))


def _fmt(value: float) -> str:
    """CSV/stdout float formatting: repr round-trips exactly."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _generator_from_config(config: dict[str, str]):
    kind = config.get("generator", "two_layer")
    seed = _config_int(config, "seed", "generate", 0)
    sizes = _int_list(_require(config, "cluster_sizes", "generate"), "cluster_sizes")
    if kind == "two_layer":
        params = TwoLayerCorrelatedParams(
            cluster_sizes=sizes,
            q11=_config_float(config, "q11", "generate"),
            q10=_config_float(config, "q10", "generate"),
            q01=_config_float(config, "q01", "generate"),
            q00=_config_float(config, "q00", "generate"),
            p1=_config_float(config, "p1", "generate"),
            p2=_config_float(config, "p2", "generate"),
            seed=seed,
        )
        return generate_two_layer(params)
    if kind == "rim":
        n_layers = _config_int(config, "n_layers", "generate")
        rows = _require(config, "within_probs", "generate").split(";")
        within = np.array([[float(x) for x in row.split(",")] for row in rows])
        noise_text = _require(config, "noise_probs", "generate")
        noise = _float_list(noise_text, "noise_probs")
        noise_probs = np.array(noise) if len(noise) > 1 else float(noise[0])
        means_text = config.get("noise_weight_means")
        means: np.ndarray | float = 1.0
        if means_text is not None:
            mvals = _float_list(means_text, "noise_weight_means")
            means = np.array(mvals) if len(mvals) > 1 else float(mvals[0])
        params = GeneralRimParams(
            cluster_sizes=sizes,
            n_layers=n_layers,
            within_probs=within,
            noise_probs=noise_probs,
            noise_weight_means=means,
            weight_distribution=config.get("weight_distribution", "constant"),
            seed=seed,
        )
        return generate_rim(params)
    raise ValueError(f"generate: unknown generator {kind!r} (expected two_layer or rim)")


def _cmd_generate(args: argparse.Namespace) -> int:
    config = parse_config(_read_text(args.params))
    graph, truth = _generator_from_config(config)
    weights = _weights_or_uniform(args.w, graph.L, "--w")

    with open(args.edges, "w", encoding="utf-8") as handle:
        handle.write(serialize_multilayer_edge_list(graph))
    with open(args.labels, "w", encoding="utf-8") as handle:
        handle.write(serialize_label_file(graph.node_ids, truth.labels))

    bounds = critical_bounds(graph, truth, weights)
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
    assignment, _ = multilayer_sgc(graph, weights, args.k, seed=args.seed)
    sys.stdout.write(serialize_label_file(graph.node_ids, assignment.labels))
    return 0


# ---------------------------------------------------------------------------
# mimosa
# ---------------------------------------------------------------------------


def _mimosa_config_from_args(args: argparse.Namespace, graph: MultilayerGraph) -> MimosaConfig:
    kwargs: dict = {"seed": args.seed}
    if args.w_ini is not None:
        values = _float_list(args.w_ini, "--w-ini")
        if len(values) != graph.L:
            raise ValueError(f"--w-ini: {len(values)} weights for {graph.L} layers")
        kwargs["w_ini"] = LayerWeights(np.array(values))
    if args.tau_set is not None:
        kwargs["tau_set"] = _float_list(args.tau_set, "--tau-set")
    if args.eta is not None:
        kwargs["eta"] = args.eta
    if args.alpha is not None:
        values = _float_list(args.alpha, "--alpha")
        kwargs["alpha"] = values[0] if len(values) == 1 else values
    if args.alpha_prime is not None:
        values = _float_list(args.alpha_prime, "--alpha-prime")
        kwargs["alpha_prime"] = values[0] if len(values) == 1 else values
    if args.max_k is not None:
        kwargs["max_k"] = args.max_k
    return MimosaConfig(**kwargs)


def _cmd_mimosa(args: argparse.Namespace) -> int:
    graph = _load_graph(args.edges, args.normalize)
    config = _mimosa_config_from_args(args, graph)
    result = run_mimosa(graph, config)
    sys.stdout.write(serialize_result(result))
    return 0 if result.status == "found" else 3


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_AXIS_NAMES = ("p1", "p2", "w1", "tau")


def _parse_axis(text: str, what: str) -> tuple[str, np.ndarray]:
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
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return name, start + step * np.arange(count)


def _mean(values: list[float], geometric: bool) -> float:
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


def _sweep_point(
    config: dict[str, str],
    assignments: dict[str, float],
    point_index: int,
    trials: int,
    mode: str,
    base_seed: int,
    out_rows: list[list[str]],
    geometric: bool,
    axis_names: list[str],
) -> None:
    """Run all trials of one grid point and append data + mean rows."""
    p1 = assignments["p1"] if "p1" in assignments else _config_float(config, "p1", "sweep")
    p2 = assignments["p2"] if "p2" in assignments else _config_float(config, "p2", "sweep")
    sizes = _int_list(_require(config, "cluster_sizes", "sweep"), "cluster_sizes")

    if "w" in config and ("w1" in assignments):
        raise ValueError("sweep: cannot combine a w1 axis with a fixed w vector")
    if "w1" in assignments:
        w1 = assignments["w1"]
        base_w = LayerWeights(np.array([w1, 1.0 - w1]))
    elif "w" in config:
        base_w = LayerWeights(np.array(_float_list(config["w"], "w")))
    elif "w1" in config:
        w1 = _config_float(config, "w1", "sweep")
        base_w = LayerWeights(np.array([w1, 1.0 - w1]))
    else:
        base_w = LayerWeights.uniform(2)
    if "tau" in assignments:
        weights = adapt_weights(base_w, np.array([p1, p2]), assignments["tau"])
    else:
        weights = base_w

    columns = {name: [] for name in ("detectability", "t_w", "t_LB_hat", "t_UB_hat", "S2K_over_n")}
    axis_values = [assignments[name] for name in axis_names]

    for trial in range(trials):
        trial_seed = int(np.random.SeedSequence([base_seed, point_index, trial]).generate_state(1)[0])
        params = TwoLayerCorrelatedParams(
            cluster_sizes=sizes,
            q11=_config_float(config, "q11", "sweep"),
            q10=_config_float(config, "q10", "sweep"),
            q01=_config_float(config, "q01", "sweep"),
            q00=_config_float(config, "q00", "sweep"),
            p1=p1,
            p2=p2,
            seed=trial_seed,
        )
        graph, truth = generate_two_layer(params)

        if mode == "sgc":
            k = _config_int(config, "k", "sweep")
            found, embedding = multilayer_sgc(graph, weights, k, seed=trial_seed)
            det = detectability(found, truth)
            bounds = critical_bounds(graph, truth, weights)
            t_w = float(weights.values @ np.array([p1, p2]))
            s2k = partial_eigenvalue_sum(embedding) / graph.n
        else:  # mimosa
            mim_kwargs: dict = {"seed": trial_seed}
            if "eta" in config:
                mim_kwargs["eta"] = _config_float(config, "eta", "sweep")
            if "alpha" in config:
                mim_kwargs["alpha"] = _config_float(config, "alpha", "sweep")
            if "alpha_prime" in config:
                mim_kwargs["alpha_prime"] = _config_float(config, "alpha_prime", "sweep")
            if "max_k" in config:
                mim_kwargs["max_k"] = _config_int(config, "max_k", "sweep")
            if "tau_set" in config:
                mim_kwargs["tau_set"] = _float_list(config["tau_set"], "tau_set")
            result = run_mimosa(graph, MimosaConfig(**mim_kwargs))
            if result.status == "found":
                det = detectability(result.assignment, truth)
                bounds = critical_bounds(graph, truth, result.w_star)
                t_w = float(result.w_star.values @ np.array([p1, p2]))
                emb = smallest_eigenpairs(aggregate(graph, result.w_star), result.K,
                                          rng=np.random.default_rng(trial_seed))
                s2k = partial_eigenvalue_sum(emb) / graph.n
            else:
                det = t_w = s2k = float("nan")
                bounds = None

        row_vals = {
            "detectability": det,
            "t_w": t_w,
            "t_LB_hat": bounds.t_lb if bounds is not None else float("nan"),
            "t_UB_hat": bounds.t_ub if bounds is not None else float("nan"),
            "S2K_over_n": s2k,
        }
        for name, value in row_vals.items():
            columns[name].append(float(value))
        out_rows.append(
            [_fmt(v) for v in axis_values]
            + [str(trial)]
            + [_fmt(row_vals[name]) for name in ("detectability", "t_w", "t_LB_hat", "t_UB_hat", "S2K_over_n")]
        )

    out_rows.append(
        [_fmt(v) for v in axis_values]
        + ["mean"]
        + [_fmt(_mean(columns[name], geometric)) for name in ("detectability", "t_w", "t_LB_hat", "t_UB_hat", "S2K_over_n")]
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = parse_config(_read_text(args.spec))
    axis_name, axis_values = _parse_axis(_require(config, "axis", "sweep"), "axis")
    axes: list[tuple[str, np.ndarray]] = [(axis_name, axis_values)]
    if "axis2" in config:
        name2, values2 = _parse_axis(config["axis2"], "axis2")
        if name2 == axis_name:
            raise ValueError("sweep: axis2 must name a different parameter than axis")
        axes.append((name2, values2))
    trials = _config_int(config, "trials", "sweep", 1)
    if trials < 1:
        raise ValueError(f"sweep: trials must be >= 1, got {trials}")
    mode = config.get("mode", "sgc")
    if mode not in ("sgc", "mimosa"):
        raise ValueError(f"sweep: mode must be sgc or mimosa, got {mode!r}")
    base_seed = _config_int(config, "seed", "sweep", 0)
    geometric = args.mean == "geometric"

    axis_names = [name for name, _ in axes]
    # Sanity: fixed keys must exist for parameters not swept.
    for required in ("p1", "p2"):
        if required not in axis_names and required not in config:
            raise ValueError(f"sweep: missing required key {required!r} (not on an axis)")

    header = axis_names + ["trial", "detectability", "t_w", "t_LB_hat", "t_UB_hat", "S2K_over_n"]
    rows: list[list[str]] = []
    grids = [values for _, values in axes]
    point_index = 0
    if len(grids) == 1:
        points = [(v,) for v in grids[0]]
    else:
        points = [(v1, v2) for v1 in grids[0] for v2 in grids[1]]
    for values in points:
        assignments = {name: float(v) for name, v in zip(axis_names, values)}
        _sweep_point(config, assignments, point_index, trials, mode, base_seed, rows, geometric, axis_names)
        point_index += 1

    out = sys.stdout
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(row) + "\n")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.edges, False)
    found = _load_assignment(args.found, graph)
    truth = _load_assignment(args.truth, graph) if args.truth is not None else None
    report = metric_report(found, graph, truth)
    doc: dict = {"conductance": report.conductance, "nc": report.nc}
    if truth is not None:
        doc["nmi"] = report.nmi
        doc["ri"] = report.ri
        doc["f_measure"] = report.f_measure
    _print_json(doc, sys.stdout)
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

    estimates = estimate_noise(graph, assignment)
    noise = np.stack([estimates.t_hat_matrix(layer) for layer in range(graph.L)])
    if args.noise_override is not None:
        for layer, i, j, t in _parse_noise_override(_read_text(args.noise_override), graph.L, assignment.K):
            noise[layer, i, j] = noise[layer, j, i] = t

    bounds = critical_bounds(graph, assignment, weights)
    matrix = breakdown_matrix(assignment, noise, weights)
    holds = breakdown_condition_holds(matrix, graph, assignment, weights)
    t_hat_w = float(weights.values @ estimates.t_hat_layer)
    lo, hi = predicted_partial_sum(t_hat_w, bounds)

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
        solution = critical_weight_w1(float(t1), float(t2), float(s1), float(s2), assignment.K)
        doc["critical_weight"] = {"w1": solution.value, "degenerate": solution.degenerate}
    _print_json(doc, sys.stdout)
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
    p.add_argument("--eta", type=float, default=None, help="homogeneity-test level")
    p.add_argument("--alpha", default=None, help="identical-noise test level (scalar or per-layer comma list)")
    p.add_argument("--alpha-prime", default=None, help="threshold test level (scalar or per-layer comma list)")
    p.add_argument("--max-k", type=int, default=None,
                   help="largest cluster count to try (default n//2); K also stops at isqrt of the component size")
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


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
