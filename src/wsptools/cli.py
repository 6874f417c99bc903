"""Single command-line entry point for the toolkit.

Exit codes: 0 success, 1 usage error, 2 domain or validation error,
3 resource-limit refusal.  Diagnostics go to stderr; data goes to files
or stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from wsptools import INSTANCE_FORMAT_VERSION, __version__
from wsptools.core import (
    Allocation,
    DirectedGraph,
    StructuralError,
    _json_arcs,
    _json_float,
    _json_int,
    _json_list,
    check_feasibility,
    compute_arrival_times,
    load_instance,
    objective,
    save_instance,
    solution_from_json,
    solution_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wsptools", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"wsptools {__version__} (instance format v{INSTANCE_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a grid instance")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--grid", default="medium", choices=["small", "medium", "large", "huge"],
                   help="grid side: 20/30/40/80 cells")
    p.add_argument("--grid-side", type=int, default=None,
                   help="explicit grid side, overrides --grid (flagged in meta)")
    p.add_argument("--wind", default="light", choices=["light", "moderate", "strong"],
                   help="midflame wind-speed interval (ft/min)")
    p.add_argument("--wind-direction", type=float, default=0.0,
                   help="predominant wind direction (radians, 0 = +x)")
    p.add_argument("--slope", default="moderate", choices=["flat", "moderate", "steep"],
                   help="terrain steepness (max elevation in ft)")
    p.add_argument("--delay", default="high", choices=["low", "medium", "high"],
                   help="suppression delay relative to the horizon (minutes)")
    p.add_argument("--resources", default="moderate", choices=["few", "moderate", "many"],
                   help="resource count relative to the grid side")
    p.add_argument("--decisions", type=int, default=10, help="number of release points")
    p.add_argument("--first-release", default="early", choices=["early", "late", "very_late"],
                   help="first release burn percentile")
    p.add_argument("--last-release", default="very_late",
                   choices=["very_early", "early", "late", "very_late"],
                   help="last release burn percentile")
    p.add_argument("--extent", type=float, default=26240.0, help="landscape extent (ft)")
    p.add_argument("-o", "--output", required=True, help="output instance file (JSON)")

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--algo", required=True, choices=["rs", "beam", "exact"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=None, help="time limit (seconds)")
    p.add_argument("--iterations", type=int, default=None, help="iteration limit")
    p.add_argument("--beam-width", type=int, default=32)
    p.add_argument("--expansions", type=int, default=16, help="child combinations per beam node")
    p.add_argument("--max-nodes", type=int, default=2_000_000,
                   help="exact-solver search-space refusal limit")
    p.add_argument("-i", "--input", required=True, help="instance file")
    p.add_argument("-o", "--output", required=True, help="solution file (JSON)")

    p = sub.add_parser("evaluate", help="evaluate a solution file against an instance")
    p.add_argument("-i", "--input", required=True, help="instance file")
    p.add_argument("-s", "--solution", required=True, help="solution file")

    p = sub.add_parser("export-mip", help="export a linear model")
    p.add_argument("--model", required=True, choices=["wsp", "hof", "wei"])
    p.add_argument("--format", default="lp", choices=["lp", "mps"])
    p.add_argument("--aux", default=None,
                   help="sidecar JSON with weights/flame lengths/coefficients for hof and wei")
    p.add_argument("-i", "--input", required=True, help="instance file")
    p.add_argument("-o", "--output", required=True, help="output model file")

    p = sub.add_parser("reduce", help="reduce an interdiction instance")
    p.add_argument("--from", dest="source_kind", default="mvnp", choices=["mvnp"])
    p.add_argument("--to", dest="target_kind", required=True, choices=["wsp", "wwsp", "hwsp"])
    p.add_argument("-i", "--input", required=True, help="interdiction instance (JSON)")
    p.add_argument("-o", "--output", required=True, help="output file (JSON)")

    p = sub.add_parser("verify-reductions", help="check reduction equivalence on random instances")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--max-vertices", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="run a benchmark plan")
    p.add_argument("--plan", required=True, help="plan JSON: instances, algorithms, seeds")
    p.add_argument("--out", required=True, help="records CSV (append, resumable)")

    p = sub.add_parser("report", help="statistics from a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--profiles", required=True, help="output CSV of profile breakpoints")
    p.add_argument("--sm", required=True, help="output CSV of rank scores")
    p.add_argument("--delta", type=float, default=244.0,
                   help="pairwise rank-score significance threshold")

    p = sub.add_parser("physics", help="physics debugging aids")
    psub = p.add_subparsers(dest="physics_command", required=True)
    pe = psub.add_parser("eval", help="print slope/wind factors, multiplier, and spread rate")
    pe.add_argument("--wind-speed", type=float, required=True,
                    help="signed midflame wind component (ft/min)")
    pe.add_argument("--slope-tangent", type=float, required=True, help="signed slope tangent")
    pe.add_argument("--base-rate", type=float, default=1.0,
                    help="no-wind no-slope rate of spread (ft/min)")

    return parser


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_generate(args) -> int:
    from wsptools.generator import GRID_LEVELS, GeneratorConfig, generate_instance

    n = args.grid_side if args.grid_side is not None else GRID_LEVELS[args.grid]
    config = GeneratorConfig(
        seed=args.seed,
        n=n,
        landscape_extent=args.extent,
        slope_level=args.slope,
        wind_level=args.wind,
        wind_direction=args.wind_direction,
        decision_points=args.decisions,
        resources_level=args.resources,
        delay_level=args.delay,
        first_release=args.first_release,
        last_release=args.last_release,
    )
    instance = generate_instance(config)
    save_instance(instance, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    from wsptools.solvers import (
        SearchLimits,
        SolverBudget,
        beam_search,
        brute_force,
        random_search,
    )

    instance = load_instance(args.input)
    if args.algo == "rs":
        seconds = args.time_limit if args.time_limit is not None else None
        iterations = args.iterations
        if seconds is None and iterations is None:
            iterations = 1000
        result = random_search(instance, SolverBudget(seconds, iterations), seed=args.seed)
    elif args.algo == "beam":
        result = beam_search(instance, args.beam_width, args.expansions, seed=args.seed)
    else:
        result = brute_force(instance, SearchLimits(max_nodes=args.max_nodes))
    with open(args.output, "w") as f:
        f.write(solution_to_json(args.input, result.allocation, result.objective))
    print(f"objective {result.objective}", file=sys.stderr)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    instance = load_instance(args.input)
    with open(args.solution) as f:
        _, alloc, _ = solution_from_json(f.read())
    violations = check_feasibility(instance, alloc)
    value = objective(instance, alloc)
    report = {
        "objective": value,
        "feasible": not violations,
        "violations": [
            {"resource": v.resource, "vertex": v.vertex, "reason": v.reason} for v in violations
        ],
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK


def _load_json_object(path, what: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise StructuralError(f"{what} file {path} must hold a JSON object")
    return doc


def _load_aux(path, keys):
    """The aux JSON object, which must hold every key in keys."""
    if path is None:
        raise StructuralError("--aux file required for this model")
    aux = _load_json_object(path, "aux")
    missing = [key for key in keys if key not in aux]
    if missing:
        raise StructuralError(f"aux file {path} lacks {', '.join(missing)}")
    return aux


def _cmd_export_mip(args) -> int:
    from wsptools.mip import build_hof_model, build_wei_model, build_wsp_model, export_model

    instance = load_instance(args.input)
    if args.model == "wsp":
        model = build_wsp_model(instance)
    elif args.model == "hof":
        aux = _load_aux(args.aux, ("targets", "alpha", "beta", "k"))
        integral = aux.get("integral", False)
        if not isinstance(integral, bool):
            raise StructuralError(f"aux integral must be true or false, got {integral!r}")
        model = build_hof_model(
            graph=instance.graph,
            ignition=instance.ignition,
            targets=aux["targets"],
            alpha=aux["alpha"],
            beta=aux["beta"],
            k=aux["k"],
            integral=integral,
        )
    else:
        aux = _load_aux(args.aux, ("weights", "flame_lengths", "flame_threshold", "k"))
        model = build_wei_model(
            graph=instance.graph,
            ignition=instance.ignition,
            horizon=instance.horizon,
            delay=instance.delay,
            weights=aux["weights"],
            flame_lengths=aux["flame_lengths"],
            flame_threshold=aux["flame_threshold"],
            k=aux["k"],
        )
    text = export_model(model, args.format)
    with open(args.output, "w") as f:
        f.write(text)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _load_mvnp(path):
    from wsptools.reductions import MvnpInstance

    doc = _load_json_object(path, "interdiction instance")
    graph = DirectedGraph(vertex_count=_json_int(doc, "vertex_count"), arcs=_json_arcs(doc))
    return MvnpInstance(
        graph=graph,
        source=_json_int(doc, "source"),
        sink=_json_int(doc, "sink"),
        k=_json_int(doc, "k"),
        h=_json_float(doc, "h"),
    )


def _cmd_reduce(args) -> int:
    from wsptools.reductions import mvnp_to_hwsp, mvnp_to_wsp, mvnp_to_wwsp

    mvnp = _load_mvnp(args.input)
    if args.target_kind == "wsp":
        instance, budget = mvnp_to_wsp(mvnp)
        save_instance(instance, args.output)
        print(f"decision budget: {budget}", file=sys.stderr)
        return EXIT_OK
    if args.target_kind == "wwsp":
        instance, budget = mvnp_to_wwsp(mvnp)
        doc = {
            "kind": "wwsp",
            "vertex_count": instance.graph.vertex_count,
            "arcs": [[u, v, t] for u, v, t in sorted(instance.graph.arcs)],
            "weights": list(instance.weights),
            "ignition": instance.ignition,
            "k": instance.k,
            "forbidden": sorted(instance.forbidden),
            "delay_min": instance.delay,
            "horizon_min": instance.horizon,
            "decision_budget": budget,
        }
    else:
        instance, threshold = mvnp_to_hwsp(mvnp)
        doc = {
            "kind": "hwsp",
            "vertex_count": instance.graph.vertex_count,
            "arcs": [[u, v, t] for u, v, t in sorted(instance.graph.arcs)],
            "ignition": instance.ignition,
            "targets": sorted(instance.targets),
            "k": instance.k,
            "vertex_delays_min": list(instance.vertex_delays),
            "decision_threshold": threshold,
        }
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return EXIT_OK


def _cmd_verify_reductions(args) -> int:
    from wsptools.testkit import random_mvnp_instance
    from wsptools.reductions import verify_reductions

    import numpy as np

    rng = np.random.default_rng(args.seed)
    failures = 0
    for i in range(args.samples):
        mvnp = random_mvnp_instance(rng, max_vertices=args.max_vertices)
        answers = verify_reductions(mvnp)
        if not answers["agree"]:
            failures += 1
            print(f"sample {i}: DISAGREE {answers}", file=sys.stderr)
    print(
        json.dumps(
            {"samples": args.samples, "failures": failures, "pass": failures == 0},
            indent=1,
            sort_keys=True,
        )
    )
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


def _load_plan(path) -> dict:
    """The bench plan object: lists of instance paths, algorithm names and
    integer seeds, and an optional positive time limit in seconds."""
    from wsptools.benchlab import ALGORITHMS

    plan = _load_json_object(path, "plan")
    for key, valid, expected in [
        ("instances", lambda v: isinstance(v, str), "instance file paths"),
        ("algorithms", lambda v: v in ALGORITHMS, f"names among {ALGORITHMS}"),
        ("seeds", lambda v: type(v) is int, "integers"),
    ]:
        values = _json_list(plan, key)
        bad = [v for v in values if not valid(v)]
        if bad:
            raise StructuralError(f"plan {key} must be {expected}, got {bad[0]!r}")
    limit = plan.get("time_limit")
    if limit is not None and not (
        type(limit) in (int, float) and math.isfinite(limit) and limit > 0
    ):
        raise StructuralError(f"plan time_limit must be a positive number, got {limit!r}")
    return plan


def _cmd_bench(args) -> int:
    from wsptools.benchlab import BenchCell, run_benchmark

    plan = _load_plan(args.plan)
    cells = []
    for path in plan["instances"]:
        for algo in plan["algorithms"]:
            for seed in plan["seeds"]:
                cells.append(
                    BenchCell(
                        instance_path=path,
                        instance_id=path,
                        algorithm=algo,
                        seed=seed,
                        time_limit=plan.get("time_limit"),
                    )
                )
    records = run_benchmark(cells, args.out)
    print(f"ran {len(records)} cells", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    import csv as _csv

    from wsptools.benchlab import (
        performance_profiles,
        read_records,
        records_to_blocks,
        sm_scores,
    )

    records = read_records(args.records)
    curves = performance_profiles(records)
    with open(args.profiles, "w", newline="") as f:
        writer = _csv.writer(f)
        writer.writerow(["algorithm", "tau", "fraction"])
        for curve in curves:
            for tau, p in curve.breakpoints:
                writer.writerow([curve.algorithm, tau, p])

    blocks = records_to_blocks(records)
    scores, significant = sm_scores(blocks, delta=args.delta)
    with open(args.sm, "w", newline="") as f:
        writer = _csv.writer(f)
        writer.writerow(["treatment", "score"])
        for t in sorted(scores):
            writer.writerow([t, scores[t]])
    print(
        json.dumps(
            {"significant_pairs": [list(p) for p in significant], "delta": args.delta},
            indent=1,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_physics(args) -> int:
    from wsptools.rothermel import (
        DomainError,
        albini_multiplier,
        rate_of_spread,
        slope_factor,
        wind_factor,
    )

    u, a = args.wind_speed, args.slope_tangent
    for flag, value in (("--wind-speed", u), ("--slope-tangent", a),
                        ("--base-rate", args.base_rate)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value}")
    overflow = DomainError("physics eval overflows for these inputs")
    try:
        result = {
            "slope_factor": slope_factor(abs(a)),
            "wind_factor": wind_factor(abs(u)),
            "multiplier": albini_multiplier(u, a),
            "rate_of_spread_ft_min": rate_of_spread(args.base_rate, u, a),
        }
    except OverflowError:
        raise overflow from None
    if not all(map(math.isfinite, result.values())):  # Infinity is not JSON
        raise overflow
    print(json.dumps(result, indent=1, sort_keys=True))
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "export-mip": _cmd_export_mip,
    "reduce": _cmd_reduce,
    "verify-reductions": _cmd_verify_reductions,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "physics": _cmd_physics,
}


def dispatch(argv) -> int:
    from wsptools.generator import GenerationError
    from wsptools.rothermel import DomainError
    from wsptools.solvers import LimitExceeded

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except LimitExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except (StructuralError, DomainError, GenerationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
