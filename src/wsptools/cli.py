"""Single command-line entry point for the toolkit.

Exit codes: 0 success, 1 usage error, 2 domain or validation error,
3 resource-limit refusal.  Diagnostics go to stderr; data goes to files
or stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, fields

from wsptools import INSTANCE_FORMAT_VERSION, __version__
from wsptools.core import (
    StructuralError,
    _graph_json,
    _json_float,
    _json_graph,
    _json_int,
    _json_list,
    check_feasibility,
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" or "-inf" as an option unless its negative-number
        # pattern, which lacks exponents and non-finite words, matches it
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|(?i:inf|infinity|nan))$"
        )

    def _parse_optional(self, arg_string):
        # argparse tries option prefixes before this pattern, and would read
        # "-inf" as "-i nf" in a parser with a -i option
        if self._negative_number_matcher.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    from wsptools import generator as gen
    from wsptools.benchlab import SM_DELTA_45_INSTANCES
    from wsptools.solvers import SOLVERS, SolverBudget

    parser = _Parser(prog="wsptools", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"wsptools {__version__} (instance format v{INSTANCE_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # generate's choices are the generator's level tables; each flag but
    # --grid/--grid-side sets the GeneratorConfig field named by its dest and
    # takes that field's default; "medium" is the level of GeneratorConfig.n
    config = gen.GeneratorConfig
    p = sub.add_parser("generate", help="generate a grid instance")
    p.add_argument("--seed", type=int, default=config.seed, help="generator seed")
    p.add_argument("--grid", default="medium", choices=list(gen.GRID_LEVELS),
                   help="grid side: 20/30/40/80 cells")
    p.add_argument("--grid-side", type=int, default=None,
                   help="explicit grid side, overrides --grid (flagged in meta)")
    p.add_argument("--wind", dest="wind_level", default=config.wind_level,
                   choices=list(gen.WIND_LEVELS), help="midflame wind-speed interval (ft/min)")
    p.add_argument("--wind-direction", type=float, default=config.wind_direction,
                   help="predominant wind direction (radians, 0 = +x)")
    p.add_argument("--slope", dest="slope_level", default=config.slope_level,
                   choices=list(gen.SLOPE_LEVELS), help="terrain steepness (max elevation in ft)")
    p.add_argument("--delay", dest="delay_level", default=config.delay_level,
                   choices=list(gen.DELAY_LEVELS),
                   help="suppression delay relative to the horizon (minutes)")
    p.add_argument("--resources", dest="resources_level", default=config.resources_level,
                   choices=list(gen.RESOURCE_LEVELS),
                   help="resource count relative to the grid side")
    p.add_argument("--decisions", dest="decision_points", type=int,
                   default=config.decision_points, help="number of release points")
    p.add_argument("--first-release", default=config.first_release,
                   choices=list(gen.FIRST_RELEASE_LEVELS), help="first release burn percentile")
    p.add_argument("--last-release", default=config.last_release,
                   choices=list(gen.LAST_RELEASE_LEVELS), help="last release burn percentile")
    p.add_argument("--extent", dest="landscape_extent", type=float,
                   default=config.landscape_extent, help="landscape extent (ft)")
    p.add_argument("-o", "--output", required=True, help="output instance file (JSON)")

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--algo", required=True, choices=list(SOLVERS))
    p.add_argument("--seed", type=int, default=0)
    # each bound flag sets the SolverBudget field named by its dest
    p.add_argument("--time-limit", dest="max_seconds", type=float, default=None,
                   help="random-search limit (seconds)")
    p.add_argument("--iterations", dest="max_iterations", type=int, default=None,
                   help="random-search limit (iterations)")
    p.add_argument("--beam-width", type=int, default=SolverBudget.beam_width)
    p.add_argument("--expansions", type=int, default=SolverBudget.expansions,
                   help="child combinations per beam node")
    p.add_argument("--max-nodes", type=int, default=SolverBudget.max_nodes,
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
    p.add_argument("--delta", type=float, default=SM_DELTA_45_INSTANCES,
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
        n=n, **{f.name: getattr(args, f.name) for f in fields(GeneratorConfig) if f.name != "n"}
    )
    instance = generate_instance(config)
    save_instance(instance, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _budget(args):
    from wsptools.solvers import SolverBudget

    return SolverBudget(**{f.name: getattr(args, f.name) for f in fields(SolverBudget)})


def _cmd_solve(args) -> int:
    from wsptools.solvers import SOLVERS

    instance = load_instance(args.input)
    result = SOLVERS[args.algo](instance, _budget(args), args.seed)
    with open(args.output, "w") as f:
        f.write(solution_to_json(args.input, result.allocation, result.objective))
    print(f"objective {result.objective}", file=sys.stderr)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    instance = load_instance(args.input)
    with open(args.solution) as f:
        _, alloc, _ = solution_from_json(f.read())
    violations = check_feasibility(instance, alloc)
    # no fire is scored for a vertex outside the graph; a violation says why
    scored = all(0 <= v < instance.graph.vertex_count for v in alloc.protected)
    report = {
        "objective": objective(instance, alloc) if scored else None,
        "feasible": not violations,
        "violations": [asdict(v) for v in violations],
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK


def _load_json_object(path, what: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise StructuralError(f"{what} file {path} must hold a JSON object")
    return doc


def _load_keywords(path, what: str, required, optional=()) -> dict:
    """A JSON object whose keys are a function's parameter names: every
    required key must be there and no key beyond optional."""
    doc = _load_json_object(path, what)
    missing = [key for key in required if key not in doc]
    if missing:
        raise StructuralError(f"{what} file {path} lacks {', '.join(missing)}")
    unknown = sorted(set(doc) - {*required, *optional})
    if unknown:
        raise StructuralError(f"{what} file {path} has unknown keys {', '.join(unknown)}")
    return doc


def _cmd_export_mip(args) -> int:
    from wsptools.mip import build_hof_model, build_wei_model, build_wsp_model, export_model

    instance = load_instance(args.input)
    if args.model == "wsp":
        model = build_wsp_model(instance)
    elif args.aux is None:
        raise StructuralError("--aux file required for this model")
    elif args.model == "hof":
        aux = _load_keywords(args.aux, "aux", ("targets", "alpha", "beta", "k"), ("integral",))
        model = build_hof_model(graph=instance.graph, ignition=instance.ignition, **aux)
    else:
        aux = _load_keywords(args.aux, "aux", ("weights", "flame_lengths", "flame_threshold", "k"))
        model = build_wei_model(graph=instance.graph, ignition=instance.ignition,
                                horizon=instance.horizon, delay=instance.delay, **aux)
    text = export_model(model, args.format)
    with open(args.output, "w") as f:
        f.write(text)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _load_mvnp(path):
    from wsptools.reductions import MvnpInstance

    doc = _load_json_object(path, "interdiction instance")
    return MvnpInstance(
        graph=_json_graph(doc),
        source=_json_int(doc, "source"),
        sink=_json_int(doc, "sink"),
        k=_json_int(doc, "k"),
        h=_json_float(doc, "h"),
    )


# Unit suffixes of the reduced-instance fields whose document keys carry one
REDUCED_UNITS = {"delay": "_min", "horizon": "_min", "vertex_delays": "_min"}


def _cmd_reduce(args) -> int:
    from wsptools.reductions import mvnp_to_hwsp, mvnp_to_wsp, mvnp_to_wwsp

    mvnp = _load_mvnp(args.input)
    if args.target_kind == "wsp":
        instance, budget = mvnp_to_wsp(mvnp)
        save_instance(instance, args.output)
        print(f"decision budget: {budget}", file=sys.stderr)
        return EXIT_OK
    if args.target_kind == "wwsp":
        (instance, decision), key = mvnp_to_wwsp(mvnp), "decision_budget"
    else:
        (instance, decision), key = mvnp_to_hwsp(mvnp), "decision_threshold"
    # the reduced instance's fields but the graph, which _graph_json writes;
    # a set is written as a sorted list
    doc = {f.name + REDUCED_UNITS.get(f.name, ""): getattr(instance, f.name)
           for f in fields(instance) if f.name != "graph"}
    doc.update({name: sorted(v) for name, v in doc.items() if isinstance(v, frozenset)},
               kind=args.target_kind, **{key: decision})
    with open(args.output, "w") as f:
        f.write(_graph_json(doc, instance.graph))
    return EXIT_OK


def _cmd_verify_reductions(args) -> int:
    from wsptools.testkit import random_mvnp_instance
    from wsptools.reductions import verify_reductions

    import numpy as np

    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
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
    """The bench plan object: run_benchmark's arguments but out_path, by name;
    time_limit may be left out, or else is a positive number of seconds."""
    from wsptools.solvers import SOLVERS

    names = tuple(SOLVERS)
    plan = _load_keywords(path, "plan", (), ("instances", "algorithms", "seeds", "time_limit"))
    for key, valid, expected in [
        ("instances", lambda v: isinstance(v, str), "instance file paths"),
        ("algorithms", lambda v: v in names, f"names among {names}"),
        ("seeds", lambda v: type(v) is int, "integers"),
    ]:
        values = _json_list(plan, key)
        bad = [v for v in values if not valid(v)]
        if bad:
            raise StructuralError(f"plan {key} must be {expected}, got {bad[0]!r}")
    limit = plan.setdefault("time_limit", None)
    if limit is not None and not (
        type(limit) in (int, float) and math.isfinite(limit) and limit > 0
    ):
        raise StructuralError(f"plan time_limit must be a positive number, got {limit!r}")
    return plan


def _cmd_bench(args) -> int:
    from wsptools.benchlab import run_benchmark

    records = run_benchmark(**_load_plan(args.plan), out_path=args.out)
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

    if not (math.isfinite(args.delta) and args.delta >= 0):
        raise ValueError(f"--delta must be a finite number at least 0, got {args.delta}")
    records = read_records(args.records)
    curves = performance_profiles(records)
    # a limit or error replication ranks below every ok objective in its block
    scores, significant = sm_scores(records_to_blocks(records, math.inf), delta=args.delta)
    with open(args.profiles, "w", newline="") as f:
        writer = _csv.writer(f)
        writer.writerow(["algorithm", "tau", "fraction"])
        for curve in curves:
            for tau, p in curve.breakpoints:
                writer.writerow([curve.algorithm, tau, p])
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def dispatch(argv) -> int:
    """Run one command and return its exit code. The parser is built once per
    process, so the subcommand tables (solvers.SOLVERS, the generator's level
    tables) are read once per process, when the first command is parsed."""
    from wsptools.generator import GenerationError
    from wsptools.solvers import LimitExceeded

    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except LimitExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, GenerationError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
