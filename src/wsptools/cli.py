"""Single command-line entry point for the toolkit.

Exit codes: 0 success, 1 usage error, 2 domain or validation error (a
ValueError) or a path that cannot be opened (an OSError), 3 resource-limit
refusal.  Diagnostics go to stderr; data goes to files or stdout.  A
failed command leaves no output file but bench's appended records.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields

import numpy as np

# package modules are reached through their module, so a wrapper or test
# double set on it is seen; benchlab, mip, reductions and testkit are imported
# by the commands that use them, so neither `import wsptools.cli` nor the parser
# pays for them (python 3.11 -X importtime on a 2-core Xeon VM: benchlab 9-13 ms,
# the other three 15-23 ms together)
from wsptools import INSTANCE_FORMAT_VERSION, __version__, core, generator, rothermel, solvers

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
    config = generator.GeneratorConfig
    p = sub.add_parser("generate", help="generate a grid instance")
    p.add_argument("--seed", type=int, default=config.seed, help="generator seed")
    p.add_argument("--grid", default="medium", choices=list(generator.GRID_LEVELS),
                   help="grid side: 20/30/40/80 cells")
    p.add_argument("--grid-side", type=int, default=None,
                   help="explicit grid side, overrides --grid (flagged in meta)")
    p.add_argument("--wind", dest="wind_level", default=config.wind_level,
                   choices=list(generator.WIND_LEVELS),
                   help="midflame wind-speed interval (ft/min)")
    p.add_argument("--wind-direction", type=float, default=config.wind_direction,
                   help="predominant wind direction (radians, 0 = +x)")
    p.add_argument("--slope", dest="slope_level", default=config.slope_level,
                   choices=list(generator.SLOPE_LEVELS),
                   help="terrain steepness (max elevation in ft)")
    p.add_argument("--delay", dest="delay_level", default=config.delay_level,
                   choices=list(generator.DELAY_LEVELS),
                   help="suppression delay relative to the horizon (minutes)")
    p.add_argument("--resources", dest="resources_level", default=config.resources_level,
                   choices=list(generator.RESOURCE_LEVELS),
                   help="resource count relative to the grid side")
    p.add_argument("--decisions", dest="decision_points", type=int,
                   default=config.decision_points, help="number of release points")
    p.add_argument("--first-release", default=config.first_release,
                   choices=list(generator.FIRST_RELEASE_LEVELS),
                   help="first release burn percentile")
    p.add_argument("--last-release", default=config.last_release,
                   choices=list(generator.LAST_RELEASE_LEVELS), help="last release burn percentile")
    p.add_argument("--extent", dest="landscape_extent", type=float,
                   default=config.landscape_extent, help="landscape extent (ft)")
    p.add_argument("-o", "--output", required=True, help="output instance file (JSON)")

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--algo", required=True, choices=list(solvers.SOLVERS))
    p.add_argument("--seed", type=int, default=0)
    # each bound flag sets the SolverBudget field named by its dest
    p.add_argument("--time-limit", dest="max_seconds", type=float, default=None,
                   help="random-search limit (seconds)")
    p.add_argument("--iterations", dest="max_iterations", type=int, default=None,
                   help="random-search limit (iterations)")
    p.add_argument("--beam-width", type=int, default=solvers.SolverBudget.beam_width)
    p.add_argument("--expansions", type=int, default=solvers.SolverBudget.expansions,
                   help="child combinations per beam node")
    p.add_argument("--max-nodes", type=int, default=solvers.SolverBudget.max_nodes,
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
    p.add_argument("--delta", type=float, default=None,
                   help="pairwise rank-score significance threshold"
                        " (default: benchlab.SM_DELTA_45_INSTANCES, for 45 instances)")

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


@contextlib.contextmanager
def _output(path, newline=None, inputs=()):
    """path opened for writing, unless it is the regular file of one of the
    command's input paths.  If the body raises, the file is closed, a
    regular file at path removed (a device such as /dev/null is left
    alone) and the error re-raised."""
    if os.path.isfile(path) and any(i and os.path.samefile(path, i) for i in inputs):
        raise ValueError(f"output {path} is an input file")
    f = open(path, "w", newline=newline)
    try:
        with f:
            yield f
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def _cmd_generate(args) -> int:
    n = args.grid_side if args.grid_side is not None else generator.GRID_LEVELS[args.grid]
    config = generator.GeneratorConfig(n=n, **{
        f.name: getattr(args, f.name) for f in fields(generator.GeneratorConfig) if f.name != "n"
    })
    with _output(args.output) as f:
        f.write(core.instance_to_json(generator.generate_instance(config)))
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _budget(args):
    return solvers.SolverBudget(
        **{f.name: getattr(args, f.name) for f in fields(solvers.SolverBudget)}
    )


def _print_json(report: dict) -> None:
    """A command's report on stdout: sorted keys, one-space indent."""
    print(json.dumps(report, indent=1, sort_keys=True))


def _cmd_solve(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    instance, budget = core.load_instance(args.input), _budget(args)
    with _output(args.output, inputs=[args.input]) as f:
        result = solvers.SOLVERS[args.algo](instance, budget, args.seed)
        f.write(core.solution_to_json(args.input, result.allocation, result.objective))
    print(f"objective {result.objective}", file=sys.stderr)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    instance = core.load_instance(args.input)
    with open(args.solution) as f:
        _, alloc, _ = core.solution_from_json(f.read())
    violations = core.check_feasibility(instance, alloc)
    # no fire is scored for a vertex outside the graph; a violation says why
    scored = all(0 <= v < instance.graph.vertex_count for v in alloc.protected)
    _print_json({
        "objective": core.objective(instance, alloc) if scored else None,
        "feasible": not violations,
        "violations": [asdict(v) for v in violations],
    })
    return EXIT_OK


def _load_json_object(path, what: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise core.StructuralError(f"{what} file {path} must hold a JSON object")
    return doc


def _load_keywords(path, what: str, required, optional=()) -> dict:
    """A JSON object whose keys are a function's parameter names: every
    required key must be there and no key beyond optional."""
    doc = _load_json_object(path, what)
    missing = [key for key in required if key not in doc]
    if missing:
        raise core.StructuralError(f"{what} file {path} lacks {', '.join(missing)}")
    unknown = sorted(set(doc) - {*required, *optional})
    if unknown:
        raise core.StructuralError(f"{what} file {path} has unknown keys {', '.join(unknown)}")
    return doc


def _cmd_export_mip(args) -> int:
    from wsptools import mip

    instance = core.load_instance(args.input)
    if args.model == "wsp":
        build = functools.partial(mip.build_wsp_model, instance)
    elif args.aux is None:
        raise core.StructuralError("--aux file required for this model")
    elif args.model == "hof":
        aux = _load_keywords(args.aux, "aux", ("targets", "alpha", "beta", "k"), ("integral",))
        build = functools.partial(mip.build_hof_model, graph=instance.graph,
                                  ignition=instance.ignition, **aux)
    else:
        aux = _load_keywords(args.aux, "aux", ("weights", "flame_lengths", "flame_threshold", "k"))
        build = functools.partial(mip.build_wei_model, graph=instance.graph,
                                  ignition=instance.ignition, horizon=instance.horizon,
                                  delay=instance.delay, **aux)
    with _output(args.output, inputs=[args.input, args.aux]) as f:
        f.write(mip.export_model(build(), args.format))
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _load_mvnp(path):
    from wsptools import reductions

    doc = _load_json_object(path, "interdiction instance")
    return reductions.MvnpInstance(
        graph=core._json_graph(doc),
        source=core._json_int(doc, "source"),
        sink=core._json_int(doc, "sink"),
        k=core._json_int(doc, "k"),
        h=core._json_float(doc, "h"),
    )


# Unit suffixes of the reduced-instance fields whose document keys carry one
REDUCED_UNITS = {"delay": "_min", "horizon": "_min", "vertex_delays": "_min"}


def _cmd_reduce(args) -> int:
    from wsptools import reductions

    mvnp = _load_mvnp(args.input)
    with _output(args.output, inputs=[args.input]) as f:
        if args.target_kind == "wsp":
            instance, budget = reductions.mvnp_to_wsp(mvnp)
            f.write(core.instance_to_json(instance))
            print(f"decision budget: {budget}", file=sys.stderr)
            return EXIT_OK
        if args.target_kind == "wwsp":
            (instance, decision), key = reductions.mvnp_to_wwsp(mvnp), "decision_budget"
        else:
            (instance, decision), key = reductions.mvnp_to_hwsp(mvnp), "decision_threshold"
        # the reduced instance's fields but the graph, which _graph_json writes;
        # a set is written as a sorted list
        doc = {f.name + REDUCED_UNITS.get(f.name, ""): getattr(instance, f.name)
               for f in fields(instance) if f.name != "graph"}
        doc.update({name: sorted(v) for name, v in doc.items() if isinstance(v, frozenset)},
                   kind=args.target_kind, **{key: decision})
        f.write(core._graph_json(doc, instance.graph))
    return EXIT_OK


def _cmd_verify_reductions(args) -> int:
    from wsptools import reductions, testkit

    for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    rng = np.random.default_rng(args.seed)
    failures = 0
    for i in range(args.samples):
        mvnp = testkit.random_mvnp_instance(rng, max_vertices=args.max_vertices)
        answers = reductions.verify_reductions(mvnp)
        if not answers["agree"]:
            failures += 1
            print(f"sample {i}: DISAGREE {answers}", file=sys.stderr)
    _print_json({"samples": args.samples, "failures": failures, "pass": failures == 0})
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


def _load_plan(path) -> dict:
    """The bench plan object: run_benchmark's arguments but out_path, by name;
    time_limit may be left out, or else is a positive number of seconds."""
    names = tuple(solvers.SOLVERS)
    plan = _load_keywords(path, "plan", (), ("instances", "algorithms", "seeds", "time_limit"))
    for key, valid, expected in [
        ("instances", lambda v: isinstance(v, str), "instance file paths"),
        ("algorithms", lambda v: v in names, f"names among {names}"),
        ("seeds", lambda v: type(v) is int and v >= 0, "integers at least 0"),
    ]:
        values = core._json_list(plan, key)
        bad = [v for v in values if not valid(v)]
        if bad:
            raise core.StructuralError(f"plan {key} must be {expected}, got {bad[0]!r}")
    limit = plan.setdefault("time_limit", None)
    if limit is not None and not (math.isfinite(core._json_float(plan, "time_limit")) and limit > 0):
        raise core.StructuralError(f"plan time_limit must be a positive number, got {limit!r}")
    return plan


def _cmd_bench(args) -> int:
    from wsptools import benchlab

    records = benchlab.run_benchmark(**_load_plan(args.plan), out_path=args.out)
    print(f"ran {len(records)} cells", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    from wsptools import benchlab

    delta = benchlab.SM_DELTA_45_INSTANCES if args.delta is None else args.delta
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"--delta must be a finite number at least 0, got {delta}")
    # one regular file for both outputs would hold one over the other's bytes
    if os.path.realpath(args.profiles) == os.path.realpath(args.sm) and (
        os.path.isfile(args.sm) or not os.path.exists(args.sm)
    ):
        raise ValueError(f"--profiles and --sm name one file: {args.sm}")
    records = benchlab.read_records(args.records)
    curves = benchlab.performance_profiles(records)
    # a limit or error replication ranks below every ok objective in its block
    blocks = benchlab.records_to_blocks(records, math.inf)
    scores, significant = benchlab.sm_scores(blocks, delta=delta)
    with (_output(args.profiles, newline="", inputs=[args.records]) as profiles,
          _output(args.sm, newline="", inputs=[args.records]) as sm):
        writer = csv.writer(profiles)
        writer.writerow(["algorithm", "tau", "fraction"])
        writer.writerows([c.algorithm, tau, p] for c in curves for tau, p in c.breakpoints)
        writer = csv.writer(sm)
        writer.writerow(["treatment", "score"])
        writer.writerows([t, scores[t]] for t in sorted(scores))
    _print_json({"significant_pairs": [list(p) for p in significant], "delta": delta})
    return EXIT_OK


def _cmd_physics(args) -> int:
    u, a = args.wind_speed, args.slope_tangent
    for flag, value in (("--wind-speed", u), ("--slope-tangent", a),
                        ("--base-rate", args.base_rate)):
        if not math.isfinite(value):
            raise rothermel.DomainError(f"{flag} must be finite, got {value}")
    overflow = rothermel.DomainError("physics eval overflows for these inputs")
    try:
        result = {
            "slope_factor": rothermel.slope_factor(abs(a)),
            "wind_factor": rothermel.wind_factor(abs(u)),
            "multiplier": rothermel.albini_multiplier(u, a),
            "rate_of_spread_ft_min": rothermel.rate_of_spread(args.base_rate, u, a),
        }
    except OverflowError:
        raise overflow from None
    if not all(map(math.isfinite, result.values())):  # Infinity is not JSON
        raise overflow
    _print_json(result)
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    # a command's objects are freed by refcounting; the cyclic collector
    # would only re-scan the model or instance it holds while it runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _HANDLERS[args.command](args)
    except solvers.LimitExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError, OverflowError) as e:  # OverflowError: an int past float range
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
