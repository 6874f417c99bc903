"""Solver-independent linear models and LP/MPS text export.

Three model builders are provided: the arrival-time suppression model
with timed releases, a simplified fuel-treatment model (single target or
multi-target), and a weighted-loss model with safety-forbidden vertices.
Models are plain data (variables, constraints, objective) and can be
written as LP or MPS text accepted by standard optimizers.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field

from wsptools.core import (
    Allocation,
    DirectedGraph,
    StructuralError,
    WspInstance,
    check_feasibility,
    compute_arrival_times,
)

CONTINUOUS = "continuous"
BINARY = "binary"

LE, EQ, GE = "<=", "=", ">="
MIN, MAX = "min", "max"

FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lower: float = 0.0
    upper: float = math.inf


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]  # (coefficient, variable name)
    sense: str
    rhs: float


@dataclass
class LinearModel:
    name: str
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective_sense: str = MIN
    objective_terms: tuple[tuple[float, str], ...] = ()
    meta: dict = field(default_factory=dict)

    def add_variable(self, name, kind, lower=0.0, upper=math.inf) -> str:
        # uniqueness is checked once per model by validate(), which every
        # builder and export_model run
        self.variables.append(Variable(name, kind, lower, upper))
        return name

    def add_constraint(self, name, terms, sense, rhs) -> None:
        self.constraints.append(Constraint(name, tuple(terms), sense, rhs))

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise StructuralError("variable names not unique")
        declared = set(names)
        for c in self.constraints:
            for _, var in c.terms:
                if var not in declared:
                    raise StructuralError(f"constraint {c.name} references unknown variable {var}")
        for _, var in self.objective_terms:
            if var not in declared:
                raise StructuralError(f"objective references unknown variable {var}")


def _vname(prefix: str, *indices: int) -> str:
    return prefix + "_" + "_".join(f"{i:04d}" for i in indices)


def _names(prefix: str, count: int, *outer: int) -> list[str]:
    """[_vname(prefix, *outer, v) for v in range(count)], each name built once."""
    head = prefix + "_" + "".join(f"{i:04d}_" for i in outer)
    return [f"{head}{v:04d}" for v in range(count)]


def _declare(model: LinearModel, names: list[str], kind: str, lower: float, upper: float):
    for name in names:
        model.add_variable(name, kind, lower, upper)
    return names


def _finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise StructuralError(f"{name} must be a finite number, got {value!r}")


def _per_vertex(name: str, values, n: int) -> list:
    """values as a list of n finite numbers; StructuralError otherwise."""
    try:
        values = list(values)
    except TypeError:
        raise StructuralError(f"{name} must be a list of numbers, got {values!r}") from None
    if len(values) != n:
        raise StructuralError(f"{name} must have one entry per vertex ({n}), got {len(values)}")
    for value in values:
        _finite(name, value)
    return values


def _add_propagation_rows(model, graph, ignition, a, tail_terms, rhs=None) -> None:
    """Ignition row a_s = 0, then per arc (u, v) in sorted order the spread
    row a_v - a_u + tail_terms[u] <= rhs[u] (the travel time when rhs is None)."""
    if not 0 <= ignition < len(a):
        raise StructuralError(f"ignition vertex {ignition} out of range")
    model.add_constraint("ignition", [(1.0, a[ignition])], EQ, 0.0)
    for u, v, t in sorted(graph.arcs):
        model.add_constraint(
            _vname("spread", u, v),
            [(1.0, a[v]), (-1.0, a[u]), *tail_terms[u]],
            LE,
            t if rhs is None else rhs[u],
        )


def _add_burn_rows(model, a, y, horizon: float) -> None:
    """y_v + a_v / H >= 1: a vertex reached before the horizon burns."""
    inverse = 1.0 / horizon
    for name, yv, av in zip(_names("burn", len(a)), y, a):
        model.add_constraint(name, [(1.0, yv), (inverse, av)], GE, 1.0)


def _add_sum_row(model, name: str, names, bound) -> None:
    model.add_constraint(name, [(1.0, x) for x in names], LE, float(bound))


def build_wsp_model(instance: WspInstance) -> LinearModel:
    """Timed-release suppression model.

    min sum y_v subject to: ignition arrival fixed at zero; per-arc
    propagation bounds with the delay activated by protection of the
    tail; per-release-point capacity; at most one resource per vertex;
    availability (a_v >= t_i when protected at point i); and the burn
    indicator y_v >= 1 - a_v/H.
    """
    if instance.horizon <= 0:
        raise StructuralError("horizon must be positive")
    n = instance.graph.vertex_count
    schedule = instance.schedule
    T = len(schedule)
    horizon, delay = instance.horizon, instance.delay
    max_arc = max((t for _, _, t in instance.graph.arcs), default=0.0)
    a_upper = horizon + delay + max_arc

    model = LinearModel(name="wsp")
    model.meta["a_upper_bound"] = a_upper
    a = _declare(model, _names("a", n), CONTINUOUS, 0.0, a_upper)
    y = _declare(model, _names("y", n), BINARY, 0.0, 1.0)
    r = [_declare(model, _names("r", n, i), BINARY, 0.0, 1.0) for i in range(T)]

    model.objective_sense = MIN
    model.objective_terms = tuple((1.0, name) for name in y)

    delay_terms = [[(-delay, r[i][u]) for i in range(T)] for u in range(n)]
    _add_propagation_rows(model, instance.graph, instance.ignition, a, delay_terms)
    for i, (_, count) in enumerate(schedule):
        _add_sum_row(model, _vname("capacity", i), r[i], count)
    for name, column in zip(_names("single", n), zip(*r)):
        _add_sum_row(model, name, column, 1.0)
    for i, (release_time, _) in enumerate(schedule):
        # a_v - t_i * r_iv >= 0, linear as written since t_i <= H
        for name, av, rv in zip(_names("avail", n, i), a, r[i]):
            model.add_constraint(name, [(1.0, av), (-release_time, rv)], GE, 0.0)
    _add_burn_rows(model, a, y, horizon)
    model.validate()
    return model


def build_hof_model(
    graph: DirectedGraph,
    ignition: int,
    targets,
    alpha,
    beta,
    k: float,
    integral: bool = False,
) -> LinearModel:
    """Fuel-treatment model: maximize the earliest arrival at the targets.

    Per arc (u, v): a_v <= a_u + alpha_u * r_u + beta_u with fractional
    treatment r_u in [0, 1] (binary when integral) and total budget k.
    With several targets, an auxiliary variable bounded above by each
    target arrival is maximized.
    """
    targets = list(targets)
    if not targets:
        raise StructuralError("at least one target vertex required")
    n = graph.vertex_count
    for t in targets:
        if isinstance(t, bool) or not isinstance(t, numbers.Integral) or not 0 <= t < n:
            raise StructuralError(f"target {t!r} is not a vertex id in [0, {n})")
    alpha = _per_vertex("alpha", alpha, n)
    beta = _per_vertex("beta", beta, n)
    _finite("k", k)
    model = LinearModel(name="hof")
    a = _declare(model, _names("a", n), CONTINUOUS, 0.0, math.inf)
    r = _declare(model, _names("r", n), BINARY if integral else CONTINUOUS, 0.0, 1.0)

    model.objective_sense = MAX
    if len(targets) == 1:
        model.objective_terms = ((1.0, a[targets[0]]),)
    else:
        model.add_variable("earliest", CONTINUOUS, 0.0, math.inf)
        # bounded above by every target arrival so the maximum equals the
        # earliest target arrival
        for t in sorted(targets):
            model.add_constraint(
                _vname("earliest", t), [(1.0, "earliest"), (-1.0, a[t])], LE, 0.0
            )
        model.objective_terms = ((1.0, "earliest"),)

    treatment_terms = [[(-float(alpha[u]), r[u])] for u in range(n)]
    _add_propagation_rows(
        model, graph, ignition, a, treatment_terms, [float(b) for b in beta]
    )
    _add_sum_row(model, "budget", r, k)
    model.validate()
    return model


def build_wei_model(
    graph: DirectedGraph,
    ignition: int,
    horizon: float,
    delay: float,
    weights,
    flame_lengths,
    flame_threshold: float,
    k: int,
) -> LinearModel:
    """Weighted-loss model with release-free resources and safety limits.

    min sum w_v y_v with single-indexed binary protection variables, a
    total budget k, and r_v fixed to zero wherever the predicted flame
    length exceeds the threshold.
    """
    if horizon <= 0:
        raise StructuralError("horizon must be positive")
    n = graph.vertex_count
    weights = _per_vertex("weights", weights, n)
    flame_lengths = _per_vertex("flame_lengths", flame_lengths, n)
    _finite("flame_threshold", flame_threshold)
    _finite("k", k)
    unsafe = [flame > flame_threshold for flame in flame_lengths]
    model = LinearModel(name="wei")
    a = _declare(model, _names("a", n), CONTINUOUS, 0.0, math.inf)
    y = _declare(model, _names("y", n), BINARY, 0.0, 1.0)
    r = _names("r", n)
    for name, fixed in zip(r, unsafe):
        model.add_variable(name, BINARY, 0.0, 0.0 if fixed else 1.0)

    model.objective_sense = MIN
    model.objective_terms = tuple((float(w), name) for w, name in zip(weights, y))

    _add_propagation_rows(model, graph, ignition, a, [[(-delay, name)] for name in r])
    _add_burn_rows(model, a, y, horizon)
    _add_sum_row(model, "budget", r, k)
    for v in range(n):
        if unsafe[v]:
            model.add_constraint(_vname("safety", v), [(1.0, r[v])], EQ, 0.0)
    model.validate()
    return model


def allocation_to_assignment(instance: WspInstance, alloc: Allocation) -> dict[str, float]:
    """Variable assignment induced by a feasible allocation.

    r_iv follows the allocation, a_v the computed arrival times (clamped
    to the variable upper bound for unreachable vertices), and y_v marks
    arrival before the horizon.
    """
    violations = check_feasibility(instance, alloc)
    if violations:
        raise StructuralError(f"allocation infeasible: {violations[0].reason}")
    n = instance.graph.vertex_count
    T = len(instance.schedule)
    outcome = compute_arrival_times(instance, alloc)
    max_arc = max((t for _, _, t in instance.graph.arcs), default=0.0)
    a_upper = instance.horizon + instance.delay + max_arc

    assignment: dict[str, float] = {}
    for v in range(n):
        a = outcome.arrival[v]
        assignment[_vname("a", v)] = min(a, a_upper)
        assignment[_vname("y", v)] = 1.0 if a < instance.horizon else 0.0
    for i in range(T):
        for v in range(n):
            assignment[_vname("r", i, v)] = 0.0
    for resource, vertex in alloc.assignments:
        point = instance.release_point_of(resource)
        assignment[_vname("r", point, vertex)] = 1.0
    return assignment


def validate_assignment(
    model: LinearModel, assignment: dict[str, float], tol: float = FEASIBILITY_TOL
) -> list[tuple[str, float]]:
    """Violated constraints with residuals; empty iff feasible within tol.

    The residual is the amount by which the constraint is violated
    (always positive for reported entries).  Variable bounds are checked
    as pseudo-constraints named bound:<var>.
    """
    missing = [v.name for v in model.variables if v.name not in assignment]
    if missing:
        raise StructuralError(f"assignment missing variables: {missing[:5]}")
    violated: list[tuple[str, float]] = []
    for v in model.variables:
        x = assignment[v.name]
        if x < v.lower - tol:
            violated.append((f"bound:{v.name}", v.lower - x))
        elif x > v.upper + tol:
            violated.append((f"bound:{v.name}", x - v.upper))
    for c in model.constraints:
        value = math.fsum(coef * assignment[var] for coef, var in c.terms)
        if c.sense == LE:
            residual = value - c.rhs
        elif c.sense == GE:
            residual = c.rhs - value
        else:
            residual = abs(value - c.rhs)
        if residual > tol:
            violated.append((c.name, residual))
    return violated


def evaluate_objective(model: LinearModel, assignment: dict[str, float]) -> float:
    return math.fsum(coef * assignment[var] for coef, var in model.objective_terms)


# ---------------------------------------------------------------------------
# Export

_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _sanitize(name: str, owners: dict[str, str], claim: bool = True) -> str:
    """LP/MPS-safe form of name. With claim, name becomes the owner of its
    clean form; without, it is only checked against the current owners."""
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "n" + clean
    if not clean:
        raise StructuralError(f"name {name!r} empty after sanitation")
    owner = owners.setdefault(clean, name) if claim else owners.get(clean, name)
    if owner != name:
        raise StructuralError(f"name collision after sanitation: {name!r} vs {owner!r}")
    return clean


def _export_names(model: LinearModel) -> tuple[dict[str, str], dict[str, str]]:
    """Sanitized variable and constraint names. Variables may not collide
    with each other; a constraint may not take the clean name of a variable
    other than its namesake (constraints are not checked against each other)."""
    owners: dict[str, str] = {}
    names = {v.name: _sanitize(v.name, owners) for v in model.variables}
    cnames = {c.name: _sanitize(c.name, owners, claim=False) for c in model.constraints}
    return names, cnames


def _num(x: float) -> str:
    return repr(float(x))


def export_model(model: LinearModel, format: str = "lp") -> str:
    """Deterministic LP or MPS interchange text for the model."""
    model.validate()
    if format == "lp":
        return _export_lp(model)
    if format == "mps":
        return _export_mps(model)
    raise ValueError(f"unknown export format {format!r}")


def _terms_lp(terms) -> str:
    parts = []
    for coef, var in terms:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_num(abs(coef))} {var}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _export_lp(model: LinearModel) -> str:
    names, cnames = _export_names(model)

    lines = []
    lines.append("\\ " + model.name)
    lines.append("Minimize" if model.objective_sense == MIN else "Maximize")
    obj = _terms_lp([(c, names[v]) for c, v in model.objective_terms])
    lines.append(" obj: " + obj)
    lines.append("Subject To")
    for c in model.constraints:
        body = _terms_lp([(coef, names[v]) for coef, v in c.terms])
        lines.append(f" {cnames[c.name]}: {body} {c.sense} {_num(c.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == BINARY and v.lower == 0.0 and v.upper == 1.0:
            continue
        lo = "-inf" if v.lower == -math.inf else _num(v.lower)
        hi = "+inf" if v.upper == math.inf else _num(v.upper)
        lines.append(f" {lo} <= {names[v.name]} <= {hi}")
    binaries = [names[v.name] for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(" " + name)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _export_mps(model: LinearModel) -> str:
    names, cnames = _export_names(model)
    sense_row = {LE: "L", EQ: "E", GE: "G"}

    lines = [f"NAME {model.name}"]
    if model.objective_sense == MAX:
        lines.append("OBJSENSE")
        lines.append(" MAX")
    lines.append("ROWS")
    lines.append(" N obj")
    for c in model.constraints:
        lines.append(f" {sense_row[c.sense]} {cnames[c.name]}")

    # column-major coefficients, in variable declaration order
    by_var: dict[str, list[tuple[str, float]]] = {v.name: [] for v in model.variables}
    for coef, var in model.objective_terms:
        by_var[var].append(("obj", coef))
    for c in model.constraints:
        for coef, var in c.terms:
            by_var[var].append((cnames[c.name], coef))

    lines.append("COLUMNS")
    marker = 0
    in_integer = False
    for v in model.variables:
        is_int = v.kind == BINARY
        if is_int and not in_integer:
            lines.append(f" MARKER{marker} 'MARKER' 'INTORG'")
            marker += 1
            in_integer = True
        elif not is_int and in_integer:
            lines.append(f" MARKER{marker} 'MARKER' 'INTEND'")
            marker += 1
            in_integer = False
        for row, coef in by_var[v.name]:
            lines.append(f" {names[v.name]} {row} {_num(coef)}")
    if in_integer:
        lines.append(f" MARKER{marker} 'MARKER' 'INTEND'")

    lines.append("RHS")
    for c in model.constraints:
        if c.rhs != 0.0:
            lines.append(f" RHS {cnames[c.name]} {_num(c.rhs)}")

    lines.append("BOUNDS")
    for v in model.variables:
        name = names[v.name]
        if v.kind == BINARY:
            if v.upper == 0.0:
                lines.append(f" FX BND {name} 0.0")
            else:
                lines.append(f" BV BND {name}")
            continue
        if v.lower != 0.0:
            lines.append(f" LO BND {name} {_num(v.lower)}")
        if v.upper != math.inf:
            lines.append(f" UP BND {name} {_num(v.upper)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
