"""Solver-independent linear models and LP/MPS text export.

Three model builders are provided: the arrival-time suppression model
with timed releases, a simplified fuel-treatment model (single target or
multi-target), and a weighted-loss model with safety-forbidden vertices.
Models are frozen plain data (variables, constraints, objective),
checked once when they are made, and can be written as LP or MPS text
accepted by standard optimizers.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from wsptools.core import DirectedGraph, StructuralError, WspInstance, _float

CONTINUOUS = "continuous"
BINARY = "binary"

LE, EQ, GE = "<=", "=", ">="
MIN, MAX = "min", "max"
_KINDS, _SENSES = frozenset({CONTINUOUS, BINARY}), frozenset({LE, EQ, GE})
_BINARY_BOUNDS = frozenset({(0.0, 1.0), (0.0, 0.0)})


class Variable(NamedTuple):
    name: str
    kind: str
    lower: float = 0.0
    upper: float = math.inf


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[float, str], ...]  # (coefficient, variable name)
    sense: str
    rhs: float


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_IDENTIFIER_LINES = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\n[A-Za-z_][A-Za-z0-9_]*)*")


def _all_identifiers(names: list) -> bool:
    """True when every name fully matches _IDENTIFIER: one match over the
    names joined by newlines, whose count shows a name holding one."""
    try:
        text = "\n".join(names)
    except TypeError:  # a name that is not a str
        return False
    return text.count("\n") == len(names) - 1 and _IDENTIFIER_LINES.fullmatch(text) is not None


@dataclass(frozen=True)
class LinearModel:
    """A linear model, checked once when it is made.

    Variable and constraint names are LP/MPS identifiers, exported as
    stored; variable names are unique, constraint names are unique and
    never the objective row's name "obj", and every constraint and
    objective term names a declared variable. The objective sense is MIN
    or MAX, each variable kind CONTINUOUS or BINARY, a binary's bounds
    (0, 1) or (0, 0), and each row sense LE, EQ or GE. StructuralError
    otherwise.
    """

    name: str
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    objective_sense: str
    objective_terms: tuple[tuple[float, str], ...]  # (coefficient, variable name)

    def __post_init__(self):
        for field_name in ("variables", "constraints", "objective_terms"):
            object.__setattr__(self, field_name, tuple(getattr(self, field_name)))
        names = [v.name for v in self.variables]
        declared = set(names)
        if len(declared) != len(names):
            raise StructuralError("variable names not unique")
        rows = [c.name for c in self.constraints]
        if not _all_identifiers(names + rows):  # find the first offender
            for name in itertools.chain(names, rows):
                if not (isinstance(name, str) and _IDENTIFIER.fullmatch(name)):
                    raise StructuralError(f"name {name!r} is not an LP/MPS identifier")
        if len(set(rows)) != len(rows) or "obj" in rows:
            raise StructuralError("constraint names must be unique and not obj, the objective row")
        referenced = itertools.chain(*(c.terms for c in self.constraints), self.objective_terms)
        if not declared.issuperset({var for _, var in referenced}):
            owners = [(f"constraint {c.name}", c.terms) for c in self.constraints]
            for owner, terms in [*owners, ("objective", self.objective_terms)]:
                for _, var in terms:  # find the first offender
                    if var not in declared:
                        raise StructuralError(f"{owner} references unknown variable {var}")
        if self.objective_sense not in (MIN, MAX):
            raise StructuralError(f"objective sense {self.objective_sense!r} is not min or max")
        for name, kind, lower, upper in self.variables:
            if kind not in _KINDS:
                raise StructuralError(f"variable {name} has kind {kind!r}, not continuous or binary")
            # the two binary bounds that LP and MPS both write: free (BV) and fixed at 0 (FX)
            if kind == BINARY and (lower, upper) not in _BINARY_BOUNDS:
                raise StructuralError(
                    f"binary variable {name} has bounds ({lower}, {upper}), not (0, 1) or (0, 0)"
                )
        if not _SENSES.issuperset({c.sense for c in self.constraints}):
            name, sense = next((c.name, c.sense) for c in self.constraints if c.sense not in _SENSES)
            raise StructuralError(f"constraint {name} has sense {sense!r}, not <=, = or >=")


def _vname(prefix: str, *indices: int) -> str:
    return prefix + "_" + "_".join(f"{i:04d}" for i in indices)


def _digits(n: int) -> list[str]:
    """The vertex ids' texts in _vname, made once per model build."""
    return [f"{v:04d}" for v in range(n)]


def _names(prefix: str, digits: list[str], *outer: int) -> list[str]:
    """[_vname(prefix, *outer, v) for v in range(n)], given digits = _digits(n)."""
    head = prefix + "_" + "".join(f"{i:04d}_" for i in outer)
    return [head + d for d in digits]


def _finite(name: str, value) -> None:
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(_float(value, name))):
        raise StructuralError(f"{name} must be a finite number, got {value!r}")


def _budget(k) -> None:
    """k bounds a sum of treatments r >= 0, so a negative k admits no point."""
    _finite("k", k)
    if k < 0:
        raise StructuralError(f"k must be nonnegative, got {k!r}")


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


def _propagation_rows(graph, ignition, a, digits, tail_terms, rhs=None) -> list[Constraint]:
    """Ignition row a_s = 0, then per arc (u, v) in the graph's order the spread
    row a_v - a_u + tail_terms[u] <= rhs[u] (the travel time when rhs is None)."""
    if not 0 <= ignition < len(a):
        raise StructuralError(f"ignition vertex {ignition} out of range")
    rows = [Constraint("ignition", ((1.0, a[ignition]),), EQ, 0.0)]
    for u, v, t in graph.arcs:
        terms = ((1.0, a[v]), (-1.0, a[u]), *tail_terms[u])
        name = f"spread_{digits[u]}_{digits[v]}"  # _vname("spread", u, v)
        rows.append(Constraint(name, terms, LE, t if rhs is None else rhs[u]))
    return rows


def _burn_rows(a, y, digits, horizon: float) -> list[Constraint]:
    """y_v + a_v / H >= 1 for a finite, positive H: a vertex reached before the horizon burns."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise StructuralError(f"horizon must be finite and positive, got {horizon}")
    inverse = 1.0 / horizon
    return [
        Constraint(name, ((1.0, yv), (inverse, av)), GE, 1.0)
        for name, yv, av in zip(_names("burn", digits), y, a)
    ]


def _sum_row(name: str, names, bound) -> Constraint:
    return Constraint(name, tuple((1.0, x) for x in names), LE, float(bound))


def _arrival_upper_bound(instance: WspInstance) -> float:
    """Upper bound of the wsp model's arrival variables a_v."""
    max_arc = max((t for _, _, t in instance.graph.arcs), default=0.0)
    return instance.horizon + instance.delay + max_arc


def build_wsp_model(instance: WspInstance) -> LinearModel:
    """Timed-release suppression model.

    min sum y_v subject to: ignition arrival fixed at zero; per-arc
    propagation bounds with the delay activated by protection of the
    tail; per-release-point capacity; at most one resource per vertex;
    availability (a_v >= t_i when protected at point i); and the burn
    indicator y_v >= 1 - a_v/H.
    """
    n = instance.graph.vertex_count
    schedule = instance.schedule
    T = len(schedule)
    horizon, delay = instance.horizon, instance.delay
    a_upper = _arrival_upper_bound(instance)

    digits = _digits(n)
    a, y = _names("a", digits), _names("y", digits)
    r = [_names("r", digits, i) for i in range(T)]
    variables = [Variable(name, CONTINUOUS, 0.0, a_upper) for name in a]
    variables += [Variable(name, BINARY, 0.0, 1.0) for name in itertools.chain(y, *r)]

    delay_terms = [[(-delay, r[i][u]) for i in range(T)] for u in range(n)]
    rows = _propagation_rows(instance.graph, instance.ignition, a, digits, delay_terms)
    rows += [_sum_row(_vname("capacity", i), r[i], count) for i, (_, count) in enumerate(schedule)]
    rows += [_sum_row(name, column, 1.0) for name, column in zip(_names("single", digits), zip(*r))]
    for i, (release_time, _) in enumerate(schedule):
        # a_v - t_i * r_iv >= 0, linear as written since t_i <= H
        for name, av, rv in zip(_names("avail", digits, i), a, r[i]):
            rows.append(Constraint(name, ((1.0, av), (-release_time, rv)), GE, 0.0))
    rows += _burn_rows(a, y, digits, horizon)
    return LinearModel("wsp", variables, rows, MIN, tuple((1.0, name) for name in y))


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
    if len(set(targets)) < len(targets):
        raise StructuralError(f"target {max(targets, key=targets.count)} is listed twice")
    alpha = _per_vertex("alpha", alpha, n)
    beta = _per_vertex("beta", beta, n)
    _budget(k)
    if not isinstance(integral, bool):
        raise StructuralError(f"integral must be true or false, got {integral!r}")
    digits = _digits(n)
    a, r = _names("a", digits), _names("r", digits)
    variables = [Variable(name, CONTINUOUS) for name in a]
    variables += [Variable(name, BINARY if integral else CONTINUOUS, 0.0, 1.0) for name in r]

    if len(targets) == 1:
        objective = ((1.0, a[targets[0]]),)
        rows = []
    else:
        variables.append(Variable("earliest", CONTINUOUS))
        # bounded above by every target arrival so the maximum equals the
        # earliest target arrival
        rows = [
            Constraint(_vname("earliest", t), ((1.0, "earliest"), (-1.0, a[t])), LE, 0.0)
            for t in sorted(targets)
        ]
        objective = ((1.0, "earliest"),)

    treatment_terms = [[(-float(alpha[u]), r[u])] for u in range(n)]
    rows += _propagation_rows(graph, ignition, a, digits, treatment_terms, [float(b) for b in beta])
    rows.append(_sum_row("budget", r, k))
    return LinearModel("hof", variables, rows, MAX, objective)


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
    n = graph.vertex_count
    weights = _per_vertex("weights", weights, n)
    flame_lengths = _per_vertex("flame_lengths", flame_lengths, n)
    _finite("flame_threshold", flame_threshold)
    _budget(k)
    unsafe = [flame > flame_threshold for flame in flame_lengths]
    digits = _digits(n)
    a, y, r = _names("a", digits), _names("y", digits), _names("r", digits)
    variables = [Variable(name, CONTINUOUS) for name in a]
    variables += [Variable(name, BINARY, 0.0, 1.0) for name in y]
    variables += [
        Variable(name, BINARY, 0.0, 0.0 if fixed else 1.0) for name, fixed in zip(r, unsafe)
    ]

    rows = _propagation_rows(graph, ignition, a, digits, [[(-delay, name)] for name in r])
    rows += _burn_rows(a, y, digits, horizon)
    rows.append(_sum_row("budget", r, k))
    rows += [
        Constraint(_vname("safety", v), ((1.0, r[v]),), EQ, 0.0) for v in range(n) if unsafe[v]
    ]
    objective = tuple((float(w), name) for w, name in zip(weights, y))
    return LinearModel("wei", variables, rows, MIN, objective)


# ---------------------------------------------------------------------------
# Export

class _Numbers(dict):
    """Number -> repr(float(number)) for one export call, so each distinct
    number is formatted once. Equal numbers of any type share a text, but
    0.0 == -0.0 share a key and print apart, so zero is never stored: its
    sign picks one of the two texts."""

    def __missing__(self, x) -> str:
        if not x:
            return "-0.0" if math.copysign(1.0, x) < 0 else "0.0"
        text = self[x] = repr(float(x))
        return text


def export_model(model: LinearModel, format: str = "lp") -> str:
    """Deterministic LP or MPS interchange text for the model."""
    if format == "lp":
        return _export_lp(model)
    if format == "mps":
        return _export_mps(model)
    raise ValueError(f"unknown export format {format!r}")


def _terms_lp(terms, num: _Numbers) -> str:
    parts = []
    for coef, var in terms:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {num[abs(coef)]} {var}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _export_lp(model: LinearModel) -> str:
    num = _Numbers()
    lines = []
    lines.append("\\ " + model.name)
    lines.append("Minimize" if model.objective_sense == MIN else "Maximize")
    lines.append(" obj: " + _terms_lp(model.objective_terms, num))
    lines.append("Subject To")
    for row, terms, sense, rhs in model.constraints:
        lines.append(f" {row}: {_terms_lp(terms, num)} {sense} {num[rhs]}")
    lines.append("Bounds")
    for name, kind, lower, upper in model.variables:
        if kind == BINARY and lower == 0.0 and upper == 1.0:
            continue
        lo = "-inf" if lower == -math.inf else num[lower]
        hi = "+inf" if upper == math.inf else num[upper]
        lines.append(f" {lo} <= {name} <= {hi}")
    binaries = [name for name, kind, _, _ in model.variables if kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(" " + name)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _export_mps(model: LinearModel) -> str:
    sense_row = {LE: "L", EQ: "E", GE: "G"}
    num = _Numbers()

    lines = [f"NAME {model.name}"]
    if model.objective_sense == MAX:
        lines.append("OBJSENSE")
        lines.append(" MAX")
    lines.append("ROWS")
    lines.append(" N obj")
    # one pass over the rows: ROWS lines now, coefficient lines per column
    # (in variable declaration order) and RHS lines for later
    by_var: dict[str, list[str]] = {v.name: [] for v in model.variables}
    for coef, var in model.objective_terms:
        by_var[var].append(f" {var} obj {num[coef]}")
    rhs_lines = ["RHS"]
    for row, terms, sense, rhs in model.constraints:
        lines.append(f" {sense_row[sense]} {row}")
        for coef, var in terms:
            by_var[var].append(f" {var} {row} {num[coef]}")
        if rhs != 0.0:
            rhs_lines.append(f" RHS {row} {num[rhs]}")

    lines.append("COLUMNS")
    # each run of binary columns between an INTORG and an INTEND marker
    markers = itertools.count()
    for kind, run in itertools.groupby(model.variables, itemgetter(1)):
        if kind == BINARY:
            lines.append(f" MARKER{next(markers)} 'MARKER' 'INTORG'")
        for variable in run:
            # a variable in no row and no objective term still gets its column
            lines += by_var[variable.name] or [f" {variable.name} obj 0.0"]
        if kind == BINARY:
            lines.append(f" MARKER{next(markers)} 'MARKER' 'INTEND'")
    lines += rhs_lines

    lines.append("BOUNDS")
    for name, kind, lower, upper in model.variables:
        if kind == BINARY:
            if upper == 0.0:
                lines.append(f" FX BND {name} 0.0")
            else:
                lines.append(f" BV BND {name}")
            continue
        if lower != 0.0:
            lines.append(f" LO BND {name} {num[lower]}")
        if upper != math.inf:
            lines.append(f" UP BND {name} {num[upper]}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
