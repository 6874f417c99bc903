import dataclasses
import functools
import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from wsptools.core import (
    Allocation,
    DirectedGraph,
    StructuralError,
    WspInstance,
    compute_arrival_times,
)
from wsptools.generator import GeneratorConfig, generate_instance
from wsptools.mip import (
    Constraint,
    LinearModel,
    Variable,
    _Numbers,
    build_hof_model,
    build_wei_model,
    build_wsp_model,
    export_model,
)
from wsptools.solvers import brute_force

from helpers import (
    allocation_to_assignment,
    evaluate_objective,
    random_grid_instance,
    validate_assignment,
)


def single_arc_instance():
    graph = DirectedGraph(2, ((0, 1, 3.0),))
    return WspInstance(graph, 0, horizon=10.0, delay=4.0, schedule=((2.0, 1),))


def enumerate_model_optimum(instance):
    """Independent oracle: enumerate every protection-variable assignment,
    take arrival times as the delayed shortest paths, apply the
    availability and capacity rules directly, and count vertices burning
    before the horizon."""
    n = instance.graph.vertex_count
    schedule = instance.schedule
    T = len(schedule)
    offsets = [0]
    for _, count in schedule:
        offsets.append(offsets[-1] + count)
    best = math.inf
    # value 0 = unprotected, i + 1 = protected by release point i
    for choice in itertools.product(range(T + 1), repeat=n):
        used = [0] * T
        ok = True
        for point in choice:
            if point:
                used[point - 1] += 1
        if any(used[i] > schedule[i][1] for i in range(T)):
            continue
        pairs = []
        taken = [0] * T
        for v, point in enumerate(choice):
            if point:
                i = point - 1
                pairs.append((offsets[i] + taken[i], v))
                taken[i] += 1
        outcome = compute_arrival_times(instance, Allocation(tuple(pairs)))
        for v, point in enumerate(choice):
            if point and outcome.arrival[v] < schedule[point - 1][0]:
                ok = False
                break
        if not ok:
            continue
        best = min(best, outcome.burned_count(instance.horizon))
    return best


class TestWspModel:
    def test_variable_and_constraint_counts(self, rng):
        instance = random_grid_instance(rng, side=2, schedule_spec=((1.0, 1),))
        model = build_wsp_model(instance)
        names = {v.name for v in model.variables}
        assert len(names) == 4 + 4 + 4  # arrivals, burn flags, protections
        by_prefix = {}
        for c in model.constraints:
            by_prefix.setdefault(c.name.split("_")[0], []).append(c)
        assert len(by_prefix["ignition"]) == 1
        assert len(by_prefix["spread"]) == 8  # one per arc of the 2x2 grid
        assert len(by_prefix["capacity"]) == 1
        assert len(by_prefix["single"]) == 4
        assert len(by_prefix["avail"]) == 4
        assert len(by_prefix["burn"]) == 4

    def test_optimum_matches_combinatorial_solver(self, rng):
        for _ in range(4):
            instance = random_grid_instance(
                rng, side=2, schedule_spec=((1.0, 1), (2.0, 1)), horizon=6.0, delay=3.0
            )
            assert enumerate_model_optimum(instance) == brute_force(instance).objective

    def test_optimum_on_figure_example(self, figure_instance):
        # 4^9 assignments is too many; restrict to the 3x3 corner by reusing
        # the small-grid check above and validating the hand optimum here
        alloc = Allocation(((0, 2), (1, 4), (2, 6)))
        model = build_wsp_model(figure_instance)
        assignment = allocation_to_assignment(figure_instance, alloc)
        assert validate_assignment(model, assignment) == []
        assert evaluate_objective(model, assignment) == 6.0

    def test_feasible_allocations_satisfy_model(self, rng):
        for _ in range(6):
            instance = random_grid_instance(rng)
            model = build_wsp_model(instance)
            result = brute_force(instance)
            assignment = allocation_to_assignment(instance, result.allocation)
            assert validate_assignment(model, assignment) == []
            assert evaluate_objective(model, assignment) == result.objective

    def test_infeasible_allocation_refused(self, figure_instance):
        with pytest.raises(StructuralError):
            allocation_to_assignment(figure_instance, Allocation(((0, 1),)))

    def test_unreachable_vertex_clamped_to_bound(self):
        graph = DirectedGraph(3, ((0, 1, 1.0),))
        instance = WspInstance(graph, 0, horizon=5.0, delay=1.0, schedule=((1.0, 1),))
        model = build_wsp_model(instance)
        assignment = allocation_to_assignment(instance, Allocation(()))
        assert assignment["a_0002"] == model.variables[2].upper
        assert assignment["y_0002"] == 0.0
        assert validate_assignment(model, assignment) == []

    def test_violation_reporting(self):
        instance = single_arc_instance()
        model = build_wsp_model(instance)
        assignment = allocation_to_assignment(instance, Allocation(()))
        assignment["y_0001"] = 0.0  # vertex 1 burns at 3 < 10, y must be 1
        violated = validate_assignment(model, assignment)
        assert [name for name, _ in violated] == ["burn_0001"]
        assert violated[0][1] == pytest.approx(0.7)

    def test_bound_violation_reporting(self):
        instance = single_arc_instance()
        model = build_wsp_model(instance)
        assignment = allocation_to_assignment(instance, Allocation(()))
        assignment["r_0000_0000"] = 2.0
        names = {name for name, _ in validate_assignment(model, assignment)}
        assert "bound:r_0000_0000" in names


class TestHofModel:
    def test_single_arc_treatment_extends_arrival(self):
        # one treatable vertex: full treatment yields arrival beta + alpha
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        model = build_hof_model(graph, 0, [1], alpha=[3.0, 0.0], beta=[5.0, 0.0], k=1.0)
        good = {"a_0000": 0.0, "a_0001": 8.0, "r_0000": 1.0, "r_0001": 0.0}
        assert validate_assignment(model, good) == []
        assert evaluate_objective(model, good) == 8.0
        too_late = dict(good, a_0001=8.1)
        assert validate_assignment(model, too_late) != []

    def test_zero_budget_is_shortest_path(self):
        graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)))
        model = build_hof_model(
            graph, 0, [2], alpha=[2.0, 2.0, 0.0], beta=[1.0, 1.0, 5.0], k=0.0
        )
        # delays are per tail vertex: with r = 0 the direct arc caps the
        # target arrival at beta_0 = 1
        good = {"a_0000": 0.0, "a_0001": 1.0, "a_0002": 1.0,
                "r_0000": 0.0, "r_0001": 0.0, "r_0002": 0.0}
        assert validate_assignment(model, good) == []
        assert validate_assignment(model, dict(good, a_0002=1.1)) != []

    def test_budget_row(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        model = build_hof_model(graph, 0, [1], alpha=[1.0, 1.0], beta=[1.0, 1.0], k=1.5)
        budget = next(c for c in model.constraints if c.name == "budget")
        assert budget.rhs == 1.5
        assert len(budget.terms) == 2

    def test_multi_target_earliest_variable(self):
        graph = DirectedGraph(3, ((0, 1, 1.0), (0, 2, 1.0)))
        model = build_hof_model(
            graph, 0, [1, 2], alpha=[1.0, 0.0, 0.0], beta=[1.0, 0.0, 0.0], k=1.0
        )
        assert "earliest" in {v.name for v in model.variables}
        assert model.objective_terms == ((1.0, "earliest"),)
        rows = [c for c in model.constraints if c.name.startswith("earliest")]
        assert len(rows) == 2
        # earliest may not exceed either target arrival
        bad = {"a_0000": 0.0, "a_0001": 2.0, "a_0002": 3.0,
               "r_0000": 0.0, "r_0001": 0.0, "r_0002": 0.0, "earliest": 2.5}
        assert any(name.startswith("earliest") for name, _ in validate_assignment(model, bad))

    def test_integral_flag(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        model = build_hof_model(graph, 0, [1], alpha=[1.0, 0.0], beta=[1.0, 0.0],
                                k=1.0, integral=True)
        kinds = {v.name: v.kind for v in model.variables}
        assert kinds["r_0000"] == "binary"
        assert kinds["a_0000"] == "continuous"

    def test_requires_targets(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(StructuralError):
            build_hof_model(graph, 0, [], alpha=[1.0, 1.0], beta=[1.0, 1.0], k=1.0)


class TestWeiModel:
    def test_safety_fixes_unsafe_vertices(self):
        graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        model = build_wei_model(
            graph, 0, horizon=5.0, delay=2.0, weights=[1.0, 2.0, 3.0],
            flame_lengths=[1.0, 9.0, 1.0], flame_threshold=4.0, k=2,
        )
        bounds = {v.name: v.upper for v in model.variables}
        assert bounds["r_0001"] == 0.0
        assert bounds["r_0000"] == 1.0
        safety = [c for c in model.constraints if c.name.startswith("safety")]
        assert [c.name for c in safety] == ["safety_0001"]

    def test_all_unsafe_forces_free_burn(self):
        graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        model = build_wei_model(
            graph, 0, horizon=5.0, delay=2.0, weights=[1.0, 2.0, 3.0],
            flame_lengths=[9.0, 9.0, 9.0], flame_threshold=4.0, k=2,
        )
        # the only feasible protections are none; all vertices burn
        free = {"a_0000": 0.0, "a_0001": 1.0, "a_0002": 2.0,
                "y_0000": 1.0, "y_0001": 1.0, "y_0002": 1.0,
                "r_0000": 0.0, "r_0001": 0.0, "r_0002": 0.0}
        assert validate_assignment(model, free) == []
        assert evaluate_objective(model, free) == 6.0
        protected = dict(free, r_0001=1.0)
        assert validate_assignment(model, protected) != []

    def test_objective_weights(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        model = build_wei_model(
            graph, 0, horizon=5.0, delay=2.0, weights=[0.0, 0.0],
            flame_lengths=[0.0, 0.0], flame_threshold=4.0, k=1,
        )
        assert all(coef == 0.0 for coef, _ in model.objective_terms)


GOLDEN_LP = """\\ wsp
Minimize
 obj: 1.0 y_0000 + 1.0 y_0001
Subject To
 ignition: 1.0 a_0000 = 0.0
 spread_0000_0001: 1.0 a_0001 - 1.0 a_0000 - 4.0 r_0000_0000 <= 3.0
 capacity_0000: 1.0 r_0000_0000 + 1.0 r_0000_0001 <= 1.0
 single_0000: 1.0 r_0000_0000 <= 1.0
 single_0001: 1.0 r_0000_0001 <= 1.0
 avail_0000_0000: 1.0 a_0000 - 2.0 r_0000_0000 >= 0.0
 avail_0000_0001: 1.0 a_0001 - 2.0 r_0000_0001 >= 0.0
 burn_0000: 1.0 y_0000 + 0.1 a_0000 >= 1.0
 burn_0001: 1.0 y_0001 + 0.1 a_0001 >= 1.0
Bounds
 0.0 <= a_0000 <= 17.0
 0.0 <= a_0001 <= 17.0
Binaries
 y_0000
 y_0001
 r_0000_0000
 r_0000_0001
End
"""


def parse_lp(text):
    """Minimal independent LP reader: returns (sense, objective, rows,
    bounds, binaries) with rows as (name, terms, sense, rhs)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("\\")]
    it = iter(lines)
    sense = next(it)
    objective = _parse_terms(next(it).split(":", 1)[1])
    assert next(it) == "Subject To"
    rows, bounds, binaries = [], {}, []
    mode = "rows"
    for line in it:
        if line in ("Bounds", "Binaries", "End"):
            mode = line
            continue
        if mode == "rows":
            name, body = line.split(":", 1)
            tokens = body.split()
            op_at = max(i for i, t in enumerate(tokens) if t in ("<=", ">=", "="))
            rows.append(
                (
                    name.strip(),
                    _parse_terms(" ".join(tokens[:op_at])),
                    tokens[op_at],
                    float(tokens[op_at + 1]),
                )
            )
        elif mode == "Bounds":
            lo, _, var, _, hi = line.split()
            bounds[var] = (float(lo), float(hi))
        elif mode == "Binaries":
            binaries.append(line.strip())
    return sense, objective, rows, bounds, binaries


def _parse_terms(text):
    tokens = text.split()
    terms = []
    sign = 1.0
    i = 0
    while i < len(tokens):
        if tokens[i] in ("+", "-"):
            sign = 1.0 if tokens[i] == "+" else -1.0
            i += 1
        terms.append((sign * float(tokens[i]), tokens[i + 1]))
        sign = 1.0
        i += 2
    return terms


class TestExport:
    def test_lp_golden_file(self):
        model = build_wsp_model(single_arc_instance())
        assert export_model(model, "lp") == GOLDEN_LP

    def test_lp_round_trip_through_independent_parser(self, rng):
        instance = random_grid_instance(rng, side=2, schedule_spec=((1.0, 1), (2.0, 1)))
        model = build_wsp_model(instance)
        sense, objective, rows, bounds, binaries = parse_lp(export_model(model, "lp"))
        assert sense == "Minimize"
        assert objective == list(model.objective_terms)
        assert len(rows) == len(model.constraints)
        for (name, terms, op, rhs), c in zip(rows, model.constraints):
            assert name == c.name
            assert op == c.sense
            assert rhs == c.rhs
            assert terms == list(c.terms)
        binary_names = {v.name for v in model.variables if v.kind == "binary"}
        assert set(binaries) == binary_names
        for v in model.variables:
            if v.kind == "continuous":
                assert bounds[v.name] == (v.lower, v.upper)

    def test_mps_column_matrix_matches_model(self, rng):
        instance = random_grid_instance(rng, side=2, schedule_spec=((1.5, 1),))
        model = build_wsp_model(instance)
        text = export_model(model, "mps")
        lines = text.splitlines()
        start = lines.index("COLUMNS") + 1
        end = lines.index("RHS")
        coeffs = {}
        for line in lines[start:end]:
            parts = line.split()
            if parts[1] == "'MARKER'":
                continue
            var, row, coef = parts
            coeffs[(var, row)] = float(coef)
        expected = {}
        for coef, var in model.objective_terms:
            expected[(var, "obj")] = coef
        for c in model.constraints:
            for coef, var in c.terms:
                expected[(var, c.name)] = coef
        assert coeffs == expected

    def test_mps_rhs_and_bounds(self):
        model = build_wsp_model(single_arc_instance())
        text = export_model(model, "mps")
        assert " RHS spread_0000_0001 3.0" in text
        assert " UP BND a_0001 17.0" in text
        assert " BV BND r_0000_0000" in text
        assert text.endswith("ENDATA\n")

    def test_mps_fixes_unsafe_binaries_at_zero(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        model = build_wei_model(
            graph, 0, horizon=5.0, delay=2.0, weights=[1.0, 1.0],
            flame_lengths=[9.0, 0.0], flame_threshold=4.0, k=1,
        )
        assert " FX BND r_0000 0.0" in export_model(model, "mps")

    def test_mps_markers_wrap_each_binary_run(self):
        # a leading binary column and two binary runs, numbered in one sequence
        variables = (
            Variable("a", "binary", 0.0, 1.0),
            Variable("x", "continuous"),
            Variable("b", "binary", 0.0, 1.0),
            Variable("c", "binary", 0.0, 0.0),
            Variable("y", "continuous", 1.0, 3.0),
        )
        row = Constraint("r", ((1.0, "a"), (2.0, "x"), (-1.0, "c"), (0.5, "y")), "<=", 4.0)
        model = LinearModel("runs", variables, (row,), "min", ((1.0, "b"), (3.0, "y")))
        assert export_model(model, "mps") == """NAME runs
ROWS
 N obj
 L r
COLUMNS
 MARKER0 'MARKER' 'INTORG'
 a r 1.0
 MARKER1 'MARKER' 'INTEND'
 x r 2.0
 MARKER2 'MARKER' 'INTORG'
 b obj 1.0
 c r -1.0
 MARKER3 'MARKER' 'INTEND'
 y obj 3.0
 y r 0.5
RHS
 RHS r 4.0
BOUNDS
 BV BND a
 BV BND b
 FX BND c 0.0
 LO BND y 1.0
 UP BND y 3.0
ENDATA
"""

    def test_unknown_format(self):
        model = build_wsp_model(single_arc_instance())
        with pytest.raises(ValueError):
            export_model(model, "sav")

    def test_maximization_exports(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        model = build_hof_model(graph, 0, [1], alpha=[1.0, 0.0], beta=[1.0, 0.0], k=1.0)
        assert "Maximize" in export_model(model, "lp")
        assert "OBJSENSE" in export_model(model, "mps")


def mixed_number_model():
    """Numbers of every type, signed zeros and infinities, the same value
    repeated across rows and bounds."""
    half = Fraction(1, 2)
    variables = (
        Variable("x", "continuous", -0.0, 2),
        Variable("y", "continuous", half, math.inf),
        Variable("z", "continuous", -math.inf, np.float64(2.0)),
        Variable("b", "binary", 0.0, 1.0),
        Variable("c", "binary", 0, 0.0),
    )
    rows = (
        Constraint("r1", ((1, "x"), (True, "y"), (np.float64(-0.5), "z"), (0.0, "b")), "<=", half),
        Constraint("r2", ((-0.0, "x"), (1.0, "y"), (half, "b")), ">=", 0),
        Constraint("r3", ((0.0, "x"), (-0.0, "z"), (np.float64(1.0), "c")), "=", -0.0),
    )
    return LinearModel("mixed", variables, rows, "min", ((2, "x"), (-0.0, "y"), (0.5, "z")))


MIXED_LP = """\\ mixed
Minimize
 obj: 2.0 x + 0.0 y + 0.5 z
Subject To
 r1: 1.0 x + 1.0 y - 0.5 z + 0.0 b <= 0.5
 r2: 0.0 x + 1.0 y + 0.5 b >= 0.0
 r3: 0.0 x + 0.0 z + 1.0 c = -0.0
Bounds
 -0.0 <= x <= 2.0
 0.5 <= y <= +inf
 -inf <= z <= 2.0
 0.0 <= c <= 0.0
Binaries
 b
 c
End
"""

MIXED_MPS = """NAME mixed
ROWS
 N obj
 L r1
 G r2
 E r3
COLUMNS
 x obj 2.0
 x r1 1.0
 x r2 -0.0
 x r3 0.0
 y obj -0.0
 y r1 1.0
 y r2 1.0
 z obj 0.5
 z r1 -0.5
 z r3 -0.0
 MARKER0 'MARKER' 'INTORG'
 b r1 0.0
 b r2 0.5
 c r3 1.0
 MARKER1 'MARKER' 'INTEND'
RHS
 RHS r1 0.5
BOUNDS
 UP BND x 2.0
 LO BND y 0.5
 LO BND z -inf
 UP BND z 2.0
 BV BND b
 FX BND c 0.0
ENDATA
"""


def mps_column_text(text):
    """{(variable, row): number text} of an MPS COLUMNS section."""
    lines = text.splitlines()
    columns = lines[lines.index("COLUMNS") + 1:lines.index("RHS")]
    return {(var, row): number for var, row, number in map(str.split, columns)
            if row != "'MARKER'"}


def expected_column_text(model):
    """{(variable, row): repr(float(coefficient))}, one term at a time."""
    expected = {(var, "obj"): repr(float(coef)) for coef, var in model.objective_terms}
    for c in model.constraints:
        expected.update(((var, c.name), repr(float(coef))) for coef, var in c.terms)
    return expected


class TestNumberText:
    """Every number prints as repr(float(x)) whatever its type, and a
    signed zero keeps its sign wherever an equal zero printed before it."""

    def test_mixed_model_lp(self):
        assert export_model(mixed_number_model(), "lp") == MIXED_LP

    def test_mixed_model_mps(self):
        model = mixed_number_model()
        text = export_model(model, "mps")
        assert text == MIXED_MPS
        assert mps_column_text(text) == expected_column_text(model)

    def test_signed_zero_columns_in_one_model(self):
        # delay 0.0 makes every spread term -0.0; zero weights make the
        # objective terms 0.0, written first in each y column
        graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)))
        model = build_wei_model(
            graph, 0, horizon=5.0, delay=0.0, weights=[0.0] * 3,
            flame_lengths=[0.0] * 3, flame_threshold=4.0, k=1,
        )
        columns = mps_column_text(export_model(model, "mps"))
        assert columns == expected_column_text(model)
        assert {"0.0", "-0.0"} <= set(columns.values())

    def test_number_table_keeps_no_zero(self):
        # every zero shares one dict slot, so none is stored and each
        # lookup prints its own sign; other numbers are stored once
        num = _Numbers()
        zeros = [0.0, -0.0, 0, False, np.float64(-0.0), Fraction(0), np.float64(0.0), -0.0]
        assert [num[z] for z in zeros] == [repr(float(z)) for z in zeros]
        assert [num[x] for x in (2, 2.0, np.float64(2.0), -1.5)] == ["2.0"] * 3 + ["-1.5"]
        assert num == {2: "2.0", -1.5: "-1.5"}


X = Variable("x", "continuous", 0.0, 5.0)
B = Variable("b", "binary", 0.0, 1.0)
ROW = Constraint("row", ((1.0, "x"), (2.0, "b")), "<=", 4.0)


def two_variable_model(variables=(), constraints=(), objective=()):
    """min x over x in [0, 5] and binary b with x + 2b <= 4, plus the
    given variables, constraints and objective terms."""
    return LinearModel(
        "m", (X, B, *variables), (ROW, *constraints), "min", ((1.0, "x"), *objective)
    )


def assert_rejected(message, **parts):
    with pytest.raises(StructuralError, match=re.escape(message)):
        two_variable_model(**parts)


class TestModelChecks:
    """A model is checked once, when it is made: its names are unique LP/MPS
    identifiers and every term names a declared variable. Exports write the
    names as stored and check nothing."""

    def test_duplicate_variable_rejected_by_validate_and_export(self):
        assert_rejected("variable names not unique", variables=[Variable("x", "continuous")])

    def test_repeated_constraint_name_rejected(self):
        # both rows would be written under one name, which LP and MPS
        # readers take as one row or refuse
        assert_rejected(
            "constraint names must be unique",
            constraints=[Constraint("row", ((1.0, "x"),), ">=", 1.0)],
        )

    def test_constraint_named_obj_rejected(self):
        # obj names the objective row in both exports
        assert_rejected(
            "not obj, the objective row",
            constraints=[Constraint("obj", ((1.0, "x"),), ">=", 1.0)],
        )

    def test_unknown_variable_in_constraint_rejected(self):
        assert_rejected(
            "constraint extra references unknown variable z",
            constraints=[Constraint("extra", ((1.0, "z"),), "<=", 1.0)],
        )

    def test_unknown_variable_in_objective_rejected(self):
        assert_rejected("objective references unknown variable z", objective=[(1.0, "z")])

    def test_variables_colliding_after_sanitation(self):
        # exports write names as stored, so one an LP/MPS reader cannot
        # take is refused when the model is made
        for name in ("a-1", "", "1x", "x y"):
            assert_rejected(
                f"name {name!r} is not an LP/MPS identifier",
                variables=[Variable(name, "continuous"), Variable("a_1", "continuous")],
            )

    def test_constraint_taking_another_variables_name(self):
        for name in ("a-1", "", "1x"):
            assert_rejected(
                f"name {name!r} is not an LP/MPS identifier",
                variables=[Variable("a_1", "continuous")],
                constraints=[Constraint(name, ((1.0, "a_1"),), ">=", 0.0)],
            )

    def test_constraint_named_like_its_variable_exports(self):
        model = two_variable_model(constraints=[Constraint("x", ((1.0, "x"),), ">=", 1.0)])
        assert " x: 1.0 x >= 1.0\n" in export_model(model, "lp")
        assert " G x\n" in export_model(model, "mps")

    def test_unknown_objective_sense_rejected(self):
        # the LP writer would head it Maximize while MPS writes no OBJSENSE
        with pytest.raises(StructuralError,
                           match=re.escape("objective sense 'minimize' is not min or max")):
            LinearModel("m", [X, B], [ROW], "minimize", [(1.0, "x")])

    def test_unknown_variable_kind_rejected(self):
        assert_rejected(
            "variable i has kind 'integer', not continuous or binary",
            variables=[Variable("i", "integer"), Variable("j", "general")],
        )

    @pytest.mark.parametrize("lower, upper", [(1.0, 1.0), (0.0, 2.0), (-1.0, 1.0),
                                              (0.0, math.inf), (math.nan, 1.0)])
    def test_binary_bounds_other_than_free_or_zero_rejected(self, lower, upper):
        # MPS writes BV for any nonzero upper bound, so (1, 1) would be fixed
        # in LP and free in MPS
        assert_rejected(
            f"binary variable f has bounds ({lower}, {upper}), not (0, 1) or (0, 0)",
            variables=[Variable("z", "binary", 0.0, 0.0), Variable("f", "binary", lower, upper)],
        )

    def test_variable_without_terms_has_an_mps_column(self):
        # LP declares it under Bounds; MPS must list it in COLUMNS to know it
        model = two_variable_model(variables=[Variable("idle", "continuous", 0.0, 2.0),
                                              Variable("off", "binary", 0.0, 0.0)])
        lp, mps = export_model(model, "lp"), export_model(model, "mps")
        assert " 0.0 <= idle <= 2.0\n" in lp and " 0.0 <= off <= 0.0\n" in lp
        columns = mps.split("COLUMNS\n")[1].split("RHS\n")[0]
        assert columns.endswith(" idle obj 0.0\n MARKER2 'MARKER' 'INTORG'\n off obj 0.0\n"
                                " MARKER3 'MARKER' 'INTEND'\n")
        assert " UP BND idle 2.0\n FX BND off 0.0\n" in mps

    def test_unknown_row_sense_rejected(self):
        # LP would write "lt: 1.0 x < 1.0" and MPS has no row type for it
        assert_rejected(
            "constraint lt has sense '<', not <=, = or >=",
            constraints=[Constraint("ge", ((1.0, "x"),), ">=", 0.0),
                         Constraint("lt", ((1.0, "x"),), "<", 1.0),
                         Constraint("gt", ((1.0, "x"),), ">", 1.0)],
        )

    @pytest.mark.parametrize("sense, lp_head, mps_head", [
        ("min", "Minimize", ["NAME m", "ROWS"]),
        ("max", "Maximize", ["NAME m", "OBJSENSE", " MAX", "ROWS"]),
    ])
    def test_both_formats_write_the_objective_sense(self, sense, lp_head, mps_head):
        model = LinearModel("m", [X, B], [ROW], sense, [(1.0, "x")])
        assert export_model(model, "lp").splitlines()[1] == lp_head
        assert export_model(model, "mps").splitlines()[:len(mps_head)] == mps_head

    def test_both_formats_write_every_row_sense(self):
        senses = {"<=": "L", "=": "E", ">=": "G"}
        rows = [Constraint(f"r_{i}", ((1.0, "x"),), s, 1.0) for i, s in enumerate(senses)]
        model = two_variable_model(constraints=rows)
        lp, mps = export_model(model, "lp"), export_model(model, "mps")
        for i, (sense, row_type) in enumerate(senses.items()):
            assert f" r_{i}: 1.0 x {sense} 1.0\n" in lp
            assert f" {row_type} r_{i}\n" in mps

    def test_model_is_frozen(self):
        model = LinearModel("m", [X, B], [ROW], "min", [(1.0, "x")])
        assert model == two_variable_model()  # lists are stored as tuples
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.variables = ()


IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # the LP/MPS name rule, stated here
FIRST_CHARS, NEXT_CHARS = "abXY_", "abXY_019"
BAD_CHARS = "- \né0"  # 0 is bad only in first place


def names_model(variable_names, row_names):
    return LinearModel(
        "names",
        [Variable(name, "continuous") for name in variable_names],
        [Constraint(name, (), "<=", 0.0) for name in row_names],
        "min",
        (),
    )


def assert_names_checked(variable_names, row_names):
    """The model is made exactly when every name is an identifier; else the
    message names the first offender, variables before rows."""
    offenders = [
        name for name in [*variable_names, *row_names]
        if not (isinstance(name, str) and IDENTIFIER.fullmatch(name))
    ]
    if not offenders:
        names_model(variable_names, row_names)
        return
    with pytest.raises(StructuralError) as excinfo:
        names_model(variable_names, row_names)
    assert str(excinfo.value) == f"name {offenders[0]!r} is not an LP/MPS identifier"


class TestBulkNameCheck:
    """However the names are checked, a model accepts exactly the names a
    one-by-one fullmatch accepts and names the same first offender."""

    @staticmethod
    def random_name(rng):
        chars = [str(rng.choice(list(FIRST_CHARS)))]
        chars += [str(rng.choice(list(NEXT_CHARS))) for _ in range(rng.integers(0, 4))]
        if rng.random() < 0.08:
            chars[rng.integers(len(chars))] = str(rng.choice(list(BAD_CHARS)))
        elif rng.random() < 0.02:
            chars = []
        return "".join(chars)

    def distinct_names(self, rng, count):
        names = []
        while len(names) < count:
            name = self.random_name(rng)
            if name not in names and name != "obj":
                names.append(name)
        return names

    def test_random_names(self):
        rng = np.random.default_rng(19)
        rejected = 0
        for _ in range(200):
            variable_names = self.distinct_names(rng, rng.integers(0, 7))
            row_names = self.distinct_names(rng, rng.integers(0, 5))
            rejected += not all(map(IDENTIFIER.fullmatch, [*variable_names, *row_names]))
            assert_names_checked(variable_names, row_names)
        assert 40 <= rejected <= 160  # both outcomes are well covered

    @pytest.mark.parametrize("bad", ["a\n", "\n", "a\nb", "", 1, None, b"x"])
    def test_fixed_names(self, bad):
        for variable_names, row_names in [
            ([bad], []),
            ([bad, "a"], ["r"]),
            (["a", bad], ["r"]),
            (["a", "b"], [bad]),
            (["a"], ["r", bad, "s"]),
            (["a", bad], ["r\n"]),  # the variable is named, not the row
        ]:
            assert_names_checked(variable_names, row_names)

    def test_empty_model(self):
        model = names_model([], [])
        assert model.variables == () and model.constraints == ()
        assert export_model(model, "lp").startswith("\\ names\n")


class TestRowsAndColumns:
    """Variables and constraints are immutable records with fixed fields."""

    def test_immutable(self):
        # AttributeError is also the base of dataclasses.FrozenInstanceError
        with pytest.raises(AttributeError):
            X.upper = 1.0
        with pytest.raises(AttributeError):
            ROW.rhs = 0.0
        assert X.upper == 5.0 and ROW.rhs == 4.0

    def test_fields_and_defaults(self):
        x = Variable("x", "continuous")
        assert (x.name, x.kind, x.lower, x.upper) == ("x", "continuous", 0.0, math.inf)
        assert Variable(name="x", kind="continuous", lower=0.0, upper=5.0) == X
        assert Constraint(name="row", terms=ROW.terms, sense="<=", rhs=4.0) == ROW
        assert (ROW.name, ROW.terms, ROW.sense) == ("row", ((1.0, "x"), (2.0, "b")), "<=")
        assert Variable("x", "continuous", 0.0, 4.0) != X

    def test_builds_compare_equal(self):
        for key, build in golden_models().items():
            assert build() == build(), key


def golden_models():
    """The three builders on one generator instance (n = 12), with
    deterministic per-vertex data for hof and wei."""
    instance = generate_instance(GeneratorConfig(seed=3, n=12))
    graph, s = instance.graph, instance.ignition
    n = graph.vertex_count
    alpha = [0.5 + (v % 7) * 0.25 for v in range(n)]
    beta = [1.0 + (v % 3) for v in range(n)]
    weights = [1.0 + (v % 4) for v in range(n)]
    flames = [float(v % 9) for v in range(n)]  # 6, 7, 8 exceed the threshold
    return {
        "wsp": lambda: build_wsp_model(instance),
        "hof_one": lambda: build_hof_model(graph, s, [n - 1], alpha, beta, k=3.0),
        "hof_many": lambda: build_hof_model(graph, s, [n - 1, 5, n // 2], alpha, beta, k=3.0),
        "hof_integral": lambda: build_hof_model(
            graph, s, [n - 1], alpha, beta, k=3.0, integral=True
        ),
        "wei": lambda: build_wei_model(
            graph, s, instance.horizon, instance.delay, weights, flames, 5.0, k=4
        ),
    }


# sha256 of the exported text, recorded before the builders shared their
# row blocks and before the name checks moved out of add_variable
GOLDEN_SHA256 = {
    ("wsp", "lp"): "00364d432c887bb398a4b98186733263a11f6a4cf1e0449e18899d279871b9e6",
    ("wsp", "mps"): "24324de44f78dbfc650aff92ef915a859b0c9270d5c1c7c062f42bcd53b18d6a",
    ("hof_one", "lp"): "6599fab1c27899fe37de7cc29326de02a5731472098b7fe72026accc110a0e3a",
    ("hof_one", "mps"): "a749c331eb5d999cd5291857138d74484aa31e2c2462a50e9e835da09df77bd9",
    ("hof_many", "lp"): "5d5a89d1f8f6cd68cde3808906f7ac32129b80c1d59db8dd2562bf7ef78498d1",
    ("hof_many", "mps"): "578f04a4253284e451097c30fdbc7b2a313ca420c7f6627592e3418a83c462a9",
    ("hof_integral", "lp"): "059bc6b72d5c79039633ab440316eec91412b9d92bc014f19e4120251a6c7097",
    ("hof_integral", "mps"): "20a50b1123ddd189ef175230597827938dfa6c694552e8d0b1bafc860b42a384",
    ("wei", "lp"): "9398fcc10e786cea8cf238ebda3c9d26e2eb10d23230063990fefc3808ca1484",
    ("wei", "mps"): "2f28d283fcd0fc25b3f3cd42b63ba31b65ef3fa85271bddc9644b6a843e47ff6",
}


class TestGoldenExports:
    def test_export_hashes(self):
        models = golden_models()
        got = {}
        for (key, fmt) in GOLDEN_SHA256:
            text = export_model(models[key](), fmt)
            got[(key, fmt)] = hashlib.sha256(text.encode()).hexdigest()
        assert got == GOLDEN_SHA256


class TestBuilderInputs:
    @pytest.fixture
    def graph(self):
        return DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))

    @pytest.mark.parametrize(
        "change",
        [
            {"targets": [3]},
            {"targets": [-1]},
            {"targets": [True]},
            {"alpha": [1.0, 1.0]},
            {"beta": [1.0, math.nan, 1.0]},
            {"alpha": [1.0, "2", 1.0]},
            {"alpha": 1.0},
            {"k": math.inf},
            {"ignition": 5},
            {"ignition": -1},
        ],
    )
    def test_hof_rejects(self, graph, change):
        args = dict(graph=graph, ignition=0, targets=[2], alpha=[1.0] * 3,
                    beta=[1.0] * 3, k=1.0)
        args.update(change)
        with pytest.raises(StructuralError):
            build_hof_model(**args)

    def test_hof_names_a_repeated_target(self, graph):
        # the second row earliest_1 was refused as a repeated constraint name
        args = dict(graph=graph, ignition=0, alpha=[1.0] * 3, beta=[1.0] * 3, k=1.0)
        with pytest.raises(StructuralError, match="^target 1 is listed twice$"):
            build_hof_model(targets=[1, 2, 1], **args)
        # without a repeat the list's order changes no byte
        assert export_model(build_hof_model(targets=[2, 1], **args)) == \
            export_model(build_hof_model(targets=[1, 2], **args))

    @pytest.mark.parametrize(
        "change",
        [
            {"weights": [1.0] * 4},
            {"flame_lengths": [0.0, math.inf, 0.0]},
            {"flame_threshold": None},
            {"k": math.nan},
        ],
    )
    def test_wei_rejects(self, graph, change):
        args = dict(graph=graph, ignition=0, horizon=5.0, delay=1.0, weights=[1.0] * 3,
                    flame_lengths=[0.0] * 3, flame_threshold=4.0, k=1)
        args.update(change)
        with pytest.raises(StructuralError):
            build_wei_model(**args)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    @pytest.mark.parametrize("model", ["wsp", "wei"])
    def test_horizon_must_be_finite_and_positive(self, graph, model, horizon):
        # with 1/H = 0 the burn rows y_v + 0 a_v >= 1 would count every
        # vertex, reached or not, as burned
        if model == "wsp":
            instance = WspInstance(graph, 0, 5.0, 1.0, ((1.0, 1),))
            # WspInstance keeps an infinite horizon but refuses NaN itself
            object.__setattr__(instance, "horizon", horizon)
            build = functools.partial(build_wsp_model, instance)
        else:
            build = functools.partial(build_wei_model, graph, 0, horizon, 1.0, [1.0] * 3,
                                      [0.0] * 3, 4.0, 1)
        with pytest.raises(StructuralError, match="horizon must be finite and positive"):
            build()


def solve_with_highs(model):
    """Optimal objective of the model from HiGHS via scipy.optimize.milp,
    with the matrix read from the model's own rows and bounds."""
    optimize = pytest.importorskip("scipy.optimize")
    column = {v.name: j for j, v in enumerate(model.variables)}
    sign = 1.0 if model.objective_sense == "min" else -1.0
    cost = np.zeros(len(column))
    for coef, var in model.objective_terms:
        cost[column[var]] += sign * coef
    matrix = np.zeros((len(model.constraints), len(column)))
    lower = np.full(len(model.constraints), -np.inf)
    upper = np.full(len(model.constraints), np.inf)
    for row, c in enumerate(model.constraints):
        for coef, var in c.terms:
            matrix[row, column[var]] += coef
        if c.sense in ("<=", "="):
            upper[row] = c.rhs
        if c.sense in (">=", "="):
            lower[row] = c.rhs
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=[1 if v.kind == "binary" else 0 for v in model.variables],
        bounds=optimize.Bounds(
            [v.lower for v in model.variables], [v.upper for v in model.variables]
        ),
    )
    assert result.status == 0, result.message
    return sign * result.fun


class TestSolvedModel:
    def test_highs_optimum_equals_brute_force(self):
        # a model that admitted a spuriously better solution would pass the
        # feasibility checks above but fail here
        rng = np.random.default_rng(2031)
        for _ in range(30):
            horizon = float(rng.uniform(5.0, 10.0))
            points = int(rng.integers(1, 3))
            times = sorted({round(float(t), 2) for t in rng.uniform(0.5, horizon, points)})
            schedule = tuple((t, int(rng.integers(1, 3))) for t in times)
            instance = random_grid_instance(
                rng, side=4, schedule_spec=schedule, horizon=horizon,
                delay=float(rng.uniform(1.0, 5.0)),
            )
            value = solve_with_highs(build_wsp_model(instance))
            assert value == pytest.approx(brute_force(instance).objective, abs=1e-6)
