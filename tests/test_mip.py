import hashlib
import itertools
import math
import re

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
    LinearModel,
    allocation_to_assignment,
    build_hof_model,
    build_wei_model,
    build_wsp_model,
    evaluate_objective,
    export_model,
    validate_assignment,
)
from wsptools.solvers import brute_force
from wsptools.testkit import random_grid_instance


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
        assert assignment["a_0002"] == model.meta["a_upper_bound"]
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

    def test_unknown_format(self):
        model = build_wsp_model(single_arc_instance())
        with pytest.raises(ValueError):
            export_model(model, "sav")

    def test_maximization_exports(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        model = build_hof_model(graph, 0, [1], alpha=[1.0, 0.0], beta=[1.0, 0.0], k=1.0)
        assert "Maximize" in export_model(model, "lp")
        assert "OBJSENSE" in export_model(model, "mps")


def two_variable_model():
    model = LinearModel(name="m")
    model.add_variable("x", "continuous", 0.0, 5.0)
    model.add_variable("b", "binary", 0.0, 1.0)
    model.objective_terms = ((1.0, "x"),)
    model.add_constraint("row", [(1.0, "x"), (2.0, "b")], "<=", 4.0)
    return model


def assert_export_rejected(model, message):
    for fmt in ("lp", "mps"):
        with pytest.raises(StructuralError, match=re.escape(message)):
            export_model(model, fmt)


class TestModelChecks:
    """Name checks run once per model (validate) and once per export
    (sanitation), not on every add_variable."""

    def test_duplicate_variable_rejected_by_validate_and_export(self):
        model = two_variable_model()
        model.add_variable("x", "continuous")
        with pytest.raises(StructuralError, match="not unique"):
            model.validate()
        assert_export_rejected(model, "variable names not unique")

    def test_unknown_variable_in_constraint_rejected(self):
        model = two_variable_model()
        model.add_constraint("extra", [(1.0, "z")], "<=", 1.0)
        with pytest.raises(StructuralError, match="constraint extra references unknown variable z"):
            model.validate()
        assert_export_rejected(model, "unknown variable z")

    def test_unknown_variable_in_objective_rejected(self):
        model = two_variable_model()
        model.objective_terms = ((1.0, "x"), (1.0, "z"))
        with pytest.raises(StructuralError, match="objective references unknown variable z"):
            model.validate()
        assert_export_rejected(model, "objective references unknown variable z")

    def test_variables_colliding_after_sanitation(self):
        model = two_variable_model()
        model.add_variable("a-1", "continuous")
        model.add_variable("a_1", "continuous")
        model.validate()  # distinct names; only their exported forms collide
        assert_export_rejected(model, "name collision after sanitation: 'a_1' vs 'a-1'")

    def test_constraint_taking_another_variables_name(self):
        model = two_variable_model()
        model.add_variable("a_1", "continuous")
        model.add_constraint("a-1", [(1.0, "a_1")], ">=", 0.0)
        assert_export_rejected(model, "name collision after sanitation: 'a-1' vs 'a_1'")

    def test_constraint_named_like_its_variable_exports(self):
        model = two_variable_model()
        model.add_constraint("x", [(1.0, "x")], ">=", 1.0)
        assert " x: 1.0 x >= 1.0\n" in export_model(model, "lp")
        assert " G x\n" in export_model(model, "mps")


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
