"""End-to-end acceptance suite.

Each test covers one release criterion, prints a single PASS/FAIL line
to the real stdout (visible regardless of capture), and fails with the
collected diagnostics if the criterion is not met.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from wsptools.benchlab import (
    SM_DELTA_45_INSTANCES,
    SM_DELTA_60_INSTANCES,
    RunRecord,
    performance_profiles,
    sm_scores,
)
from wsptools.core import (
    EMPTY_ALLOCATION,
    Allocation,
    check_feasibility,
    compute_arrival_times,
    instance_to_json,
    objective,
    single_source_distances,
)
from wsptools.generator import (
    WIND_LEVELS,
    GeneratorConfig,
    generate_instance,
    generate_landscape,
)
from wsptools.mip import build_wsp_model
from wsptools.reductions import cost_preserving_augmentation, verify_reductions
from wsptools.rothermel import (
    albini_multiplier,
    slope_factor,
    travel_time,
    wind_factor,
)
from wsptools.solvers import beam_search, brute_force, SolverBudget, random_search
from wsptools.testkit import random_digraph, random_mvnp_instance

from helpers import (
    allocation_to_assignment,
    profile_value,
    random_allocation,
    random_grid_instance,
    random_wsp_instance,
    validate_assignment,
)

from conftest import nine_vertex_instance


def _report(number: int, label: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{verdict}] criterion {number}: {label}", file=sys.__stdout__, flush=True)
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures[:5])


def _label_correcting_arrivals(instance, alloc):
    n = instance.graph.vertex_count
    protected = alloc.protected
    dist = [math.inf] * n
    dist[instance.ignition] = 0.0
    for _ in range(n):
        changed = False
        for u, v, t in instance.graph.arcs:
            cost = t + (instance.delay if u in protected else 0.0)
            if dist[u] + cost < dist[v]:
                dist[v] = dist[u] + cost
                changed = True
        if not changed:
            break
    return dist


def test_criterion_01_arrival_oracle_equivalence():
    rng = np.random.default_rng(101)
    failures = []
    for i in range(200):
        instance = random_wsp_instance(rng, max_vertices=60)
        for _ in range(5):
            alloc = random_allocation(rng, instance)
            got = compute_arrival_times(instance, alloc).arrival
            want = _label_correcting_arrivals(instance, alloc)
            if not all(a == b or abs(a - b) <= 1e-9 for a, b in zip(got, want)):
                failures.append(f"mismatch on sample {i}")
    _report(1, "arrival-time oracle equivalence", failures)


def test_criterion_02_monotonicity():
    rng = np.random.default_rng(202)
    failures = []
    for i in range(100):
        instance = random_wsp_instance(rng, max_vertices=25)
        for _ in range(50):
            bigger = random_allocation(rng, instance)
            cut = int(rng.integers(0, len(bigger.assignments) + 1))
            smaller = Allocation(bigger.assignments[:cut])
            a_small = compute_arrival_times(instance, smaller).arrival
            a_big = compute_arrival_times(instance, bigger).arrival
            if not all(x <= y + 1e-9 for x, y in zip(a_small, a_big)):
                failures.append(f"monotonicity broken on instance {i}")
                break
    _report(2, "arrival monotonicity under larger allocations", failures)


def _enumerate_protection_optimum(instance):
    """Minimum burned count over all binary protection assignments that
    satisfy the capacity, single-use, and availability rules, scored by
    the shortest-path engine."""
    n = instance.graph.vertex_count
    schedule = instance.schedule
    offsets = [0]
    for _, count in schedule:
        offsets.append(offsets[-1] + count)
    best = [math.inf]

    def recurse(level, taken, pairs):
        if level == len(schedule):
            outcome = compute_arrival_times(instance, Allocation(tuple(pairs)))
            ok = all(
                outcome.arrival[v] >= instance.resource_release_time(r) for r, v in pairs
            )
            if ok:
                best[0] = min(best[0], outcome.burned_count(instance.horizon))
            return
        _, count = schedule[level]
        free = [v for v in range(n) if v not in taken]
        for size in range(min(count, len(free)) + 1):
            for combo in itertools.combinations(free, size):
                new_pairs = pairs + [
                    (offsets[level] + i, v) for i, v in enumerate(combo)
                ]
                recurse(level + 1, taken | set(combo), new_pairs)

    recurse(0, frozenset(), [])
    return best[0]


def test_criterion_03_mip_semantic_equivalence():
    rng = np.random.default_rng(303)
    failures = []
    for i in range(30):
        t_points = int(rng.integers(1, 3))
        total = int(rng.integers(1, 4))
        if t_points == 1:
            counts = [total]
        else:
            first = int(rng.integers(1, total + 1)) if total > 1 else 1
            counts = [first, max(total - first, 1)] if total - first >= 1 else [first]
        times = sorted(float(t) for t in rng.uniform(0.5, 5.0, size=len(counts)))
        schedule = tuple(zip(sorted(set(times)), counts))
        if len(schedule) < len(counts):
            schedule = ((times[0], sum(counts)),)
        instance = random_grid_instance(
            rng, side=4, schedule_spec=schedule, horizon=8.0, delay=4.0
        )
        result = brute_force(instance)
        enumerated = _enumerate_protection_optimum(instance)
        if enumerated != result.objective:
            failures.append(f"instance {i}: model {enumerated} vs solver {result.objective}")
            continue
        model = build_wsp_model(instance)
        assignment = allocation_to_assignment(instance, result.allocation)
        violated = validate_assignment(model, assignment)
        if violated:
            failures.append(f"instance {i}: optimum violates {violated[:2]}")
    _report(3, "protection model equivalence on 4x4 instances", failures)


def test_criterion_04_reduction_equivalence():
    rng = np.random.default_rng(404)
    failures = []
    for i in range(200):
        mvnp = random_mvnp_instance(rng, max_vertices=7, max_k=2, max_cost=5)
        answers = verify_reductions(mvnp)
        if not answers["agree"]:
            failures.append(f"sample {i}: {answers}")
    _report(4, "reduction decision equivalence (200 samples)", failures)


def test_criterion_05_augmentation_preserves_distances():
    rng = np.random.default_rng(505)
    failures = []
    checked = 0
    while checked < 100:
        # integer costs keep the half-cost arc split exactly representable
        graph = random_digraph(rng, max_vertices=8, arc_prob=0.4, integer_costs=True)
        if not graph.arcs:
            continue
        checked += 1
        augmented, _ = cost_preserving_augmentation(graph)
        for v in range(graph.vertex_count):
            original = single_source_distances(graph, v)
            lifted = single_source_distances(augmented, v)[: graph.vertex_count]
            if lifted != original:
                failures.append(f"distances changed from vertex {v}")
                break
    _report(5, "arc-splitting augmentation preserves all-pairs distances", failures)


def test_criterion_06_physics_spot_checks():
    failures = []
    if slope_factor(0.0) != 0.0:
        failures.append("slope factor at zero")
    if wind_factor(0.0) != 0.0:
        failures.append("wind factor at zero")
    if albini_multiplier(-5.0, -0.2) != 1.0:
        failures.append("downslope backfire multiplier")
    if abs(slope_factor(1.0) - 25.854221349058093) > 1e-9:
        failures.append(f"slope factor reference: {slope_factor(1.0)!r}")
    if abs(wind_factor(100.0) - 0.033864572923739816) > 1e-9:
        failures.append(f"wind factor reference: {wind_factor(100.0)!r}")
    if travel_time(800.0, 10.0, 10.0) != 80.0:
        failures.append("harmonic-mean travel time")
    _report(6, "spread-physics spot checks", failures)


def test_criterion_07_generator_contract():
    failures = []
    lo, hi = WIND_LEVELS["light"]
    for seed in range(5):
        config = GeneratorConfig(seed=seed)
        if config.cell_spacing != 875:
            failures.append(f"seed {seed}: spacing {config.cell_spacing}")
        instance = generate_instance(config)
        if instance.horizon < 1440.0:
            failures.append(f"seed {seed}: horizon {instance.horizon}")
        arrivals = single_source_distances(instance.graph, instance.ignition)
        fraction = sum(1 for a in arrivals if a < instance.horizon) / len(arrivals)
        if fraction < 0.70:
            failures.append(f"seed {seed}: burned fraction {fraction:.3f}")
        if instance.total_resources != 30:
            failures.append(f"seed {seed}: resources {instance.total_resources}")
        landscape = generate_landscape(config)
        for wx, wy in landscape.wind_vectors:
            mag = math.hypot(wx, wy)
            if not lo - 1e-9 <= mag <= hi + 1e-9:
                failures.append(f"seed {seed}: wind magnitude {mag}")
                break
        d = float(config.cell_spacing)
        tangent_ok = all(
            min(abs(landscape.heights[u] - landscape.heights[v]), d) / d <= 1.0 + 1e-12
            for u, v, _ in instance.graph.arcs
        )
        if not tangent_ok:
            failures.append(f"seed {seed}: slope above 45 degrees")
        if instance_to_json(instance) != instance_to_json(generate_instance(config)):
            failures.append(f"seed {seed}: regeneration not byte-identical")
    _report(7, "generator contract over 5 seeds", failures)


def test_criterion_08_solver_sanity():
    failures = []
    for seed in range(20):
        instance = generate_instance(GeneratorConfig(seed=1000 + seed))
        free_burn = objective(instance)
        rs = random_search(instance, SolverBudget(max_iterations=3), seed=seed)
        bs = beam_search(instance, beam_width=2, expansions_per_node=2)
        for name, result in (("random", rs), ("beam", bs)):
            if check_feasibility(instance, result.allocation):
                failures.append(f"seed {seed}: {name} infeasible")
            if result.objective > free_burn:
                failures.append(f"seed {seed}: {name} worse than free burn")
    rng = np.random.default_rng(808)
    for i in range(5):
        small = random_grid_instance(
            rng, side=3, schedule_spec=((1.5, 1), (3.0, 1)), horizon=8.0, delay=4.0
        )
        exhaustive = beam_search(small, beam_width=math.inf, expansions_per_node=math.inf)
        exact = brute_force(small)
        if exhaustive.objective != exact.objective:
            failures.append(f"3x3 instance {i}: beam {exhaustive.objective} vs exact {exact.objective}")
    _report(8, "solver feasibility and exhaustive-beam optimality", failures)


def test_criterion_09_statistics():
    failures = []
    rng = np.random.default_rng(909)
    records = [
        RunRecord(f"i{i}", algo, seed, int(rng.integers(5, 30)), 0.1, "ok")
        for i in range(12)
        for algo in ("rs", "beam", "exact")
        for seed in range(3)
    ]
    curves = performance_profiles(records)
    coverage = 0.0
    for curve in curves:
        values = [p for _, p in curve.breakpoints]
        if any(not 0.0 <= p <= 1.0 for p in values) or values != sorted(values):
            failures.append(f"{curve.algorithm}: curve not monotone in [0, 1]")
        coverage += profile_value(curve, 1.0)
    # every instance has at least one ratio-1 algorithm
    if coverage < 1.0 - 1e-12:
        failures.append(f"best-ratio coverage only {coverage}")

    blocks = {"b": {t: [7.0, 7.0] for t in "ABC"}}
    scores, _ = sm_scores(blocks, delta=1.0)
    if any(s != (2 * 3 + 1) / 2 for s in scores.values()):
        failures.append(f"full-tie scores {scores}")
    blocks = {
        f"b{i}": {t: [float(v) for v in rng.integers(0, 4, size=2)] for t in "ABCD"}
        for i in range(5)
    }
    scores, _ = sm_scores(blocks, delta=math.inf)
    expected = 5 * 4 * (2 * 4 + 1) / 2.0
    if abs(sum(scores.values()) - expected) > 1e-9:
        failures.append("rank-sum conservation identity")
    if SM_DELTA_60_INSTANCES != 335.0 or SM_DELTA_45_INSTANCES != 244.0:
        failures.append("significance-threshold presets")
    _report(9, "profile and rank-score statistics", failures)


def test_criterion_10_worked_example_regression():
    failures = []
    instance = nine_vertex_instance()
    free = compute_arrival_times(instance, EMPTY_ALLOCATION)
    if free.arrival[1] != 1.0 or free.arrival[3] != 1.0:
        failures.append("free-burn arrivals of the two early vertices")
    if [t for t, _ in instance.schedule] != [2.0, 3.0, 4.0] or instance.delay != 2.0:
        failures.append("schedule or delay")
    alloc = Allocation(((0, 2), (1, 4), (2, 6)))
    if check_feasibility(instance, alloc):
        failures.append("reference allocation should be feasible")
    if objective(instance, alloc) != 6:
        failures.append(f"objective {objective(instance, alloc)} != 6")
    bad = check_feasibility(instance, Allocation(((0, 1),)))
    if not bad:
        failures.append("protecting the early-burning vertex must be rejected")
    _report(10, "hand-worked nine-vertex regression", failures)
