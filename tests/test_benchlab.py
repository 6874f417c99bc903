import math

import pytest

from wsptools.benchlab import (
    SECONDS_PER_CELL,
    SM_DELTA_45_INSTANCES,
    SM_DELTA_60_INSTANCES,
    BenchCell,
    RunRecord,
    absolute_deviation,
    best_known,
    default_time_limit,
    performance_profiles,
    read_records,
    records_to_blocks,
    relative_deviation,
    run_benchmark,
    sm_scores,
    write_records,
)
from wsptools.core import save_instance
from wsptools.testkit import random_grid_instance


def rec(instance, algorithm, objective, seed=0, wall=0.1, status="ok"):
    return RunRecord(instance, algorithm, seed, objective, wall, status)


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "runs.csv"
        records = [rec("i1", "rs", 12), rec("i1", "beam", 10, seed=3)]
        write_records(path, records)
        assert read_records(path) == records

    def test_append(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_records(path, [rec("i1", "rs", 12)])
        write_records(path, [rec("i2", "rs", 9)], append=True)
        assert [r.instance for r in read_records(path)] == ["i1", "i2"]

    def test_overwrite(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_records(path, [rec("i1", "rs", 12)])
        write_records(path, [rec("i2", "rs", 9)], append=False)
        assert [r.instance for r in read_records(path)] == ["i2"]


class TestDeviations:
    def test_best_known_ignores_failures(self):
        records = [
            rec("i1", "rs", 12),
            rec("i1", "beam", 10),
            rec("i1", "exact", -1, status="limit"),
        ]
        assert best_known(records, "i1") == 10

    def test_best_known_requires_data(self):
        with pytest.raises(ValueError):
            best_known([rec("i1", "rs", -1, status="error")], "i1")

    def test_relative_deviation(self):
        assert relative_deviation(12, 10) == pytest.approx(0.2)
        assert relative_deviation(10, 10) == 0.0
        with pytest.raises(ValueError):
            relative_deviation(5, 0)

    def test_absolute_deviation(self):
        assert absolute_deviation(12, 10) == 2


class TestPerformanceProfiles:
    def records(self):
        # medians: A -> {i1: 10, i2: 20}, B -> {i1: 20, i2: 20}
        return [
            rec("i1", "A", 10), rec("i1", "A", 10, seed=1), rec("i1", "A", 30, seed=2),
            rec("i2", "A", 20),
            rec("i1", "B", 20),
            rec("i2", "B", 20),
        ]

    def test_median_ratios(self):
        curves = {c.algorithm: c for c in performance_profiles(self.records())}
        a, b = curves["A"], curves["B"]
        # A is best on both instances: P(1) = 1
        assert a.value_at(1.0) == 1.0
        # B matches the best on i2 only, catches up at ratio 2
        assert b.value_at(1.0) == 0.5
        assert b.value_at(2.0) == 1.0

    def test_curves_are_step_functions(self):
        for curve in performance_profiles(self.records()):
            taus = [t for t, _ in curve.breakpoints]
            ps = [p for _, p in curve.breakpoints]
            assert taus == sorted(taus)
            assert ps == sorted(ps)
            assert curve.value_at(0.5) == 0.0

    def test_missing_cell_never_reaches_one(self):
        records = [rec("i1", "A", 10), rec("i2", "A", 10), rec("i1", "B", 10)]
        curves = {c.algorithm: c for c in performance_profiles(records)}
        assert curves["B"].value_at(1e9) == 0.5

    def test_requires_ok_records(self):
        with pytest.raises(ValueError):
            performance_profiles([rec("i1", "A", -1, status="error")])


class TestRankScores:
    def test_known_two_block_design(self):
        blocks = {
            "b1": {"A": [1.0], "B": [2.0], "C": [3.0]},
            "b2": {"A": [1.0], "B": [3.0], "C": [2.0]},
        }
        scores, significant = sm_scores(blocks, delta=2.9)
        assert scores == {"A": 2.0, "B": 5.0, "C": 5.0}
        assert significant == [("A", "B"), ("A", "C")]
        # the threshold is strict: a difference equal to delta is not reported
        _, at_delta = sm_scores(blocks, delta=3.0)
        assert at_delta == []

    def test_full_tie_gives_central_rank(self):
        # c = 2 replications, k = 3 treatments: every rank is (ck+1)/2 = 3.5
        blocks = {"b": {t: [7.0, 7.0] for t in "ABC"}}
        scores, significant = sm_scores(blocks, delta=0.0)
        assert scores == {"A": 3.5, "B": 3.5, "C": 3.5}
        assert significant == []

    def test_rank_sum_conserved(self, rng):
        treatments = ["A", "B", "C", "D"]
        c = 3
        blocks = {
            f"b{i}": {t: [float(v) for v in rng.integers(0, 5, size=c)] for t in treatments}
            for i in range(6)
        }
        scores, _ = sm_scores(blocks, delta=math.inf)
        # per block the treatment mean ranks sum to k(ck+1)/2
        expected = 6 * len(treatments) * (c * len(treatments) + 1) / 2.0
        assert sum(scores.values()) == pytest.approx(expected)

    def test_unbalanced_design_rejected(self):
        with pytest.raises(ValueError):
            sm_scores({"b1": {"A": [1.0], "B": [1.0, 2.0]}}, delta=1.0)
        with pytest.raises(ValueError):
            sm_scores({"b1": {"A": [1.0]}, "b2": {"B": [1.0]}}, delta=1.0)

    def test_delta_presets(self):
        assert SM_DELTA_60_INSTANCES == 335.0
        assert SM_DELTA_45_INSTANCES == 244.0

    def test_records_to_blocks(self):
        records = [
            rec("i1", "rs", 12), rec("i1", "beam", 10),
            rec("i1", "rs", -1, status="error"),
        ]
        assert records_to_blocks(records) == {"i1": {"rs": [12.0], "beam": [10.0]}}


class TestBenchmarkRunner:
    def test_time_limit_scales_with_cells(self):
        assert default_time_limit(400) == 600.0
        assert SECONDS_PER_CELL == 1.5

    def _cells(self, rng, tmp_path):
        instance = random_grid_instance(rng, side=3, schedule_spec=((1.0, 1),))
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        return [
            BenchCell(str(path), "inst", "rs", seed=0, time_limit=0.1),
            BenchCell(str(path), "inst", "beam", seed=0, time_limit=0.1),
            BenchCell(str(path), "inst", "exact", seed=0, time_limit=0.1),
        ]

    def test_run_and_resume(self, rng, tmp_path):
        cells = self._cells(rng, tmp_path)
        out = tmp_path / "runs.csv"
        first = run_benchmark(cells, out)
        assert len(first) == 3
        assert all(r.status == "ok" for r in first)
        # exact must be at least as good as the heuristics
        by_algo = {r.algorithm: r.objective for r in first}
        assert by_algo["exact"] <= by_algo["rs"]
        assert by_algo["exact"] <= by_algo["beam"]
        # a second invocation skips completed cells
        again = run_benchmark(cells, out)
        assert again == []
        assert len(read_records(out)) == 3

    def test_partial_resume_runs_only_missing(self, rng, tmp_path):
        cells = self._cells(rng, tmp_path)
        out = tmp_path / "runs.csv"
        run_benchmark(cells[:1], out)
        rest = run_benchmark(cells, out)
        assert [r.algorithm for r in rest] == ["beam", "exact"]

    def test_unknown_algorithm_recorded_as_error(self, rng, tmp_path):
        instance = random_grid_instance(rng, side=3)
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        out = tmp_path / "runs.csv"
        records = run_benchmark([BenchCell(str(path), "inst", "magic", seed=0)], out)
        assert records[0].status == "error"
        assert records[0].objective == -1
