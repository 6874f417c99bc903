import math

import pytest

from wsptools import benchlab
from wsptools.benchlab import (
    SM_DELTA_45_INSTANCES,
    SM_DELTA_60_INSTANCES,
    CSV_COLUMNS,
    RunRecord,
    _average_ranks,
    performance_profiles,
    read_records,
    records_to_blocks,
    run_benchmark,
    sm_scores,
    write_records,
)
from wsptools.core import StructuralError, load_instance, save_instance

from helpers import profile_value, random_grid_instance


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
        write_records(path, [rec("i2", "rs", 9)])
        assert [r.instance for r in read_records(path)] == ["i1", "i2"]

    def test_columns_are_the_record_fields(self, tmp_path):
        assert CSV_COLUMNS == ["instance", "algorithm", "seed", "objective", "wall_seconds",
                               "status"]
        path = tmp_path / "runs.csv"
        write_records(path, [rec("i1", "rs", 12, seed=3, wall=0.25, status="limit")])
        assert path.read_bytes() == (
            b"instance,algorithm,seed,objective,wall_seconds,status\r\n"
            b"i1,rs,3,12,0.25,limit\r\n"
        )

    def test_extra_columns_are_ignored(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("version,instance,algorithm,seed,objective,wall_seconds,status,stop\n"
                        "2,i1,rs,3,12,0.25,ok,budget\n")
        assert read_records(path) == [rec("i1", "rs", 12, seed=3, wall=0.25)]

    def test_empty_file_holds_no_records(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("")
        assert read_records(path) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("instance,algorithm,seed,objective,status\ni1,rs,0,3,ok\n",
             "line 1: header lacks wall_seconds"),
            ("instance,algorithm,seed,objective,wall_seconds,status\n"
             "i1,rs,0,3,0.1,ok\ni1,beam,0,3,0.1\n", "line 3: fewer fields than the header"),
            ("instance,algorithm,seed,objective,wall_seconds,status\ni1,rs,zero,3,0.1,ok\n",
             "line 2: invalid literal for int() with base 10: 'zero'"),
            ("instance,algorithm,seed,objective,wall_seconds,status\ni1,rs,0,3,fast,ok\n",
             "line 2: could not convert string to float: 'fast'"),
            ("instance,algorithm,seed,objective,wall_seconds,status\ni1,rs,0,3,0.1,okay\n",
             "line 2: status 'okay' is not one of ok, limit, error"),
        ],
    )
    def test_malformed_csv(self, tmp_path, text, message):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        with pytest.raises(StructuralError) as info:
            read_records(path)
        assert str(info.value) == f"records file {path} {message}"

    @pytest.mark.parametrize("header", [
        "version,instance,algorithm,seed,objective,wall_seconds,status",
        "algorithm,instance,seed,objective,wall_seconds,status",
    ])
    def test_append_refuses_another_header(self, tmp_path, header):
        # rows are written in CSV_COLUMNS order: an extra column left the
        # file unreadable, a reordered one swapped instance and algorithm
        path = tmp_path / "runs.csv"
        path.write_text(header + "\n")
        with pytest.raises(StructuralError) as info:
            write_records(path, [rec("i1", "rs", 12)])
        assert str(info.value) == (f"records file {path} line 1: rows are appended as "
                                   f"{','.join(CSV_COLUMNS)}, and the header differs")
        assert path.read_text() == header + "\n"


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
        assert profile_value(a, 1.0) == 1.0
        # B matches the best on i2 only, catches up at ratio 2
        assert profile_value(b, 1.0) == 0.5
        assert profile_value(b, 2.0) == 1.0

    def test_curves_are_step_functions(self):
        for curve in performance_profiles(self.records()):
            taus = [t for t, _ in curve.breakpoints]
            ps = [p for _, p in curve.breakpoints]
            assert taus == sorted(taus)
            assert ps == sorted(ps)
            assert profile_value(curve, 0.5) == 0.0

    def test_missing_cell_never_reaches_one(self):
        records = [rec("i1", "A", 10), rec("i2", "A", 10), rec("i1", "B", 10)]
        curves = {c.algorithm: c for c in performance_profiles(records)}
        assert profile_value(curves["B"], 1e9) == 0.5

    def test_requires_ok_records(self):
        with pytest.raises(ValueError):
            performance_profiles([rec("i1", "A", -1, status="error")])

    @pytest.mark.parametrize("low", [0, -3])
    def test_ok_objective_below_one_rejected(self, low):
        # a ratio to a best median of 0 is undefined; the ignition always burns
        records = [rec("i1", "A", 4), rec("i1", "B", low), rec("i1", "B", 2, seed=1)]
        with pytest.raises(ValueError, match="B on i1 has ok objective"):
            performance_profiles(records)


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

    def test_average_ranks_match_the_definition(self, rng):
        # a value's rank: the count of smaller values plus (the count of equal ones + 1) / 2
        for _ in range(200):
            size = int(rng.integers(0, 12))
            values = [float(v) for v in rng.integers(0, 4, size=size)]
            values += [math.inf] * int(rng.integers(0, 3))
            values = [values[i] for i in rng.permutation(len(values))]
            expected = [
                sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2
                for v in values
            ]
            assert _average_ranks(values) == expected, values

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
        assert records_to_blocks(records, math.inf) == {
            "i1": {"rs": [12.0, math.inf], "beam": [10.0]}}

    def test_failures_rank_last_with_average_ranks(self):
        records = [
            rec("i1", "rs", 12), rec("i1", "beam", 10), rec("i1", "exact", 9),
            rec("i2", "rs", 12), rec("i2", "beam", -1, status="error"),
            rec("i2", "exact", -1, status="limit"),
        ]
        scores, _ = sm_scores(records_to_blocks(records, math.inf), delta=0.0)
        # i1: exact 1, beam 2, rs 3; i2: rs 1, the tied failures (2 + 3) / 2
        assert scores == {"beam": 4.5, "exact": 3.5, "rs": 4.0}
        with pytest.raises(ValueError, match="block i2 has treatments"):
            sm_scores(records_to_blocks(records), delta=0.0)


class TestBenchmarkRunner:
    def _instance(self, rng, tmp_path):
        instance = random_grid_instance(rng, side=3, schedule_spec=((1.0, 1),))
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        return str(path)

    def test_run_and_resume(self, rng, tmp_path):
        path = self._instance(rng, tmp_path)
        plan = ([path], ["rs", "beam", "exact"], [0], 0.1)
        out = tmp_path / "runs.csv"
        first = run_benchmark(*plan, out)
        assert len(first) == 3
        assert all(r.status == "ok" and r.instance == path for r in first)
        # exact must be at least as good as the heuristics
        by_algo = {r.algorithm: r.objective for r in first}
        assert by_algo["exact"] <= by_algo["rs"]
        assert by_algo["exact"] <= by_algo["beam"]
        # a second invocation skips completed cells
        again = run_benchmark(*plan, out)
        assert again == []
        assert len(read_records(out)) == 3

    def test_partial_resume_runs_only_missing(self, rng, tmp_path):
        path = self._instance(rng, tmp_path)
        out = tmp_path / "runs.csv"
        run_benchmark([path], ["rs"], [0], 0.1, out)
        rest = run_benchmark([path], ["rs", "beam", "exact"], [1, 0], 0.1, out)
        # the cells run in plan order: instance, then algorithm, then seed
        assert [(r.algorithm, r.seed) for r in rest] == [
            ("rs", 1), ("beam", 1), ("beam", 0), ("exact", 1), ("exact", 0)
        ]

    def test_resume_refuses_another_header_before_any_cell(self, rng, tmp_path, capsys):
        path = self._instance(rng, tmp_path)
        out = tmp_path / "runs.csv"
        text = "algorithm,instance,seed,objective,wall_seconds,status\nrs,i1,0,3,0.1,ok\n"
        out.write_text(text)
        with pytest.raises(StructuralError, match="and the header differs"):
            run_benchmark([path], ["magic"], [0], None, out)
        assert capsys.readouterr().err == ""  # the failing cell never ran
        assert out.read_text() == text

    def test_unknown_algorithm_recorded_as_error(self, rng, tmp_path, capsys):
        instance = random_grid_instance(rng, side=3)
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        out = tmp_path / "runs.csv"
        records = run_benchmark([str(path)], ["magic"], [4], None, out)
        assert records[0].status == "error"
        assert records[0].objective == -1
        # one stderr line names the cell and the exception
        assert capsys.readouterr().err == f"error: cell {path} magic seed 4: KeyError: 'magic'\n"

    def test_each_instance_loads_once(self, rng, tmp_path, monkeypatch):
        # the product is instance-major, so every cell of an instance reuses it
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            save_instance(random_grid_instance(rng, side=3, schedule_spec=((1.0, 1),)), path)
            paths.append(str(path))
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_instance(path)

        monkeypatch.setattr(benchlab, "load_instance", counting_load)
        records = run_benchmark(paths, ["rs", "beam"], [0, 1], 0.01, tmp_path / "runs.csv")
        assert len(records) == 8
        assert all(r.status == "ok" for r in records)
        assert loads == paths
