import gc
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from wsptools import cli, generator, mip, reductions, solvers, testkit
from wsptools.benchlab import SM_DELTA_45_INSTANCES, read_records, run_benchmark
from wsptools.cli import _budget, _load_plan, build_parser, dispatch
from wsptools.core import (
    compute_arrival_times,
    load_instance,
    objective,
    save_instance,
    solution_from_json,
)
from wsptools.rothermel import albini_multiplier


def run(capsys, *argv):
    code = dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def small_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(
        capsys,
        "generate", "--seed", "3", "--grid-side", "6", "--decisions", "2",
        "--resources", "few", "-o", str(path),
    )
    assert code == 0
    return path


class TestParsing:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "wsptools" in out and "instance format" in out

    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "generate" in out and "solve" in out

    def test_missing_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_option(self, capsys):
        code, _, _ = run(capsys, "generate", "--does-not-exist")
        assert code == 1

    def test_bad_choice(self, capsys):
        code, _, _ = run(capsys, "generate", "--wind", "hurricane", "-o", "x.json")
        assert code == 1

    def test_shared_defaults(self, tmp_path, monkeypatch):
        # --algo choices and plan validation read solvers.SOLVERS, so a new
        # entry reaches both; the solve bound flags are the SolverBudget fields
        # by dest, each with its field's default
        table = {**solvers.SOLVERS, "extra": solvers.SOLVERS["rs"]}
        monkeypatch.setattr(solvers, "SOLVERS", table)
        parser = build_parser()
        budget = {f.name: f.default for f in fields(solvers.SolverBudget)}
        for algo in table:
            args = parser.parse_args(["solve", "--algo", algo, "-i", "x", "-o", "y"])
            assert args.algo == algo
            assert _budget(args) == solvers.SolverBudget()
            dests = vars(args)
            for other in ("command", "algo", "seed", "input", "output"):
                del dests[other]
            assert dests == budget
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "--algo", "greedy", "-i", "x", "-o", "y"])
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"instances": [], "algorithms": list(table), "seeds": []}))
        assert _load_plan(plan)["algorithms"] == list(table)

    def test_report_delta_defaults_to_45_instances(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("instance,algorithm,seed,objective,wall_seconds,status\n"
                           "i1,rs,0,3,0.1,ok\ni1,beam,0,2,0.1,ok\n")
        code, out, _ = run(capsys, "report", "--records", str(records),
                           "--profiles", os.devnull, "--sm", os.devnull)
        assert code == 0
        assert json.loads(out)["delta"] == SM_DELTA_45_INSTANCES == 244.0

    def test_parser_does_not_import_benchlab(self, tmp_path):
        # only bench and report pay for benchlab and its statistics imports
        argv = ["generate", "--grid-side", "3", "-o", str(tmp_path / "g.json")]
        script = ("import sys; from wsptools import cli; "
                  f"assert cli.dispatch({argv!r}) == 0; "
                  "print(sorted({'wsptools.benchlab', 'statistics'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_generate_flags_read_generator_tables(self, monkeypatch):
        # the level flags take their choices from the generator's tables; the
        # flags but --grid/--grid-side are every GeneratorConfig field except n
        # by dest, each with its field's default, and --grid defaults to n's level
        monkeypatch.setattr(generator, "WIND_LEVELS", {**generator.WIND_LEVELS, "gale": (1, 2)})
        parser = build_parser()
        assert parser.parse_args(["generate", "--wind", "gale", "-o", "x"]).wind_level == "gale"
        dests = vars(parser.parse_args(["generate", "-o", "x"]))
        config = {f.name: f.default for f in fields(generator.GeneratorConfig)}
        assert generator.GRID_LEVELS[dests.pop("grid")] == config.pop("n")
        for other in ("command", "grid_side", "output"):
            del dests[other]
        assert dests == config
        for flag, table in [
            ("--grid", "GRID_LEVELS"), ("--slope", "SLOPE_LEVELS"), ("--delay", "DELAY_LEVELS"),
            ("--resources", "RESOURCE_LEVELS"), ("--first-release", "FIRST_RELEASE_LEVELS"),
            ("--last-release", "LAST_RELEASE_LEVELS"),
        ]:
            for level in getattr(generator, table):
                assert parser.parse_args(["generate", flag, level, "-o", "x"])


@pytest.fixture
def fresh_parser():
    """dispatch with no parser built yet, as in a new process."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestParserReuse:
    """dispatch builds one parser per process and reuses it; argparse keeps
    no state of one parse for the next."""

    def test_one_parser_over_many_commands(self, fresh_parser, monkeypatch, capsys):
        calls = []

        def counting_build_parser():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        assert run(capsys, "--version")[0] == 0
        assert run(capsys, "generate", "--does-not-exist")[0] == 1
        code, out, _ = run(capsys, "physics", "eval", "--wind-speed", "1", "--slope-tangent", "0")
        assert code == 0 and json.loads(out)["multiplier"] > 1.0
        assert len(calls) == 1

    def test_usage_error_leaves_no_trace(self, fresh_parser, tmp_path, capsys):
        argv = ["generate", "--seed", "5", "--grid-side", "5", "--wind", "strong",
                "--decisions", "2", "--resources", "few"]
        alone = tmp_path / "alone.json"
        expected = run(capsys, *argv, "-o", str(alone))
        cli._parser.cache_clear()
        code, _, err = run(capsys, "generate", "--seed", "x", "--wind", "hurricane", "-o", "y")
        assert code == 1 and "error" in err
        after = tmp_path / "after.json"
        got = run(capsys, *argv, "-o", str(after))
        assert expected[0] == got[0] == 0
        assert got[1:] == (expected[1], expected[2].replace(str(alone), str(after)))
        assert after.read_bytes() == alone.read_bytes()

    def test_version_twice(self, fresh_parser, capsys):
        first = run(capsys, "--version")
        assert first[0] == 0
        assert run(capsys, "--version") == first


class TestGenerate:
    def test_writes_loadable_instance(self, small_instance):
        instance = load_instance(small_instance)
        assert instance.graph.vertex_count == 36
        assert instance.total_resources == 3  # "few" on a side-6 grid

    def test_negative_seed_generates(self, tmp_path, capsys):
        # generator seeds are mixed, not handed to numpy: only solve and
        # verify-reductions refuse a negative --seed
        path = tmp_path / "neg.json"
        code, _, _ = run(capsys, "generate", "--seed", "-5", "--grid-side", "3", "-o", str(path))
        assert code == 0
        assert load_instance(path).meta["generator"]["seed"] == -5

    def test_every_flag_reaches_the_config(self, tmp_path, capsys):
        config = generator.GeneratorConfig(
            seed=4, n=7, landscape_extent=9000.0, slope_level="steep", wind_level="strong",
            wind_direction=0.7, decision_points=3, resources_level="many", delay_level="low",
            first_release="late", last_release="late",
        )
        assert all(getattr(config, f.name) != f.default for f in fields(config))
        path = tmp_path / "cli.json"
        code, _, err = run(
            capsys, "generate", "--seed", "4", "--grid-side", "7", "--extent", "9000",
            "--slope", "steep", "--wind", "strong", "--wind-direction", "0.7",
            "--decisions", "3", "--resources", "many", "--delay", "low",
            "--first-release", "late", "--last-release", "late", "-o", str(path),
        )
        assert code == 0, err
        save_instance(generator.generate_instance(config), tmp_path / "lib.json")
        assert path.read_bytes() == (tmp_path / "lib.json").read_bytes()

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "generate", "--seed", "9", "--grid-side", "6",
                             "--decisions", "2", "-o", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_config_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--grid-side", "1",
                           "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_tiny_grid_first_release_after_ignition(self, tmp_path, capsys, seed):
        # on a 3 x 3 grid q(5) of the free-burn arrivals is the ignition's
        # 0.0; the first release goes to the next arrival instead
        path = tmp_path / "tiny.json"
        code, _, err = run(capsys, "generate", "--seed", str(seed), "--grid-side", "3",
                           "--slope", "flat", "-o", str(path))
        assert code == 0, err
        instance = load_instance(path)
        arrivals = sorted(compute_arrival_times(instance).arrival)
        assert instance.schedule[0][0] >= arrivals[1] > 0.0

    @pytest.mark.parametrize("direction", ["nan", "inf", "-inf"])
    def test_nonfinite_wind_direction_is_domain_error(self, tmp_path, capsys, direction):
        # a nan direction makes every wind vector nan, which no multiplier case selects
        path = tmp_path / "x.json"
        code, _, err = run(capsys, "generate", "--grid-side", "6",
                           "--wind-direction", direction, "-o", str(path))
        assert code == 2
        assert "wind direction must be a finite number" in err
        assert not path.exists()

    def test_decisions_are_bounded(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        code, _, err = run(capsys, "generate", "--grid-side", "4", "--decisions", "100001",
                           "-o", str(path))
        assert code == 2
        assert err == "error: decision_points must be at most 100000, got 100001\n"
        assert not path.exists()
        code, _, _ = run(capsys, "generate", "--grid-side", "4", "--decisions", "100000",
                         "-o", str(path))
        assert code == 0 and path.exists()

    def test_grid_side_is_bounded(self, tmp_path, capsys):
        # numpy would be asked for 7.28 TiB; the config refuses the side first
        path = tmp_path / "x.json"
        code, _, err = run(capsys, "generate", "--grid-side", "1000000", "--extent", "1e7",
                           "-o", str(path))
        assert code == 2
        assert err == "error: grid side must be at most 1000, got 1000000\n"
        assert not path.exists()

    def test_zero_extent_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--grid-side", "5", "--extent", "0",
                           "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "landscape extent" in err

    @pytest.mark.parametrize("extent", ["1e-300", "1e300"])
    def test_extent_out_of_bounds_is_domain_error(self, tmp_path, capsys, extent):
        # 1e-300 wrote a 1-ft spacing, 1e300 a 300-digit cell_spacing_ft
        path = tmp_path / "x.json"
        code, _, err = run(capsys, "generate", "--grid-side", "5", "--extent", extent,
                           "-o", str(path))
        assert code == 2
        assert "landscape extent must be between n = 5" in err
        assert not path.exists()


class TestSolveAndEvaluate:
    def test_random_search_round_trip(self, small_instance, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        code, _, err = run(capsys, "solve", "--algo", "rs", "--iterations", "40",
                           "--seed", "1", "-i", str(small_instance), "-o", str(sol))
        assert code == 0
        assert "objective" in err
        _, alloc, reported = solution_from_json(sol.read_text())
        assert reported == objective(load_instance(small_instance), alloc)

    def test_beam_search(self, small_instance, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        code, _, _ = run(capsys, "solve", "--algo", "beam", "--beam-width", "4",
                         "--expansions", "4", "-i", str(small_instance), "-o", str(sol))
        assert code == 0

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    def test_non_finite_time_limit(self, small_instance, tmp_path, capsys, limit):
        # a seconds bound of nan or inf never stops rs when it is the only bound
        code, _, err = run(capsys, "solve", "--algo", "rs", "--time-limit", limit,
                           "--iterations", "1", "-i", str(small_instance),
                           "-o", str(tmp_path / "sol.json"))
        assert code == 2
        assert "max_seconds must be positive and finite" in err

    @pytest.mark.parametrize("limit", ["-inf", "-infinity"])
    def test_negative_infinite_time_limit_separate_word(self, small_instance, tmp_path,
                                                        capsys, limit):
        # argparse's prefix matching would read "-inf" as "-i nf", since solve has -i
        code, _, err = run(capsys, "solve", "--algo", "rs", "--time-limit", limit,
                           "--iterations", "1", "-i", str(small_instance),
                           "-o", str(tmp_path / "sol.json"))
        assert code == 2
        assert "max_seconds must be positive and finite" in err

    def test_short_option_with_attached_value(self, small_instance, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", "--algo", "rs", "--iterations", "1",
                         f"-i{small_instance}", "-o", str(tmp_path / "sol.json"))
        assert code == 0

    def test_exact_refusal_exit_code(self, small_instance, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--algo", "exact", "--max-nodes", "10",
                           "-i", str(small_instance), "-o", str(tmp_path / "sol.json"))
        assert code == 3
        assert "refused" in err

    def test_exact_refusal_leaves_no_output(self, small_instance, tmp_path, capsys):
        out = tmp_path / "sol.json"
        out.write_text("an earlier solution\n")
        code, _, err = run(capsys, "solve", "--algo", "exact", "--max-nodes", "10",
                           "-i", str(small_instance), "-o", str(out))
        assert code == 3 and err.startswith("refused: search-space estimate")
        assert not out.exists()

    def test_zero_horizon_is_domain_error(self, small_instance, tmp_path, capsys):
        doc = json.loads(small_instance.read_text())
        doc["horizon_min"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "solve", "--algo", "rs", "--iterations", "1",
                           "-i", str(bad), "-o", str(out))
        assert code == 2
        assert err == "error: horizon must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["rs", "beam"])
    def test_negative_seed_is_refused(self, small_instance, tmp_path, capsys, algo):
        # rs failed in numpy with a message that named no flag; beam ignored it
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "solve", "--algo", algo, "--seed", "-1",
                           "-i", str(small_instance), "-o", str(out))
        assert code == 2
        assert err == "error: --seed must be nonnegative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_exact_limit_below_one_is_domain_error(self, small_instance, tmp_path, capsys,
                                                   limit):
        code, _, err = run(capsys, "solve", "--algo", "exact", "--max-nodes", limit,
                           "-i", str(small_instance), "-o", str(tmp_path / "sol.json"))
        assert code == 2
        assert f"max_nodes must be at least 1, got {limit}" in err

    def test_evaluate_agrees_with_solver(self, small_instance, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "--algo", "rs", "--iterations", "40", "--seed", "1",
            "-i", str(small_instance), "-o", str(sol))
        code, out, _ = run(capsys, "evaluate", "-i", str(small_instance), "-s", str(sol))
        assert code == 0
        report = json.loads(out)
        _, _, reported = solution_from_json(sol.read_text())
        assert report["feasible"] is True
        assert report["violations"] == []
        assert report["objective"] == reported

    def test_evaluate_vertex_out_of_range(self, small_instance, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"instance_id": "x", "objective": 0, "assignments": [[0, 99]]}))
        code, out, _ = run(capsys, "evaluate", "-i", str(small_instance), "-s", str(sol))
        assert code == 0
        report = json.loads(out)
        assert report["objective"] is None  # no fire is scored off the graph
        assert report["feasible"] is False
        assert report["violations"] == [
            {"resource": 0, "vertex": 99, "reason": "vertex id out of range"}]

    def test_evaluate_resource_not_in_schedule(self, small_instance, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"instance_id": "x", "objective": 0, "assignments": [[7, 3]]}))
        code, out, _ = run(capsys, "evaluate", "-i", str(small_instance), "-s", str(sol))
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["violations"] == [
            {"resource": 7, "vertex": 3, "reason": "resource id not in schedule"}]

    def test_malformed_instance_file(self, small_instance, tmp_path, capsys):
        doc = json.loads(small_instance.read_text())
        doc["delay_min"] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--algo", "rs", "--iterations", "1",
                           "-i", str(bad), "-o", str(tmp_path / "s.json"))
        assert code == 2
        assert "delay" in err

    @pytest.mark.parametrize("put, named", [
        (lambda doc, value: doc["arcs"][0].__setitem__(2, value), "arc (0,1) travel time"),
        (lambda doc, value: doc.__setitem__("horizon_min", value), "horizon_min"),
        (lambda doc, value: doc["schedule"][0].__setitem__("t_min", value), "t_min"),
    ], ids=["arc time", "horizon_min", "t_min"])
    def test_int_past_float_range_exits_2(self, small_instance, tmp_path, capsys, put, named):
        # json reads 10**400 as an exact int, which float() refuses with OverflowError
        doc = json.loads(small_instance.read_text())
        put(doc, 10 ** 400)
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "solve", "--algo", "rs", "--iterations", "1",
                           "-i", str(bad), "-o", str(out))
        assert code == 2
        assert err == f"error: {named} is too large to convert to float\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["solve", "--algo", "beam", "--beam-width", "{big}", "-i", "{inst}"], "beam_width"),
            (["solve", "--algo", "beam", "--expansions", "{big}", "-i", "{inst}"], "expansions"),
            (["generate", "--grid-side", "4", "--decisions", "{big}"], "decision_points"),
        ],
        ids=["beam_width", "expansions", "decision_points"],
    )
    def test_flag_past_float_range_names_its_setting(self, small_instance, tmp_path, capsys,
                                                     argv, named):
        # argparse reads 10**400 as an int; the setting that takes it as a float names itself
        out = tmp_path / "out.json"
        argv = [a.format(big=10 ** 400, inst=small_instance) for a in argv]
        code, _, err = run(capsys, *argv, "-o", str(out))
        assert code == 2
        assert err == f"error: {named} is too large to convert to float\n"
        assert not out.exists()

    def test_missing_instance_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", "--algo", "rs", "--iterations", "1",
                         "-i", str(tmp_path / "nope.json"), "-o", str(tmp_path / "s.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--grid-side", "4", "-o", "{dir}"],
            ["solve", "--algo", "rs", "--iterations", "1", "-i", "{inst}", "-o", "{dir}"],
            ["evaluate", "-i", "{inst}", "--solution", "{dir}"],
            ["export-mip", "--model", "wsp", "-i", "{dir}", "-o", "{dir}/m.lp"],
            ["bench", "--plan", "{dir}", "--out", "{dir}/records.csv"],
            ["report", "--records", "{dir}", "--profiles", "{dir}/p.csv", "--sm", "{dir}/s.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_directory_path_is_domain_error(self, small_instance, tmp_path, capsys, argv):
        argv = [a.format(dir=tmp_path, inst=small_instance) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["generate", "--grid-side", "4"],
        ["solve", "--algo", "rs", "-i", "{inst}"],
        ["export-mip", "--model", "wsp", "-i", "{inst}"],
        ["reduce", "--to", "wsp", "-i", "{mvnp}"],
    ], ids=lambda argv: argv[0])
    def test_output_is_opened_before_the_work(self, small_instance, tmp_path, capsys,
                                              monkeypatch, argv):
        calls = []
        for module, name in [(generator, "generate_instance"), (solvers.SOLVERS, "rs"),
                             (mip, "build_wsp_model"), (reductions, "mvnp_to_wsp")]:
            patch = monkeypatch.setitem if isinstance(module, dict) else monkeypatch.setattr
            patch(module, name, lambda *args, name=name: calls.append(name))
        mvnp = tmp_path / "mvnp.json"
        mvnp.write_text(json.dumps(FOUR_VERTEX_MVNP))
        argv = [a.format(inst=small_instance, mvnp=mvnp) for a in argv]
        code, _, err = run(capsys, *argv, "-o", str(tmp_path))
        assert code == 2 and err.startswith("error: ")
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["solve", "--algo", "exact", "--max-nodes", "10", "-i", "{inst}", "-o", "{same}"],
        ["export-mip", "--model", "wsp", "-i", "{inst}", "-o", "{same}"],
        ["reduce", "--to", "wsp", "-i", "{same}", "-o", "{mvnp}"],
    ], ids=lambda argv: argv[0])
    def test_output_naming_an_input_is_refused(self, small_instance, tmp_path, capsys, argv):
        # the output is opened before the work and removed if the work fails,
        # which would take the input with it
        mvnp = tmp_path / "mvnp.json"
        mvnp.write_text(json.dumps(FOUR_VERTEX_MVNP))
        same = {"solve": small_instance, "export-mip": small_instance, "reduce": mvnp}[argv[0]]
        before = same.read_bytes()
        argv = [a.format(inst=small_instance, mvnp=mvnp,
                         same=os.path.join(same.parent, ".", same.name)) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: output {argv[-1]} is an input file\n"
        assert same.read_bytes() == before

    @pytest.mark.parametrize(
        "solution, message",
        [
            ({"instance_id": "x", "objective": 1}, "assignments"),
            ({"instance_id": "x", "objective": 1, "assignments": {"0": 3}}, "assignments"),
            ({"instance_id": "x", "objective": 1, "assignments": [[0]]}, "assignment"),
            ({"instance_id": "x", "objective": 1, "assignments": [[0, "3"]]}, "assignment"),
            ({"instance_id": "x", "objective": 1, "assignments": [[0, 3.0]]}, "assignment"),
            ({"instance_id": "x", "objective": 1, "assignments": [[0, True]]}, "assignment"),
            ({"objective": 1, "assignments": []}, "instance_id"),
            ({"instance_id": 7, "objective": 1, "assignments": []}, "instance_id"),
            ({"instance_id": "x", "assignments": []}, "objective"),
            ({"instance_id": "x", "objective": "1", "assignments": []}, "objective"),
            ([["x", 1]], "JSON object"),
        ],
    )
    def test_malformed_solution_file(self, small_instance, tmp_path, capsys, solution, message):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(solution))
        code, _, err = run(capsys, "evaluate", "-i", str(small_instance), "-s", str(sol))
        assert code == 2
        assert message in err


class TestExportMip:
    def test_wsp_lp(self, small_instance, tmp_path, capsys):
        out = tmp_path / "model.lp"
        code, _, _ = run(capsys, "export-mip", "--model", "wsp", "--format", "lp",
                         "-i", str(small_instance), "-o", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("\\ wsp\nMinimize")
        assert text.endswith("End\n")

    def test_wsp_mps(self, small_instance, tmp_path, capsys):
        out = tmp_path / "model.mps"
        code, _, _ = run(capsys, "export-mip", "--model", "wsp", "--format", "mps",
                         "-i", str(small_instance), "-o", str(out))
        assert code == 0
        assert out.read_text().endswith("ENDATA\n")

    def test_hof_requires_aux(self, small_instance, tmp_path, capsys):
        code, _, err = run(capsys, "export-mip", "--model", "hof",
                           "-i", str(small_instance), "-o", str(tmp_path / "m.lp"))
        assert code == 2
        assert "aux" in err

    def test_wei_with_aux(self, small_instance, tmp_path, capsys):
        n = 36
        aux = tmp_path / "aux.json"
        aux.write_text(json.dumps({
            "weights": [1.0] * n,
            "flame_lengths": [0.0] * n,
            "flame_threshold": 4.0,
            "k": 3,
        }))
        out = tmp_path / "model.lp"
        code, _, _ = run(capsys, "export-mip", "--model", "wei", "--aux", str(aux),
                         "-i", str(small_instance), "-o", str(out))
        assert code == 0
        assert "budget" in out.read_text()

    def test_malformed_arc_exits_2(self, small_instance, tmp_path, capsys):
        doc = json.loads(small_instance.read_text())
        doc["arcs"][0] = [0, 1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "export-mip", "--model", "wsp",
                           "-i", str(bad), "-o", str(tmp_path / "m.lp"))
        assert code == 2
        assert "arc entry" in err

    def test_infinite_horizon_exits_2(self, small_instance, tmp_path, capsys):
        # the instance loads (an infinite horizon is valid); its wsp model has none
        doc = json.loads(small_instance.read_text())
        doc["horizon_min"] = math.inf
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "inf.lp"
        code, _, err = run(capsys, "export-mip", "--model", "wsp", "-i", str(bad), "-o", str(out))
        assert code == 2
        assert "horizon must be finite and positive, got inf" in err
        assert not out.exists()


HOF_AUX = {"targets": [35], "alpha": [1.0] * 36, "beta": [1.0] * 36, "k": 2.0}


class TestExportAux:
    """Malformed aux sidecars exit 2 with a message, not a traceback."""

    def export(self, capsys, small_instance, tmp_path, model, aux):
        path = tmp_path / "aux.json"
        path.write_text(json.dumps(aux))
        return run(capsys, "export-mip", "--model", model, "--aux", str(path),
                   "-i", str(small_instance), "-o", str(tmp_path / "m.lp"))

    def test_valid_hof_aux(self, small_instance, tmp_path, capsys):
        code, _, _ = self.export(capsys, small_instance, tmp_path, "hof", HOF_AUX)
        assert code == 0

    @pytest.mark.parametrize(
        "aux, message",
        [
            ([HOF_AUX], "JSON object"),
            ({k: v for k, v in HOF_AUX.items() if k != "alpha"}, "lacks alpha"),
            (dict(HOF_AUX, alpha=[1.0] * 35), "alpha must have one entry per vertex"),
            (dict(HOF_AUX, beta=[1.0] * 35 + [float("nan")]), "beta must be a finite number"),
            (dict(HOF_AUX, alpha=None), "alpha must be a list"),
            (dict(HOF_AUX, targets=[36]), "target 36"),
            (dict(HOF_AUX, targets=["0"]), "target '0'"),
            (dict(HOF_AUX, k="2"), "k must be a finite number"),
            (dict(HOF_AUX, integral="yes"), "integral"),
            (dict(HOF_AUX, targets=[3, 3]), "target 3 is listed twice"),
            (dict(HOF_AUX, Integral=True), "unknown keys Integral"),
            (dict(HOF_AUX, k=10 ** 400), "k is too large to convert to float"),
            (dict(HOF_AUX, k=-2), "k must be nonnegative, got -2"),
        ],
    )
    def test_malformed_hof_aux(self, small_instance, tmp_path, capsys, aux, message):
        code, _, err = self.export(capsys, small_instance, tmp_path, "hof", aux)
        assert code == 2
        assert message in err

    def test_unknown_key_message(self, small_instance, tmp_path, capsys):
        code, _, err = self.export(capsys, small_instance, tmp_path, "hof",
                                   dict(HOF_AUX, Integral=True, delay=0.0))
        assert code == 2
        assert err == f"error: aux file {tmp_path / 'aux.json'} has unknown keys Integral, delay\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"flame_lengths": [0.0] * 37}, "flame_lengths must have one entry per vertex"),
            ({"weights": [1.0] * 35 + [None]}, "weights must be a finite number"),
            ({"flame_threshold": None}, "flame_threshold must be a finite number"),
            ({"delay": 0.0, "horizon": 1.0}, "unknown keys delay, horizon"),
            ({"k": -1}, "k must be nonnegative, got -1"),
        ],
    )
    def test_malformed_wei_aux(self, small_instance, tmp_path, capsys, change, message):
        aux = {"weights": [1.0] * 36, "flame_lengths": [0.0] * 36,
               "flame_threshold": 4.0, "k": 3}
        aux.update(change)
        code, _, err = self.export(capsys, small_instance, tmp_path, "wei", aux)
        assert code == 2
        assert message in err


# two routes from source to sink, of cost 2 and 3 = h; one vertex may go
FOUR_VERTEX_MVNP = {"vertex_count": 4, "arcs": [[0, 1, 1.0], [0, 2, 1.0], [1, 3, 1.0],
                                                [2, 3, 2.0]],
                    "source": 0, "sink": 3, "k": 1, "h": 3.0}


class TestReduce:
    @pytest.fixture
    def mvnp_file(self, tmp_path):
        path = tmp_path / "mvnp.json"
        path.write_text(json.dumps({
            "vertex_count": 3,
            "arcs": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 3.0]],
            "source": 0,
            "sink": 2,
            "k": 1,
            "h": 3.0,
        }))
        return path

    def test_to_wsp(self, mvnp_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        code, _, err = run(capsys, "reduce", "--to", "wsp",
                           "-i", str(mvnp_file), "-o", str(out))
        assert code == 0
        assert "decision budget: 2" in err
        instance = load_instance(out)
        assert instance.graph.vertex_count == 5
        assert instance.horizon == 3.0

    def test_to_wwsp(self, mvnp_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        code, _, _ = run(capsys, "reduce", "--to", "wwsp",
                         "-i", str(mvnp_file), "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "wwsp"
        assert doc["weights"] == [0.0, 0.0, 1.0]
        assert doc["decision_budget"] == 0.0

    def test_to_hwsp(self, mvnp_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        code, _, _ = run(capsys, "reduce", "--to", "hwsp",
                         "-i", str(mvnp_file), "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "hwsp"
        assert doc["targets"] == [2]
        assert doc["decision_threshold"] == 3.0

    # sha256 of each reduced document of mvnp_file, byte for byte
    @pytest.mark.parametrize("target, digest", [
        ("wsp", "5ed451295d6d3b70eb86c81a804929fc71af823dc8cfeb807e5db0201e45d3b3"),
        ("wwsp", "8cdbbf8aba63dc1f3bdf9c624143e474b671449e413f724523e4cb9fcd1c7889"),
        ("hwsp", "7e157c2ac898516552ed06c9977fdf23405dd85b3b09be90e7359e019f62c8ac"),
    ])
    def test_reduced_document_bytes(self, mvnp_file, tmp_path, capsys, target, digest):
        out = tmp_path / "reduced.json"
        assert run(capsys, "reduce", "--to", target, "-i", str(mvnp_file), "-o", str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"arcs": [[0, 1], [1, 2, 1.0]]}, "arc entry"),
            ({"arcs": [[0, 1, "1.0"]]}, "arc entry"),
            ({"arcs": [[0, 1, 1.0], [1, 5, 1.0]]}, "out of range"),
            ({"vertex_count": "3"}, "vertex_count"),
            ({"source": None}, "source"),
            ({"sink": 1.5}, "sink"),
            ({"sink": 9}, "out of range"),
            ({"k": True}, "k must be an integer"),
            ({"h": "3"}, "h must be a number"),
            ({"h": 0.0}, "h > 0"),
            ({"h": 10 ** 400}, "h is too large to convert to float"),
        ],
    )
    def test_malformed_mvnp_file(self, mvnp_file, tmp_path, capsys, change, message):
        doc = json.loads(mvnp_file.read_text())
        doc.update(change)
        mvnp_file.write_text(json.dumps(doc))
        code, _, err = run(capsys, "reduce", "--to", "wsp",
                           "-i", str(mvnp_file), "-o", str(tmp_path / "out.json"))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("target", ["wsp", "wwsp", "hwsp"])
    def test_infinite_h_writes_nothing(self, mvnp_file, tmp_path, capsys, target):
        # json reads and writes the Infinity token, which strict JSON parsers reject
        doc = json.loads(mvnp_file.read_text())
        mvnp_file.write_text(json.dumps(dict(doc, h=float("inf"))))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "reduce", "--to", target, "-i", str(mvnp_file), "-o", str(out))
        assert code == 2
        assert "h must be finite" in err
        assert not out.exists()

    def test_non_object_mvnp_file(self, tmp_path, capsys):
        path = tmp_path / "mvnp.json"
        path.write_text("[]")
        code, _, err = run(capsys, "reduce", "--to", "hwsp",
                           "-i", str(path), "-o", str(tmp_path / "out.json"))
        assert code == 2
        assert "JSON object" in err

    def test_verify_reductions(self, capsys):
        code, out, _ = run(capsys, "verify-reductions", "--samples", "10",
                           "--max-vertices", "5", "--seed", "0")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_verify_reductions_disagreement_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(reductions, "verify_reductions", lambda mvnp: {"agree": False})
        code, out, err = run(capsys, "verify-reductions", "--samples", "2")
        assert code == 2
        assert err.splitlines() == ["sample 0: DISAGREE {'agree': False}",
                                    "sample 1: DISAGREE {'agree': False}"]
        assert json.loads(out) == {"samples": 2, "failures": 2, "pass": False}

    def test_takes_no_from_option(self, mvnp_file, tmp_path, capsys):
        code, _, err = run(capsys, "reduce", "--from", "mvnp", "--to", "wsp",
                           "-i", str(mvnp_file), "-o", str(tmp_path / "r.json"))
        assert code == 1 and "--from" in err

    def test_verify_reductions_negative_samples(self, capsys):
        code, out, err = run(capsys, "verify-reductions", "--samples", "-3")
        assert code == 2 and out == ""
        assert err == "error: --samples must be nonnegative, got -3\n"

    def test_verify_reductions_negative_seed(self, capsys):
        # numpy's own refusal named no flag
        code, out, err = run(capsys, "verify-reductions", "--samples", "2", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: --seed must be nonnegative, got -1\n"

    def test_verify_reductions_one_vertex(self, capsys):
        code, _, err = run(capsys, "verify-reductions", "--max-vertices", "1")
        assert code == 2
        assert err == "error: max_vertices must be at least 2, got 1\n"

    @pytest.mark.parametrize("value", [str(testkit.MAX_VERTICES + 1), "100000", str(10**400)],
                             ids=["bound+1", "1e5", "1e400"])
    def test_verify_reductions_too_many_vertices(self, capsys, value, monkeypatch):
        # 100000 started an O(n**2) draw that ran for hours, and 10**400
        # failed in numpy with a message that named no flag
        monkeypatch.setattr(testkit, "random_digraph", None)  # no draw is made
        code, out, err = run(capsys, "verify-reductions", "--max-vertices", value, "--samples", "1")
        assert code == 2 and out == ""
        assert err == (f"error: max_vertices must be at most {testkit.MAX_VERTICES}, "
                       f"got {value}\n")

    def test_verify_reductions_two_vertices_returns(self, capsys):
        # every sample is the one graph drawn for it: source 0, sink 1
        code, out, _ = run(capsys, "verify-reductions", "--max-vertices", "2", "--samples", "20")
        assert code == 0
        assert json.loads(out) == {"samples": 20, "failures": 0, "pass": True}

    def test_exact_counts_only_the_vertices_it_tries(self, tmp_path, capsys):
        # of the reduced graph's 7 vertices only 0 and 1 have out-arcs: one
        # resource gives the estimate 1 + 2 = 3, not the 1 + 7 = 8 of every vertex
        mvnp, reduced = tmp_path / "mvnp.json", tmp_path / "wsp.json"
        mvnp.write_text(json.dumps(FOUR_VERTEX_MVNP))
        assert run(capsys, "reduce", "--to", "wsp", "-i", str(mvnp), "-o", str(reduced))[0] == 0
        out = tmp_path / "sol.json"
        code, _, err = run(capsys, "solve", "--algo", "exact", "--max-nodes", "5",
                           "-i", str(reduced), "-o", str(out))
        assert code == 0, err
        assert err == "objective 3\n"
        assert solution_from_json(out.read_text())[2] == 3

    @pytest.mark.parametrize("arcs", [[[0, 2, 3.0], [1, 2, 1.0]], []],
                             ids=["source without kept arc", "no arcs"])
    @pytest.mark.parametrize("target", ["wsp", "wwsp", "hwsp"])
    def test_reduces_formerly_refused_instance(self, tmp_path, capsys, arcs, target):
        path = tmp_path / "mvnp.json"
        path.write_text(json.dumps({"vertex_count": 3, "arcs": arcs, "source": 0, "sink": 2,
                                    "k": 1, "h": 3.0}))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "reduce", "--to", target, "-i", str(path), "-o", str(out))
        assert code == 0, err
        assert out.exists()


class TestBenchAndReport:
    def test_bench_then_report(self, small_instance, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "instances": [str(small_instance)],
            "algorithms": ["rs", "beam"],
            "seeds": [0, 1],
            "time_limit": 0.1,
        }))
        records = tmp_path / "records.csv"
        code, _, err = run(capsys, "bench", "--plan", str(plan), "--out", str(records))
        assert code == 0
        assert "ran 4 cells" in err
        # resumable: nothing left to run
        code, _, err = run(capsys, "bench", "--plan", str(plan), "--out", str(records))
        assert code == 0
        assert "ran 0 cells" in err

        profiles = tmp_path / "profiles.csv"
        sm = tmp_path / "sm.csv"
        code, out, _ = run(capsys, "report", "--records", str(records),
                           "--profiles", str(profiles), "--sm", str(sm),
                           "--delta", "1e9")
        assert code == 0
        assert json.loads(out)["significant_pairs"] == []
        assert profiles.read_text().startswith("algorithm,tau,fraction")
        assert sm.read_text().startswith("treatment,score")

    def test_rs_cell_without_time_limit_replays_solve(self, small_instance, tmp_path, capsys):
        # with no plan time_limit an rs cell runs the default 1000 iterations,
        # the same run as solve without --time-limit or --iterations
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "instances": [str(small_instance)], "algorithms": ["rs"], "seeds": [2],
        }))
        records = tmp_path / "records.csv"
        assert run(capsys, "bench", "--plan", str(plan), "--out", str(records))[0] == 0
        sol = tmp_path / "sol.json"
        assert run(capsys, "solve", "--algo", "rs", "--seed", "2",
                   "-i", str(small_instance), "-o", str(sol))[0] == 0
        [record] = read_records(records)
        assert record.status == "ok"
        assert record.objective == solution_from_json(sol.read_text())[2]

    def test_repeated_plan_cell_runs_once(self, small_instance, tmp_path, capsys):
        # a second row for a repeated cell would leave the report's design unbalanced
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "instances": [str(small_instance)] * 2, "algorithms": ["rs", "beam", "rs"],
            "seeds": [0, 0], "time_limit": 0.1,
        }))
        records = tmp_path / "records.csv"
        code, _, err = run(capsys, "bench", "--plan", str(plan), "--out", str(records))
        assert code == 0
        assert "ran 2 cells" in err
        rows = [(r.instance, r.algorithm, r.seed) for r in read_records(records)]
        assert rows == [(str(small_instance), "rs", 0), (str(small_instance), "beam", 0)]
        assert self._report(capsys, tmp_path, records)[0] == 0


    def _report(self, capsys, tmp_path, records, *extra):
        return run(capsys, "report", "--records", str(records),
                   "--profiles", str(tmp_path / "profiles.csv"),
                   "--sm", str(tmp_path / "sm.csv"), *extra)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("instance,algorithm,seed,objective,status\ni1,rs,0,3,ok\n",
             "line 1: header lacks wall_seconds"),
            ("instance,algorithm,seed,objective,wall_seconds,status\ni1,rs,0,3\n",
             "line 2: fewer fields than the header"),
            ("instance,algorithm,seed,objective,wall_seconds,status\ni1,rs,0,many,0.1,ok\n",
             "line 2: invalid literal for int()"),
            ("instance,algorithm,seed,objective,wall_seconds,status\ni1,rs,0,3,0.1,okay\n",
             "line 2: status 'okay' is not one of ok, limit, error"),
        ],
    )
    def test_malformed_records_csv(self, small_instance, tmp_path, capsys, text, message):
        records = tmp_path / "records.csv"
        records.write_text(text)
        code, _, err = self._report(capsys, tmp_path, records)
        assert code == 2
        assert f"error: records file {records} {message}" in err
        assert "Traceback" not in err
        # a bench resume reads the same file before it runs any cell
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "instances": [str(small_instance)], "algorithms": ["rs"], "seeds": [0],
        }))
        code, _, err = run(capsys, "bench", "--plan", str(plan), "--out", str(records))
        assert code == 2
        assert f"error: records file {records} {message}" in err
        assert records.read_text() == text

    @pytest.mark.parametrize("header", [
        "instance,algorithm,seed,objective,wall_seconds,status,stop",
        "instance,seed,algorithm,objective,wall_seconds,status",
    ])
    def test_bench_refuses_a_header_rows_would_not_match(self, small_instance, tmp_path,
                                                         capsys, header):
        records = tmp_path / "records.csv"
        records.write_text(header + "\n")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "instances": [str(small_instance)], "algorithms": ["rs"], "seeds": [0],
        }))
        code, _, err = run(capsys, "bench", "--plan", str(plan), "--out", str(records))
        assert code == 2
        assert f"error: records file {records} line 1: rows are appended as" in err
        assert "Traceback" not in err
        assert records.read_text() == header + "\n"

    def test_ok_objective_below_one(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("instance,algorithm,seed,objective,wall_seconds,status\n"
                           "i1,rs,0,0,0.1,ok\ni1,beam,0,2,0.1,ok\n")
        code, _, err = self._report(capsys, tmp_path, records)
        assert code == 2
        assert "rs on i1 has ok objective 0" in err

    def test_unbalanced_design_writes_no_file(self, tmp_path, capsys):
        # the profiles were written before the scores rejected the design
        records = tmp_path / "records.csv"
        records.write_text("instance,algorithm,seed,objective,wall_seconds,status\n"
                           "i1,rs,0,3,0.1,ok\ni1,rs,1,4,0.1,ok\ni1,beam,0,2,0.1,ok\n")
        code, out, err = self._report(capsys, tmp_path, records)
        assert code == 2
        assert "unbalanced cell" in err
        assert out == ""
        assert not (tmp_path / "profiles.csv").exists()
        assert not (tmp_path / "sm.csv").exists()

    def test_failed_replication_ranks_last(self, tmp_path, capsys):
        # exact hit max_nodes on i2; it used to leave i2 without an exact cell
        records = tmp_path / "records.csv"
        records.write_text("instance,algorithm,seed,objective,wall_seconds,status\n"
                           "i1,rs,0,10,0.1,ok\ni1,beam,0,12,0.1,ok\ni1,exact,0,9,0.1,ok\n"
                           "i2,rs,0,18,0.1,ok\ni2,beam,0,20,0.1,ok\ni2,exact,0,-1,0.1,limit\n")
        code, out, _ = self._report(capsys, tmp_path, records, "--delta", "1.5")
        assert code == 0
        # ranks on i1: exact 1, rs 2, beam 3; on i2: rs 1, beam 2, exact 3
        assert (tmp_path / "sm.csv").read_text().splitlines() == [
            "treatment,score", "beam,5.0", "exact,4.0", "rs,3.0"]
        assert json.loads(out)["significant_pairs"] == [["beam", "rs"]]
        # the profiles use ok objectives only: exact has no ratio on i2
        assert (tmp_path / "profiles.csv").read_text().splitlines() == [
            "algorithm,tau,fraction",
            "beam,1.1111111111111112,0.5", "beam,1.3333333333333333,1.0",
            "exact,1.0,0.5",
            "rs,1.0,0.5", "rs,1.1111111111111112,1.0",
        ]

    @pytest.mark.parametrize("unopenable", ["--profiles", "--sm"])
    def test_unopenable_output_leaves_neither_file(self, tmp_path, capsys, unopenable):
        records = tmp_path / "records.csv"
        records.write_text("instance,algorithm,seed,objective,wall_seconds,status\n"
                           "i1,rs,0,3,0.1,ok\ni1,beam,0,2,0.1,ok\n")
        outputs = ["--profiles", tmp_path / "profiles.csv", "--sm", tmp_path / "sm.csv"]
        outputs[outputs.index(unopenable) + 1] = tmp_path
        code, out, err = run(capsys, "report", "--records", str(records), *map(str, outputs))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Is a directory" in err
        assert not (tmp_path / "profiles.csv").exists()
        assert not (tmp_path / "sm.csv").exists()

    @pytest.mark.parametrize("output", ["--profiles", "--sm"])
    def test_output_naming_the_records_is_refused(self, tmp_path, capsys, output):
        records = tmp_path / "records.csv"
        text = ("instance,algorithm,seed,objective,wall_seconds,status\n"
                "i1,rs,0,3,0.1,ok\ni1,beam,0,2,0.1,ok\n")
        records.write_text(text)
        outputs = {"--profiles": tmp_path / "profiles.csv", "--sm": tmp_path / "sm.csv",
                   output: records}
        code, _, err = run(capsys, "report", "--records", str(records),
                           *(str(a) for item in outputs.items() for a in item))
        assert code == 2
        assert err == f"error: output {records} is an input file\n"
        assert records.read_text() == text
        assert not (tmp_path / "profiles.csv").exists()

    @pytest.mark.parametrize("exists", [False, True])
    def test_one_file_for_both_outputs(self, tmp_path, capsys, exists):
        records = tmp_path / "records.csv"
        records.write_text("instance,algorithm,seed,objective,wall_seconds,status\n"
                           "i1,rs,0,3,0.1,ok\ni1,beam,0,2,0.1,ok\n")
        same = tmp_path / "same.csv"
        if exists:
            same.write_text("kept\n")
        # the second name reaches the same file through a parent-directory step
        other = tmp_path / "sub" / ".." / "same.csv"
        (tmp_path / "sub").mkdir()
        code, out, err = run(capsys, "report", "--records", str(records),
                             "--profiles", str(same), "--sm", str(other))
        assert code == 2 and out == ""
        assert err == f"error: --profiles and --sm name one file: {other}\n"
        if exists:
            assert same.read_text() == "kept\n"
        else:
            assert not same.exists()
        # a device takes both
        code, _, _ = run(capsys, "report", "--records", str(records),
                         "--profiles", os.devnull, "--sm", os.devnull)
        assert code == 0

    @pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
    def test_delta_must_be_finite_and_nonnegative(self, tmp_path, capsys, delta):
        records = tmp_path / "records.csv"
        records.write_text("instance,algorithm,seed,objective,wall_seconds,status\n"
                           "i1,rs,0,3,0.1,ok\ni1,beam,0,2,0.1,ok\n")
        code, out, err = self._report(capsys, tmp_path, records, f"--delta={delta}")
        assert code == 2
        assert out == ""
        assert "--delta must be a finite number at least 0" in err
        assert self._report(capsys, tmp_path, records, "--delta=0")[0] == 0


class TestBenchPlan:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"algorithms": None}, "algorithms must be a list"),
            ({"instances": None}, "instances must be a list"),
            ({"seeds": None}, "seeds must be a list"),
            ({"seeds": 3}, "seeds must be a list"),
            ({"seeds": [0, "1"]}, "seeds must be integers"),
            ({"seeds": [1.5]}, "seeds must be integers"),
            ({"seeds": [True]}, "seeds must be integers"),
            ({"algorithms": ["rs", "greedy"]}, "'greedy'"),
            ({"instances": [3]}, "instance file paths"),
            ({"time_limit": "1"}, "time_limit"),
            ({"time_limit": 0}, "time_limit"),
            ({"time_limit": 10 ** 400}, "time_limit is too large to convert to float"),
            ({"seeds": [0, -1]}, "plan seeds must be integers at least 0, got -1"),
        ],
    )
    def test_malformed_plan(self, small_instance, tmp_path, capsys, change, message):
        doc = {"instances": [str(small_instance)], "algorithms": ["rs"], "seeds": [0],
               "time_limit": 0.05}
        doc.update(change)
        doc = {key: value for key, value in doc.items() if value is not None}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        records = tmp_path / "records.csv"
        code, _, err = run(capsys, "bench", "--plan", str(plan), "--out", str(records))
        assert code == 2
        assert message in err
        assert not records.exists()

    def test_unknown_key_writes_no_records(self, small_instance, tmp_path, capsys):
        # a misspelt time_limit must not leave rs at its default 1000 iterations
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"instances": [str(small_instance)], "algorithms": ["rs"],
                                    "seeds": [0], "time_limt": 0.01}))
        records = tmp_path / "records.csv"
        code, _, err = run(capsys, "bench", "--plan", str(plan), "--out", str(records))
        assert code == 2
        assert err == f"error: plan file {plan} has unknown keys time_limt\n"
        assert not records.exists()

    def test_plan_keys_are_run_benchmark_parameters(self, tmp_path):
        # the plan keys are run_benchmark's parameters but out_path, so a new
        # parameter fails here until the plan accepts it
        parameters = set(inspect.signature(run_benchmark).parameters) - {"out_path"}
        doc = {"instances": [], "algorithms": [], "seeds": [], "time_limit": 0.5}
        assert set(doc) == parameters
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        assert _load_plan(plan) == doc

    def test_non_object_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('["a.json"]')
        code, _, err = run(capsys, "bench", "--plan", str(plan),
                           "--out", str(tmp_path / "records.csv"))
        assert code == 2
        assert "JSON object" in err


class TestPhysics:
    def test_eval_matches_library(self, capsys):
        code, out, _ = run(capsys, "physics", "eval", "--wind-speed", "120",
                           "--slope-tangent", "0.4", "--base-rate", "2.0")
        assert code == 0
        result = json.loads(out)
        mult = albini_multiplier(120.0, 0.4)
        assert result["multiplier"] == mult
        assert result["rate_of_spread_ft_min"] == 2.0 * mult

    def test_domain_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "physics", "eval", "--wind-speed", "1",
                         "--slope-tangent", "1", "--base-rate", "-1")
        assert code == 2

    def test_finite_output_text(self, capsys):
        code, out, _ = run(capsys, "physics", "eval", "--wind-speed", "-30",
                           "--slope-tangent", "0.9", "--base-rate", "2.5")
        assert code == 0
        assert out == (
            "{\n"
            ' "multiplier": 21.92763476946805,\n'
            ' "rate_of_spread_ft_min": 54.81908692367013,\n'
            ' "slope_factor": 20.941919292737058,\n'
            ' "wind_factor": 0.01428452326900677\n'
            "}\n"
        )

    # tangent**2 raises OverflowError; a huge base rate gives an infinite rate
    @pytest.mark.parametrize("slope, base", [("1e200", "1"), ("1", "1e308")])
    def test_overflow_exit_code(self, capsys, slope, base):
        code, out, err = run(capsys, "physics", "eval", "--wind-speed", "1",
                             "--slope-tangent", slope, "--base-rate", base)
        assert (code, out) == (2, "")
        assert err == "error: physics eval overflows for these inputs\n"

    @pytest.mark.parametrize("flag, value", [("--slope-tangent", "-1e-3"),
                                             ("--wind-speed", "-3e1")])
    def test_negative_exponent_value(self, capsys, flag, value):
        # argparse took "-1e-3" for an option; the "=" form always worked
        argv = {"--wind-speed": "2", "--slope-tangent": "0.25"}
        argv[flag] = value
        separate = [x for name, v in argv.items() for x in (name, v)]
        joined = [f"{name}={v}" for name, v in argv.items()]
        outputs = [run(capsys, "physics", "eval", *args) for args in (separate, joined)]
        assert outputs[0] == outputs[1]
        code, out, err = outputs[0]
        assert (code, err) == (0, "")
        wind, slope = float(argv["--wind-speed"]), float(argv["--slope-tangent"])
        assert json.loads(out)["multiplier"] == albini_multiplier(wind, slope)

    @pytest.mark.parametrize("flag", ["--wind-speed", "--slope-tangent", "--base-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_exit_code(self, capsys, flag, value):
        argv = {"--wind-speed": "1", "--slope-tangent": "0.5", "--base-rate": "1"}
        argv[flag] = value
        args = [f"{name}={v}" for name, v in argv.items()]
        code, out, err = run(capsys, "physics", "eval", *args)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("flag", ["--wind-speed", "--slope-tangent", "--base-rate"])
    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NaN", "-INF"])
    def test_non_finite_separate_word(self, capsys, flag, value):
        # argparse took "-inf" given as its own word for an option (exit 1,
        # "expected one argument"); the "=" form always reached the check
        argv = {"--wind-speed": "1", "--slope-tangent": "0", "--base-rate": "1"}
        argv[flag] = value
        separate = [x for name, v in argv.items() for x in (name, v)]
        joined = [f"{name}={v}" for name, v in argv.items()]
        outputs = [run(capsys, "physics", "eval", *args) for args in (separate, joined)]
        assert outputs[0] == outputs[1]
        assert outputs[0] == (2, "", f"error: {flag} must be finite, got {float(value)}\n")


class TestCollector:
    """dispatch runs a command with the cyclic collector paused and leaves it
    as the caller set it; refcounting frees what a command builds."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        gc.enable() if enabled else gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["physics", "eval", "--wind-speed", "1", "--slope-tangent", "0"], 0),
            (["generate", "--does-not-exist"], 1),
            (["physics", "eval", "--wind-speed", "1", "--slope-tangent", "1",
              "--base-rate", "-1"], 2),
            (["solve", "--algo", "exact", "--max-nodes", "10", "-i", "{inst}", "-o", "{sol}"], 3),
        ],
    )
    def test_state_restored_on_each_exit(self, collector, small_instance, tmp_path, capsys,
                                         argv, expected, enabled):
        argv = [a.format(inst=small_instance, sol=tmp_path / "sol.json") for a in argv]
        gc.enable() if enabled else gc.disable()
        assert run(capsys, *argv)[0] == expected
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_when_a_handler_raises(self, collector, monkeypatch, enabled):
        def fail(args):
            assert not gc.isenabled()
            raise RuntimeError("handler failed")

        monkeypatch.setitem(cli._HANDLERS, "physics", fail)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="handler failed"):
            dispatch(["physics", "eval", "--wind-speed", "1", "--slope-tangent", "0"])
        assert gc.isenabled() is enabled

    def test_no_collection_runs_during_a_command(self, collector, tmp_path, capsys):
        # the work counter behind the export speed-up: a 12 x 12 export ran
        # about 20 collections with the collector on
        source = tmp_path / "inst.json"
        save_instance(generator.generate_instance(generator.GeneratorConfig(seed=1, n=12)),
                      source)
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.enable()
        cli._parser()  # built on a process's first command, with the collector on
        for argv in (
            ["export-mip", "--model", "wsp", "-i", str(source), "-o", str(tmp_path / "m.lp")],
            ["generate", "--grid-side", "20", "-o", str(tmp_path / "g.json")],
        ):
            # the first allocation after dispatch re-enables the collector
            # may start a collection, so the hook is removed first
            gc.collect()
            gc.callbacks.append(count)
            try:
                code = dispatch(argv)
            finally:
                gc.callbacks.remove(count)
            assert code == 0
            assert collections == [], argv[0]

    def test_cyclic_garbage_does_not_grow_with_the_work(self, collector, small_instance,
                                                        tmp_path, capsys):
        # the premise of the pause: what a command leaves for the collector
        # is the same for small and large inputs. The collector stays off
        # between commands, so only gc.collect() finds that garbage.
        gc.disable()
        sources = {}
        for n in (4, 12):
            sources[n] = tmp_path / f"inst{n}.json"
            save_instance(generator.generate_instance(generator.GeneratorConfig(seed=1, n=n)),
                          sources[n])
        records = tmp_path / "records.csv"

        def bench(algorithms, seeds):
            plan = tmp_path / f"plan{len(algorithms) * len(seeds)}.json"
            plan.write_text(json.dumps({"instances": [str(small_instance)],
                                        "algorithms": algorithms, "seeds": seeds,
                                        "time_limit": 0.01}))
            return ["bench", "--plan", str(plan), "--out", str(records)]

        pairs = {
            "generate": [["generate", "--grid-side", str(n), "-o", str(tmp_path / "g.json")]
                         for n in (4, 40)],
            "verify-reductions": [["verify-reductions", "--samples", str(k)] for k in (5, 60)],
            "bench": [bench(["rs"], [0]), bench(["rs", "beam"], list(range(6)))],
            "export-mip": [["export-mip", "--model", "wsp", "-i", str(sources[n]),
                            "-o", str(tmp_path / "m.lp")] for n in (4, 12)],
        }
        for command, (small, large) in pairs.items():
            left = []
            for argv in (small, small, large):  # the first run warms imports and caches
                records.unlink(missing_ok=True)  # bench would resume and run nothing
                assert run(capsys, *argv)[0] == 0
                left.append(gc.collect())
            assert left[1] == left[2], command
