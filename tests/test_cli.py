import json

import pytest

from wsptools.cli import dispatch
from wsptools.core import load_instance, objective, solution_from_json
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


class TestGenerate:
    def test_writes_loadable_instance(self, small_instance):
        instance = load_instance(small_instance)
        assert instance.graph.vertex_count == 36
        assert instance.total_resources == 3  # "few" on a side-6 grid

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

    def test_zero_extent_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--grid-side", "5", "--extent", "0",
                           "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "landscape extent" in err


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

    def test_exact_refusal_exit_code(self, small_instance, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--algo", "exact", "--max-nodes", "10",
                           "-i", str(small_instance), "-o", str(tmp_path / "sol.json"))
        assert code == 3
        assert "refused" in err

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

    def test_malformed_instance_file(self, small_instance, tmp_path, capsys):
        doc = json.loads(small_instance.read_text())
        doc["delay_min"] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--algo", "rs", "--iterations", "1",
                           "-i", str(bad), "-o", str(tmp_path / "s.json"))
        assert code == 2
        assert "delay" in err

    def test_missing_instance_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", "--algo", "rs", "--iterations", "1",
                         "-i", str(tmp_path / "nope.json"), "-o", str(tmp_path / "s.json"))
        assert code == 2

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
        ],
    )
    def test_malformed_hof_aux(self, small_instance, tmp_path, capsys, aux, message):
        code, _, err = self.export(capsys, small_instance, tmp_path, "hof", aux)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"flame_lengths": [0.0] * 37}, "flame_lengths must have one entry per vertex"),
            ({"weights": [1.0] * 35 + [None]}, "weights must be a finite number"),
            ({"flame_threshold": None}, "flame_threshold must be a finite number"),
        ],
    )
    def test_malformed_wei_aux(self, small_instance, tmp_path, capsys, change, message):
        aux = {"weights": [1.0] * 36, "flame_lengths": [0.0] * 36,
               "flame_threshold": 4.0, "k": 3}
        aux.update(change)
        code, _, err = self.export(capsys, small_instance, tmp_path, "wei", aux)
        assert code == 2
        assert message in err


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

    @pytest.mark.parametrize("flag", ["--wind-speed", "--slope-tangent", "--base-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_exit_code(self, capsys, flag, value):
        argv = {"--wind-speed": "1", "--slope-tangent": "0.5", "--base-rate": "1"}
        argv[flag] = value
        args = [f"{name}={v}" for name, v in argv.items()]
        code, out, err = run(capsys, "physics", "eval", *args)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be finite, got {float(value)}\n"
