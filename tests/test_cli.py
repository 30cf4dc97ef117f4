import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import wepolicy

from wepolicy.cli import main, run


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_fig2(tmp_path):
    doc = {
        "value_functions": {"default": {"kind": "asymmetric"}},
        "layers": [
            {"scope": "I", "value_function": "default", "weight": 0.5},
            {"scope": "community", "value_function": "default", "weight": 0.5},
        ],
        "surface": {"x_n": {"start": -20.0, "stop": 20.0, "count": 5},
                    "x_w": {"start": -20.0, "stop": 20.0, "count": 5}},
        "curve": {"layer": "I", "grid": {"start": -20.0, "stop": 20.0, "count": 5}},
    }
    path = tmp_path / "fig2_small.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestSurfaceCommand:
    def test_deep_loss_corner_and_report(self, tmp_path, capsys):
        scenario = small_fig2(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "surface", "--scenario", str(scenario), "--out", str(out))
        assert code == 0
        report = json.loads(stdout)
        assert report["command"] == "surface"
        assert len(report["scenario_digest"]) == 64
        assert report["seed"] is None
        lines = (out / "surface.csv").read_text().splitlines()
        assert lines[0] == "x_n,x_w,W"
        first = lines[1].split(",")
        assert (float(first[0]), float(first[1])) == (-20.0, -20.0)
        assert abs(float(first[2]) - (-2.0)) <= 1e-6
        assert (out / "curve.csv").read_text().splitlines()[0] == "x,W"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        scenario = small_fig2(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "surface", "--scenario", str(scenario), "--out", str(out1))
        run_cli(capsys, "surface", "--scenario", str(scenario), "--out", str(out2))
        assert (out1 / "surface.csv").read_bytes() == (out2 / "surface.csv").read_bytes()
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()

    def test_json_format(self, tmp_path, capsys):
        scenario = small_fig2(tmp_path)
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "surface", "--scenario", str(scenario),
                             "--out", str(out), "--format", "json")
        assert code == 0
        rows = json.loads((out / "surface.json").read_text())
        assert rows[0]["x_n"] == -20.0 and "W" in rows[0]

    def test_full_fig2_fixture(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "surface", "--scenario",
                             str(fixtures_dir / "fig2.json"), "--out", str(out))
        assert code == 0
        lines = (out / "surface.csv").read_text().splitlines()
        assert len(lines) == 1 + 201 * 201
        first = lines[1].split(",")
        assert abs(float(first[2]) - (-2.0)) <= 1e-6


class TestExitCodes:
    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "surface", "--scenario", str(tmp_path / "nope.json"),
                               "--out", str(out))
        assert code == 3
        assert not out.exists()

    def test_validation_failure_no_outputs(self, tmp_path, capsys):
        doc = {
            "value_functions": {"default": {"kind": "asymmetric"}},
            "layers": [
                {"scope": "I", "value_function": "default", "weight": 0.5},
                {"scope": "community", "value_function": "default", "weight": 0.4},
            ],
            "surface": {"x_n": {"values": [0.0]}, "x_w": {"values": [0.0]}},
        }
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "surface", "--scenario", str(scenario), "--out", str(out))
        assert code == 1
        assert "layers" in err
        assert not out.exists()

    def test_missing_section_is_validation_error(self, tmp_path, capsys):
        scenario = tmp_path / "empty.json"
        scenario.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(capsys, "surface", "--scenario", str(scenario),
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert "required" in err

    def test_rank_deficiency_is_numerical_error(self, tmp_path, fixtures_dir, capsys):
        # two identical construct rows make the regression design collinear
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        del doc["element_sets"]  # X_w names no longer apply
        doc["survey"]["constructs"] = ["a", "b"]
        doc["survey"]["construct_matrix"] = [doc["survey"]["construct_matrix"][0]] * 2
        for p in doc["weighting_profiles"]:
            p["matrix"] = p["matrix"][:2]
        scenario = tmp_path / "collinear.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "fit", "--scenario", str(scenario), "--out", str(out))
        assert code == 2
        assert "dependent columns" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "select"])
    def test_all_skipped_sweep_grid_is_validation_error(
        self, command, fixtures_dir, tmp_path, capsys
    ):
        scenario = all_skipped_pipeline(fixtures_dir, tmp_path)
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, "--scenario", str(scenario),
                                    "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: sweep:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_flag_required(self, tmp_path, capsys):
        scenario = small_fig2(tmp_path)
        code, _, err = run_cli(capsys, "surface", "--scenario", str(scenario))
        assert code == 1
        assert "--out" in err


class TestValidateCommand:
    def test_ok(self, fixtures_dir, capsys):
        code, stdout, _ = run_cli(capsys, "validate", "--scenario",
                                  str(fixtures_dir / "pipeline.json"))
        assert code == 0
        assert json.loads(stdout) == {"ok": True, "errors": [], "warnings": []}

    def test_findings(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"sweep": {"subsidy": [2.0], "tax": [0.1], "service": [0.1]}}))
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert code == 1
        report = json.loads(stdout)
        assert not report["ok"]
        assert any("sweep.subsidy" in e for e in report["errors"])

    def test_all_skipped_sweep_grid_is_a_finding(self, fixtures_dir, tmp_path, capsys):
        scenario = all_skipped_pipeline(fixtures_dir, tmp_path)
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert code == 1
        report = json.loads(stdout)
        assert not report["ok"]
        assert any(e.startswith("sweep:") and "s + v > 1" in e for e in report["errors"])


class TestRejectedInputs:
    """Each input gives exit 1 or 2, an `error:` line, no traceback and no files."""

    def _run(self, capsys, tmp_path, command, doc, *extra):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, "--scenario", str(scenario),
                                    "--out", str(out), *extra)
        assert stdout == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize("command, doc, finding", [
        ("impact", {"logic_model": {"nodes": [1]}}, "logic_model.nodes[0]: expected an object"),
        ("network", {"parameter_network": {"edges": [7]}},
         "parameter_network.edges[0]: expected an object"),
        ("network", {"parameter_network": {"facts": "abc"}},
         "parameter_network.facts: expected an array"),
        ("surface", {"layers": [1]}, "layers[0]: expected an object"),
        ("select", {"weighting_profiles": [1]}, "weighting_profiles[0]: expected an object"),
        ("consensus-check", {"mapping_f": {"matrix": [[1.0]], "nonlinearity": "x"}},
         "mapping_f.nonlinearity: expected an object"),
    ])
    def test_malformed_entries(self, capsys, tmp_path, command, doc, finding):
        code, err = self._run(capsys, tmp_path, command, doc)
        assert code == 1
        assert finding in err

    @pytest.mark.parametrize("doc, finding", [
        ({"logic_model": {"nodes": [1]}}, "logic_model.nodes[0]: expected an object"),
        ({"parameter_network": {"facts": "abc"}}, "parameter_network.facts: expected an array"),
        ({"layers": [1]}, "layers[0]: expected an object"),
        ({"weighting_profiles": [1]}, "weighting_profiles[0]: expected an object"),
        ({"mapping_f": {"matrix": [[1.0]], "nonlinearity": "x"}},
         "mapping_f.nonlinearity: expected an object"),
    ])
    def test_validate_reports_malformed_entries(self, capsys, tmp_path, doc, finding):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, err = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert code == 1
        assert "Traceback" not in err
        assert finding in json.loads(stdout)["errors"]

    @pytest.mark.parametrize("command", ["sweep", "select"])
    def test_negative_seed_flag(self, capsys, tmp_path, fixtures_dir, command):
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, command, doc, "--seed", "-7")
        assert code == 1
        assert err == "error: --seed: seed must be >= 0, got -7\n"

    def test_nan_consensus_deviation_is_numerical(self, capsys, tmp_path):
        doc = {
            "value_functions": {"lin": {"kind": "family", "family": "linear"}},
            "layers": [
                {"scope": "I", "value_function": "lin", "weight": 0.5, "element_weights": [10.0]},
                {"scope": "we", "value_function": "lin", "weight": 0.5, "element_weights": [10.0]},
            ],
            "mapping_f": {"matrix": [[1.0]]},
            "consensus": {"narrow_layer": "I", "wide_layer": "we",
                          "probes": [[1.0], [1e308]], "tol": 1e-9},
        }
        code, err = self._run(capsys, tmp_path, "consensus-check", doc)
        assert code == 2
        assert "NaN at probe 1" in err


    @pytest.mark.parametrize("command, section, given, first_node", [
        ("impact", "logic_model", "inputs", "outreach"),
        ("network", "parameter_network", "deltas", "security"),
    ])
    def test_overflowing_propagation_is_numerical(
        self, capsys, tmp_path, fixtures_dir, command, section, given, first_node
    ):
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        for edge in doc[section]["edges"]:
            edge["weight"] = 1e308
        for name in doc[section][given]:
            doc[section][given][name] = 1e10
        code, err = self._run(capsys, tmp_path, command, doc)
        assert code == 2
        assert err == f"error: numerical failure: value of node {first_node!r} is not finite: inf\n"

    def test_non_finite_score_is_numerical(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        profile = next(p for p in doc["weighting_profiles"] if p["name"] == "Type A")
        profile["matrix"] = [[1.79e308, 1.79e308, 1.79e308]] * 3
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, "select", doc)
        assert code == 2
        assert err == (
            "error: numerical failure: profile 'Type A': coupled vector or score of "
            "policy 0 is not finite\n"
        )

    def test_raw_family_below_its_domain_is_a_finding(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "fig2.json").read_text())
        doc["value_functions"]["raw"] = {"kind": "family", "family": "linear"}
        doc["layers"][0]["value_function"] = "raw"
        code, err = self._run(capsys, tmp_path, "surface", doc)
        assert code == 1
        assert err.startswith(
            "error: surface.x_n: grid reaches -20.0, below the linear family's domain "
            "x >= 0 for layer 'I'\n"
        )

    def test_lapack_failure_in_fit_is_numerical(self, capsys, tmp_path, fixtures_dir, monkeypatch):
        def failing_lstsq(*args, **kwargs):
            raise numpy.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(numpy.linalg, "lstsq", failing_lstsq)
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, "fit", doc)
        assert code == 2
        assert err == "error: numerical failure: SVD did not converge in Linear Least Squares\n"


def all_skipped_pipeline(fixtures_dir, tmp_path):
    """The pipeline fixture with a sweep grid whose every (s, v) pair exceeds the pool."""
    doc = json.loads((fixtures_dir / "pipeline.json").read_text())
    doc["sweep"] = {"subsidy": [0.8], "tax": [0.1], "service": [0.8]}
    scenario = tmp_path / "all_skipped.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
    return scenario


class TestDigest:
    def test_changes_iff_bytes_change(self, tmp_path, capsys):
        scenario = small_fig2(tmp_path)
        _, out1, _ = run_cli(capsys, "surface", "--scenario", str(scenario),
                             "--out", str(tmp_path / "a"))
        _, out2, _ = run_cli(capsys, "surface", "--scenario", str(scenario),
                             "--out", str(tmp_path / "b"))
        d1 = json.loads(out1)["scenario_digest"]
        d2 = json.loads(out2)["scenario_digest"]
        assert d1 == d2
        # whitespace-only edit: same semantics, different bytes, new digest
        scenario.write_text(scenario.read_text() + "\n", encoding="utf-8")
        _, out3, _ = run_cli(capsys, "surface", "--scenario", str(scenario),
                             "--out", str(tmp_path / "c"))
        assert json.loads(out3)["scenario_digest"] != d1


class TestPipelineCommands:
    def test_fit_outputs(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        code, stdout, _ = run_cli(capsys, "fit", "--scenario",
                                  str(fixtures_dir / "pipeline.json"), "--out", str(out))
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert set(model) == {"intercept", "coefficients", "r2"}
        assert set(model["coefficients"]) == {"social", "environmental", "economic"}
        baseline = json.loads((out / "baseline.json").read_text())
        assert len(baseline) == 3

    def test_sweep_grid_and_determinism(self, fixtures_dir, tmp_path, capsys):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli(capsys, "sweep", "--scenario", str(fixtures_dir / "pipeline.json"),
                "--out", str(out1))
        run_cli(capsys, "sweep", "--scenario", str(fixtures_dir / "pipeline.json"),
                "--out", str(out2))
        sweep = (out1 / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "policy_id,s,t,v,econ,env,social"
        assert len(sweep) == 28  # header + 27 admissible rows
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "ternary.csv").read_bytes() == (out2 / "ternary.csv").read_bytes()

    def test_seed_override_changes_outputs(self, fixtures_dir, tmp_path, capsys):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        _, r1, _ = run_cli(capsys, "sweep", "--scenario", str(fixtures_dir / "pipeline.json"),
                           "--out", str(out1))
        _, r2, _ = run_cli(capsys, "sweep", "--scenario", str(fixtures_dir / "pipeline.json"),
                           "--out", str(out2), "--seed", "7")
        assert json.loads(r1)["seed"] == 20240809
        assert json.loads(r2)["seed"] == 7
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("command, fixture", [
        ("fit", "pipeline.json"),
        ("impact", "pipeline.json"),
        ("network", "pipeline.json"),
        ("consensus-check", "consensus.json"),
    ])
    def test_seed_reported_only_where_dynamics_run(
        self, fixtures_dir, tmp_path, capsys, command, fixture
    ):
        code, stdout, _ = run_cli(capsys, command, "--scenario", str(fixtures_dir / fixture),
                                  "--out", str(tmp_path / "out"), "--seed", "-7")
        assert code == 0
        assert json.loads(stdout)["seed"] is None

    def test_select_matches_brute_force(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "select"
        code, _, _ = run_cli(capsys, "select", "--scenario",
                             str(fixtures_dir / "pipeline.json"), "--out", str(out))
        assert code == 0
        selection = json.loads((out / "selection.json").read_text())

        # independent scan through the module API
        from wepolicy.scenario import load_scenario
        from wepolicy.policy_sim import run_sweep
        from wepolicy.survey import aggregate_survey, fit_target, read_survey_csv, predict, rescale_answer, respondent_scores
        from wepolicy.coupling import apply_fact_coupling

        sc, _ = load_scenario(fixtures_dir / "pipeline.json")
        responses, _ = read_survey_csv((fixtures_dir / "survey.csv").read_text())
        cmap, scale = sc.survey.construct_map, sc.survey.scale
        baseline = aggregate_survey(responses, cmap, scale)
        design = [[1.0, *row] for row in respondent_scores(responses, cmap, scale)]
        y = [rescale_answer(r.answers[sc.survey.target_question - 1], scale) for r in responses]
        target = fit_target(design, y, column_names=cmap.constructs)
        table = run_sweep(sc.dynamics, sc.sweep_grid["subsidy"], sc.sweep_grid["tax"],
                          sc.sweep_grid["service"])
        for profile in sc.profiles:
            best_id, best_w = None, None
            for row in table.rows:
                w = predict(target, apply_fact_coupling(profile.coupling, baseline,
                                                        row.indicators).x_w_prime)
                if best_w is None or w > best_w or (w == best_w and row.policy_id < best_id):
                    best_id, best_w = row.policy_id, w
            assert selection[profile.name] == best_id

    def test_impact_and_network(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "impact"
        code, _, _ = run_cli(capsys, "impact", "--scenario",
                             str(fixtures_dir / "pipeline.json"), "--out", str(out))
        assert code == 0
        report = json.loads((out / "impact_report.json").read_text())
        assert set(report) == {"node_values", "impacts", "coupled_impacts"}
        assert report["impacts"].keys() == {"cohesion", "prosperity"}

        out = tmp_path / "network"
        code, _, _ = run_cli(capsys, "network", "--scenario",
                             str(fixtures_dir / "pipeline.json"), "--out", str(out))
        assert code == 0
        deltas = json.loads((out / "network.json").read_text())["value_deltas"]
        assert deltas == {"life_satisfaction": 0.235, "place_attachment": 0.24}

    def test_consensus_check(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "cons"
        code, _, _ = run_cli(capsys, "consensus-check", "--scenario",
                             str(fixtures_dir / "consensus.json"), "--out", str(out))
        assert code == 0
        report = json.loads((out / "consensus_report.json").read_text())
        assert report["holds"] is True
        assert report["max_deviation"] == 0.0
        assert report["probes"] == 100


class TestRunApi:
    def test_run_returns_exit_code(self, fixtures_dir, tmp_path):
        code = run("network", str(fixtures_dir / "pipeline.json"), str(tmp_path / "n"))
        assert code == 0
        code = run("network", str(tmp_path / "missing.json"), str(tmp_path / "n2"))
        assert code == 3


NUMPY_PROBE = """
import sys
from wepolicy import cli

fixtures, out = sys.argv[1:]
runs = [
    ("validate", "pipeline.json"), ("surface", "fig2.json"),
    ("consensus-check", "consensus.json"), ("sweep", "pipeline.json"),
    ("impact", "pipeline.json"), ("network", "pipeline.json"),
]
for command, fixture in runs:
    argv = [command, "--scenario", f"{fixtures}/{fixture}"]
    if command != "validate":
        argv += ["--out", f"{out}/{command}"]
    assert cli.main(argv) == 0, command
    assert "numpy" not in sys.modules, f"{command} loaded numpy"
assert cli.main(["fit", "--scenario", f"{fixtures}/pipeline.json", "--out", f"{out}/fit"]) == 0
assert "numpy" in sys.modules, "fit ran without numpy"
"""


def test_only_the_fit_loads_numpy(fixtures_dir, tmp_path):
    """A fresh interpreter runs every command but fit and select without numpy."""
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(fixtures_dir), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
