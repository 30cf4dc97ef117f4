import copy
import csv
import errno
import gc
import glob
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import wepolicy

from wepolicy.cli import main, run
from wepolicy.logicmodel import BINDABLE_STAGES, STAGES
from wepolicy.policy_sim import KNOB_RANGES
from wepolicy.valuefn import FAMILIES

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def profiles_of_two_facts(doc, keep_x_c):
    """`pipeline.json`'s `doc` with every profile coupling two facts, not the
    simulator's three, and X_c cut to two variables or dropped."""
    if keep_x_c:
        del doc["element_sets"]["X_c"]["variables"][2:]
    else:
        del doc["element_sets"]["X_c"]
    for profile in doc["weighting_profiles"]:
        profile["matrix"] = [row[:2] for row in profile["matrix"]]
    return doc


def log_narrow_layer(doc):
    """`consensus.json`'s `doc` with layer I on the raw logarithmic family,
    whose domain the probes leave: the first probe gives it input -2.0."""
    doc["value_functions"]["log"] = {"kind": "family", "family": "logarithmic", "a": 1.0}
    doc["layers"][0]["value_function"] = "log"
    return doc


def overflowing_grid(doc):
    """`fig2.json`'s `doc` with an x_n grid whose step, stop - start, is inf."""
    doc["surface"]["x_n"] = {"start": -1e308, "stop": 1e308, "count": 3}
    return doc


def overflowing_quadratic(doc):
    """`fig2.json`'s `doc` without its curve and with layer I on the raw
    quadratic family, whose value at x_n = 1e200 overflows to -inf."""
    doc["value_functions"]["quadratic"] = {"kind": "family", "family": "quadratic", "a": 1.0}
    doc["layers"][0]["value_function"] = "quadratic"
    doc["surface"] = {"x_n": {"values": [0.0, 1e200]}, "x_w": {"values": [0.0, 1.0]}}
    del doc["curve"]
    return doc


def overflowing_consensus(doc):
    """`consensus.json`'s `doc` with a doubling map, under which the first
    probe's mapped (narrow) side overflows to inf and its wide side does not."""
    doc["value_functions"]["linear"] = {"kind": "mirrored", "family": "linear"}
    for layer in doc["layers"]:
        layer["value_function"] = "linear"
    doc["mapping_f"]["matrix"] = [[2.0, 0.0], [0.0, 2.0]]
    doc["consensus"]["probes"] = [[1e308, 1e308], [0.0, 0.0]]
    return doc


def overflowing_power(doc):
    """`consensus.json`'s `doc` with both layers on the mirrored power family
    at a = 400, whose value at the first probe overflows to inf."""
    doc["value_functions"]["power"] = {"kind": "mirrored", "family": "power", "a": 400.0}
    for layer in doc["layers"]:
        layer["value_function"] = "power"
    doc["consensus"]["probes"] = [[10, 10], [0, 0]]
    return doc


def overflowing_power_surface(doc):
    """`fig2.json`'s `doc` without its curve and with both layers on the
    mirrored power family at a = 400, whose value at x_n = 10 overflows to inf."""
    doc["value_functions"]["power"] = {"kind": "mirrored", "family": "power", "a": 400.0}
    for layer in doc["layers"]:
        layer["value_function"] = "power"
    doc["surface"] = {"x_n": {"values": [0.0, 10.0]}, "x_w": {"values": [0.0, 1.0]}}
    del doc["curve"]
    return doc


WIDTH_FINDINGS = [f"weighting_profiles[{name!r}].matrix: 2 columns for 3 simulator indicators"
                  for name in ("Type A", "Type B", "Type C")]


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

    def test_surface_is_checked_without_sampling_it(self, fixtures_dir, capsys, monkeypatch):
        from wepolicy import cli

        def sampling(*args):
            raise AssertionError("validate sampled every surface cell")

        monkeypatch.setattr(cli, "sample_surface", sampling)
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(fixtures_dir / "fig2.json"))
        assert code == 0 and json.loads(stdout)["ok"]


def _edited(fixture, edit):
    """A fixture document with `edit` applied to it, as JSON bytes."""
    doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    edit(doc)
    return json.dumps(doc).encode("utf-8")


def _mapping_f(key, value):
    return _edited("consensus.json", lambda doc: doc["mapping_f"].__setitem__(key, value))


# (scenario bytes, survey.csv text or None for the fixture's, the one finding)
REACHABLE_FINDINGS = {
    "not-utf8": (b'{"a": "\xff"}', None, "scenario: not valid UTF-8 ('utf-8' codec can't "
                 "decode byte 0xff in position 7: invalid start byte)"),
    "not-an-object": (b"[]", None, "scenario: expected a JSON object"),
    "empty-grid": (_edited("pipeline.json", lambda doc: doc["sweep"].__setitem__("subsidy", [])),
                   None, "sweep.subsidy: grid must be non-empty"),
    "fact-nodes": (
        _edited("pipeline.json", lambda doc: doc["parameter_network"].__setitem__(
            "facts", ["income", "green_energy", "income"])),
        None, "parameter_network: fact node names must be unique"),
    "value-nodes": (
        _edited("pipeline.json", lambda doc: doc["parameter_network"].__setitem__(
            "values", ["life_satisfaction", "life_satisfaction"])),
        None, "parameter_network: value node names must be unique"),
    "constructs": (
        _edited("pipeline.json", lambda doc: doc["survey"].__setitem__(
            "constructs", ["social", "social", "economic"])),
        None, "survey: construct names must be unique"),
    "empty-csv": ((FIXTURES / "pipeline.json").read_bytes(), "",
                  "survey.file: survey CSV is empty"),
    "no-questions": ((FIXTURES / "pipeline.json").read_bytes(), "respondent\nr1\n",
                     "survey.file: survey CSV has no question columns"),
    "no-column": (_mapping_f("matrix", [[]]), None,
                  "mapping_f: matrix must have at least one column"),
    "saturator-scale": (_mapping_f("nonlinearity", {"kind": "saturator", "scale": 0.0}), None,
                        "mapping_f.nonlinearity: saturator scale must be > 0, got 0.0"),
    "unknown-kind": (_mapping_f("nonlinearity", {"kind": "cubic"}), None,
                     "mapping_f.nonlinearity.kind: unknown kind 'cubic'"),
    "warn-threshold": (
        _edited("pipeline.json", lambda doc: doc["weighting_profiles"][0].__setitem__(
            "warn_threshold", -1.0)),
        None, "weighting_profiles[0]: warn threshold must be >= 0"),
    "profiles-object": (_edited("pipeline.json", lambda doc: doc.__setitem__(
        "weighting_profiles", {})), None, "weighting_profiles: expected a non-empty array"),
    "profiles-empty": (_edited("pipeline.json", lambda doc: doc.__setitem__(
        "weighting_profiles", [])), None, "weighting_profiles: expected a non-empty array"),
    "fact-elements": (
        _edited("pipeline.json", lambda doc: doc["logic_model"]["fact_bindings"].__setitem__(
            "elements", ["econ", "econ", "social"])),
        None, "logic_model.fact_bindings: fact element names must be unique"),
}


class TestValidateReportsEachFinding:
    @pytest.mark.parametrize("data, survey, finding", REACHABLE_FINDINGS.values(),
                             ids=REACHABLE_FINDINGS)
    def test_the_finding_alone(self, capsys, tmp_path, data, survey, finding):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(data)
        if survey is None:
            shutil.copy(FIXTURES / "survey.csv", tmp_path / "survey.csv")
        else:
            (tmp_path / "survey.csv").write_text(survey, encoding="utf-8")
        code, stdout, err = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert (code, err) == (1, "")
        assert json.loads(stdout) == {"ok": False, "errors": [finding], "warnings": []}


class TestSaturatedConsensus:
    """`consensus-check` through a saturated mapping, against the scalar
    formulas: y = scale * tanh((row . x + offset) / scale), then each
    layer's weighted sum and curve."""

    SCALE = 5.0

    def reference(self, doc):
        from wepolicy.valuefn import AsymmetricSpec

        curve = AsymmetricSpec()  # the fixture's only value function
        f, (narrow, wide) = doc["mapping_f"], doc["layers"]

        def weighted(weights, x, total=0.0):
            for w, v in zip(weights, x):
                total += w * v
            return total

        worst, max_dev = None, -1.0
        for p in doc["consensus"]["probes"]:
            y = [self.SCALE * math.tanh(weighted(row, p, off) / self.SCALE)
                 for row, off in zip(f["matrix"], f["offset"])]
            dev = abs(curve(weighted(narrow["element_weights"], y))
                      - curve(weighted(wide["element_weights"], p)))
            if dev > max_dev:
                worst, max_dev = p, dev
        tol = doc["consensus"]["tol"]
        return {"holds": max_dev <= tol, "max_deviation": max_dev, "worst_point": worst,
                "tol": tol, "probes": len(doc["consensus"]["probes"])}

    def test_report_matches_the_scalar_reference(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "consensus.json").read_text(encoding="utf-8"))
        doc["mapping_f"]["nonlinearity"] = {"kind": "saturator", "scale": self.SCALE}
        scenario = tmp_path / "consensus.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert (code, json.loads(stdout)["ok"]) == (0, True)
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "consensus-check", "--scenario", str(scenario),
                             "--out", str(out))
        assert code == 0
        report = json.loads((out / "consensus_report.json").read_text(encoding="utf-8"))
        assert report == self.reference(doc)
        assert report["max_deviation"] == 0.05211716255094423


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

    @pytest.mark.parametrize("key", ["source", "target"])
    @pytest.mark.parametrize("value", [["X_w"], 5])
    def test_mapping_set_name_must_be_a_string(self, capsys, tmp_path, fixtures_dir, key, value):
        doc = json.loads((fixtures_dir / "consensus.json").read_text())
        doc["mapping_f"][key] = value
        code, err = self._run(capsys, tmp_path, "consensus-check", doc)
        assert code == 1
        assert err == f"error: mapping_f.{key}: expected a non-empty string, got {value!r}\n"

    def test_long_bad_value_is_quoted_in_part(self, capsys, tmp_path, fixtures_dir):
        # the value's repr is 900,000 characters; the finding quotes its first 80
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["dynamics"]["agents"] = [0] * 300_000
        finding = ("dynamics.agents: expected an integer, got "
                   + "[" + "0, " * 26 + "0... (900000 characters)")
        code, err = self._run(capsys, tmp_path, "sweep", doc)
        assert (code, err) == (1, f"error: {finding}\n")
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(tmp_path / "scenario.json"))
        assert (code, json.loads(stdout)["errors"]) == (1, [finding])

    def test_long_input_name_is_quoted_in_part(self, capsys, tmp_path, fixtures_dir):
        # the key's repr is 100,002 characters; the finding quotes its first 80
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["parameter_network"]["deltas"] = {"x" * 100_000: 1.0}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert code == 1
        assert len(stdout.encode("utf-8")) < 1024
        assert json.loads(stdout)["errors"] == [
            "parameter_network.deltas: '" + "x" * 79
            + "... (100002 characters) is not a fact node"
        ]

    @pytest.mark.parametrize("text, finding", [
        ("[" * 200_000 + "]" * 200_000, "scenario: JSON nests arrays or objects too deeply"),
        ('{"dynamics": {"agents": ' + "7" * 5000 + "}}",
         "scenario: an integer literal has too many digits"),
    ], ids=["deep", "digits"])
    @pytest.mark.parametrize("command", ["validate", "impact"])
    def test_json_beyond_the_parser_limits(self, capsys, tmp_path, command, text, finding):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        args = ["--scenario", str(scenario)] + (["--out", str(out)] if command != "validate" else [])
        code, stdout, err = run_cli(capsys, command, *args)
        assert code == 1
        if command == "validate":
            assert (json.loads(stdout)["errors"], err) == ([finding], "")
        else:
            assert (stdout, err) == ("", f"error: {finding}\n")
        assert not out.exists()

    def test_profiles_writing_one_file(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["weighting_profiles"][1]["name"] = "Type_A"
        scenario = tmp_path / "pipeline.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        finding = ("weighting_profiles[1].name: profiles 'Type A' and 'Type_A' "
                   "would both write ranked_Type_A")
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert (code, json.loads(stdout)["errors"]) == (1, [finding])
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "select", "--scenario", str(scenario),
                                    "--out", str(out))
        assert (code, stdout, err) == (1, "", f"error: {finding}\n")
        assert not out.exists()

    @pytest.mark.parametrize("length", [243, 244])
    def test_a_profile_slug_fits_a_file_name(self, capsys, tmp_path, fixtures_dir, length):
        """`select` writes `ranked_<slug>.json`, so a slug over 243 characters
        would pass the 255-byte file name limit: it is a finding of
        `validate`, and `select` exits 1 with it in both formats."""
        name = "n" * length
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["weighting_profiles"][0]["name"] = name
        scenario = tmp_path / "pipeline.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        findings = [] if length == 243 else [
            f"weighting_profiles[0].name: slug {name[:80]}... (244 characters) is over 243 "
            "characters, too long for the file name ranked_<slug>.json"]
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert (code, json.loads(stdout)["errors"]) == (len(findings), findings)
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            code, stdout, err = run_cli(capsys, "select", "--scenario", str(scenario),
                                        "--out", str(out), "--format", fmt)
            if findings:
                assert (code, stdout, err) == (1, "", f"error: {findings[0]}\n")
                assert not out.exists()
            else:
                assert code == 0, err
                assert (out / f"ranked_{name}.{fmt}").is_file()

    @pytest.mark.parametrize("fixture, mutate, command, findings", [
        ("pipeline.json", lambda doc: profiles_of_two_facts(doc, keep_x_c=False), "select",
         WIDTH_FINDINGS),
        ("pipeline.json", lambda doc: profiles_of_two_facts(doc, keep_x_c=True), "select",
         WIDTH_FINDINGS),
        ("consensus.json", log_narrow_layer, "consensus-check",
         ["consensus.probes: grid reaches -2.0, below the logarithmic family's domain "
          "x >= 0 for layer 'I'"]),
    ], ids=["profiles-without-X_c", "profiles-with-X_c", "consensus-domain"])
    def test_validate_predicts_the_failure(
        self, capsys, tmp_path, fixtures_dir, fixture, mutate, command, findings
    ):
        doc = mutate(json.loads((fixtures_dir / fixture).read_text()))
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, command, doc)
        assert (code, err) == (1, "".join(f"error: {f}\n" for f in findings))
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(tmp_path / "scenario.json"))
        assert (code, json.loads(stdout)["errors"]) == (1, findings)

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_long_respondent_id_is_quoted_in_part(self, capsys, tmp_path, fixtures_dir, command):
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        header, first, *rest = (fixtures_dir / "survey.csv").read_text().splitlines(keepends=True)
        first = ",".join(["r" * 100_000, "9", *first.split(",")[2:]])
        (tmp_path / "survey.csv").write_text("".join([header, first, *rest]), encoding="utf-8")
        finding = ("survey.file: respondent '" + "r" * 79
                   + "... (100002 characters) answer 9 outside [1, 5]")
        code, err = self._run(capsys, tmp_path, command, doc)
        assert (code, err) == (1, f"error: {finding}\n")
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(tmp_path / "scenario.json"))
        assert (code, json.loads(stdout)["errors"]) == (1, [finding])
        assert len(stdout.encode("utf-8")) < 1024

    def test_mapping_set_name_must_be_declared(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "consensus.json").read_text())
        doc["mapping_f"]["source"] = "X_nope"
        code, err = self._run(capsys, tmp_path, "consensus-check", doc)
        assert code == 1
        assert err == "error: mapping_f.source: unknown element set 'X_nope'\n"

    def test_survey_scale_beyond_float_range(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["survey"]["scale"] = 10**400
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, "fit", doc)
        assert code == 1
        assert err == "error: survey.scale: value must be finite\n"

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
        assert err == (
            "error: numerical failure: consensus deviation at probe 1 is not finite: nan\n"
        )


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
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, command, doc)
        assert code == 2
        assert err == f"error: numerical failure: value of node {first_node!r} is not finite: inf\n"
        # validate reports the same text as a finding of the section
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(tmp_path / "scenario.json"))
        finding = f"{section}: " + err.removeprefix("error: numerical failure: ").rstrip("\n")
        assert (code, json.loads(stdout)["errors"]) == (1, [finding])

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

    @pytest.mark.parametrize("command", ["sweep", "select"])
    @pytest.mark.parametrize("field, service", [("income_spread", 0.0), ("connection_rate", 0.25)])
    def test_non_finite_indicators_are_numerical(
        self, capsys, tmp_path, fixtures_dir, command, field, service
    ):
        # the first policy whose indicators overflow is named, and validate
        # reports the same text as a sweep finding
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["dynamics"][field] = 1e308
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, command, doc)
        assert code == 2
        assert err.startswith("error: numerical failure: non-finite indicators (")
        assert err.endswith(f") for PolicyKnobs(subsidy=0.0, tax=0.0, service={service})\n")
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(tmp_path / "scenario.json"))
        finding = "sweep: " + err.removeprefix("error: numerical failure: ").rstrip("\n")
        assert (code, json.loads(stdout)["errors"]) == (1, [finding])

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

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_survey_smaller_than_the_design_is_a_finding(
        self, capsys, tmp_path, fixtures_dir, command
    ):
        # two respondents for an intercept and three construct columns
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        lines = (fixtures_dir / "survey.csv").read_text().splitlines(keepends=True)
        (tmp_path / "survey.csv").write_text("".join(lines[:3]), encoding="utf-8")
        code, err = self._run(capsys, tmp_path, command, doc)
        assert code == 1
        assert err == "error: survey.file: need at least 4 rows to fit 4 columns, got 2\n"

    def test_lapack_failure_in_fit_is_numerical(self, capsys, tmp_path, fixtures_dir, monkeypatch):
        def failing_lstsq(*args, **kwargs):
            raise numpy.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(numpy.linalg, "lstsq", failing_lstsq)
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, err = self._run(capsys, tmp_path, "fit", doc)
        assert code == 2
        assert err == "error: numerical failure: SVD did not converge in Linear Least Squares\n"


class TestNonFiniteValues:
    """A grid, surface, curve or consensus value that is not finite is a
    finding or exit 2 in either format, never an output file or a traceback."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fixture, edit, command, findings, code, message", [
        ("fig2.json", overflowing_grid, "surface",
         ["surface.x_n: grid value 0 is not finite: nan"], 1,
         "surface.x_n: grid value 0 is not finite: nan"),
        ("fig2.json", overflowing_quadratic, "surface",
         ["surface: surface value at x_n=1e+200, x_w=0.0 is not finite: -inf"], 2,
         "numerical failure: surface value at x_n=1e+200, x_w=0.0 is not finite: -inf"),
        ("consensus.json", overflowing_consensus, "consensus-check",
         ["consensus: consensus deviation at probe 0 is not finite: inf"], 2,
         "numerical failure: consensus deviation at probe 0 is not finite: inf"),
        ("consensus.json", overflowing_power, "consensus-check",
         ["consensus: consensus deviation at probe 0 is not finite: nan"], 2,
         "numerical failure: consensus deviation at probe 0 is not finite: nan"),
        ("fig2.json", overflowing_power_surface, "surface",
         ["surface: surface value at x_n=10.0, x_w=0.0 is not finite: inf"], 2,
         "numerical failure: surface value at x_n=10.0, x_w=0.0 is not finite: inf"),
    ], ids=["grid", "quadratic", "consensus", "consensus-power", "surface-power"])
    def test_exit_code_and_message(self, tmp_path, capsys, fmt, fixture, edit, command,
                                   findings, code, message):
        scenario = tmp_path / "scenario.json"
        doc = edit(json.loads((FIXTURES / fixture).read_text(encoding="utf-8")))
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        validate_code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert (validate_code, json.loads(stdout)["errors"]) == (int(bool(findings)), findings)
        out = tmp_path / "out"
        got = run_cli(capsys, command, "--scenario", str(scenario), "--out", str(out),
                      "--format", fmt)
        assert got == (code, "", f"error: {message}\n")
        assert not out.exists()


class TestHugeJsonInteger:
    """A JSON integer beyond the float range is a finding, not a traceback."""

    def _scenario(self, fixtures_dir, tmp_path):
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["logic_model"]["edges"][0]["weight"] = 10**400
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        return scenario

    def test_validate_reports_it(self, fixtures_dir, tmp_path, capsys):
        scenario = self._scenario(fixtures_dir, tmp_path)
        code, stdout, err = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert code == 1
        assert json.loads(stdout)["errors"] == ["logic_model.edges[0].weight: value must be finite"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["impact"])
    def test_run_exits_1_without_files(self, fixtures_dir, tmp_path, capsys, command):
        scenario = self._scenario(fixtures_dir, tmp_path)
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, "--scenario", str(scenario), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err == "error: logic_model.edges[0].weight: value must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "network"])
    def test_a_command_that_does_not_read_it_ignores_it(self, fixtures_dir, goldens_dir,
                                                        tmp_path, capsys, command):
        scenario = self._scenario(fixtures_dir, tmp_path)
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, "--scenario", str(scenario), "--out", str(out))
        assert (code, err) == (0, "")
        assert digests(out) == digests(goldens_dir / command)


def digests(directory):
    """SHA-256 of every file in `directory`, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


# The sections each run command reads, which `cli._DISPATCH` records;
# `validate` reads them all.
READS = {
    "surface": ("value_functions", "layers", "surface", "curve"),
    "consensus-check": ("value_functions", "element_sets", "layers", "mapping_f", "consensus"),
    "fit": ("element_sets", "survey"),
    "sweep": ("dynamics", "sweep"),
    "select": ("element_sets", "survey", "dynamics", "sweep", "weighting_profiles"),
    "impact": ("logic_model",),
    "network": ("parameter_network",),
}
# One field of each `pipeline.json` section, as a path into the section,
# and a value of the wrong type for it.
BROKEN_FIELDS = {
    "element_sets": (("X_w", "variables"), 1),
    "survey": (("scale",), "5"),
    "dynamics": (("agents",), "100"),
    "sweep": (("tax",), "0.1"),
    "weighting_profiles": ((0, "name"), ""),
    "logic_model": (("edges", 0, "weight"), "1.0"),
    "parameter_network": (("facts",), "fact"),
}


def section_of(finding):
    """The section a finding names first: `survey` of `survey.file: ...`."""
    return re.match(r"[a-z_]+", finding).group()


class TestEachCommandReadsItsSections:
    @pytest.mark.parametrize("section", BROKEN_FIELDS)
    def test_only_its_readers_fail(self, fixtures_dir, goldens_dir, tmp_path, capsys, section):
        """Exactly the commands that read the broken section exit 1, with
        `validate`'s findings; every other command writes its golden bytes."""
        doc = json.loads((fixtures_dir / "pipeline.json").read_text(encoding="utf-8"))
        path, value = BROKEN_FIELDS[section]
        parent = doc[section]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        scenario = tmp_path / "pipeline.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", str(scenario))
        errors = json.loads(stdout)["errors"]
        assert code == 1 and errors
        assert {section_of(e) for e in errors} == {section}
        for command in ("fit", "sweep", "select", "impact", "network"):
            out = tmp_path / command
            code, _, err = run_cli(capsys, command, "--scenario", str(scenario), "--out", str(out))
            if section in READS[command]:
                assert (code, err) == (1, "".join(f"error: {e}\n" for e in errors)), command
                assert not out.exists()
            else:
                assert (code, err) == (0, ""), command
                assert digests(out) == digests(goldens_dir / command), command

    @pytest.mark.parametrize("command, sorts", [("impact", 1), ("network", 1), ("validate", 2)])
    def test_topological_sorts(self, fixtures_dir, tmp_path, capsys, monkeypatch,
                               command, sorts):
        """`impact` sorts only the logic model and `network` only the
        parameter network; `validate` sorts both."""
        from wepolicy.graphs import topological_order

        calls = []

        def counting(*args, **kwargs):
            calls.append(command)
            return topological_order(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("wepolicy.") and hasattr(module, "topological_order"):
                monkeypatch.setattr(module, "topological_order", counting)
        args = [command, "--scenario", str(fixtures_dir / "pipeline.json")]
        if command != "validate":
            args += ["--out", str(tmp_path / "out")]
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        assert len(calls) == sorts


def all_skipped_pipeline(fixtures_dir, tmp_path):
    """The pipeline fixture with a sweep grid whose every (s, v) pair exceeds the pool."""
    doc = json.loads((fixtures_dir / "pipeline.json").read_text())
    doc["sweep"] = {"subsidy": [0.8], "tax": [0.1], "service": [0.8]}
    scenario = tmp_path / "all_skipped.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
    return scenario


def skipping_pipeline(fixtures_dir, tmp_path):
    """The pipeline fixture with a sweep grid where 6 of 18 combinations have s + v > 1."""
    doc = json.loads((fixtures_dir / "pipeline.json").read_text())
    doc["sweep"] = {"subsidy": [0.25, 0.5, 0.75], "tax": [0.0, 0.1], "service": [0.25, 0.5, 0.75]}
    scenario = tmp_path / "skipping.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
    return scenario


# SHA-256 of the outputs that have no committed golden, recorded with the
# row-wise table writers (surface.json alone is 3.5 MB, so no copies).
WRITER_DIGESTS = [
    ("surface", "fig2.json", "csv", {
        "surface.csv": "eb09f4ea71e965f24f113d2ef9f01829f220a4be76a26f7ad5e800ff688bd5c8",
        "curve.csv": "b3f63794509ab3a299eec6a9cc1a4548a80b90281e9fc68c2b0655640b3280b5",
    }),
    ("surface", "fig2.json", "json", {
        "surface.json": "c22fad2ef9a026005ff864ba27379090e05f79ef0be74fc8b524c99b7b316c9c",
        "curve.json": "d0e2d496e129341cf6803ea4ddd745107eead4be560bbdc214f70ccbddce581f",
    }),
    ("consensus-check", "consensus.json", "csv", {
        "consensus_report.json": "8256dda5ed33ec9378b3fe07e77b6206708e738447423187dbdf6e7065b1a9f5",
    }),
    ("sweep", "pipeline.json", "json", {
        "sweep.json": "b23e9762989cc53fb24019e2ea3494dddcba6188e6efaa2627038a4cc069d9dd",
        "ternary.json": "3e081399c9e62d264a0c1b71bca4f865aef285ee07013a84949335116844b289",
        "skipped.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    }),
    ("select", "pipeline.json", "json", {
        "ranked_Type_A.json": "695b4c8053d076ef40a341c8f2edbbf2fd7b50cb0b1da3b5578c964c4b05ba77",
        "ranked_Type_B.json": "6478d897dc9aa90047af243bcc514dc997be8dec7339ec872a31feba5074ebb5",
        "ranked_Type_C.json": "92bad98cfbf75ba4a3efaca322797b67abacd084ee33a5fb64d1135567ec5d58",
        "selection.json": "7719e49a8083591011033d9118dd6cd638065ad3e657853c44a7ff86ddb37fa1",
    }),
    ("sweep", "skipping", "csv", {
        "sweep.csv": "58f30243a19b8ef5dce44ddf9097656283c9631deac4ed737bedf1e77e09716e",
        "ternary.csv": "53189c7221ce33fe4e963c3fd4b71fc226a8994d5ddcf5f78a48dc9206aac819",
        "skipped.json": "524eab4ae6be29bef5903b504307b1f6de0a9d12f370e7ba4d2b19e0e0c322a0",
    }),
    ("sweep", "skipping", "json", {
        "sweep.json": "3736d2cd73268727d71bb1a09859a9097b142f6306b6ba77980732901bcd9591",
        "ternary.json": "6a36f8c9705f7b0f50ce45f1e91df589a0f16299ef223d707ee32e4b1cbe91c3",
        "skipped.json": "524eab4ae6be29bef5903b504307b1f6de0a9d12f370e7ba4d2b19e0e0c322a0",
    }),
]


class TestWriterDigests:
    @pytest.mark.parametrize("command, scenario, fmt, digests", WRITER_DIGESTS,
                             ids=[f"{c}-{s}-{f}" for c, s, f, _ in WRITER_DIGESTS])
    def test_output_bytes_unchanged(self, fixtures_dir, tmp_path, capsys,
                                    command, scenario, fmt, digests):
        path = (skipping_pipeline(fixtures_dir, tmp_path) if scenario == "skipping"
                else fixtures_dir / scenario)
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, command, "--scenario", str(path), "--out", str(out),
                             "--format", fmt)
        assert code == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_keeps_signed_zeros(self, fixtures_dir, tmp_path, capsys, fmt):
        """On a grid holding both -0.0 and 0.0, the sweep tables are the
        bytes of their float columns, with each zero's sign."""
        from wepolicy.policy_sim import run_sweep
        from wepolicy.scenario import load_scenario
        from wepolicy.serialize import csv_table, json_rows

        doc = json.loads((fixtures_dir / "pipeline.json").read_text(encoding="utf-8"))
        doc["sweep"] = {"subsidy": [-0.0, 0.0, 0.5, 1.0], "tax": [0.0, -0.0, 0.25],
                        "service": [0.0, 0.5, -0.0, 1.0]}
        scenario = tmp_path / "zeros.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--scenario", str(scenario), "--out", str(out),
                             "--format", fmt)
        assert code == 0
        sc, _ = load_scenario(scenario)
        grid = sc.sweep_grid
        table = run_sweep(sc.dynamics, grid["subsidy"], grid["tax"], grid["service"])
        write = json_rows if fmt == "json" else csv_table
        ids, knobs, indicators = zip(*table.rows)
        sweep = write(("policy_id", "s", "t", "v", "econ", "env", "social"),
                      ids, *zip(*knobs), *zip(*indicators))
        skipped = json_rows(("s", "t", "v"), *zip(*table.skipped))
        assert (out / f"sweep.{fmt}").read_text(encoding="utf-8") == sweep
        assert (out / "skipped.json").read_text(encoding="utf-8") == skipped
        assert "-0.0" in sweep and "-0.0" in skipped

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
        survey = read_survey_csv((fixtures_dir / "survey.csv").read_text())
        cmap, scale = sc.survey.construct_map, sc.survey.scale
        baseline = aggregate_survey(survey, cmap, scale)
        design = [[1.0, *row] for row in respondent_scores(survey, cmap, scale).tolist()]
        y = [rescale_answer(a, scale) for a in survey.answers[sc.survey.target_question - 1]]
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


DATACLASS_PROBE = """
import dataclasses, importlib, pkgutil, sys
import wepolicy

for info in pkgutil.iter_modules(wepolicy.__path__, "wepolicy."):
    importlib.import_module(info.name)
print(sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items()) if name.startswith("wepolicy")
    for attr, obj in vars(module).items()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == name
))
"""


def test_value_types_are_not_dataclasses():
    """The package builds no dataclass: every value type is a named tuple,
    which needs no code generated at import."""
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", DATACLASS_PROBE],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_the_fit_loads_numpy(fixtures_dir, tmp_path):
    """A fresh interpreter runs every command but fit and select without numpy."""
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(fixtures_dir), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr


STARTUP_PROBE = """
import json, sys
from wepolicy import cli

command, scenario, out = sys.argv[1:]
argv = [command, "--scenario", scenario]
if command != "validate":
    argv += ["--out", out]
assert cli.main(argv) == 0, command
# The functions and classes that a loaded module defines at its top level.
defined = {
    attr for name, module in list(sys.modules.items()) if name.startswith("wepolicy.")
    for attr, obj in vars(module).items()
    if (getattr(obj, "__module__", None), getattr(obj, "__qualname__", None)) == (name, attr)
}
print(json.dumps(sorted({*sys.modules, *defined})))
"""

# Each row names modules (dotted) and functions or classes (bare names, in
# whichever module defines them) that the command must not load.
# What a scenario holding only a logic model and a parameter network does
# not need; what the commands that never read the survey file do not need
# on pipeline.json; and what `surface` on fig2.json and `consensus-check`
# on consensus.json do not need; `surface` needs no `coupling` or graphs
# either. On pipeline.json, `fit` and `sweep` need
# neither the parameter network module (`coupling`) nor the graphs, and
# `impact` does not need `coupling`. The consensus check (`consensus`) and
# the fact coupling (`evaluator`) are loaded only by the commands that run
# them: `network` loads neither, and `consensus-check` and `select` load
# neither the network nor the graphs. `validate` reads the survey file
# through `survey_csv` alone, so it loads no `survey`. The package defines
# no dataclass, so no command loads `dataclasses`.
CONSENSUS_CODE = ("wepolicy.consensus", "check_consensus")
FACT_COUPLING_CODE = ("wepolicy.evaluator", "FactCoupling")
NETWORK_CODE = ("wepolicy.coupling", "wepolicy.graphs", "heapq", "ParameterNetwork")
GRAPHS_UNUSED = ("wepolicy.survey", "wepolicy.evaluator", "wepolicy.policy_sim",
                 "wepolicy.we_model", "dataclasses", "numpy")
PIPELINE_UNUSED = ("wepolicy.survey", "dataclasses", "numpy")
UNCOUPLED = ("wepolicy.coupling", "wepolicy.graphs")
FIT_UNUSED = ("wepolicy.policy_sim", "wepolicy.evaluator", "wepolicy.logicmodel",
              "wepolicy.we_model", "wepolicy.valuefn", "dataclasses", *UNCOUPLED)
LAYERS_UNUSED = ("wepolicy.survey", "wepolicy.evaluator", "wepolicy.policy_sim",
                 "wepolicy.logicmodel", "dataclasses", "numpy")


@pytest.mark.parametrize("command, fixture, unused", [
    ("validate", None, GRAPHS_UNUSED + CONSENSUS_CODE),
    ("impact", None, GRAPHS_UNUSED),
    ("network", None, GRAPHS_UNUSED + CONSENSUS_CODE + FACT_COUPLING_CODE),
    ("surface", "fig2.json", LAYERS_UNUSED + UNCOUPLED),
    ("consensus-check", "consensus.json",
     LAYERS_UNUSED + NETWORK_CODE + FACT_COUPLING_CODE),
    ("fit", "pipeline.json", FIT_UNUSED),
    ("sweep", "pipeline.json", PIPELINE_UNUSED + UNCOUPLED),
    ("select", "pipeline.json", NETWORK_CODE + CONSENSUS_CODE + ("dataclasses",)),
    ("impact", "pipeline.json", PIPELINE_UNUSED + ("wepolicy.coupling",)),
    ("network", "pipeline.json", PIPELINE_UNUSED + CONSENSUS_CODE + FACT_COUPLING_CODE),
    ("validate", "pipeline.json", PIPELINE_UNUSED + CONSENSUS_CODE),
], ids=["validate", "impact", "network", "surface", "consensus-check",
        "fit-pipeline", "sweep-pipeline", "select-pipeline", "impact-pipeline",
        "network-pipeline", "validate-pipeline"])
def test_a_command_loads_only_what_it_uses(fixtures_dir, tmp_path, command, fixture, unused):
    """A fresh interpreter running one command imports none of the modules,
    and defines none of the functions, of the pipelines that the command
    and its scenario do not use."""
    if fixture is None:
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        scenario = tmp_path / "graphs.json"
        scenario.write_text(json.dumps({k: doc[k] for k in ("logic_model", "parameter_network")}))
    else:
        scenario = fixtures_dir / fixture
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, command, str(scenario), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [name for name in unused if name in loaded] == []


# `select` on a scenario without `dynamics`, run in a fresh interpreter.
MISSING_SECTION_PROBE = """
import json, sys
from wepolicy import cli

code = cli.main(["select", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("with_survey", [False, True], ids=["no-survey-file", "survey-file"])
def test_a_missing_required_section_fails_before_any_step(fixtures_dir, tmp_path, with_survey):
    """A command lacking a section it requires exits 1 naming that section
    before it reads the survey file or loads numpy, and writes nothing."""
    doc = json.loads((fixtures_dir / "pipeline.json").read_text(encoding="utf-8"))
    del doc["dynamics"]
    scenario = tmp_path / "pipeline.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    if with_survey:
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
    out = tmp_path / "out"
    proc = run_probe(MISSING_SECTION_PROBE, scenario, out)
    assert proc.stderr == "error: dynamics: section required by this command is missing\n"
    assert json.loads(proc.stdout) == {"code": 1, "numpy": False}
    assert not out.exists()


def test_the_command_table_matches_the_sections():
    """Each command reads only scenario sections, requires only sections it
    reads, and reads and requires what the oracles above say."""
    from wepolicy import cli
    from wepolicy.scenario import _SECTIONS

    names = [name for name, _, _ in _SECTIONS]
    assert list(cli._DISPATCH) == list(READS)
    for command, (_, reads, requires) in cli._DISPATCH.items():
        assert set(reads) <= set(names), command
        assert set(requires) <= set(reads), command
        assert reads == READS[command], command
        assert requires == REQUIRED_SECTIONS[command], command


def run_probe(probe, *args):
    """Run `probe` with `args` in a fresh interpreter on this checkout's
    package; returns the finished process, which exited 0."""
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# As the benchmark's set-up probe loads a scenario: every section present.
SCENARIO_LOAD_PROBE = """
import json, sys
import wepolicy.cli
from wepolicy.scenario import load_scenario

load_scenario(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def test_loading_every_section_loads_no_survey_module(fixtures_dir):
    """The `survey` section's construct map is built in `scenario`, so a
    scenario load loads the modules of the other sections' parsers and
    neither `survey` nor `csv`."""
    proc = run_probe(SCENARIO_LOAD_PROBE, fixtures_dir / "pipeline.json")
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in ("wepolicy.survey", "csv", "dataclasses", "numpy") if m in loaded] == []
    parsers = ("wepolicy.coupling", "wepolicy.policy_sim", "wepolicy.evaluator",
               "wepolicy.logicmodel")
    assert [m for m in parsers if m not in loaded] == []


def test_loading_the_policy_sections_loads_no_graph_module(fixtures_dir, tmp_path):
    """A scenario of the policy pipeline alone, as the policy workloads'
    set-up probe loads it, builds its profiles' fact couplings in
    `evaluator`, without the parameter network module or the graphs."""
    doc = json.loads((fixtures_dir / "pipeline.json").read_text())
    scenario = tmp_path / "policy.json"
    policy = ("element_sets", "survey", "dynamics", "sweep", "weighting_profiles")
    scenario.write_text(json.dumps({k: doc[k] for k in policy}))
    loaded = json.loads(run_probe(SCENARIO_LOAD_PROBE, scenario).stdout.splitlines()[-1])
    assert "wepolicy.evaluator" in loaded
    assert [m for m in ("wepolicy.coupling", "wepolicy.graphs", "heapq") if m in loaded] == []


# The names that moved out of `coupling` and `survey`, by their new module.
MOVED = {
    "coupling": {
        "consensus": ("Saturator", "LinearMap", "apply_map", "ScopeFunction",
                      "ConsensusReport", "check_consensus", "parse_mapping_f"),
        "evaluator": ("FactCoupling", "CouplingResult", "couple_rows", "apply_fact_coupling",
                      "ADDITIVE", "MULTIPLICATIVE", "DEFAULT_WARN_THRESHOLD"),
    },
    "survey": {"survey_csv": ("SurveyColumns", "read_survey_csv", "check_survey")},
}


def test_moved_names_import_from_their_old_module():
    """Each name moved out of `coupling` or `survey` imports from there as
    the same object as from its new module."""
    import importlib

    for old, homes in MOVED.items():
        old_module = importlib.import_module(f"wepolicy.{old}")
        for new, names in homes.items():
            new_module = importlib.import_module(f"wepolicy.{new}")
            for name in names:
                assert getattr(old_module, name) is getattr(new_module, name), (old, name)


SPLIT_PROBE = """
import json, sys

def loaded(*names):
    return [name for name in names if name in sys.modules]

import wepolicy.survey_csv
out = {"survey_csv": loaded("dataclasses", "wepolicy.survey")}
import wepolicy.coupling
out["coupling"] = loaded("wepolicy.consensus", "wepolicy.evaluator")
out["hasattr"] = hasattr(wepolicy.coupling, "no_such_name")
out["after_miss"] = loaded("wepolicy.consensus", "wepolicy.evaluator")
from wepolicy.coupling import check_consensus
out["after_hit"] = loaded("wepolicy.consensus", "wepolicy.evaluator")
print(json.dumps(out))
"""


def test_the_old_modules_load_the_moved_code_only_on_access():
    """In a fresh interpreter, `survey_csv` loads no `dataclasses`, and
    `coupling` loads neither `consensus` nor `evaluator` until one of their
    names is read from it. An unknown name raises AttributeError and loads
    nothing, so `hasattr` answers False (the topological-sort counter above
    relies on it)."""
    out = json.loads(run_probe(SPLIT_PROBE).stdout.splitlines()[-1])
    assert out == {"survey_csv": [], "coupling": [], "hasattr": False, "after_miss": [],
                   "after_hit": ["wepolicy.consensus"]}


LAZY_READ_PROBE = """
import json, sys
from wepolicy import cli

assert all(callable(getattr(cli, name)) for names in cli._LAZY.values() for name in names)
print(json.dumps(sorted(sys.modules)))
"""

LAZY_REPLACED_PROBE = """
import sys
from wepolicy import cli

scenario, out = sys.argv[1:]
stub, calls = cli.sample_surface, []


def replacement(*args, **kwargs):
    calls.append(len(args))
    return stub(*args, **kwargs)


cli.sample_surface = replacement
assert cli.main(["surface", "--scenario", scenario, "--out", out]) == 0
assert calls == [3], calls
assert cli.sample_surface is replacement
assert cli.consensus_curve is sys.modules["wepolicy.we_model"].consensus_curve
"""

SEED_PROBE = """
import sys
from wepolicy import cli

scenario, out = sys.argv[1:]
code = cli.main(["select", "--scenario", scenario, "--out", out, "--seed", "-7"])
print(code, "numpy" in sys.modules, "wepolicy.survey" in sys.modules)
"""


class TestLazyNames:
    """Each `_LAZY` name on `cli` binds itself on its first call."""

    def test_reading_the_names_loads_no_module(self):
        loaded = json.loads(run_probe(LAZY_READ_PROBE).stdout.splitlines()[-1])
        unused = ("wepolicy.survey", "wepolicy.policy_sim", "wepolicy.evaluator",
                  "wepolicy.we_model")
        assert [name for name in unused if name in loaded] == []

    def test_a_call_binds_the_library_function(self, fixtures_dir, tmp_path, capsys):
        from wepolicy import cli, survey

        code, _, _ = run_cli(capsys, "fit", "--scenario", str(fixtures_dir / "pipeline.json"),
                             "--out", str(tmp_path / "out"))
        assert code == 0
        assert cli.fit_target is survey.fit_target

    def test_a_name_set_before_the_first_call_is_kept(self, fixtures_dir, tmp_path):
        run_probe(LAZY_REPLACED_PROBE, fixtures_dir / "fig2.json", tmp_path / "out")

    def test_seed_is_checked_before_the_survey_is_read(self, fixtures_dir, tmp_path):
        """Without survey.csv next to the scenario, `select --seed -7` exits 1
        on the seed, not 3 on the missing file, and loads neither numpy nor
        the survey module."""
        scenario = tmp_path / "pipeline.json"
        shutil.copy(fixtures_dir / "pipeline.json", scenario)
        proc = run_probe(SEED_PROBE, scenario, tmp_path / "out")
        assert (proc.stdout, proc.stderr) == (
            "1 False False\n", "error: --seed: seed must be >= 0, got -7\n")
        assert not (tmp_path / "out").exists()


class TestOutputContract:
    def test_surface_with_three_layers_is_a_finding(self, fixtures_dir, tmp_path, capsys):
        doc = json.loads((fixtures_dir / "fig2.json").read_text())
        doc["layers"][1]["weight"] = 0.25
        doc["layers"].append({"scope": "world", "value_function": "default", "weight": 0.25})
        scenario = tmp_path / "three_layers.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "surface", "--scenario", str(scenario),
                                    "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err == "error: surface: surface sampling needs exactly 2 layers, model has 3\n"
        assert not out.exists()

    def test_failed_write_leaves_no_files(self, tmp_path, capsys, monkeypatch):
        scenario = small_fig2(tmp_path)
        out = tmp_path / "out"
        real_write = Path.write_text
        writes = []

        def second_write_fails(self, *args, **kwargs):
            writes.append(self.name)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            return real_write(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", second_write_fails)
        code, stdout, err = run_cli(capsys, "surface", "--scenario", str(scenario),
                                    "--out", str(out))
        assert writes == ["surface.csv", "curve.csv"]
        assert code == 3
        assert stdout == ""
        assert "No space left on device" in err
        assert not out.exists()

    def test_failed_rename_removes_placed_outputs(self, tmp_path, capsys, monkeypatch):
        scenario = small_fig2(tmp_path)
        out = tmp_path / "out"
        real_replace = os.replace
        renames = []

        def second_rename_fails(src, dst):
            renames.append(Path(dst).name)
            if len(renames) == 2:
                raise OSError(28, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_rename_fails)
        code, stdout, err = run_cli(capsys, "surface", "--scenario", str(scenario),
                                    "--out", str(out))
        assert renames == ["surface.csv", "curve.csv"]
        assert (code, stdout) == (3, "")
        assert "No space left on device" in err
        assert not out.exists()

    def test_rerun_replaces_outputs_in_place(self, tmp_path, capsys):
        scenario = small_fig2(tmp_path)
        out = tmp_path / "out"
        for _ in range(2):
            code, _, _ = run_cli(capsys, "surface", "--scenario", str(scenario),
                                 "--out", str(out))
            assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["curve.csv", "surface.csv"]

    def test_fit_checks_the_answers_once(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        from wepolicy import cli

        calls = []
        real_check = cli.check_survey

        def counting_check(*args):
            calls.append(len(args[0]))
            return real_check(*args)

        monkeypatch.setattr(cli, "check_survey", counting_check)
        code, _, _ = run_cli(capsys, "fit", "--scenario", str(fixtures_dir / "pipeline.json"),
                             "--out", str(tmp_path / "out"))
        assert code == 0
        assert len(calls) == 1

    def test_answer_outside_the_scale_is_named(self, fixtures_dir, tmp_path, capsys):
        shutil.copy(fixtures_dir / "pipeline.json", tmp_path / "pipeline.json")
        lines = (fixtures_dir / "survey.csv").read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",9"
        (tmp_path / "survey.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "fit", "--scenario", str(tmp_path / "pipeline.json"),
                               "--out", str(out))
        assert code == 1
        assert err == "error: survey.file: respondent 'r0001' answer 9 outside [1, 5]\n"
        assert not out.exists()


    @staticmethod
    def overflowing_second_profile(fixtures_dir, tmp_path):
        """`pipeline.json` next to its survey, with the `Type B` matrix at
        1.79e308: `select` ranks `Type A`, then fails on `Type B`."""
        doc = json.loads((fixtures_dir / "pipeline.json").read_text(encoding="utf-8"))
        profile = next(p for p in doc["weighting_profiles"] if p["name"] == "Type B")
        profile["matrix"] = [[1.79e308] * len(row) for row in profile["matrix"]]
        scenario = tmp_path / "pipeline.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
        return str(scenario)

    FAILED_PROFILE = ("error: numerical failure: profile 'Type B': coupled vector or score "
                      "of policy 0 is not finite\n")

    def test_failed_later_profile_leaves_no_out(self, fixtures_dir, tmp_path, capsys):
        scenario = self.overflowing_second_profile(fixtures_dir, tmp_path)
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "select", "--scenario", scenario, "--out", str(out))
        assert (code, stdout, err) == (2, "", self.FAILED_PROFILE)
        assert not out.exists()

    def test_failed_later_profile_keeps_an_existing_out(self, fixtures_dir, tmp_path, capsys):
        scenario = self.overflowing_second_profile(fixtures_dir, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "ranked_Type_A.csv").write_bytes(b"kept\n")
        code, _, err = run_cli(capsys, "select", "--scenario", scenario, "--out", str(out))
        assert (code, err) == (2, self.FAILED_PROFILE)
        assert [p.name for p in out.iterdir()] == ["ranked_Type_A.csv"]
        assert (out / "ranked_Type_A.csv").read_bytes() == b"kept\n"

    def test_failed_run_removes_the_directories_it_created(self, fixtures_dir, tmp_path, capsys):
        scenario = self.overflowing_second_profile(fixtures_dir, tmp_path)
        out = tmp_path / "a" / "b" / "c"
        code, _, _ = run_cli(capsys, "select", "--scenario", scenario, "--out", str(out))
        assert code == 2
        assert not (tmp_path / "a").exists()


def select_scenario(fixtures_dir, tmp_path, profiles):
    """`pipeline.json` next to its survey, on a 25-point grid per knob
    (8,125 admissible rows) with one agent and one step, and with
    `profiles` weighting profiles cycling through the fixture's three."""
    doc = json.loads((fixtures_dir / "pipeline.json").read_text(encoding="utf-8"))
    doc["dynamics"].update(agents=1, steps=1)
    doc["sweep"] = {knob: [stop * i / 24 for i in range(25)]
                    for knob, stop in (("subsidy", 1.0), ("tax", 0.5), ("service", 1.0))}
    fixture_profiles = doc["weighting_profiles"]
    doc["weighting_profiles"] = [
        dict(fixture_profiles[i % 3], name=f"{fixture_profiles[i % 3]['name']} {i}")
        for i in range(profiles)
    ]
    scenario = tmp_path / f"select_{profiles}.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    shutil.copy(fixtures_dir / "survey.csv", tmp_path / "survey.csv")
    return scenario


class TestSelectMemory:
    def test_peak_does_not_grow_with_the_profiles(self, fixtures_dir, tmp_path, capsys):
        """`select` writes each ranked table as it is rendered, so a run
        with 8 profiles peaks within one ranked table's text of a run
        with 2."""
        import tracemalloc

        def traced_peak(profiles):
            scenario, out = select_scenario(fixtures_dir, tmp_path, profiles), tmp_path / "out"
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code = main(["select", "--scenario", str(scenario), "--out", str(out)])
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak, (out / "ranked_Type_A_0.csv").stat().st_size

        # Imports and first-call bindings settle before anything is traced.
        assert main(["select", "--scenario", str(fixtures_dir / "pipeline.json"),
                     "--out", str(tmp_path / "warm")]) == 0
        few, table_bytes = traced_peak(2)
        many, _ = traced_peak(8)
        capsys.readouterr()
        assert table_bytes > 500_000
        assert abs(many - few) < table_bytes


FIXTURE_COMMANDS = [
    ("validate", "pipeline.json"), ("surface", "fig2.json"),
    ("consensus-check", "consensus.json"), ("fit", "pipeline.json"),
    ("sweep", "pipeline.json"), ("select", "pipeline.json"),
    ("impact", "pipeline.json"), ("network", "pipeline.json"),
]


def run_process(cwd, *args, python=sys.executable):
    """`python -m wepolicy.cli *args` in a fresh interpreter, with stdout
    block-buffered as it is by default on a pipe, so that output the exit
    path fails to flush is lost. The interpreter writes no bytecode cache
    into the source tree."""
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [python, "-m", "wepolicy.cli", *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env=dict(env, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
    )


class TestProcessEntry:
    """The command as a process, through its exit path."""

    @pytest.mark.parametrize("command, fixture", FIXTURE_COMMANDS,
                             ids=[c for c, _ in FIXTURE_COMMANDS])
    def test_fixture_command(self, fixtures_dir, goldens_dir, tmp_path, command, fixture):
        out = tmp_path / "out"
        args = [command, "--scenario", str(fixtures_dir / fixture)]
        if command != "validate":
            args += ["--out", str(out)]
        proc = run_process(tmp_path, *args)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        if command == "validate":
            assert report == {"ok": True, "errors": [], "warnings": []}
            assert not out.exists()
            return
        golden = goldens_dir / command
        if golden.is_dir():
            expected = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in golden.iterdir()}
        else:
            expected = next(d for c, s, f, d in WRITER_DIGESTS
                            if (c, s, f) == (command, fixture, "csv"))
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == expected
        assert report["command"] == command
        assert sorted(report["outputs"]) == sorted(str(out / name) for name in expected)

    def test_validation_failure_exits_1_with_its_error_line(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        proc = run_process(tmp_path, "network", "--scenario", str(fixtures_dir / "fig2.json"),
                           "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: parameter_network: section required by this command is missing\n"
        )
        assert not out.exists()

    def test_missing_scenario_exits_3(self, tmp_path):
        out = tmp_path / "out"
        proc = run_process(tmp_path, "impact", "--scenario", str(tmp_path / "nope.json"),
                           "--out", str(out))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_fit_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, monkeypatch):
        """On the benchmark's policy-wide survey, numpy's least squares at
        two BLAS threads gave `r2` a different last bit than at one; the
        process runs BLAS on one thread whatever its environment says."""
        spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        gen.generate("policy-wide", 1, tmp_path)
        expected = json.loads((PERFBENCH / "expected.json").read_text())["policy-wide"]["fit"]
        for threads in ("1", "2"):
            for name in BLAS_THREADS:
                monkeypatch.setenv(name, threads)
            out = tmp_path / f"out{threads}"
            proc = run_process(tmp_path, "fit", "--scenario", str(tmp_path / "scenario.json"),
                               "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            digest = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
            assert digest == expected["model.json"], threads


def python_that_starts(version):
    """The first `python<version>` that starts and reports that version, or
    None. It looks on PATH, then under pyenv's installed versions
    (`$PYENV_ROOT/versions/<version>.*/bin`, `~/.pyenv` by default): a
    version manager's shim may fail to start where the interpreter runs."""
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    installed = glob.glob(os.path.join(glob.escape(root), "versions", f"{version}.*", "bin"))
    for directory in [*os.environ.get("PATH", "").split(os.pathsep), *sorted(installed)]:
        path = os.path.join(directory, f"python{version}")
        if not os.access(path, os.X_OK):
            continue
        try:
            proc = subprocess.run(
                [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return path
    return None


class TestOtherInterpreters:
    """The commands that need no numpy write the same bytes under every
    supported interpreter (requires-python >= 3.10)."""

    @pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
    def test_numpy_free_commands_match_the_goldens(self, fixtures_dir, goldens_dir, tmp_path,
                                                   version):
        python = python_that_starts(version)
        if python is None:
            pytest.skip(f"no python{version} on PATH or under pyenv starts")
        for command, fixture in FIXTURE_COMMANDS:
            if command in ("fit", "select"):  # these load numpy
                continue
            out = tmp_path / command
            args = [command, "--scenario", str(fixtures_dir / fixture)]
            if command != "validate":
                args += ["--out", str(out)]
            proc = run_process(tmp_path, *args, python=python)
            assert proc.returncode == 0, (command, proc.stderr)
            report = json.loads(proc.stdout)
            if command == "validate":
                assert report == {"ok": True, "errors": [], "warnings": []}
                continue
            golden = goldens_dir / command
            if golden.is_dir():
                expected = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in golden.iterdir()}
            else:
                expected = next(d for c, s, f, d in WRITER_DIGESTS
                                if (c, s, f) == (command, fixture, "csv"))
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            assert got == expected, (command, python)


def overflowing_impact(fixtures_dir, tmp_path):
    """The pipeline fixture with a logic model whose propagation overflows."""
    doc = json.loads((fixtures_dir / "pipeline.json").read_text())
    for edge in doc["logic_model"]["edges"]:
        edge["weight"] = 1e308
    for name in doc["logic_model"]["inputs"]:
        doc["logic_model"]["inputs"][name] = 1e10
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    return scenario


def repeated_logic_model(fixtures_dir, tmp_path, copies):
    """A scenario holding `copies` renamed copies of the pipeline logic model."""
    model = json.loads((fixtures_dir / "pipeline.json").read_text())["logic_model"]
    bindings = model["fact_bindings"]["bindings"]
    big = {"nodes": [], "edges": [], "inputs": {},
           "fact_bindings": {**model["fact_bindings"], "bindings": {}}}
    for i in range(copies):
        big["nodes"] += [{**n, "name": f"{n['name']}_{i}"} for n in model["nodes"]]
        big["edges"] += [{**e, "from": f"{e['from']}_{i}", "to": f"{e['to']}_{i}"}
                         for e in model["edges"]]
        big["inputs"].update({f"{k}_{i}": v for k, v in model["inputs"].items()})
        big["fact_bindings"]["bindings"].update({f"{k}_{i}": v for k, v in bindings.items()})
    scenario = tmp_path / f"logic_x{copies}.json"
    scenario.write_text(json.dumps({"logic_model": big}), encoding="utf-8")
    return scenario


class TestCollectorState:
    """`main` runs with the cyclic collector off and restores the state it found."""

    @pytest.fixture
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("case, expected", [
        ("ok", 0), ("validation", 1), ("numerical", 2), ("io", 3), ("usage", "SystemExit"),
    ])
    def test_state_is_restored(self, fixtures_dir, tmp_path, capsys, restore_collector,
                               enabled, case, expected):
        pipeline = str(fixtures_dir / "pipeline.json")
        out = str(tmp_path / "out")
        argv = {
            "ok": ["network", "--scenario", pipeline, "--out", out],
            "validation": ["network", "--scenario", pipeline],
            "numerical": ["impact", "--scenario",
                          str(overflowing_impact(fixtures_dir, tmp_path)), "--out", out],
            "io": ["network", "--scenario", str(tmp_path / "nope.json"), "--out", out],
            "usage": ["no-such-command", "--scenario", pipeline],
        }[case]
        if enabled:
            gc.enable()
        else:
            gc.disable()
        try:
            code = main(argv)
        except SystemExit:
            code = "SystemExit"
        assert gc.isenabled() is enabled
        assert code == expected

    def test_off_while_the_command_runs(self, fixtures_dir, tmp_path, capsys, monkeypatch,
                                        restore_collector):
        from wepolicy import cli

        seen = []
        real_load = cli.load_scenario

        def recording_load(path, sections=None):
            seen.append(gc.isenabled())
            return real_load(path, sections)

        monkeypatch.setattr(cli, "load_scenario", recording_load)
        gc.enable()
        code, _, _ = run_cli(capsys, "network", "--scenario", str(fixtures_dir / "pipeline.json"),
                             "--out", str(tmp_path / "out"))
        assert code == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_garbage_left_does_not_grow_with_input(self, fixtures_dir, tmp_path, capsys,
                                                   restore_collector):
        def garbage_after_impact(scenario):
            gc.disable()
            gc.collect()
            code = main(["impact", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
            found = gc.collect()
            assert code == 0
            return found

        pipeline = fixtures_dir / "pipeline.json"
        garbage_after_impact(pipeline)  # lets lazy imports settle
        small = garbage_after_impact(pipeline)
        large = garbage_after_impact(repeated_logic_model(fixtures_dir, tmp_path, 20))
        assert small < 1000
        assert large == small


def _drop_last_question(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


def _last_answer(value):
    def edit(lines):
        return lines[:2] + [lines[2].rsplit(",", 1)[0] + f",{value}"] + lines[3:]
    return edit


class TestValidateChecksTheSurvey:
    """`validate` reads the survey file and reports what `fit` would exit 1 on."""

    @pytest.mark.parametrize("edit, finding", [
        (lambda lines: lines[:3], "survey.file: need at least 4 rows to fit 4 columns, got 2"),
        (_last_answer(9), "survey.file: respondent 'r0001' answer 9 outside [1, 5]"),
        (_last_answer("x"), "survey.file: survey CSV line 3: answers must be integers"),
        (_drop_last_question, "survey.file: CSV has 9 questions, construct_matrix expects 10"),
    ], ids=["too-few-respondents", "answer-out-of-range", "answer-not-an-integer",
            "wrong-question-count"])
    def test_validate_reports_what_fit_reports(self, fixtures_dir, tmp_path, capsys,
                                               edit, finding):
        shutil.copy(fixtures_dir / "pipeline.json", tmp_path / "pipeline.json")
        lines = (fixtures_dir / "survey.csv").read_text(encoding="utf-8").splitlines()
        (tmp_path / "survey.csv").write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        scenario = str(tmp_path / "pipeline.json")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "fit", "--scenario", scenario, "--out", str(out))
        assert (code, err) == (1, f"error: {finding}\n")
        assert not out.exists()
        code, stdout, _ = run_cli(capsys, "validate", "--scenario", scenario)
        assert code == 1
        assert json.loads(stdout) == {"ok": False, "errors": [finding], "warnings": []}

    def test_missing_survey_file_is_an_io_error(self, fixtures_dir, tmp_path, capsys):
        shutil.copy(fixtures_dir / "pipeline.json", tmp_path / "pipeline.json")
        scenario = str(tmp_path / "pipeline.json")
        code, _, err = run_cli(capsys, "fit", "--scenario", scenario,
                               "--out", str(tmp_path / "out"))
        assert code == 3
        code, stdout, err_validate = run_cli(capsys, "validate", "--scenario", scenario)
        assert (code, stdout, err_validate) == (3, "", err)

    def test_missing_survey_file_does_not_hide_a_later_finding(self, fixtures_dir, tmp_path,
                                                               capsys):
        """The steps after the failed survey read still run, and their
        finding is reported in place of the I/O error."""
        scenario = str(overflowing_impact(fixtures_dir, tmp_path))
        assert not (tmp_path / "survey.csv").exists()
        code, stdout, err = run_cli(capsys, "validate", "--scenario", scenario)
        assert (code, err) == (1, "")
        assert json.loads(stdout)["errors"] == [
            "logic_model: value of node 'outreach' is not finite: inf"]



class TestFileCaps:
    """A scenario or survey file one byte over its cap is a finding of exit 1
    with no output, which `validate` reports too; a file at the cap is read."""

    @pytest.mark.parametrize("cap, name, command, file", [
        ("MAX_SCENARIO_BYTES", "scenario", "impact", "pipeline.json"),
        ("MAX_SURVEY_BYTES", "survey.file", "fit", "survey.csv"),
    ], ids=["scenario", "survey"])
    @pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
    def test_cap_and_cap_plus_one(self, fixtures_dir, tmp_path, capsys, monkeypatch,
                                  cap, name, command, file, over):
        for copied in ("pipeline.json", "survey.csv"):
            shutil.copy(fixtures_dir / copied, tmp_path / copied)
        size = (tmp_path / file).stat().st_size
        monkeypatch.setattr(f"wepolicy.scenario.{cap}", size - over)
        scenario, out = str(tmp_path / "pipeline.json"), tmp_path / "out"
        code, _, err = run_cli(capsys, command, "--scenario", scenario, "--out", str(out))
        validated, stdout, _ = run_cli(capsys, "validate", "--scenario", scenario)
        if not over:
            assert (code, validated) == (0, 0) and out.is_dir()
            return
        finding = f"{name}: {size} bytes exceeds the cap of {size - 1}"
        assert (code, err) == (1, f"error: {finding}\n")
        assert not out.exists()
        assert validated == 1
        assert json.loads(stdout) == {"ok": False, "errors": [finding], "warnings": []}

    def test_survey_newlines_read_as_in_text_mode(self, fixtures_dir, tmp_path):
        """The survey's bytes, read under the cap, take universal newlines as
        `read_text` gives them: CRLF and a lone CR end a line, also inside a
        quoted respondent id."""
        from wepolicy import cli
        from wepolicy.scenario import load_scenario
        from wepolicy.survey import read_survey_csv

        shutil.copy(fixtures_dir / "pipeline.json", tmp_path / "pipeline.json")
        lines = (fixtures_dir / "survey.csv").read_text(encoding="utf-8").splitlines()
        lines[1] = '"r\r\n0' + lines[1][2:].replace(",", '",', 1)
        text = "".join(line + ("\r\n", "\r", "\n")[i % 3] for i, line in enumerate(lines))
        (tmp_path / "survey.csv").write_bytes(text.encode("utf-8"))
        sc, _ = load_scenario(tmp_path / "pipeline.json", ("element_sets", "survey"))
        survey = cli._read_survey(sc)
        assert survey.respondents[0] == "r\n0000"
        assert survey == read_survey_csv((tmp_path / "survey.csv").read_text(encoding="utf-8"))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_a_fifo_under_the_cap_is_read_whole(self, fixtures_dir, goldens_dir, tmp_path,
                                                capsys):
        """A FIFO reports size 0 to `stat`; its bytes past that are read on
        to the cap, so `fit` writes the golden bytes from it."""
        import threading

        shutil.copy(fixtures_dir / "pipeline.json", tmp_path / "pipeline.json")
        os.mkfifo(tmp_path / "survey.csv")
        writer = threading.Thread(target=(tmp_path / "survey.csv").write_bytes,
                                  args=((fixtures_dir / "survey.csv").read_bytes(),),
                                  daemon=True)  # blocks until a reader opens the FIFO
        writer.start()
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "fit", "--scenario", str(tmp_path / "pipeline.json"),
                               "--out", str(out))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (code, err) == (0, "")
        assert digests(out) == digests(goldens_dir / "fit")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs a /dev/zero device")
    @pytest.mark.parametrize("cap, name, command", [
        ("MAX_SCENARIO_BYTES", "scenario", "impact"),
        ("MAX_SURVEY_BYTES", "survey.file", "fit"),
    ], ids=["scenario", "survey"])
    def test_an_endless_stream_is_read_to_the_cap(self, fixtures_dir, tmp_path, capsys,
                                                   monkeypatch, cap, name, command):
        """/dev/zero reports size 0 to `stat` and never ends; at most the cap
        plus one byte of it is read."""
        monkeypatch.setattr(f"wepolicy.scenario.{cap}", 1000)
        scenario = "/dev/zero"
        if name == "survey.file":
            doc = json.loads((fixtures_dir / "pipeline.json").read_text(encoding="utf-8"))
            doc["survey"]["file"] = "/dev/zero"
            scenario = str(tmp_path / "pipeline.json")
            Path(scenario).write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, "--scenario", scenario, "--out", str(out))
        validated, stdout, _ = run_cli(capsys, "validate", "--scenario", scenario)
        finding = f"{name}: stream exceeds the cap of 1000 bytes"
        assert (code, err) == (1, f"error: {finding}\n")
        assert not out.exists()
        assert validated == 1
        assert json.loads(stdout) == {"ok": False, "errors": [finding], "warnings": []}

# --- the exit-code contract on mutated fixtures ---

# The caps are lowered so that a count one past a cap stays small.
FUZZ_GRID_CAP = 64
FUZZ_WORK_CAP = 2_000
NUMBER_SWAPS = [0, 1, 2, -1, -0.0, 0.5, 1e308, -1e308, FUZZ_GRID_CAP, FUZZ_GRID_CAP + 1,
                FUZZ_WORK_CAP, FUZZ_WORK_CAP + 1, "0.5", None]
ENTRY_SWAPS = [None, True, "", "x", [], {}, [0.5], 1, 1e308]
# The sections whose absence each command reports as missing, in order
# (`cli._DISPATCH`).
REQUIRED_SECTIONS = {
    "surface": ("layers", "surface"),
    "consensus-check": ("consensus", "mapping_f"),
    "fit": ("survey",),
    "sweep": ("dynamics", "sweep"),
    "select": ("weighting_profiles", "survey", "dynamics", "sweep"),
    "impact": ("logic_model",),
    "network": ("parameter_network",),
}


def fuzz_fixtures():
    """The three fixtures, with grids and probes cut to fit the lowered caps."""
    docs = [json.loads((FIXTURES / name).read_text(encoding="utf-8"))
            for name in ("pipeline.json", "consensus.json", "fig2.json")]
    docs[1]["consensus"]["probes"] = docs[1]["consensus"]["probes"][:3]
    for grid in (docs[2]["surface"]["x_n"], docs[2]["surface"]["x_w"], docs[2]["curve"]["grid"]):
        grid["count"] = 5
    return docs


def json_paths(value, path):
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from json_paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from json_paths(v, path + (i,))


# One `pipeline.json` field per section, as in BROKEN_FIELDS, with a value
# that passes the section's checks and fails the step of a command reading
# it: the survey file's answers exceed a scale of 2, an income spread of
# 1e308 makes the simulated incomes overflow, and a chain of two edges of
# weight 1e308 makes a graph's propagated value overflow.
STEP_HAZARDS = {
    "survey": (("scale",), 2),
    "dynamics": (("income_spread",), 1e308),
    "logic_model": (("edges",), [{"from": "funding", "to": "outreach", "weight": 1e308},
                                 {"from": "outreach", "to": "cohesion", "weight": 1e308}]),
    "parameter_network": (("edges",), [
        {"from": "income", "to": "security", "weight": 1e308},
        {"from": "security", "to": "life_satisfaction", "weight": 1e308}]),
}


@st.composite
def mutated_fixtures(draw):
    """A fixture without up to two of its sections, in some draws with one
    section broken by its `BROKEN_FIELDS` entry and one given its
    `STEP_HAZARDS` value, and with 0-3 entries replaced (a number by a
    count at or one past a cap, 1e308, -0.0 or a value of another type),
    deleted, or joined by a new entry. So a finding in one section meets
    what a step of a command that does not read it decides."""
    doc = draw(st.sampled_from(fuzz_fixtures()))
    for section in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        del doc[section]
    for fields in (BROKEN_FIELDS, STEP_HAZARDS):
        present = [section for section in fields if section in doc]
        if present and draw(st.booleans()):
            section = draw(st.sampled_from(present))
            path, value = fields[section]
            parent = doc[section]
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
    for _ in range(draw(st.integers(0, 3))):
        if not doc:  # a mutation deleted the last section
            break
        # a section first, so that the small ones are drawn as often as the large
        section = draw(st.sampled_from(sorted(doc)))
        path = draw(st.sampled_from(list(json_paths(doc[section], (section,)))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        swaps = NUMBER_SWAPS if isinstance(old, (int, float)) else ENTRY_SWAPS
        value = copy.deepcopy(draw(st.sampled_from(swaps)))
        kind = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if kind == "replace":
            parent[path[-1]] = value
        elif kind == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["ghost", "offset", "tol", "loss_lambda"]))] = value
        else:
            parent.insert(path[-1], value)
    return doc


# The commands that write tables, and consensus-check, run in the drawn format.
FORMATTED_COMMANDS = ("surface", "consensus-check", "sweep", "select")
# The most bytes one command may print to stdout and stderr together.
MAX_PRINTED = 64 * 1024


def reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def assert_finite_outputs(out):
    """No file in `out` holds nan or +-inf: no CSV cell reads as one, and
    no JSON text holds NaN, Infinity or -Infinity."""
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=reject_constant)
            continue
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, cell)


def survey_beyond_scale(doc):
    """`pipeline.json`'s `doc` with a survey scale that the survey file's
    answers exceed, and a logic-model edge without a weight: `fit` reads
    the survey file and not the logic model."""
    doc["survey"]["scale"] = 2
    doc["logic_model"]["edges"][0]["weight"] = None
    return doc


def pipeline_with_dynamics(field, value):
    doc = fuzz_fixtures()[0]
    doc["dynamics"][field] = value
    return doc


def pipeline_with_overflowing_edges(section):
    """`pipeline.json` with `section`'s edges replaced by its `STEP_HAZARDS` chain."""
    doc = fuzz_fixtures()[0]
    doc[section]["edges"] = copy.deepcopy(STEP_HAZARDS[section][1])
    return doc


class TestExitCodeContract:
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=mutated_fixtures(), fmt=st.sampled_from(["csv", "json"]))
    @example(doc={"surface": fuzz_fixtures()[2]["surface"]}, fmt="csv")
    @example(doc=survey_beyond_scale(fuzz_fixtures()[0]), fmt="csv")
    @example(doc=pipeline_with_dynamics("income_spread", 1e308), fmt="csv")
    @example(doc=pipeline_with_dynamics("connection_rate", 1e308), fmt="csv")
    @example(doc=pipeline_with_overflowing_edges("logic_model"), fmt="csv")
    @example(doc=pipeline_with_overflowing_edges("parameter_network"), fmt="csv")
    @example(doc=profiles_of_two_facts(fuzz_fixtures()[0], keep_x_c=False), fmt="csv")
    @example(doc=profiles_of_two_facts(fuzz_fixtures()[0], keep_x_c=True), fmt="csv")
    @example(doc=log_narrow_layer(fuzz_fixtures()[1]), fmt="csv")
    @example(doc=overflowing_grid(fuzz_fixtures()[2]), fmt="json")
    @example(doc=overflowing_quadratic(fuzz_fixtures()[2]), fmt="csv")
    @example(doc=overflowing_consensus(fuzz_fixtures()[1]), fmt="csv")
    @example(doc=overflowing_power(fuzz_fixtures()[1]), fmt="csv")
    @example(doc=overflowing_power_surface(fuzz_fixtures()[2]), fmt="csv")
    def test_mutated_fixtures(self, tmp_path, capsys, monkeypatch, doc, fmt):
        """Every command exits 0-3 without a traceback, prints under
        MAX_PRINTED bytes, leaves no file after a nonzero exit and no nan or
        +-inf in a file after exit 0, and, when `validate` passes, does not
        exit 1 unless it lacks a section it requires; nor does any command
        but fit and select exit 2 when `validate` reports (exit 0 or 1) no
        finding in a section it reads. Every finding a command exits 1 on,
        but a missing section, is among `validate`'s, and a command exits
        nonzero when `validate` has a finding in a section that it reads."""
        monkeypatch.setattr("wepolicy.scenario.MAX_GRID_POINTS", FUZZ_GRID_CAP)
        monkeypatch.setattr("wepolicy.scenario.MAX_SWEEP_WORK", FUZZ_WORK_CAP)
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        shutil.copy(FIXTURES / "survey.csv", work / "survey.csv")
        path = work / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, printed, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code in (0, 1, 3) and "Traceback" not in err
        assert len((printed + err).encode("utf-8")) < MAX_PRINTED
        valid, validated = code == 0, code in (0, 1)
        errors = json.loads(printed)["errors"] if code == 1 else []
        for command, sections in REQUIRED_SECTIONS.items():
            out = work / command
            fmt_args = ("--format", fmt) if command in FORMATTED_COMMANDS else ()
            code, printed, err = run_cli(capsys, command, "--scenario", str(path),
                                         "--out", str(out), *fmt_args)
            assert code in (0, 1, 2, 3), command
            assert "Traceback" not in err
            assert len((printed + err).encode("utf-8")) < MAX_PRINTED, command
            if code:
                assert not out.exists() or not any(out.iterdir()), command
            else:
                assert_finite_outputs(out)
            if valid and all(doc.get(s) is not None for s in sections):
                assert code != 1, (command, err)
            read_clean = validated and not any(section_of(e) in READS[command] for e in errors)
            if read_clean and command not in ("fit", "select"):
                assert code != 2, (command, err)
            if code == 1:
                for line in err.splitlines():
                    finding = line.removeprefix("error: ")
                    assert (finding in errors or finding.endswith(
                        ": section required by this command is missing")), (command, finding)
            if any(section_of(e) in READS[command] for e in errors):
                assert code != 0, command


    @pytest.mark.parametrize("command", ["validate", "fit"])
    def test_an_os_error_cuts_the_file_name(self, tmp_path, capsys, fixtures_dir, command):
        """An OS error prints its file name cut as a finding cuts a name, so a
        100,000-character `survey.file` exits 3 printing under MAX_PRINTED."""
        doc = json.loads((fixtures_dir / "pipeline.json").read_text())
        doc["survey"]["file"] = "s" * 100_000
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        args = ("--out", str(out)) if command != "validate" else ()
        code, printed, err = run_cli(capsys, command, "--scenario", str(path), *args)
        assert (code, printed) == (3, "")
        assert len(err.encode("utf-8")) < MAX_PRINTED
        name = repr(str(tmp_path.resolve() / doc["survey"]["file"]))
        strerror = os.strerror(errno.ENAMETOOLONG)
        assert err == (f"error: [Errno {errno.ENAMETOOLONG}] {strerror}: {name[:80]}... "
                       f"({len(name)} characters)\n")
        assert not out.exists()


# --- generated surface scenarios ---

# Values at the float range's edges: the largest magnitudes a grid or a
# coefficient may hold, the smallest subnormal and negative zero.
EDGE_NUMBERS = [1e300, -1e300, 5e-324, -5e-324, -0.0, 0.0]
# Names either side of the 80 characters at which a finding cuts a name.
EDGE_NAMES = ["I", "community", "n" * 80, "w" * 81]


def edge_or_plain_numbers(low=-50.0):
    return st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats(low, 50.0))


@st.composite
def value_function_specs(draw):
    """One `value_functions` entry: asymmetric, a raw family or a mirrored one."""
    kind = draw(st.sampled_from(["asymmetric", "family", "mirrored"]))
    spec = {} if kind == "asymmetric" and draw(st.booleans()) else {"kind": kind}
    if kind == "asymmetric":
        keys = ("gain_alpha", "loss_beta", "loss_lambda")
    else:
        spec["family"] = draw(st.sampled_from(FAMILIES))
        keys = ("a", "b", "loss_lambda") if kind == "mirrored" else ("a", "b")
    for key in keys:
        if draw(st.booleans()):
            spec[key] = draw(st.one_of(edge_or_plain_numbers(low=1.0), st.sampled_from([400.0])))
    return spec


def grid_specs(max_points):
    """A grid of explicit values, or a start/stop/count grid whose count may
    pass `max_points` by one."""
    values = st.lists(edge_or_plain_numbers(), min_size=1, max_size=4).map(
        lambda vs: {"values": vs})
    spaced = st.fixed_dictionaries({
        "start": edge_or_plain_numbers(),
        "stop": edge_or_plain_numbers(),
        "count": st.integers(1, max_points + 1),
    })
    return st.one_of(values, spaced)


@st.composite
def surface_scenarios(draw):
    """`value_functions`, two `layers`, a `surface` and maybe a `curve`, as
    the README's scenario format describes them."""
    names = draw(st.lists(st.sampled_from(EDGE_NAMES), min_size=1, max_size=2, unique=True))
    functions = {name: draw(value_function_specs()) for name in names}
    narrow, wide = draw(st.lists(st.sampled_from(EDGE_NAMES), min_size=2, max_size=2,
                                 unique=True))
    weight = draw(st.sampled_from([0.5, 0.25, 5e-324, -0.0, 1.0]))
    layers = []
    for scope, w in ((narrow, weight), (wide, 1.0 - weight)):
        layer = {"scope": scope, "value_function": draw(st.sampled_from(names)), "weight": w}
        if draw(st.booleans()):
            layer["element_weights"] = draw(st.lists(edge_or_plain_numbers(), max_size=2))
        layers.append(layer)
    side = int(FUZZ_GRID_CAP ** 0.5)
    doc = {
        "value_functions": functions,
        "layers": layers,
        "surface": {"x_n": draw(grid_specs(side)), "x_w": draw(grid_specs(side))},
    }
    if draw(st.booleans()):
        doc["curve"] = {"layer": draw(st.sampled_from([narrow, wide])),
                        "grid": draw(grid_specs(FUZZ_GRID_CAP))}
    return doc


def assert_validate_predicts(capsys, path, command):
    """`command` exits 0 in both formats exactly when `validate` is ok on
    `path`. Otherwise it exits 1 with `validate`'s findings or 2 with its
    first one. Reruns print and write the same bytes, and nothing printed is
    a traceback or reaches MAX_PRINTED bytes. Outputs go beside `path`."""
    code, printed, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code in (0, 1) and err == ""
    assert len(printed.encode("utf-8")) < MAX_PRINTED
    errors = json.loads(printed)["errors"]
    for fmt in ("csv", "json"):
        runs = []
        for rerun in ("first", "second"):
            out = path.parent / f"{fmt}-{rerun}"
            code, printed, err = run_cli(capsys, command, "--scenario", str(path),
                                         "--out", str(out), "--format", fmt)
            assert "Traceback" not in err
            assert len((printed + err).encode("utf-8")) < MAX_PRINTED
            if code == 0:
                assert_finite_outputs(out)
                report = json.loads(printed)
                del report["wall_time_s"], report["outputs"]
                runs.append((code, report, err, digests(out)))
            else:
                assert not out.exists()
                runs.append((code, printed, err))
        assert runs[0] == runs[1], fmt
        assert (code == 0) == (not errors), (fmt, errors, err)
        if code == 1:
            assert err == "".join(f"error: {e}\n" for e in errors)
        elif code == 2:
            assert err == f"error: numerical failure: {errors[0].split(': ', 1)[1]}\n"


def write_scenario(tmp_path, doc):
    """`doc` written as `scenario.json` into a fresh directory under `tmp_path`."""
    path = Path(tempfile.mkdtemp(dir=tmp_path)) / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestGeneratedSurfaceScenarios:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=surface_scenarios())
    def test_validate_predicts_the_surface_run(self, tmp_path, capsys, monkeypatch, doc):
        """`surface` runs as `validate` predicts (`assert_validate_predicts`)."""
        monkeypatch.setattr("wepolicy.scenario.MAX_GRID_POINTS", FUZZ_GRID_CAP)
        path = write_scenario(tmp_path, doc)
        assert_validate_predicts(capsys, path, "surface")


# --- generated sweep scenarios ---

EDGE_SEEDS = [0, 2**63]
EDGE_RATES = [0.0, -0.0, 5e-324, 1e300]
RATE_KEYS = ("income_spread", "renewable_rate", "connection_rate", "connection_decay")
# Grid list lengths: one value, one past the 10 a finding lists, and the cap.
GRID_LENGTHS = [1, 11, FUZZ_GRID_CAP]
# The one flaw a drawn sweep scenario may have; None, three times in ten, for none.
SWEEP_FLAWS = [None, None, None, "agents", "steps", "seed", "rate", "knob", "pairs", "grid",
               "work"]


@st.composite
def sweep_scenarios(draw):
    """A `dynamics` and a `sweep` section, as the README's scenario format
    describes them, with at most one of `SWEEP_FLAWS`.

    Knob values are -0.0, the smallest subnormal, the range's bounds and
    its midpoint; "knob" puts the float just past a bound into one list,
    and "pairs" gives s + v > 1 for every (subsidy, service) pair. One list
    is 1, 11 or the grid cap long and the others 1 ("grid": two are 11).
    Agents + steps fill the work cap over the grid's combinations ("work":
    one past it); "agents", "steps", "seed" and "rate" set one field below
    its range."""
    flaw = draw(st.sampled_from(SWEEP_FLAWS))
    lengths = [1, 1, 1]
    lengths[draw(st.integers(0, 2))] = draw(st.sampled_from(GRID_LENGTHS))
    if flaw == "grid":
        lengths = [11, 11, 1]
    sweep = {}
    for (knob, (lo, hi)), length in zip(KNOB_RANGES.items(), lengths):
        values = [0.75, hi] if flaw == "pairs" and knob != "tax" else [
            -0.0, 5e-324, lo, hi, (lo + hi) / 2]
        sweep[knob] = draw(st.lists(st.sampled_from(values), min_size=length,
                                    max_size=length))
    if flaw == "knob":
        knob = draw(st.sampled_from(list(KNOB_RANGES)))
        lo, hi = KNOB_RANGES[knob]
        past = draw(st.sampled_from([math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]))
        sweep[knob][draw(st.integers(0, len(sweep[knob]) - 1))] = past
    budget = FUZZ_WORK_CAP // math.prod(lengths) + (flaw == "work")
    agents = draw(st.sampled_from([1, budget - 1]))
    dynamics = {"agents": agents, "steps": budget - agents,
                "seed": -1 if flaw == "seed" else draw(st.sampled_from(EDGE_SEEDS))}
    if flaw in ("agents", "steps"):
        dynamics[flaw] = 0
    for key in RATE_KEYS:
        if draw(st.booleans()):
            dynamics[key] = draw(st.sampled_from(EDGE_RATES))
    if flaw == "rate":
        dynamics[draw(st.sampled_from(RATE_KEYS))] = -0.5
    return {"dynamics": dynamics, "sweep": sweep}


class TestGeneratedSweepScenarios:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=sweep_scenarios())
    # Seed 2**63 draws 30 incomes whose sum is below 0 at this spread: the
    # environmental indicator reaches -inf, a numerical failure.
    @example(doc={"dynamics": {"agents": 30, "steps": 1, "seed": 2**63, "income_spread": 1e300,
                               "renewable_rate": 1e300},
                  "sweep": {"subsidy": [1.0], "tax": [0.5], "service": [0.0]}})
    def test_validate_predicts_the_sweep_run(self, tmp_path, capsys, monkeypatch, doc):
        """`sweep` runs as `validate` predicts (`assert_validate_predicts`),
        under the lowered grid and work caps."""
        monkeypatch.setattr("wepolicy.scenario.MAX_GRID_POINTS", FUZZ_GRID_CAP)
        monkeypatch.setattr("wepolicy.scenario.MAX_SWEEP_WORK", FUZZ_WORK_CAP)
        path = write_scenario(tmp_path, doc)
        assert_validate_predicts(capsys, path, "sweep")


# --- generated graph scenarios ---

# List lengths either side of the 10 names a finding lists before it counts the rest.
EDGE_LENGTHS = [1, 2, 10, 11]
# Edge weights, inputs and deltas: so often 1e300 that a product of two
# overflows in about a fifth of the drawn graphs.
GRAPH_WEIGHTS = st.sampled_from([1e300, -1e300, 5e-324, -0.0, 1.0, -2.5])


def graph_node_names(kinds):
    """Distinct node names, one per kind: short, or padded to 80 or 81
    characters, either side of the 80 at which a finding cuts a name."""
    return [f"n{i}" if kind is None else f"n{i}".ljust(kind, "x") for i, kind in enumerate(kinds)]


def edge_lists(first, size):
    """1, 2, 10 or 11 edges from a node position i to a later position
    j >= `first`, so the graph is acyclic and no edge enters a position
    before `first`; none for a single node."""
    if size < 2:
        return st.just([])
    pairs = st.integers(0, size - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(max(i + 1, first), size - 1)))
    return st.sampled_from(EDGE_LENGTHS).flatmap(lambda n: st.lists(pairs, min_size=n, max_size=n))


@st.composite
def logic_model_sections(draw):
    """A valid `logic_model`, as the README's scenario format describes it:
    staged nodes with optional baselines, declared in any order; edges
    that run to the same or a later stage and form no cycle; a value for
    every inputs node; and maybe fact bindings on left-side nodes."""
    size = draw(st.sampled_from(EDGE_LENGTHS))
    names = graph_node_names(draw(st.lists(st.sampled_from([None, 80, 81]),
                                           min_size=size, max_size=size)))
    # sorted by stage, so an edge down the list never runs to an earlier stage
    stages = sorted(draw(st.lists(st.sampled_from(STAGES), min_size=size - 1,
                                  max_size=size - 1)) + ["impacts"], key=STAGES.index)
    nodes = []
    for name, stage in zip(names, stages):
        node = {"name": name, "stage": stage}
        if draw(st.booleans()):
            node["baseline"] = draw(edge_or_plain_numbers())
        nodes.append(node)
    section = {
        "nodes": draw(st.permutations(nodes)),
        "edges": [{"from": names[i], "to": names[j], "weight": draw(GRAPH_WEIGHTS)}
                  for i, j in draw(edge_lists(0, size))],
        "inputs": {n: draw(GRAPH_WEIGHTS)
                   for n, s in zip(names, stages) if s == "inputs"},
    }
    left = [n for n, s in zip(names, stages) if s in BINDABLE_STAGES]
    if left and draw(st.booleans()):
        count = draw(st.sampled_from(EDGE_LENGTHS))
        elements = [f"e{k}" for k in range(count)]
        section["fact_bindings"] = {
            "bindings": {n: draw(st.sampled_from(elements))
                         for n in draw(st.lists(st.sampled_from(left), unique=True))},
            "elements": elements,
            "values": [draw(edge_or_plain_numbers()) for _ in elements],
        }
    return section


@st.composite
def parameter_network_sections(draw):
    """A valid `parameter_network`: fact nodes, value nodes and unnamed
    intermediates, edges that form no cycle and never enter a fact node,
    and deltas for some of the facts."""
    facts, values = draw(st.sampled_from(EDGE_LENGTHS)), draw(st.sampled_from(EDGE_LENGTHS))
    size = facts + draw(st.integers(0, 2)) + values
    names = graph_node_names(draw(st.lists(st.sampled_from([None, 80, 81]),
                                           min_size=size, max_size=size)))
    return {
        "facts": names[:facts],
        "values": names[size - values:],
        "edges": [{"from": names[i], "to": names[j], "weight": draw(GRAPH_WEIGHTS)}
                  for i, j in draw(edge_lists(facts, size))],
        "deltas": {n: draw(GRAPH_WEIGHTS)
                   for n in draw(st.lists(st.sampled_from(names[:facts]), unique=True))},
    }


class TestGeneratedGraphScenarios:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.fixed_dictionaries({"logic_model": logic_model_sections(),
                                      "parameter_network": parameter_network_sections()}))
    def test_validate_predicts_impact_and_network(self, tmp_path, capsys, doc):
        """`impact` and `network` exit 0 exactly when `validate` has no
        finding in the section each reads. Otherwise each exits 1 with
        those findings or 2 with its one finding's text, so never 2 with a
        failure `validate` does not report. Reruns print and write the same
        bytes, and nothing printed is a traceback or reaches MAX_PRINTED
        bytes."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        path = work / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, printed, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code in (0, 1) and err == ""
        assert len(printed.encode("utf-8")) < MAX_PRINTED
        errors = json.loads(printed)["errors"]
        for command, section in (("impact", "logic_model"), ("network", "parameter_network")):
            findings = [e for e in errors if section_of(e) == section]
            runs = []
            for rerun in ("first", "second"):
                out = work / f"{command}-{rerun}"
                code, printed, err = run_cli(capsys, command, "--scenario", str(path),
                                             "--out", str(out))
                assert "Traceback" not in err
                assert len((printed + err).encode("utf-8")) < MAX_PRINTED
                if code == 0:
                    assert_finite_outputs(out)
                    report = json.loads(printed)
                    del report["wall_time_s"], report["outputs"]
                    runs.append((code, report, err, digests(out)))
                else:
                    assert not out.exists()
                    runs.append((code, printed, err))
            assert runs[0] == runs[1], command
            assert (code == 0) == (not findings), (command, findings, err)
            if code == 1:
                assert err == "".join(f"error: {e}\n" for e in findings)
            elif code == 2:
                assert len(findings) == 1
                assert err == f"error: numerical failure: {findings[0].split(': ', 1)[1]}\n"


# --- generated survey scenarios ---

# Survey scales: the least, the fixtures', the largest of one digit, the
# first of two digits and one that a float can only just hold.
SURVEY_SCALES = [2, 5, 9, 10, 10**300]


def construct_rows(draw, k, count):
    """`count` row-stochastic rows over `k` questions: each spreads its
    weight evenly over one to three of them."""
    rows = []
    for _ in range(count):
        picked = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3, unique=True))
        rows.append([1.0 / len(picked) if q in picked else 0.0 for q in range(k)])
    return rows


def answer_columns(draw, k, n, scale):
    """`k` columns of `n` answers in [1, scale], each drawn, constant or a
    copy of an earlier one, so that construct scores can be collinear."""
    inside = st.sampled_from(sorted({1, 2, min(scale, 9), scale}))
    columns = []
    for _ in range(k):
        kind = draw(st.sampled_from(["drawn", "drawn", "constant"] + ["copy"] * bool(columns)))
        if kind == "copy":
            columns.append(list(draw(st.sampled_from(columns))))
        else:
            answers = draw(st.lists(inside, min_size=n, max_size=n))
            columns.append(answers if kind == "drawn" else [answers[0]] * n)
    return columns


@st.composite
def survey_scenarios(draw):
    """`element_sets` and `survey` sections, as the README's scenario
    format describes them, with `target_question` at its bounds or one
    past them, and the survey file's text: plain or with every field
    quoted, holding constant and collinear answer columns and, now and
    then, an answer of 0 or scale + 1, a non-integer answer, a ragged line,
    blank lines or CRLF line ends."""
    scale = draw(st.sampled_from(SURVEY_SCALES))
    constructs = draw(st.lists(st.sampled_from(EDGE_NAMES), min_size=1, max_size=2, unique=True))
    k = draw(st.integers(len(constructs), 4))
    target = draw(st.sampled_from([1, k] if draw(st.integers(1, 8)) > 1 else [0, k + 1]))
    doc = {"survey": {"file": "survey.csv", "scale": scale, "constructs": constructs,
                      "construct_matrix": construct_rows(draw, k, len(constructs)),
                      "target_question": target}}
    if draw(st.booleans()):
        names = constructs if draw(st.integers(1, 8)) > 1 else constructs[::-1] + ["other"]
        doc["element_sets"] = {"X_w": {"variables": [{"name": n} for n in names]}}
    # mostly enough respondents to fit an intercept and each construct
    n = draw(st.integers(len(constructs) + 1, 8) if draw(st.integers(1, 8)) > 1
             else st.integers(1, len(constructs) + 1))
    rows = [[f"r{i}".ljust(draw(st.sampled_from([2, 80, 81])), "x")] for i in range(n)]
    for column in answer_columns(draw, k, n, scale):
        for row, answer in zip(rows, column):
            row.append(str(answer))
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        row = draw(st.sampled_from(rows))
        q = draw(st.integers(1, k))
        row[q] = draw(st.sampled_from(["0", str(scale + 1), "x", "3.5", ""]))
    if draw(st.integers(1, 8)) == 1:
        row = draw(st.sampled_from(rows))
        row[:] = row[:-1] if len(row) > 2 and draw(st.booleans()) else row + ["1"]
    quoted = draw(st.booleans())

    def line(fields):
        return ",".join(f'"{f}"' if quoted else f for f in fields)

    lines = [line(["respondent", *(f"q{q}" for q in range(1, k + 1))])]
    for row in rows:
        lines.extend([""] * draw(st.sampled_from([0, 0, 0, 1, 2])))
        lines.append(line(row))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return doc, newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestGeneratedSurveyScenarios:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=survey_scenarios())
    def test_validate_predicts_the_fit(self, tmp_path, capsys, case):
        """When `validate` is ok, `fit` exits 0, or 2 for a rank-deficient
        design, which `validate` does not predict yet. Otherwise `fit`
        exits 1 with exactly `validate`'s findings. Reruns print and write
        the same bytes, and nothing printed is a traceback or reaches
        MAX_PRINTED bytes."""
        doc, survey = case
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        path = work / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        (work / "survey.csv").write_bytes(survey.encode("utf-8"))
        code, printed, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code in (0, 1) and err == ""
        assert len(printed.encode("utf-8")) < MAX_PRINTED
        errors = json.loads(printed)["errors"]
        runs = []
        for rerun in ("first", "second"):
            out = work / f"fit-{rerun}"
            code, printed, err = run_cli(capsys, "fit", "--scenario", str(path),
                                         "--out", str(out))
            assert "Traceback" not in err
            assert len((printed + err).encode("utf-8")) < MAX_PRINTED
            if code == 0:
                assert_finite_outputs(out)
                report = json.loads(printed)
                del report["wall_time_s"], report["outputs"]
                runs.append((code, report, err, digests(out)))
            else:
                assert not out.exists()
                runs.append((code, printed, err))
        assert runs[0] == runs[1]
        if errors:
            assert (code, err) == (1, "".join(f"error: {e}\n" for e in errors))
        else:
            assert code == 0 or (code == 2 and err.startswith(
                "error: numerical failure: design matrix is rank deficient")), err
