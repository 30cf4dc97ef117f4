import json

import pytest

from wepolicy.errors import ScenarioError
from wepolicy.scenario import grid_values, load_scenario, validate_scenario


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def minimal_layers(weight_narrow=0.5, weight_wide=0.5):
    return {
        "value_functions": {"default": {"kind": "asymmetric"}},
        "layers": [
            {"scope": "I", "value_function": "default", "weight": weight_narrow},
            {"scope": "community", "value_function": "default", "weight": weight_wide},
        ],
    }


class TestFixtures:
    @pytest.mark.parametrize("name", ["fig2.json", "consensus.json", "pipeline.json"])
    def test_committed_fixtures_validate(self, fixtures_dir, name):
        errors, warnings = validate_scenario(fixtures_dir / name)
        assert errors == []
        assert warnings == []


class TestValidation:
    def test_unnormalized_weights_named(self, tmp_path):
        doc = minimal_layers(0.5, 0.4)
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any(e.startswith("layers") for e in errors)

    def test_unknown_family_named(self, tmp_path):
        doc = {"value_functions": {"bad": {"kind": "family", "family": "cubic"}}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("unknown family" in e for e in errors)

    def test_unknown_kind_named(self, tmp_path):
        doc = {"value_functions": {"bad": {"kind": "mystery"}}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("value_functions.bad.kind" in e for e in errors)

    def test_coupling_dims_accept_matching_sets(self, tmp_path):
        doc = {
            "element_sets": {
                "X_w": {"variables": [{"name": "a"}, {"name": "b"}]},
                "X_c": {"variables": [{"name": "p"}, {"name": "q"}, {"name": "r"}]},
            },
            "fact_coupling": {"mode": "additive",
                              "matrix": [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]},
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == []

    def test_coupling_dims_mismatch_rejected(self, tmp_path):
        doc = {
            "element_sets": {
                "X_w": {"variables": [{"name": "a"}, {"name": "b"}]},
                "X_c": {"variables": [{"name": "p"}, {"name": "q"}, {"name": "r"}]},
            },
            "fact_coupling": {"mode": "additive", "matrix": [[0.1, 0.0, 0.0]]},
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("fact_coupling.matrix" in e for e in errors)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "layers": [,]\n}\n', encoding="utf-8")
        errors, _ = validate_scenario(path)
        assert any("line 2" in e for e in errors)

    def test_load_scenario_raises_with_findings(self, tmp_path):
        path = write(tmp_path, minimal_layers(0.5, 0.4))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert any("layers" in f for f in err.value.findings)

    def test_quadratic_grid_warning(self, tmp_path):
        doc = {
            "value_functions": {
                "quad": {"kind": "mirrored", "family": "quadratic", "a": 2.0, "loss_lambda": 2.0}
            },
            "layers": [
                {"scope": "I", "value_function": "quad", "weight": 0.5},
                {"scope": "community", "value_function": "quad", "weight": 0.5},
            ],
            # peak at a/2 = 1.0; grid reaches 5
            "surface": {"x_n": {"start": -5.0, "stop": 5.0, "count": 5},
                        "x_w": {"start": -0.5, "stop": 0.5, "count": 3}},
        }
        errors, warnings = validate_scenario(write(tmp_path, doc))
        assert errors == []
        assert any("quadratic peak" in w for w in warnings)
        # grids inside the monotone range warn nothing
        doc["surface"]["x_n"] = {"start": -0.5, "stop": 0.5, "count": 3}
        _, warnings = validate_scenario(write(tmp_path, doc, name="ok.json"))
        assert warnings == []

    def test_survey_cross_checks(self, tmp_path):
        doc = {
            "element_sets": {"X_w": {"variables": [{"name": "a"}, {"name": "b"}]}},
            "survey": {
                "file": "survey.csv", "scale": 5,
                "constructs": ["left", "right"],
                "construct_matrix": [[1.0, 0.0], [0.0, 1.0]],
                "target_question": 2,
            },
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("X_w" in e for e in errors)

    def test_survey_target_question_bounds(self, tmp_path):
        doc = {
            "survey": {
                "file": "s.csv", "scale": 5, "constructs": ["c"],
                "construct_matrix": [[1.0, 0.0]], "target_question": 3,
            }
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("target_question" in e for e in errors)

    def test_construct_rows_must_be_stochastic(self, tmp_path):
        doc = {
            "survey": {
                "file": "s.csv", "scale": 5, "constructs": ["c"],
                "construct_matrix": [[0.9, 0.0]], "target_question": 1,
            }
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("sum" in e for e in errors)

    def test_network_findings(self, tmp_path):
        doc = {
            "parameter_network": {
                "facts": ["f"], "values": ["v"],
                "edges": [{"from": "f", "to": "a", "weight": 1.0},
                          {"from": "a", "to": "b", "weight": 1.0},
                          {"from": "b", "to": "a", "weight": 1.0}],
            }
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("cycle" in e for e in errors)

    def test_network_delta_keys_checked(self, tmp_path):
        doc = {
            "parameter_network": {
                "facts": ["f"], "values": ["v"],
                "edges": [{"from": "f", "to": "v", "weight": 1.0}],
                "deltas": {"v": 1.0},
            }
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("not a fact node" in e for e in errors)

    def test_logic_model_findings_reported(self, tmp_path):
        doc = {
            "logic_model": {
                "nodes": [{"name": "a", "stage": "inputs"},
                          {"name": "z", "stage": "impacts"}],
                "edges": [{"from": "z", "to": "a", "weight": 1.0}],
                "inputs": {"a": 1.0},
            }
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("backwards" in e for e in errors)

    def test_logic_model_inputs_required(self, tmp_path):
        doc = {
            "logic_model": {
                "nodes": [{"name": "a", "stage": "inputs"},
                          {"name": "z", "stage": "impacts"}],
                "edges": [{"from": "a", "to": "z", "weight": 1.0}],
            }
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("missing values" in e for e in errors)

    def test_consensus_requires_mapping_and_weights(self, tmp_path):
        doc = minimal_layers()
        doc["consensus"] = {
            "narrow_layer": "I", "wide_layer": "community",
            "probes": [[0.0, 0.0]],
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("mapping_f" in e for e in errors)
        assert any("element_weights" in e for e in errors)

    def test_curve_layer_must_resolve(self, tmp_path):
        doc = minimal_layers()
        doc["curve"] = {"layer": "ghost", "grid": {"values": [0.0]}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("curve.layer" in e for e in errors)

    def test_sweep_range_checked(self, tmp_path):
        doc = {"sweep": {"subsidy": [0.5], "tax": [0.7], "service": [0.5]}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("sweep.tax" in e for e in errors)

    def test_sweep_without_admissible_policy_rejected(self, tmp_path):
        doc = {"sweep": {"subsidy": [0.8, 0.6], "tax": [0.1], "service": [0.8, 0.5]}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any(e.startswith("sweep:") and "s + v > 1" in e for e in errors)
        # one admissible pair is enough
        doc["sweep"]["service"].append(0.4)
        assert validate_scenario(write(tmp_path, doc)) == ([], [])

    def test_duplicate_profile_names_rejected(self, tmp_path):
        doc = {
            "weighting_profiles": [
                {"name": "A", "mode": "additive", "matrix": [[0.1]]},
                {"name": "A", "mode": "additive", "matrix": [[0.2]]},
            ]
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert any("duplicate" in e for e in errors)


class TestMalformedEntries:
    @pytest.mark.parametrize("doc, finding", [
        ({"logic_model": {"nodes": [1]}}, "logic_model.nodes[0]: expected an object"),
        ({"logic_model": {"nodes": "ab"}}, "logic_model.nodes: expected an array"),
        ({"logic_model": {"edges": [None]}}, "logic_model.edges[0]: expected an object"),
        ({"parameter_network": {"edges": [7]}}, "parameter_network.edges[0]: expected an object"),
        ({"parameter_network": {"facts": "abc"}}, "parameter_network.facts: expected an array"),
        ({"parameter_network": {"values": {"v": 1}}}, "parameter_network.values: expected an array"),
        ({"layers": [1]}, "layers[0]: expected an object"),
        ({"weighting_profiles": [1]}, "weighting_profiles[0]: expected an object"),
        ({"mapping_f": {"matrix": [[1.0]], "nonlinearity": "x"}},
         "mapping_f.nonlinearity: expected an object"),
        ({"element_sets": {"X": {"variables": [1]}}}, "element_sets.X.variables[0]: expected an object"),
    ])
    def test_finding_names_the_path(self, tmp_path, doc, finding):
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert finding in errors

    def test_fact_binding_elements_must_be_an_array(self, tmp_path):
        doc = {"logic_model": dict(valid_logic_model(), fact_bindings={
            "bindings": {"a": "e"}, "elements": "e", "values": [1.0]})}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["logic_model.fact_bindings.elements: expected an array"]


def fixture_doc(fixtures_dir, name):
    return json.loads((fixtures_dir / name).read_text(encoding="utf-8"))


class TestNoFollowOnFindings:
    """A section that failed to parse gets its own finding and nothing else."""

    def test_unknown_layer_function(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "fig2.json")
        doc["layers"][1]["value_function"] = "nope"
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["layers[1].value_function: unknown function 'nope'"]

    def test_non_object_layer(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "fig2.json")
        doc["layers"] = [1]
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["layers[0]: expected an object"]

    def test_malformed_mapping_nonlinearity(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "consensus.json")
        doc["mapping_f"]["nonlinearity"] = "x"
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["mapping_f.nonlinearity: expected an object"]

    def test_malformed_survey_is_not_replaced_by_x_w(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["survey"]["scale"] = "five"
        doc["element_sets"]["X_w"]["variables"].pop()
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["survey.scale: expected an integer, got 'five'"]

    def test_missing_sections_still_reported(self, tmp_path):
        doc = minimal_layers()
        doc["consensus"] = {"narrow_layer": "ghost", "wide_layer": "community",
                            "probes": [[0.0]]}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "consensus.narrow_layer: unknown scope label 'ghost'",
            "consensus.wide_layer: layer 'community' declares no element_weights",
            "consensus: requires a mapping_f section",
        ]


class TestRawFamilyDomain:
    """A raw family is defined for x >= 0; `validate` reports a grid below it."""

    def raw_fig2(self, fixtures_dir, family="linear", **params):
        doc = fixture_doc(fixtures_dir, "fig2.json")
        doc["value_functions"]["raw"] = {"kind": "family", "family": family, **params}
        doc["layers"][0]["value_function"] = "raw"
        return doc

    def test_negative_grids_are_errors(self, tmp_path, fixtures_dir):
        errors, _ = validate_scenario(write(tmp_path, self.raw_fig2(fixtures_dir)))
        assert errors == [
            "surface.x_n: grid reaches -20.0, below the linear family's domain x >= 0 "
            "for layer 'I'",
            "curve.grid: grid reaches -20.0, below the linear family's domain x >= 0 "
            "for layer 'I'",
        ]

    def test_logarithmic_family(self, tmp_path, fixtures_dir):
        doc = self.raw_fig2(fixtures_dir, "logarithmic", a=1.0)
        doc["surface"]["x_n"] = {"values": [0.0, 2.0, -0.5]}
        del doc["curve"]
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "surface.x_n: grid reaches -0.5, below the logarithmic family's domain "
            "x >= 0 for layer 'I'"
        ]

    def test_non_negative_grids_pass(self, tmp_path, fixtures_dir):
        doc = self.raw_fig2(fixtures_dir)
        doc["surface"]["x_n"] = {"start": 0.0, "stop": 20.0, "count": 5}
        doc["curve"]["grid"] = {"values": [-0.0, 1.0]}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == []

    def test_mirrored_family_covers_the_line(self, tmp_path, fixtures_dir):
        doc = self.raw_fig2(fixtures_dir)
        doc["value_functions"]["raw"]["kind"] = "mirrored"
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == []


def valid_logic_model():
    return {
        "nodes": [{"name": "a", "stage": "inputs"}, {"name": "z", "stage": "impacts"}],
        "edges": [{"from": "a", "to": "z", "weight": 1.0}],
        "inputs": {"a": 1.0},
    }


class TestLogicModelChecks:
    """The inputs and binding findings come from logicmodel's own checks."""

    def test_unknown_input_named(self, tmp_path):
        lm = dict(valid_logic_model(), inputs={"a": 1.0, "z": 2.0})
        errors, _ = validate_scenario(write(tmp_path, {"logic_model": lm}))
        assert errors == ["logic_model.inputs: values given for non-inputs nodes: z"]

    def test_missing_input_named(self, tmp_path):
        lm = dict(valid_logic_model(), inputs={})
        errors, _ = validate_scenario(write(tmp_path, {"logic_model": lm}))
        assert errors == ["logic_model.inputs: missing values for inputs nodes: a"]

    def test_binding_to_unknown_node_named(self, tmp_path):
        lm = dict(valid_logic_model(), fact_bindings={
            "bindings": {"ghost": "e"}, "elements": ["e"], "values": [1.0]})
        errors, _ = validate_scenario(write(tmp_path, {"logic_model": lm}))
        assert errors == ["logic_model.fact_bindings: binding references unknown node 'ghost'"]

    def test_binding_to_right_side_named(self, tmp_path):
        lm = dict(valid_logic_model(), fact_bindings={
            "bindings": {"z": "e"}, "elements": ["e"], "values": [1.0]})
        errors, _ = validate_scenario(write(tmp_path, {"logic_model": lm}))
        assert len(errors) == 1
        assert errors[0].startswith(
            "logic_model.fact_bindings: cannot bind fact to impacts-stage node 'z'"
        )

    def test_unknown_fact_element_named(self, tmp_path):
        lm = dict(valid_logic_model(), fact_bindings={
            "bindings": {"a": "ghost"}, "elements": ["e"], "values": [1.0]})
        errors, _ = validate_scenario(write(tmp_path, {"logic_model": lm}))
        assert errors == [
            "logic_model.fact_bindings: bindings reference unknown fact elements: ghost"
        ]


class TestDynamicsSeed:
    def test_negative_seed_is_a_finding(self, tmp_path):
        doc = {"dynamics": {"agents": 2, "steps": 2, "seed": -7}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["dynamics.seed must be >= 0, got -7"]

    def test_zero_seed_accepted(self, tmp_path):
        doc = {"dynamics": {"agents": 2, "steps": 2, "seed": 0}}
        assert validate_scenario(write(tmp_path, doc)) == ([], [])


class TestGridValues:
    def test_explicit_values(self):
        assert grid_values({"values": [1.0, 2.0]}, "g") == [1.0, 2.0]

    def test_linspace_endpoints(self):
        xs = grid_values({"start": -1.0, "stop": 1.0, "count": 5}, "g")
        assert xs == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_single_point(self):
        assert grid_values({"start": 3.0, "stop": 9.0, "count": 1}, "g") == [3.0]

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            grid_values({"start": 0.0}, "g")
        with pytest.raises(ValueError):
            grid_values({"values": []}, "g")
