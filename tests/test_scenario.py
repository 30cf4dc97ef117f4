import copy
import importlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wepolicy import logicmodel, scenario
from wepolicy.cli import validate_scenario
from wepolicy.coupling import ParameterNetwork
from wepolicy.errors import MAX_LISTED, MissingScopeError, RankDeficiencyError, ScenarioError
from wepolicy.graphs import Edge, topological_order
from wepolicy.policy_sim import DynamicsConfig, run_sweep
from wepolicy.scenario import (
    _array,
    _check,
    _float,
    _object,
    _str,
    grid_values,
    load_scenario,
    parse_scenario,
)
from wepolicy.valuefn import AsymmetricSpec
from wepolicy.we_model import WELayer, WellbeingModel, WEScope

FIXTURES = Path(__file__).parent / "fixtures"


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

    @pytest.mark.parametrize("kind", ["family", "mirrored"])
    def test_unknown_family_finding_names_the_function(self, tmp_path, kind):
        doc = {"value_functions": {"bad": {"kind": kind, "family": "cubic"}}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "value_functions.bad: unknown family 'cubic'; expected one of "
            "linear, logarithmic, power, quadratic, exponential, lin_exp"
        ]

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
            "weighting_profiles": [{"name": "A", "mode": "additive",
                                    "matrix": [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]}],
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == []

    def test_coupling_dims_mismatch_rejected(self, tmp_path):
        # rows against X_w; columns against X_c once they match the simulator
        doc = {
            "element_sets": {
                "X_w": {"variables": [{"name": "a"}, {"name": "b"}]},
                "X_c": {"variables": [{"name": "p"}, {"name": "q"}]},
            },
            "weighting_profiles": [
                {"name": "A", "mode": "additive", "matrix": [[0.1, 0.0, 0.0]]},
                {"name": "B", "mode": "additive", "matrix": [[0.1, 0.0], [0.0, 0.1]]},
            ],
        }
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "weighting_profiles['A'].matrix: 1 rows for 2 subjective constructs",
            "weighting_profiles['A'].matrix: 3 columns for 2 fact elements",
            "weighting_profiles['B'].matrix: 2 columns for 3 simulator indicators",
        ]

    def test_fact_coupling_key_is_ignored(self, tmp_path, fixtures_dir):
        # not a section: no command reads it
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["fact_coupling"] = {"mode": "bogus", "matrix": 5}
        (tmp_path / "survey.csv").write_bytes((fixtures_dir / "survey.csv").read_bytes())
        assert validate_scenario(write(tmp_path, doc)) == ([], [])

    def test_consensus_inputs_below_a_raw_family_domain(self, tmp_path, fixtures_dir):
        # the narrow layer's input is its weights times f(probe), the wide's
        # its weights times the probe
        doc = fixture_doc(fixtures_dir, "consensus.json")
        doc["value_functions"]["default"] = {"kind": "family", "family": "linear"}
        domain = "below the linear family's domain x >= 0 for layer"
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [f"consensus.probes: grid reaches -2.0, {domain} 'I'",
                          f"consensus.probes: grid reaches -2.0, {domain} 'community'"]
        doc["mapping_f"]["offset"] = [2.0, 2.0]
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [f"consensus.probes: grid reaches -2.0, {domain} 'community'"]

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

    def test_element_names_must_be_unique(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "consensus.json")
        doc["element_sets"]["X_w"]["variables"].append({"name": "w1"})
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "element_sets.X_w: element names in 'X_w' must be unique: ['w1', 'w2', 'w1']"
        ]

    def test_fact_binding_elements_must_be_an_array(self, tmp_path):
        doc = {"logic_model": dict(valid_logic_model(), fact_bindings={
            "bindings": {"a": "e"}, "elements": "e", "values": [1.0]})}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["logic_model.fact_bindings.elements: expected an array"]

    def test_survey_scale_beyond_float_range(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["survey"]["scale"] = 10**400
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["survey.scale: value must be finite"]

    @pytest.mark.parametrize("key, name", [("source", "X_nope"), ("target", "X_w ")])
    def test_mapping_set_must_be_declared(self, tmp_path, fixtures_dir, key, name):
        doc = fixture_doc(fixtures_dir, "consensus.json")
        doc["mapping_f"][key] = name
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [f"mapping_f.{key}: unknown element set {name!r}"]

    def test_int_beyond_float_range_is_a_finding(self, tmp_path):
        # a 401-digit JSON integer: float() of it raises OverflowError
        doc = json.loads((FIXTURES / "pipeline.json").read_text(encoding="utf-8"))
        doc["logic_model"]["edges"][0]["weight"] = 10**400
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["logic_model.edges[0].weight: value must be finite"]
        with pytest.raises(ValueError, match="^w: value must be finite$"):
            _float(-(10**400), "w")


LONG = "n" * 5000


def cut(text):
    return f"{text[:80]}... ({len(text)} characters)"


def long_name_docs():
    """(fixture, mutation, finding) for each finding that names an input
    key or name, with a 5,000-character name in it."""

    def at(path, value):
        def mutate(doc):
            *parents, last = path
            for key in parents:
                doc = doc[key]
            doc[last] = value
        return mutate

    def profiles(*names):
        def mutate(doc):
            for profile, name in zip(doc["weighting_profiles"], names):
                profile["name"] = name
        return mutate

    def short_rows(doc):
        doc["weighting_profiles"][0]["name"] = LONG
        doc["weighting_profiles"][0]["matrix"].pop()

    def unweighted_layer(doc):
        doc["layers"][0]["scope"] = doc["consensus"]["narrow_layer"] = LONG
        del doc["layers"][0]["element_weights"]

    def wrong_size_set(doc):
        doc["element_sets"][LONG] = {"variables": [{"name": n} for n in "abc"]}
        doc["mapping_f"]["source"] = LONG

    def raw_family(doc):
        doc["value_functions"]["default"] = {"kind": "family", "family": "linear"}
        doc["layers"][0]["scope"] = doc["curve"]["layer"] = LONG

    def fact_node(doc):
        doc["parameter_network"]["facts"][0] = LONG
        doc["parameter_network"]["deltas"] = {LONG: "x"}

    return [
        ("fig2.json", at(("curve", "layer"), LONG),
         f"curve.layer: unknown scope label {cut(repr(LONG))}"),
        ("fig2.json", at(("layers", 0, "value_function"), LONG),
         f"layers[0].value_function: unknown function {cut(repr(LONG))}"),
        ("fig2.json", at(("value_functions", LONG), {"kind": "k"}),
         f"value_functions.{cut(LONG)}.kind: unknown kind 'k'"),
        ("consensus.json", at(("mapping_f", "source"), LONG),
         f"mapping_f.source: unknown element set {cut(repr(LONG))}"),
        ("consensus.json", at(("element_sets", LONG), {"variables": 1}),
         f"element_sets.{cut(LONG)}.variables: expected an array"),
        ("consensus.json", at(("element_sets", "X_w", "variables"), [{"name": LONG}] * 2),
         f"element_sets.X_w: element names in 'X_w' must be unique: {cut(repr([LONG] * 2))}"),
        ("consensus.json", unweighted_layer,
         f"consensus.narrow_layer: layer {cut(repr(LONG))} declares no element_weights"),
        ("consensus.json", wrong_size_set,
         f"mapping_f.matrix: 2 columns for 3-element set {cut(repr(LONG))}"),
        ("fig2.json", raw_family,
         "curve.grid: grid reaches -20.0, below the linear family's domain x >= 0 "
         f"for layer {cut(repr(LONG))}"),
        ("pipeline.json", at(("parameter_network", "deltas"), {LONG: 1.0}),
         f"parameter_network.deltas: {cut(repr(LONG))} is not a fact node"),
        ("pipeline.json", fact_node,
         f"parameter_network.deltas.{cut(LONG)}: expected a number, got 'x'"),
        ("pipeline.json", at(("element_sets", "X_w", "variables"),
                             [{"name": LONG + c} for c in "abc"]),
         "survey.constructs: must match element_sets.X_w variable names "
         f"({cut(repr([LONG + c for c in 'abc']))})"),
        ("pipeline.json", profiles(LONG, LONG),
         f"weighting_profiles[1].name: duplicate profile name {cut(repr(LONG))}"),
        ("pipeline.json", profiles(LONG + "!", LONG + "?"),
         f"weighting_profiles[1].name: profiles {cut(repr(LONG + '!'))} and "
         f"{cut(repr(LONG + '?'))} would both write ranked_{cut(LONG + '_')}"),
        ("pipeline.json", short_rows,
         f"weighting_profiles[{cut(repr(LONG))}].matrix: 2 rows for 3 subjective constructs"),
        ("pipeline.json", at(("logic_model", "inputs", LONG), "x"),
         f"logic_model.inputs.{cut(LONG)}: expected a number, got 'x'"),
        ("pipeline.json", at(("logic_model", "fact_bindings", "bindings", LONG), 5),
         f"logic_model.fact_bindings.bindings.{cut(LONG)}: expected a non-empty string, got 5"),
    ]


def library_name_docs():
    """(fixture, mutation, finding) for each library message that quotes an
    input name: `mutation(name)` mutates a fixture, and `finding(q, name)` is
    the message, with `q` cutting a text over 80 characters."""

    def edge_to(name):
        def mutate(doc):
            doc["logic_model"]["edges"].append({"from": "funding", "to": name, "weight": 1.0})
        return mutate

    def layer_scope(name):
        def mutate(doc):
            doc["layers"][0].update(scope=name, weight=2.0)
        return mutate

    def input_key(name):
        def mutate(doc):
            doc["logic_model"]["inputs"][name] = 1.0
        return mutate

    def bound_node(name):
        def mutate(doc):
            doc["logic_model"]["fact_bindings"]["bindings"][name] = "econ"
        return mutate

    def cycle_through(name):
        def mutate(doc):
            doc["logic_model"]["nodes"].append({"name": name, "stage": "outcomes"})
            doc["logic_model"]["edges"] += [{"from": "participation", "to": name, "weight": 1.0},
                                            {"from": name, "to": "participation", "weight": 1.0}]
        return mutate

    def both_scopes(name):
        def mutate(doc):
            doc["layers"][0]["scope"] = doc["layers"][1]["scope"] = name
        return mutate

    def fact_and_value(name):
        def mutate(doc):
            net = doc["parameter_network"]
            net["facts"][0] = name
            net["values"].append(name)
        return mutate

    return [
        ("pipeline.json", edge_to,
         lambda q, n: f"logic_model: edge funding->{q(n)} references unknown nodes: {q(n)}"),
        ("fig2.json", layer_scope,
         lambda q, n: f"layers[0].weight: layer {q(repr(n))} weight must be in [0, 1], got 2.0"),
        ("pipeline.json", input_key,
         lambda q, n: f"logic_model.inputs: values given for non-inputs nodes: {q(n)}"),
        ("pipeline.json", bound_node,
         lambda q, n: f"logic_model.fact_bindings: binding references unknown node {q(repr(n))}"),
        ("pipeline.json", cycle_through,
         lambda q, n: f"logic_model: cycle involving nodes: participation, cohesion, prosperity, "
                      f"{q(n)}"),
        ("fig2.json", both_scopes,
         lambda q, n: f"layers: scope labels must be unique, got [{q(repr(n))}, {q(repr(n))}]"),
        ("pipeline.json", fact_and_value,
         lambda q, n: f"parameter_network: nodes cannot be both fact and value: [{q(repr(n))}]"),
    ]


class TestLongNamesAreCut:
    """A finding quotes at most 80 characters of a name taken from the input."""

    @pytest.mark.parametrize("fixture, mutation, finding", library_name_docs(),
                             ids=["edge", "layer-weight", "inputs", "binding", "cycle",
                                  "scope-labels", "fact-and-value"])
    @pytest.mark.parametrize("length", [78, 100_000])
    def test_library_finding_quotes_the_name_in_part(
        self, fixtures_dir, fixture, mutation, finding, length
    ):
        # a name whose repr is 80 characters keeps the text it always had
        name = "n" * length
        doc = fixture_doc(fixtures_dir, fixture)
        mutation(name)(doc)
        errors = parse_scenario(doc, fixtures_dir).errors
        assert finding(lambda t: t if len(t) <= 80 else cut(t), name) in errors
        assert all(len(e.encode("utf-8")) < 1024 for e in errors)

    @pytest.mark.parametrize("fixture, mutate, finding", long_name_docs())
    def test_finding_quotes_the_name_in_part(self, fixtures_dir, fixture, mutate, finding):
        doc = fixture_doc(fixtures_dir, fixture)
        mutate(doc)
        errors = parse_scenario(doc, fixtures_dir).errors
        assert finding in errors
        assert all(len(e) < 400 for e in errors)

    def test_construct_names_are_cut(self):
        with pytest.raises(ValueError) as err:
            scenario.ConstructMap((LONG,), ((0.5,),))
        assert str(err.value) == f"construct {cut(repr(LONG))} weights sum to 0.5, not 1"

    def test_short_names_keep_their_text(self, fixtures_dir):
        name = "n" * 78  # a repr of exactly 80 characters
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["parameter_network"]["deltas"] = {name: 1.0}
        errors = parse_scenario(doc, fixtures_dir).errors
        assert errors == [f"parameter_network.deltas: {name!r} is not a fact node"]


# Subsidy and service shares whose sums round onto 1.0 from either side:
# 0.1 + 0.9, 0.7 + 0.3 and 1/3 + 2/3 are 1.0, and one ulp either way of 1 - x.
BUDGET_EDGE = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 0.8, 0.9, 1 / 3, 2 / 3, 1.0]).flatmap(
    lambda x: st.sampled_from([x, 1.0 - x, math.nextafter(1.0 - x, 0.0),
                               math.nextafter(1.0 - x, 1.0)])
)


def listing(names, quote=str):
    """The names a finding lists: all of them up to MAX_LISTED, joined as
    they always were; past it the first MAX_LISTED and the count of the rest."""
    shown = ", ".join(map(quote, names[:MAX_LISTED]))
    rest = len(names) - MAX_LISTED
    return shown if rest <= 0 else f"{shown}, ... ({rest} more)"


def long_list_docs():
    """(doc, findings) for logic models whose findings name thousands of nodes or edges."""
    names = [f"a{i}" for i in range(20_000)]

    def logic_model(nodes, edges=()):
        nodes = [*nodes, {"name": "impact", "stage": "impacts"}]
        return {"logic_model": {"nodes": nodes, "edges": list(edges), "inputs": {}}}

    ring = [{"from": a, "to": b, "weight": 1.0} for a, b in zip(names, names[1:] + names[:1])]
    to_unknown = [{"from": "impact", "to": f"x{k}", "weight": 1.0} for k in range(20_000)]
    backwards = [{"from": "impact", "to": "o", "weight": 1.0}] * 20_000
    # One finding per bad edge: the section keeps MAX_LISTED and counts the rest.
    rest = f"logic_model: ... ({20_000 - MAX_LISTED} more findings)"
    return [
        pytest.param(
            logic_model([], to_unknown),
            [f"logic_model: edge impact->x{k} references unknown nodes: x{k}"
             for k in range(MAX_LISTED)] + [rest],
            id="unknown-edges"),
        pytest.param(
            logic_model([{"name": "o", "stage": "outputs"}], backwards),
            ["logic_model: edge impact->o runs backwards: impacts -> outputs"] * MAX_LISTED
            + [rest],
            id="backward-edges"),
        pytest.param(
            logic_model([{"name": n, "stage": "outcomes"} for n in names], ring),
            [f"logic_model: cycle involving nodes: {listing(names)}"], id="cycle"),
        pytest.param(
            logic_model([{"name": n, "stage": "inputs"} for n in names]),
            [f"logic_model.inputs: missing values for inputs nodes: {listing(sorted(names))}"],
            id="unfed-inputs"),
        pytest.param(
            logic_model([{"name": n, "stage": "outcomes"} for n in names[:5_000] * 2]),
            [f"logic_model: duplicate node names: {listing(sorted(names[:5_000]))}"],
            id="duplicates"),
    ]


class TestLongListsAreCounted:
    """A finding lists at most MAX_LISTED input names and counts the rest."""

    @pytest.mark.parametrize("doc, findings", long_list_docs())
    def test_logic_model_finding_stays_short(self, doc, findings):
        errors = parse_scenario(doc, FIXTURES).errors
        assert errors == findings
        assert len("".join(findings).encode("utf-8")) < 2048

    @pytest.mark.parametrize("count", [MAX_LISTED, MAX_LISTED + 1])
    def test_bad_edges_are_counted_per_kind(self, count):
        # The two kinds interleave: the model has one finding per bad edge,
        # in edge order, and the section lists MAX_LISTED and counts the rest.
        nodes = (logicmodel.Node("o", "outputs"), logicmodel.Node("i", "impacts"))
        edges, want = [], []
        for k in range(count):
            edges += [Edge("o", f"x{k}", 1.0), Edge("i", "o", 1.0)]
            want += [f"edge o->x{k} references unknown nodes: x{k}",
                     "edge i->o runs backwards: impacts -> outputs"]
        model = logicmodel.LogicModel(nodes, tuple(edges))
        assert logicmodel.validate(model) == want
        with pytest.raises(ValueError) as err:  # a library caller's message is bounded too
            logicmodel.propagate(model, {})
        assert str(err.value) == "invalid logic model: " + "; ".join(want[:MAX_LISTED]) + (
            f"; ... ({2 * count - MAX_LISTED} more)")
        doc = {"logic_model": {
            "nodes": [{"name": n.name, "stage": n.stage} for n in nodes],
            "edges": [{"from": e.source, "to": e.target, "weight": e.weight} for e in edges],
        }}
        errors = parse_scenario(doc, FIXTURES).errors
        assert errors == [f"logic_model: {finding}" for finding in want[:MAX_LISTED]] + [
            f"logic_model: ... ({2 * count - MAX_LISTED} more findings)"]

    @pytest.mark.parametrize("count", [MAX_LISTED, MAX_LISTED + 1, 20_000])
    def test_section_findings_are_counted(self, count):
        doc = {"value_functions": {f"f{k}": {"kind": "nope"} for k in range(count)},
               "layers": [1]}
        errors = parse_scenario(doc, FIXTURES).errors
        want = [f"value_functions.f{k}.kind: unknown kind 'nope'"
                for k in range(min(count, MAX_LISTED))]
        if count > MAX_LISTED:
            want.append(f"value_functions: ... ({count - MAX_LISTED} more findings)")
        assert errors == [*want, "layers[0]: expected an object"]
        assert len("".join(errors).encode("utf-8")) < 2048

    @pytest.mark.parametrize("count", [1, MAX_LISTED, MAX_LISTED + 1, 20_000])
    def test_library_findings_list_the_first_names(self, count):
        names = [f"n{i:05d}" for i in range(count)]  # sorted as declared
        labels = [*names, names[0]]
        layers = tuple(WELayer(WEScope(n), AsymmetricSpec(), 0.0) for n in labels)
        no_inputs = logicmodel.LogicModel((logicmodel.Node("i", "impacts"),), ())
        raised = [
            (MissingScopeError(names), f"assignment missing scopes: {listing(names)}"),
            (RankDeficiencyError(names),
             f"design matrix is rank deficient; dependent columns: {listing(names)}"),
            (lambda: topological_order(names, [(i, (i + 1) % count) for i in range(count)]),
             f"cycle involving nodes: {listing(names)}"),
            (lambda: ParameterNetwork(tuple(names), tuple(names), ()),
             f"nodes cannot be both fact and value: [{listing(names, repr)}]"),
            (lambda: WellbeingModel(layers),
             f"scope labels must be unique, got [{listing(labels, repr)}]"),
            (lambda: logicmodel.check_inputs(no_inputs, dict.fromkeys(names, 0.0)),
             f"values given for non-inputs nodes: {listing(names)}"),
            (lambda: logicmodel.FactBinding(dict(zip(names, names)), (), ()),
             f"bindings reference unknown fact elements: {listing(names)}"),
        ]
        for fail, finding in raised:
            if callable(fail):
                with pytest.raises(ValueError) as err:
                    fail()
                fail = err.value
            assert str(fail) == finding
            assert len(finding.encode("utf-8")) < 2048


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


class TestFailedSectionsSkipCrossChecks:
    """A section with a finding is skipped by the checks of later sections."""

    def test_mapping_offset_mismatch(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "consensus.json")
        doc["mapping_f"]["offset"] = [0.0]
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["mapping_f: offset length 1 != matrix rows 2"]

    def test_construct_rows_not_stochastic(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["survey"]["construct_matrix"][0] = [0.0] * 10
        doc["element_sets"]["X_w"]["variables"].pop()
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["survey: construct 'social' weights sum to 0.0, not 1"]

    def test_mapping_built_but_set_size_wrong(self, tmp_path, fixtures_dir):
        # The mapping is built before its set-size check fails; consensus
        # must not measure its probes or element weights against it.
        doc = fixture_doc(fixtures_dir, "consensus.json")
        doc["element_sets"]["X_w"]["variables"].append({"name": "w3"})
        doc["layers"][1]["element_weights"].append(0.0)
        doc["consensus"]["probes"] = [[0.0, 0.0, 0.0]]
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["mapping_f.matrix: 2 columns for 3-element set 'X_w'"]

    def test_unsummed_layer_weights(self, tmp_path, fixtures_dir):
        doc = TestRawFamilyDomain().raw_fig2(fixtures_dir)
        doc["layers"][1]["weight"] = 0.6
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["layers: layer weights must sum to 1, got 1.1"]

    def test_failed_layers_skip_the_surface_check(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "fig2.json")
        doc["layers"] = []
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["layers: expected a non-empty array"]

    def test_mapping_set_of_failed_element_sets(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "consensus.json")
        doc["element_sets"]["X_w"] = {"variables": "w1"}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["element_sets.X_w.variables: expected an array"]

    def test_failed_survey_skips_the_coupling_rows(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["survey"]["scale"] = 1
        doc["weighting_profiles"][0]["matrix"] = [[1.0]]
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "survey.scale: must be >= 2, got 1",
            "weighting_profiles['Type A'].matrix: 1 columns for 3 simulator indicators",
        ]


class TestSectionOrder:
    """Findings come in the order the sections are parsed (`_SECTIONS`)."""

    def test_each_row_names_a_parser_in_its_module(self):
        for name, module, function in scenario._SECTIONS:
            parse = getattr(importlib.import_module(f"wepolicy.{module}"), function, None)
            assert callable(parse), (name, module, function)

    def test_the_core_parses_only_element_sets_and_survey(self):
        core = {function for _, module, function in scenario._SECTIONS if module == "scenario"}
        assert core == {"parse_element_sets", "parse_survey"}
        assert {n for n in vars(scenario) if n.startswith("parse_")} == core | {"parse_scenario"}

    def test_only_the_named_sections_are_parsed(self, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        sc = parse_scenario(doc, fixtures_dir, ("survey",))
        assert (sc.parsed, sc.errors) == (["survey"], [])
        assert sc.dynamics is sc.logic_model is None
        sc = parse_scenario(doc, fixtures_dir)
        assert sc.parsed == [name for name, _, _ in scenario._SECTIONS if name in doc]

    def test_survey_before_consensus(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["element_sets"]["X_w"]["variables"].pop()
        doc["consensus"] = {"narrow_layer": "ghost", "wide_layer": "community",
                            "probes": [[0.0]]}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "survey.constructs: must match element_sets.X_w variable names "
            "(['social', 'environmental'])",
            "consensus: requires a layers section",
            "consensus: requires a mapping_f section",
        ]

    def test_profiles_after_survey(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["parameter_network"]["facts"] = 5
        doc["survey"]["scale"] = 1
        doc["weighting_profiles"][0]["mode"] = "bogus"
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "parameter_network.facts: expected an array",
            "survey.scale: must be >= 2, got 1",
            "weighting_profiles[0]: mode must be additive or multiplicative, got 'bogus'",
        ]


class TestWorkCaps:
    """The work a scenario asks for is bounded before any grid or sweep is built."""

    def test_surface_cells(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "fig2.json")
        doc["surface"] = {"x_n": {"start": -1.0, "stop": 1.0, "count": 1001},
                          "x_w": {"values": [0.0] * 1000}}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["surface: 1001 x 1000 = 1001000 cells exceeds the cap of 1000000"]
        doc["surface"]["x_n"]["count"] = 1000
        assert validate_scenario(write(tmp_path, doc)) == ([], [])

    def test_curve_points(self, tmp_path, fixtures_dir, monkeypatch):
        monkeypatch.setattr(scenario, "MAX_GRID_POINTS", 4)
        doc = fixture_doc(fixtures_dir, "fig2.json")
        del doc["surface"]
        doc["curve"]["grid"] = {"start": 0.0, "stop": 1.0, "count": 5}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["curve.grid: 5 points exceeds the cap of 4"]

    def test_sweep_work(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["dynamics"]["agents"] = 10**9
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "sweep: 27 admissible rows x (1000000000 agents + 6 steps) = 27000000162 "
            "exceeds the cap of 10000000"
        ]

    def test_sweep_combinations(self, tmp_path, fixtures_dir, monkeypatch):
        # one admissible (s, v) pair: the other combinations are listed as skipped
        monkeypatch.setattr(scenario, "MAX_GRID_POINTS", 26)
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["sweep"] = {"subsidy": [0.5, 0.75, 1.0], "tax": [0.0, 0.1, 0.2],
                        "service": [0.5, 0.75, 1.0]}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["sweep: 3 x 3 x 3 = 27 combinations exceeds the cap of 26"]
        monkeypatch.setattr(scenario, "MAX_GRID_POINTS", 27)
        (tmp_path / "survey.csv").write_bytes((fixtures_dir / "survey.csv").read_bytes())
        assert validate_scenario(write(tmp_path, doc)) == ([], [])

    def test_sweep_work_counts_admissible_rows_only(self, tmp_path, fixtures_dir):
        # 6 of the 18 combinations have s + v > 1; 12 rows x 833,336 is just over the cap
        doc = fixture_doc(fixtures_dir, "pipeline.json")
        doc["sweep"] = {"subsidy": [0.25, 0.5, 0.75], "tax": [0.0, 0.1],
                        "service": [0.75, 0.25, 0.5]}
        doc["dynamics"]["agents"] = 833_330
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "sweep: 12 admissible rows x (833330 agents + 6 steps) = 10000032 "
            "exceeds the cap of 10000000"
        ]
        doc["dynamics"]["agents"] = 833_327
        (tmp_path / "survey.csv").write_bytes((fixtures_dir / "survey.csv").read_bytes())
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == []

    @settings(max_examples=300, deadline=None)
    @given(subsidies=st.lists(BUDGET_EDGE, min_size=1, max_size=6),
           taxes=st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=1, max_size=3),
           services=st.lists(BUDGET_EDGE, min_size=1, max_size=6))
    def test_sweep_rows_are_run_sweeps_rows(self, subsidies, taxes, services):
        """The admissible rows the work cap counts are the rows run_sweep
        builds, also where s + v rounds onto 1.0 from either side."""
        agents = scenario.MAX_SWEEP_WORK  # any admissible row trips the cap
        doc = {"dynamics": {"agents": agents, "steps": 1, "seed": 0},
               "sweep": {"subsidy": subsidies, "tax": taxes, "service": services}}
        errors = parse_scenario(doc, FIXTURES).errors
        rows = len(run_sweep(DynamicsConfig(1, 1, 0), subsidies, taxes, services).rows)
        if rows:
            assert errors == [
                f"sweep: {rows} admissible rows x ({agents} agents + 1 steps) = "
                f"{rows * (agents + 1)} exceeds the cap of {scenario.MAX_SWEEP_WORK}"
            ]
        else:
            assert errors == ["sweep: s + v > 1 for every (subsidy, service) pair; "
                              "no admissible policy to simulate"]


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

    @pytest.mark.parametrize("count, finding", [
        (2, "g: grid value 0 is not finite: nan"),  # start + 0 * inf
        (3, "g: grid value 0 is not finite: nan"),
    ])
    def test_overflowing_step_rejected(self, count, finding):
        # stop - start overflows to inf, so every step is inf
        with pytest.raises(ValueError) as err:
            grid_values({"start": -1e308, "stop": 1e308, "count": count}, "g")
        assert str(err.value) == finding

    @pytest.mark.parametrize("section, key", [
        ("surface", "x_n"), ("surface", "x_w"), ("curve", "grid"),
    ])
    def test_non_finite_grid_is_the_only_finding(self, tmp_path, section, key):
        doc = json.loads((FIXTURES / "fig2.json").read_text())
        doc[section][key] = {"start": -1e308, "stop": 1e308, "count": 3}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [f"{section}.{key}: grid value 0 is not finite: nan"]


class TestLayerFindings:
    def test_surface_needs_two_layers(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "fig2.json")
        doc["layers"][1]["weight"] = 0.25
        doc["layers"].append({"scope": "world", "value_function": "default", "weight": 0.25})
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["surface: surface sampling needs exactly 2 layers, model has 3"]

    def test_surface_requires_layers(self, tmp_path, fixtures_dir):
        doc = {"surface": fixture_doc(fixtures_dir, "fig2.json")["surface"]}
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["surface: requires a layers section"]

    def test_curve_and_consensus_require_layers(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "consensus.json")
        del doc["layers"]
        doc["curve"] = fixture_doc(fixtures_dir, "fig2.json")["curve"]
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == ["curve: requires a layers section",
                          "consensus: requires a layers section"]

    def test_out_of_range_weights_name_their_path(self, tmp_path, fixtures_dir):
        doc = fixture_doc(fixtures_dir, "fig2.json")
        for layer in doc["layers"]:
            layer["weight"] = 1e308
        errors, _ = validate_scenario(write(tmp_path, doc))
        assert errors == [
            "layers[0].weight: layer 'I' weight must be in [0, 1], got 1e+308",
            "layers[1].weight: layer 'community' weight must be in [0, 1], got 1e+308",
        ]


# --- the graph sections against a kept copy of the per-field accessor loops ---


def reference_graph_sections(doc):
    """The `parameter_network` and `logic_model` loops as they were before
    the inline checks: every field goes through its accessor with its path
    already built. Returns (errors, parsed objects by Scenario attribute)."""
    errors = []
    got = {"network": None, "network_deltas": {}, "logic_model": None,
           "logic_inputs": {}, "fact_binding": None}

    def vector(value, where):
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected an array of numbers")
        return [_float(v, f"{where}[{i}]") for i, v in enumerate(value)]

    def names(value, where):
        return tuple(_str(v, f"{where}[{i}]") for i, v in enumerate(_array(value, where)))

    def edges(value, where):
        out = []
        for i, e in enumerate(_array(value, where)):
            e = _object(e, f"{where}[{i}]")
            out.append(Edge(
                source=_str(e.get("from"), f"{where}[{i}].from"),
                target=_str(e.get("to"), f"{where}[{i}].to"),
                weight=_float(e.get("weight"), f"{where}[{i}].weight"),
            ))
        return tuple(out)

    raw = doc.get("parameter_network")
    if raw is not None:
        where = "parameter_network"
        try:
            _object(raw, where)
            facts = names(raw.get("facts", []), f"{where}.facts")
            values = names(raw.get("values", []), f"{where}.values")
            net_edges = edges(raw.get("edges", []), f"{where}.edges")
            got["network"] = _check(where, ParameterNetwork, facts, values, net_edges)
            deltas = _object(raw.get("deltas", {}), f"{where}.deltas")
            for k, v in deltas.items():
                if k not in set(facts):
                    raise ValueError(f"{where}.deltas: {k!r} is not a fact node")
                got["network_deltas"][k] = _float(v, f"{where}.deltas.{k}")
        except ValueError as err:
            errors.append(str(err))

    raw = doc.get("logic_model")
    if raw is not None:
        where = "logic_model"
        try:
            _object(raw, where)
            nodes = []
            for i, n in enumerate(_array(raw.get("nodes", []), f"{where}.nodes")):
                at = f"{where}.nodes[{i}]"
                n = _object(n, at)
                nodes.append(_check(
                    at,
                    logicmodel.Node,
                    _str(n.get("name"), f"{at}.name"),
                    _str(n.get("stage"), f"{at}.stage"),
                    _float(n.get("baseline", 0.0), f"{at}.baseline"),
                ))
            model = logicmodel.LogicModel(
                nodes=tuple(nodes), edges=edges(raw.get("edges", []), f"{where}.edges")
            )
            findings = logicmodel.validate(model)
            if findings:  # one finding each; the section is the last one read
                return errors + [f"{where}: {finding}" for finding in findings], got
            got["logic_model"] = model
            inputs = _object(raw.get("inputs", {}), f"{where}.inputs")
            for k, v in inputs.items():
                got["logic_inputs"][k] = _float(v, f"{where}.inputs.{k}")
            _check(f"{where}.inputs", logicmodel.check_inputs, model, got["logic_inputs"])
            fb = raw.get("fact_bindings")
            if fb is not None:
                if not isinstance(fb, dict) or not isinstance(fb.get("bindings"), dict):
                    raise ValueError(f"{where}.fact_bindings.bindings: expected an object")
                elements = names(fb.get("elements", []), f"{where}.fact_bindings.elements")
                values = tuple(vector(fb.get("values", []), f"{where}.fact_bindings.values"))
                bindings = {
                    _str(k, f"{where}.fact_bindings.bindings"): _str(
                        v, f"{where}.fact_bindings.bindings.{k}"
                    )
                    for k, v in fb["bindings"].items()
                }
                binding = _check(
                    f"{where}.fact_bindings", logicmodel.FactBinding, bindings, elements, values
                )
                _check(f"{where}.fact_bindings", logicmodel.check_binding, model, binding)
                got["fact_binding"] = binding
        except ValueError as err:
            errors.append(str(err))
    return errors, got


# Replacements by the type of the entry they replace: near misses of each
# accessor's check, and values it accepts that an inline check might not.
STR_SWAPS = ["", "x", "funding", "income", "security", "impacts", 1, True, None, ["x"]]
NUMBER_SWAPS = [True, False, 0, 1, -3, -0.0, 1e308, -1e308, float("inf"), float("nan"),
                "0.5", None]
ENTRY_SWAPS = [None, 1, "x", [], {}, [0.5], ["funding"], {"from": "funding"}]
ODD_KEYS = ["", "ghost", "funding", "income", "weight", "from"]


def json_paths(value, path=()):
    if path:
        yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from json_paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from json_paths(v, path + (i,))


def swaps_for(value):
    if isinstance(value, str):
        return STR_SWAPS
    if isinstance(value, (int, float)):
        return NUMBER_SWAPS
    return ENTRY_SWAPS


@st.composite
def mutated_graph_docs(draw):
    """pipeline.json's two graph sections with 1-3 entries replaced by a
    value of another type, deleted, or joined by a new entry."""
    pipeline = json.loads((FIXTURES / "pipeline.json").read_text(encoding="utf-8"))
    doc = {k: pipeline[k] for k in ("logic_model", "parameter_network")}
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        leaves = [(p, v) for p, v in paths if not isinstance(v, (dict, list))]
        targets = st.sampled_from(paths)
        if leaves:
            targets = st.sampled_from(leaves) | targets
        path, old = draw(targets)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if kind == "replace":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(swaps_for(old))))
        elif kind == "delete":
            del parent[path[-1]]
        else:
            value = copy.deepcopy(draw(st.sampled_from(STR_SWAPS + NUMBER_SWAPS + ENTRY_SWAPS)))
            if isinstance(parent, dict):
                parent[draw(st.sampled_from(ODD_KEYS))] = value
            else:
                parent.insert(path[-1], value)
    return doc


class TestGraphSectionsMatchAccessors:
    @settings(max_examples=1000, deadline=None)
    @given(mutated_graph_docs())
    def test_same_findings_and_objects(self, doc):
        sc = parse_scenario(doc, FIXTURES)
        want_errors, want = reference_graph_sections(doc)
        assert sc.errors == want_errors
        for attr, value in want.items():
            assert repr(getattr(sc, attr)) == repr(value), attr

    def test_unmutated_sections_parse(self):
        pipeline = json.loads((FIXTURES / "pipeline.json").read_text(encoding="utf-8"))
        doc = {k: pipeline[k] for k in ("logic_model", "parameter_network")}
        sc = parse_scenario(doc, FIXTURES)
        assert sc.errors == [] == reference_graph_sections(doc)[0]
        assert sc.logic_model == reference_graph_sections(doc)[1]["logic_model"]


# --- the column passes against the same reference, entry by entry -------------


def column_doc():
    """Both graph sections, each field holding at least three entries."""
    return {
        "logic_model": {
            "nodes": [*({"name": f"i{k}", "stage": "inputs", "baseline": 0.5} for k in range(3)),
                      {"name": "a0", "stage": "activities"},
                      {"name": "o0", "stage": "outputs", "baseline": -0.25},
                      {"name": "z0", "stage": "impacts", "baseline": 0.0}],
            "edges": [{"from": "i0", "to": "a0", "weight": 0.5},
                      {"from": "i1", "to": "a0", "weight": -1.5},
                      {"from": "a0", "to": "o0", "weight": 2.0},
                      {"from": "i2", "to": "o0", "weight": 0.25},
                      {"from": "o0", "to": "z0", "weight": 1.0}],
            "inputs": {"i0": 1.0, "i1": 0.5, "i2": -2.0},
            "fact_bindings": {"bindings": {"i0": "e0", "a0": "e1", "o0": "e2"},
                              "elements": ["e0", "e1", "e2"], "values": [0.1, 0.2, 0.3]},
        },
        "parameter_network": {
            "facts": ["f0", "f1", "f2"],
            "values": ["v0", "v1", "v2"],
            "edges": [{"from": "f0", "to": "m0", "weight": 0.5},
                      {"from": "f1", "to": "m0", "weight": 1.5},
                      {"from": "m0", "to": "v0", "weight": -1.0},
                      {"from": "f2", "to": "v1", "weight": 2.0},
                      {"from": "f0", "to": "v2", "weight": 0.75}],
            "deltas": {"f0": 0.1, "f1": -0.2, "f2": 0.3},
        },
    }


KEY = object()  # swap a map entry's key instead of its value
BAD_NAMES = ["", 5, True, None, [], {}, ["x"]]
BAD_NUMBERS = ["x", "0.5", True, None, float("inf"), float("nan"), 10**400, [], {}]
INTS = [2, -3, 0, 2**70]

# (path to the field, the key swapped in each entry (None: the entry itself),
# values its field reader refuses, more values: accepted ints, or ones that
# a later check of the section refuses)
COLUMN_FIELDS = [
    (("logic_model", "nodes"), "name", BAD_NAMES, ["i1"]),
    (("logic_model", "nodes"), "stage", [*BAD_NAMES, "nope", "Inputs"], ["impacts"]),
    (("logic_model", "nodes"), "baseline", BAD_NUMBERS, INTS),
    (("logic_model", "nodes"), None, [7, "x", None, [], ["a0"]], []),
    (("logic_model", "edges"), "from", BAD_NAMES, ["ghost", "z0"]),
    (("logic_model", "edges"), "to", BAD_NAMES, ["i0"]),
    (("logic_model", "edges"), "weight", BAD_NUMBERS, INTS),
    (("logic_model", "edges"), None, [7, None, [], {"from": "i0"}], []),
    (("logic_model", "inputs"), None, BAD_NUMBERS, INTS),
    (("logic_model", "inputs"), KEY, [], ["", "a0", "ghost"]),
    (("logic_model", "fact_bindings", "bindings"), None, BAD_NAMES, ["ghost"]),
    (("logic_model", "fact_bindings", "bindings"), KEY, [], ["", "ghost", "z0"]),
    (("logic_model", "fact_bindings", "elements"), None, BAD_NAMES, ["e0"]),
    (("logic_model", "fact_bindings", "values"), None, BAD_NUMBERS, INTS),
    (("parameter_network", "facts"), None, BAD_NAMES, ["v0", "f1"]),
    (("parameter_network", "values"), None, BAD_NAMES, ["f0", "v1"]),
    (("parameter_network", "edges"), "from", BAD_NAMES, ["v0"]),
    (("parameter_network", "edges"), "to", BAD_NAMES, ["f1"]),
    (("parameter_network", "edges"), "weight", BAD_NUMBERS, INTS),
    (("parameter_network", "edges"), None, [7, None, [], {"to": "v0"}], []),
    (("parameter_network", "deltas"), None, BAD_NUMBERS, INTS),
    (("parameter_network", "deltas"), KEY, [], ["", "ghost", "v0", "m0"]),
]


def swapped(path, key, pos, value):
    """`column_doc()` with entry `pos` of the field at `path` changed."""
    doc = column_doc()
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    field = parent[path[-1]]
    if key is KEY:
        parent[path[-1]] = {value if i == pos else k: v for i, (k, v) in enumerate(field.items())}
    elif isinstance(field, dict):
        field[list(field)[pos]] = value
    elif key is None:
        field[pos] = value
    else:
        field[pos][key] = value
    return doc


class TestColumnPassesKeepFindings:
    """The first, a middle or the last entry of each field, swapped: the
    findings and the objects built are those of the per-entry reference, a
    value the field reader refuses is one finding naming its entry, and an
    int number is accepted as its float."""

    @pytest.mark.parametrize("path, key, bad, more", COLUMN_FIELDS, ids=[
        ".".join(path) + ("" if key is None else "[key]" if key is KEY else f".{key}")
        for path, key, _, _ in COLUMN_FIELDS])
    def test_each_position(self, path, key, bad, more):
        field = column_doc()
        for k in path:
            field = field[k]
        for pos in (0, len(field) // 2, len(field) - 1):
            for value in [*bad, *more]:
                doc = swapped(path, key, pos, value)
                sc = parse_scenario(doc, FIXTURES)
                want_errors, want = reference_graph_sections(doc)
                case = (path, key, pos, value)
                assert sc.errors == want_errors, case
                for attr, obj in want.items():
                    assert repr(getattr(sc, attr)) == repr(obj), (case, attr)
                if value in more:
                    assert type(value) is not int or want_errors == [], case
                    continue
                assert len(want_errors) == 1, case
                at = f"[{pos}]" if isinstance(field, list) else f".{list(field)[pos]}:"
                assert at in want_errors[0], case
