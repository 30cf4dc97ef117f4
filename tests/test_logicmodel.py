import math
import random

import pytest

from wepolicy.errors import StageBindingError, UnknownNodeError
from wepolicy.logicmodel import (
    Edge,
    FactBinding,
    LogicModel,
    Node,
    couple_facts,
    propagate,
    validate,
)

STAGES = ("inputs", "activities", "outputs", "outcomes", "impacts")


def chain_model(baseline=0.0, weight=1.0):
    nodes = tuple(Node(f"n{i}", stage, baseline) for i, stage in enumerate(STAGES))
    edges = tuple(Edge(f"n{i}", f"n{i+1}", weight) for i in range(4))
    return LogicModel(nodes=nodes, edges=edges)


def diamond_model():
    return LogicModel(
        nodes=(
            Node("fund", "inputs"),
            Node("act_a", "activities"),
            Node("act_b", "activities"),
            Node("impact", "impacts"),
        ),
        edges=(
            Edge("fund", "act_a", 0.5),
            Edge("fund", "act_b", 0.5),
            Edge("act_a", "impact", 1.0),
            Edge("act_b", "impact", 1.0),
        ),
    )


class TestValidate:
    def test_clean_chain(self):
        assert validate(chain_model()) == []

    def test_backwards_edge_flagged(self):
        model = LogicModel(
            nodes=(Node("a", "inputs"), Node("z", "impacts")),
            edges=(Edge("z", "a", 1.0),),
        )
        findings = validate(model)
        assert any("backwards" in f for f in findings)

    def test_same_stage_edges_allowed(self):
        model = LogicModel(
            nodes=(Node("a", "activities"), Node("b", "activities"), Node("z", "impacts")),
            edges=(Edge("a", "b", 1.0), Edge("b", "z", 1.0)),
        )
        assert validate(model) == []

    def test_cycle_flagged(self):
        model = LogicModel(
            nodes=(Node("a", "activities"), Node("b", "activities"), Node("z", "impacts")),
            edges=(Edge("a", "b", 1.0), Edge("b", "a", 1.0), Edge("b", "z", 1.0)),
        )
        findings = validate(model)
        assert any("cycle" in f for f in findings)

    def test_unknown_endpoints_flagged(self):
        model = LogicModel(
            nodes=(Node("a", "inputs"), Node("z", "impacts")),
            edges=(Edge("a", "ghost", 1.0),),
        )
        findings = validate(model)
        assert any("unknown" in f for f in findings)

    def test_missing_impacts_flagged(self):
        model = LogicModel(nodes=(Node("a", "inputs"),), edges=())
        assert any("impacts" in f for f in validate(model))

    def test_duplicate_names_flagged(self):
        model = LogicModel(
            nodes=(Node("a", "inputs"), Node("a", "impacts")),
            edges=(),
        )
        assert any("duplicate" in f for f in validate(model))

    @pytest.mark.parametrize("baseline", [math.inf, math.nan])
    def test_baseline_finite(self, baseline):
        with pytest.raises(ValueError, match="^node 'a' baseline must be finite$"):
            Node("a", "inputs", baseline)


class TestPropagate:
    def test_unit_chain(self):
        values, impacts = propagate(chain_model(), {"n0": 1.0})
        assert impacts == {"n4": 1.0}
        assert values["n2"] == 1.0

    def test_diamond_path_sum(self):
        _, impacts = propagate(diamond_model(), {"fund": 1.0})
        assert impacts == {"impact": 1.0}

    def test_baseline_accumulation(self):
        # chain of 5 with baseline b everywhere and zero input: each link
        # adds the upstream total to its own baseline, giving 5b at the end
        b = 0.7
        _, impacts = propagate(chain_model(baseline=b), {"n0": 0.0})
        assert impacts["n4"] == pytest.approx(5 * b, abs=1e-12)

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            propagate(chain_model(), {})

    def test_non_input_values_rejected(self):
        with pytest.raises(UnknownNodeError):
            propagate(chain_model(), {"n0": 1.0, "n2": 1.0})

    def test_invalid_model_rejected(self):
        model = LogicModel(nodes=(Node("a", "inputs"),), edges=())
        with pytest.raises(ValueError, match="invalid"):
            propagate(model, {"a": 1.0})

    def test_findings_are_kept_apart(self):
        # Each finding lists its unknown nodes with ", ", so findings are
        # joined with "; ".
        model = LogicModel(
            nodes=(Node("a", "inputs"), Node("z", "impacts")),
            edges=(Edge("x1", "x2", 1.0), Edge("a", "x3", 1.0)),
        )
        with pytest.raises(ValueError) as err:
            propagate(model, {"a": 1.0})
        assert str(err.value) == (
            "invalid logic model: edge x1->x2 references unknown nodes: x1, x2; "
            "edge a->x3 references unknown nodes: x3"
        )

    def test_additivity_zero_baselines(self):
        model = diamond_model()
        v1, v2 = {"fund": 0.8}, {"fund": -0.3}
        combined = {"fund": v1["fund"] + v2["fund"]}
        _, left = propagate(model, combined)
        _, r1 = propagate(model, v1)
        _, r2 = propagate(model, v2)
        assert abs(left["impact"] - (r1["impact"] + r2["impact"])) <= 1e-12

    def test_homogeneity_zero_baselines(self):
        model = diamond_model()
        _, base = propagate(model, {"fund": 0.6})
        _, scaled = propagate(model, {"fund": 3.0 * 0.6})
        assert abs(scaled["impact"] - 3.0 * base["impact"]) <= 1e-12

    def test_declaration_order_irrelevant(self):
        # same graph declared in reversed node/edge order evaluates identically
        model = diamond_model()
        reordered = LogicModel(nodes=model.nodes[::-1], edges=model.edges[::-1])
        _, a = propagate(model, {"fund": 1.37})
        _, b = propagate(reordered, {"fund": 1.37})
        assert abs(a["impact"] - b["impact"]) <= 1e-15

    def test_matches_path_sum_oracle(self):
        rng = random.Random(101)
        for _ in range(10):
            model, inputs = random_dag(rng, max_nodes=12)
            _, impacts = propagate(model, inputs)
            oracle = path_sum_oracle(model, inputs)
            for name, value in impacts.items():
                assert abs(value - oracle[name]) <= 1e-12


class TestCoupleFacts:
    def test_zero_facts_give_pure_baseline_flow(self):
        model = chain_model(baseline=0.4)
        binding = FactBinding(bindings={"n0": "econ"}, elements=("econ",), values=(0.0,))
        impacts = couple_facts(model, binding)
        _, expected = propagate(model, {"n0": 0.0})
        assert impacts == expected

    def test_input_binding_drives_chain(self):
        binding = FactBinding(bindings={"n0": "econ"}, elements=("econ",), values=(2.0,))
        impacts = couple_facts(chain_model(), binding)
        assert impacts == {"n4": 2.0}

    def test_input_binding_overrides_given_value(self):
        binding = FactBinding(bindings={"n0": "econ"}, elements=("econ",), values=(2.0,))
        impacts = couple_facts(chain_model(), binding, input_values={"n0": 9.0})
        assert impacts == {"n4": 2.0}

    def test_activity_binding_injects(self):
        # activities keep their propagated value and gain the fact on top
        binding = FactBinding(bindings={"n1": "econ"}, elements=("econ",), values=(0.5,))
        impacts = couple_facts(chain_model(), binding, input_values={"n0": 1.0})
        assert impacts == {"n4": 1.5}

    def test_right_side_binding_rejected(self):
        for node in ("n3", "n4"):  # outcomes, impacts
            binding = FactBinding(bindings={node: "econ"}, elements=("econ",), values=(1.0,))
            with pytest.raises(StageBindingError):
                couple_facts(chain_model(), binding)

    def test_unknown_node_rejected(self):
        binding = FactBinding(bindings={"ghost": "econ"}, elements=("econ",), values=(1.0,))
        with pytest.raises(UnknownNodeError):
            couple_facts(chain_model(), binding)

    def test_unknown_element_rejected(self):
        with pytest.raises(UnknownNodeError):
            FactBinding(bindings={"n0": "ghost"}, elements=("econ",), values=(1.0,))

    def test_element_value_length_checked(self):
        with pytest.raises(ValueError):
            FactBinding(bindings={}, elements=("a", "b"), values=(1.0,))


def random_dag(rng: random.Random, max_nodes: int):
    """Random staged DAG with seeded baselines, weights, and input values."""
    n = rng.randint(5, max_nodes)
    stage_of = sorted(rng.choices(range(5), k=n))
    # ensure at least one source and one sink stage
    stage_of[0] = 0
    stage_of[-1] = 4
    nodes = tuple(
        Node(f"n{i}", STAGES[s], rng.uniform(-0.5, 0.5)) for i, s in enumerate(stage_of)
    )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if stage_of[j] >= stage_of[i] and rng.random() < 0.4:
                edges.append(Edge(f"n{i}", f"n{j}", rng.uniform(-1.0, 1.0)))
    model = LogicModel(nodes=nodes, edges=tuple(edges))
    inputs = {
        node.name: rng.uniform(-1.0, 1.0)
        for node in nodes if node.stage == "inputs"
    }
    return model, inputs


def path_sum_oracle(model: LogicModel, inputs) -> dict[str, float]:
    """Each node injects baseline + exogenous; an impact is the sum of every
    injection scaled by the total path weight from its node."""
    out_edges: dict[str, list[Edge]] = {}
    for e in model.edges:
        out_edges.setdefault(e.source, []).append(e)

    def total_path_weight(src: str, dst: str) -> float:
        if src == dst:
            return 1.0
        return sum(
            e.weight * total_path_weight(e.target, dst)
            for e in out_edges.get(src, [])
        )

    impacts = {}
    for sink in model.stage_nodes("impacts"):
        total = 0.0
        for node in model.nodes:
            injection = node.baseline + (inputs.get(node.name, 0.0) if node.stage == "inputs" else 0.0)
            total += injection * total_path_weight(node.name, sink.name)
        impacts[sink.name] = total
    return impacts
