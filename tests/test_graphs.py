"""The shared weighted-DAG kernel against reference copies of the loops it
replaced, and the logic model's sort-once contract."""

from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from wepolicy import coupling, graphs, logicmodel
from wepolicy.coupling import NetworkEdge, ParameterNetwork, propagate_network
from wepolicy.errors import MAX_LISTED
from wepolicy.graphs import CycleError, Edge, propagate_linear, topological_order
from wepolicy.logicmodel import (
    BINDABLE_STAGES,
    STAGES,
    FactBinding,
    LogicModel,
    Node,
    couple_facts,
    propagate,
)
from wepolicy.scenario import parse_scenario

weights = st.floats(min_value=-4.0, max_value=4.0)  # includes -0.0


def positions(names, edges):
    """`edges` as the (source, target) position pairs `topological_order` takes."""
    index = {n: i for i, n in enumerate(names)}
    return [(index[src], index[dst]) for src, dst in edges]


# --- reference copies of the previous implementations ----------------------


def reference_topological_order(names, edges):
    """Kahn's algorithm with a list re-sorted by declaration index."""
    index = {n: i for i, n in enumerate(names)}
    indegree = {n: 0 for n in names}
    outgoing = {n: [] for n in names}
    for src, dst in edges:
        outgoing[src].append(dst)
        indegree[dst] += 1

    ready = sorted((n for n in names if indegree[n] == 0), key=index.__getitem__)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        inserted = False
        for dst in outgoing[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
                inserted = True
        if inserted:
            ready.sort(key=index.__getitem__)
    if len(order) != len(names):
        stuck = sorted(set(names) - set(order), key=index.__getitem__)
        listed = ", ".join(stuck[:MAX_LISTED])
        if len(stuck) > MAX_LISTED:
            listed += f", ... ({len(stuck) - MAX_LISTED} more)"
        raise CycleError(f"cycle involving nodes: {listed}")
    return order


def reference_logic_values(model, exogenous):
    order = reference_topological_order(
        [n.name for n in model.nodes], [(e.source, e.target) for e in model.edges]
    )
    incoming = {n.name: [] for n in model.nodes}
    for e in model.edges:
        incoming[e.target].append(e)
    by_name = model.node_map()
    values = {}
    for name in order:
        acc = by_name[name].baseline + exogenous.get(name, 0.0)
        for e in incoming[name]:
            acc += e.weight * values[e.source]
        values[name] = acc
    impacts = {n.name: values[n.name] for n in model.stage_nodes("impacts")}
    return {n.name: values[n.name] for n in model.nodes}, impacts


def reference_couple_facts(model, binding, input_values):
    by_name = model.node_map()
    exogenous = {n.name: 0.0 for n in model.stage_nodes("inputs")}
    for k, v in input_values.items():
        exogenous[k] = v
    for node in binding.bindings:
        value = binding.value_for(node)
        if by_name[node].stage == "inputs":
            exogenous[node] = value
        else:
            exogenous[node] = exogenous.get(node, 0.0) + value
    return reference_logic_values(model, exogenous)[1]


def reference_propagate_network(net, delta_facts):
    facts = set(net.fact_nodes)
    order = reference_topological_order(
        net.node_names(), [(e.source, e.target) for e in net.edges]
    )
    incoming = {n: [] for n in net.node_names()}
    for e in net.edges:
        incoming[e.target].append(e)
    delta = {}
    for node in order:
        if node in facts:
            delta[node] = float(delta_facts.get(node, 0.0))
        else:
            acc = 0.0
            for e in incoming[node]:
                acc += e.weight * delta[e.source]
            delta[node] = acc
    return {name: delta[name] for name in net.value_nodes}


def assert_identical(got: dict, want: dict):
    """Same keys in the same order and the same floats, sign of zero included."""
    assert got == want
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in want.items()]


# --- strategies ---------------------------------------------------------------


@st.composite
def declared_graphs(draw, acyclic: bool):
    """Unique names declared in shuffled order, with edges in shuffled order.

    Acyclic graphs only run from a lower to a higher hidden rank, and a share
    of them declare their names in rank order, so every edge runs forward;
    the others take any pair, self-loops included, so most of them have a
    cycle.
    """
    n = draw(st.integers(1, 12))
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    edges = []
    for a, b in pairs:
        if acyclic:
            if a == b:
                continue
            if rank[a] > rank[b]:
                a, b = b, a
        edges.append((f"n{a}", f"n{b}"))
    if acyclic and draw(st.booleans()):
        names = [f"n{i}" for i in sorted(range(n), key=rank.__getitem__)]
    else:
        names = draw(st.permutations([f"n{i}" for i in range(n)]))
    return list(names), edges


@st.composite
def logic_models(draw):
    """A valid staged model, declared in shuffled order, with its inputs."""
    n = draw(st.integers(2, 10))
    stage_of = sorted(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    stage_of[0], stage_of[-1] = 0, 4
    nodes = [Node(f"n{i}", STAGES[s], draw(weights)) for i, s in enumerate(stage_of)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))
    edges = [Edge(f"n{min(a, b)}", f"n{max(a, b)}", draw(weights)) for a, b in pairs if a != b]
    model = LogicModel(
        nodes=tuple(draw(st.permutations(nodes))), edges=tuple(draw(st.permutations(edges)))
    )
    inputs = {node.name: draw(weights) for node in model.stage_nodes("inputs")}
    return model, inputs


@st.composite
def parameter_networks(draw):
    """Facts first in a hidden rank; edges only run forward into non-facts."""
    n = draw(st.integers(2, 12))
    n_facts = draw(st.integers(1, n - 1))
    names = [f"n{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    edges = [
        NetworkEdge(names[min(a, b)], names[max(a, b)], draw(weights))
        for a, b in pairs
        if a != b and max(a, b) >= n_facts
    ]
    facts = draw(st.permutations(names[:n_facts]))
    values = draw(st.lists(st.sampled_from(names[n_facts:]), unique=True, min_size=1))
    net = ParameterNetwork(
        fact_nodes=tuple(facts), value_nodes=tuple(values),
        edges=tuple(draw(st.permutations(edges))),
    )
    deltas = draw(st.dictionaries(st.sampled_from(names[:n_facts]), weights))
    return net, deltas


# --- properties -----------------------------------------------------------------


class TestTopologicalOrder:
    @given(declared_graphs(acyclic=True))
    def test_heap_order_matches_reference_on_dags(self, graph):
        names, edges = graph
        want = reference_topological_order(names, edges)
        assert topological_order(names, positions(names, edges)) == want

    @given(declared_graphs(acyclic=False))
    @example(([f"n{i}" for i in range(11)], [(f"n{i}", f"n{(i + 1) % 11}") for i in range(11)]))
    @example((["n0", "n1"], [("n0", "n1"), ("n1", "n1")]))  # forward but for a self-loop
    def test_cycle_text_matches_reference(self, graph):
        names, edges = graph
        try:
            want = reference_topological_order(names, edges)
        except CycleError as err:
            with pytest.raises(CycleError) as got:
                topological_order(names, positions(names, edges))
            assert str(got.value) == str(err)
        else:
            assert topological_order(names, positions(names, edges)) == want

    def test_ties_broken_by_declaration_index(self):
        names = ["c", "a", "b"]
        assert topological_order(names, positions(names, [("c", "b")])) == ["c", "a", "b"]
        names = ["b", "a"]
        assert topological_order(names, positions(names, [("a", "b")])) == ["a", "b"]


class TestPropagateLinear:
    def test_base_plus_weighted_upstream(self):
        edges = (Edge("a", "c", 2.0), Edge("b", "c", -1.0))
        values = propagate_linear(["a", "b", "c"], edges, {"a": 1.0, "b": 3.0, "c": 0.5})
        assert values == {"a": 1.0, "b": 3.0, "c": 0.5 + 2.0 - 3.0}

    def test_absent_base_is_zero(self):
        assert propagate_linear(["a", "b"], (Edge("a", "b", 0.5),), {"a": 4.0}) == {
            "a": 4.0, "b": 2.0,
        }

    def test_overflow_names_the_first_non_finite_node(self):
        edges = (Edge("a", "b", 1e308), Edge("b", "c", 1.0), Edge("a", "d", 1.0))
        with pytest.raises(FloatingPointError, match="value of node 'b' is not finite: inf"):
            propagate_linear(["a", "b", "c", "d"], edges, {"a": 1e10})

    def test_nan_from_opposite_infinities_is_caught(self):
        edges = (Edge("a", "c", 1e308), Edge("b", "c", -1e308), Edge("c", "d", 1.0))
        with pytest.raises(FloatingPointError, match="value of node 'c' is not finite"):
            propagate_linear(["a", "b", "c", "d"], edges, {"a": 1e10, "b": -1e10})

    @given(logic_models())
    def test_propagate_matches_reference(self, case):
        model, inputs = case
        values, impacts = propagate(model, inputs)
        want_values, want_impacts = reference_logic_values(model, inputs)
        assert_identical(values, want_values)
        assert_identical(impacts, want_impacts)

    @given(logic_models(), st.data())
    def test_couple_facts_matches_reference(self, case, data):
        model, inputs = case
        bindable = [n.name for n in model.nodes if n.stage in BINDABLE_STAGES]
        bound = data.draw(st.lists(st.sampled_from(bindable), unique=True))
        binding = FactBinding(
            bindings={node: f"e{i}" for i, node in enumerate(bound)},
            elements=tuple(f"e{i}" for i in range(len(bound))),
            values=tuple(data.draw(weights) for _ in bound),
        )
        given_inputs = data.draw(st.sampled_from([inputs, {}]))
        assert_identical(
            couple_facts(model, binding, given_inputs),
            reference_couple_facts(model, binding, given_inputs),
        )

    @given(parameter_networks())
    def test_propagate_network_matches_reference(self, case):
        net, deltas = case
        assert_identical(propagate_network(net, deltas), reference_propagate_network(net, deltas))


class TestParameterNetworkNames:
    @given(parameter_networks())
    def test_facts_then_values_then_other_endpoints(self, case):
        net, _ = case
        seen = dict.fromkeys(net.fact_nodes)
        seen.update(dict.fromkeys(net.value_nodes))
        for e in net.edges:
            seen.setdefault(e.source)
            seen.setdefault(e.target)
        assert net.node_names() == tuple(seen)


class TestOneEdgeType:
    def test_public_edge_names_are_one_class(self):
        assert logicmodel.Edge is graphs.Edge
        assert coupling.NetworkEdge is graphs.Edge


class TestLogicModelSortedOnce:
    def test_propagate_and_couple_facts_do_not_sort_or_validate_again(self, monkeypatch):
        sorts = []

        def counting_order(names, edges):
            sorts.append(len(names))
            return topological_order(names, edges)

        def no_validate(model):
            raise AssertionError("validate called after the model was built")

        monkeypatch.setattr(logicmodel, "topological_order", counting_order)
        model = LogicModel(
            nodes=(Node("fund", "inputs"), Node("act", "activities"), Node("impact", "impacts")),
            edges=(Edge("fund", "act", 0.5), Edge("act", "impact", 2.0)),
        )
        assert sorts == [3]

        monkeypatch.setattr(logicmodel, "validate", no_validate)
        _, impacts = propagate(model, {"fund": 1.0})
        binding = FactBinding(bindings={"act": "econ"}, elements=("econ",), values=(0.25,))
        coupled = couple_facts(model, binding, {"fund": 1.0})
        assert impacts == {"impact": 1.0}
        assert coupled == {"impact": 1.5}
        assert sorts == [3]

    def test_duplicate_names_skip_the_sort_and_keep_their_findings(self, monkeypatch):
        def no_sort(names, edges):
            raise AssertionError("a model with duplicate names was sorted")

        monkeypatch.setattr(logicmodel, "topological_order", no_sort)
        model = LogicModel(nodes=(Node("a", "inputs"), Node("a", "impacts")), edges=())
        assert logicmodel.validate(model) == ["duplicate node names: a"]
        with pytest.raises(ValueError, match="duplicate"):
            propagate(model, {"a": 1.0})


class TestForwardDeclaredOrder:
    """The declaration order is returned without the heap exactly when every
    edge runs to a later-declared node."""

    def test_stage_ordered_logic_model_skips_the_heap(self, monkeypatch):
        class NoHeap:
            def __getattr__(self, name):
                raise AssertionError(f"heapq.{name} used on a forward-declared graph")

        monkeypatch.setattr(graphs, "heapq", NoHeap())
        stages = [[f"{stage}{i}" for i in range(3)] for stage in STAGES]
        doc = {"logic_model": {
            "nodes": [{"name": n, "stage": stage} for stage, names in zip(STAGES, stages)
                      for n in names],
            "edges": [{"from": src, "to": dst, "weight": 0.5}
                      for prev, cur in zip(stages, stages[1:]) for src in prev for dst in cur]
            + [{"from": "inputs0", "to": "inputs2", "weight": 1.0}],
            "inputs": dict.fromkeys(stages[0], 1.0),
        }}
        sc = parse_scenario(doc, Path("."))
        assert sc.errors == []
        assert sc.logic_model._order == tuple(n for names in stages for n in names)

    def test_values_before_intermediates_sort_through_the_heap(self, monkeypatch):
        pops, heappop = [], graphs.heapq.heappop
        monkeypatch.setattr(graphs.heapq, "heappop",
                            lambda heap: pops.append(heap[0]) or heappop(heap))
        net = ParameterNetwork(("fact",), ("value",), (Edge("fact", "mid", 1.0),
                                                       Edge("mid", "value", 2.0)))
        assert net.node_names() == ("fact", "value", "mid")
        assert net._order == ("fact", "mid", "value")
        assert pops == [0, 2, 1]
