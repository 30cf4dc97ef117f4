"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n (<label>): PASS|FAIL` line (visible with
`pytest -s` or in failure output), so the gate doubles as a checklist.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from wepolicy.cli import run as cli_run
from wepolicy.coupling import (
    FactCoupling,
    NetworkEdge,
    ParameterNetwork,
    ScopeFunction,
    apply_fact_coupling,
    apply_map,
    check_consensus,
    propagate_network,
)
from wepolicy.errors import RankDeficiencyError
from wepolicy.evaluator import WeightingProfile, evaluate_policies, select_best
from wepolicy.logicmodel import Edge, LogicModel, Node, propagate, validate
from wepolicy.policy_sim import DynamicsConfig, PolicyKnobs, SweepRow, SweepTable, run_policy, run_sweep
from wepolicy.scenario import load_scenario
from wepolicy.survey import RegressionModel, fit_target, predict
from wepolicy.valuefn import AsymmetricSpec, asymmetric_derivative, evaluate_asymmetric
from wepolicy.we_model import WELayer, WellbeingModel, aggregate, sample_surface, weighted_pair


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_surface_reproduction():
    with criterion(1, "two-scope surface reproduction"):
        grid201 = [-20.0 + i * 0.2 for i in range(201)]
        for r in (0.2, 0.5, 0.8):
            model = weighted_pair(r)
            rows = sample_surface(model, [-20.0, 20.0], [-20.0, 20.0])
            by_point = {(xn, xw): w for xn, xw, w in rows}
            assert abs(by_point[(20.0, 20.0)] - 1.0) <= 1e-6
            assert abs(by_point[(-20.0, -20.0)] + 2.0) <= 1e-6

        point = sample_surface(weighted_pair(0.8), [2.0], [-2.0])[0]
        closed_form = 0.8 * (1.0 - math.exp(-2.0)) - 0.2 * 2.0 * (1.0 - math.exp(-2.0))
        assert abs(point[2] - closed_form) <= 1e-12

        start = time.perf_counter()
        rows = sample_surface(weighted_pair(0.5), grid201, grid201)
        elapsed = time.perf_counter() - start
        assert len(rows) == 201 * 201
        assert elapsed < 1.0, f"201x201 surface took {elapsed:.3f}s"


def test_criterion_2_consensus_collapse(fixtures_dir):
    with criterion(2, "consensus collapse and mismatch detection"):
        sc, _ = load_scenario(fixtures_dir / "consensus.json")
        narrow_layer = sc.layer_by_label(sc.consensus.narrow_label)
        wide_layer = sc.layer_by_label(sc.consensus.wide_label)
        narrow_fn = ScopeFunction(tuple(narrow_layer.element_weights), narrow_layer.value_function)
        wide_fn = ScopeFunction(tuple(wide_layer.element_weights), wide_layer.value_function)
        probes = sc.consensus.probes
        assert len(probes) == 100

        for probe in probes:
            x_n = apply_map(sc.mapping_f, probe)
            n_scalar = sum(w * v for w, v in zip(narrow_layer.element_weights, x_n))
            w_scalar = sum(w * v for w, v in zip(wide_layer.element_weights, probe))
            target = wide_layer.value_function(w_scalar)
            for r in (0.0, 0.25, 0.5, 0.75, 1.0):
                model = WellbeingModel(layers=(
                    WELayer(**dict(narrow_layer._asdict(), weight=r)),
                    WELayer(**dict(wide_layer._asdict(), weight=1.0 - r)),
                ))
                got = aggregate(model, {
                    narrow_layer.scope.label: n_scalar,
                    wide_layer.scope.label: w_scalar,
                })
                assert abs(got - target) <= 1e-12

        shifted = lambda v: wide_fn(v) + 0.1
        report = check_consensus(narrow_fn, sc.mapping_f, shifted, probes, tol=1e-9)
        assert report.holds is False
        assert abs(report.max_deviation - 0.1) <= 1e-9


def test_criterion_3_value_function_properties():
    with criterion(3, "value-function property suite"):
        spec = AsymmetricSpec(1.0, 1.0, 2.0)
        rng = random.Random(20240809)

        xs = sorted(rng.uniform(-20.0, 20.0) for _ in range(1000))
        values = [evaluate_asymmetric(spec, x) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))

        lam = spec.loss_lambda
        for _ in range(1000):
            x = rng.uniform(1e-6, 20.0)
            assert abs(abs(evaluate_asymmetric(spec, -x)) - lam * evaluate_asymmetric(spec, x)) <= 1e-12

        h = 1e-6
        for _ in range(200):
            x = rng.uniform(0.1, 8.0) * rng.choice((-1.0, 1.0))
            fd = (evaluate_asymmetric(spec, x + h) - evaluate_asymmetric(spec, x - h)) / (2 * h)
            analytic = asymmetric_derivative(spec, x)
            assert abs(fd - analytic) / abs(analytic) <= 1e-5


def test_criterion_4_regression_recovery():
    with criterion(4, "regression recovery and rank guard"):
        rng = random.Random(7)
        design = [[1.0, rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(40)]
        y = [1.0 + 2.0 * r[1] + 3.0 * r[2] for r in design]
        model = fit_target(design, y, column_names=("x1", "x2"))
        assert abs(model.intercept - 1.0) <= 1e-8
        assert abs(model.coefficients[0] - 2.0) <= 1e-8
        assert abs(model.coefficients[1] - 3.0) <= 1e-8
        assert model.r_squared == 1.0

        import numpy as np
        X = np.asarray(design)
        resid = np.asarray(model.residuals)
        assert float(np.max(np.abs(X.T @ resid))) <= 1e-8

        collinear = [[1.0, v, v] for v in (0.0, 1.0, 2.0, 3.0)]
        with pytest.raises(RankDeficiencyError):
            fit_target(collinear, [0.0, 1.0, 2.0, 3.0])


def _desk_scale_sweep():
    cfg = DynamicsConfig(agents=1, steps=1, seed=1, income_spread=0.0,
                         renewable_rate=0.5, connection_rate=0.4, connection_decay=0.05)
    subsidies = [i * 0.5 / 19 for i in range(20)]
    taxes = [i * 0.5 / 19 for i in range(20)]
    services = [i * 0.5 / 24 for i in range(25)]
    table = run_sweep(cfg, subsidies, taxes, services)
    assert len(table.rows) == 10_000
    assert table.skipped == ()
    return table


def _selection_target():
    # deliberately generic constants: the knob grid is a rational lattice,
    # and degenerate coefficients invite bit-level dot-product collisions
    # between distinct indicator vectors
    points = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
        (1.0, 1.0, 1.0), (0.5, 0.25, 0.75),
    ]
    design = [[1.0, *p] for p in points]
    coeffs = (0.8234171, 0.5127343, 0.3089261)
    y = [0.1173 + sum(c * v for c, v in zip(coeffs, p)) for p in points]
    return fit_target(design, y, column_names=("c1", "c2", "c3"))


def test_criterion_5_selection_oracle():
    with criterion(5, "selection matches brute force at desk scale"):
        table = _desk_scale_sweep()
        target = _selection_target()
        baseline = (0.0513, 0.0, -0.0487)
        profile = WeightingProfile("desk", FactCoupling("additive", (
            (0.3117, 0.0, 0.1093), (0.0, 0.3071, 0.0), (0.1129, 0.0, 0.3217),
        )))

        ranked = evaluate_policies(target, baseline, profile, table)

        best_id, best_w = None, None
        for row in table.rows:
            w = predict(target, apply_fact_coupling(profile.coupling, baseline,
                                                    row.indicators).x_w_prime)
            if best_w is None or w > best_w or (w == best_w and row.policy_id < best_id):
                best_id, best_w = row.policy_id, w
        assert select_best(ranked) == best_id

        # constructed exact tie resolves to the smallest policy id
        knobs = PolicyKnobs(0.1, 0.1, 0.1)
        tie_rows = [(0.2, 0.0, 0.0), (0.1, 0.0, 0.0), (0.3, 0.0, 0.0), (0.9, 0.0, 0.0),
                    (0.4, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.9, 0.0, 0.0)]
        tie_table = SweepTable(rows=tuple(
            SweepRow(i, knobs, ind) for i, ind in enumerate(tie_rows)
        ))
        tie_ranked = evaluate_policies(target, baseline, profile, tie_table)
        assert [r.policy_id for r in tie_ranked.rows[:2]] == [3, 7]
        assert select_best(tie_ranked) == 3

        scaled = RegressionModel(**dict(
            target._asdict(), intercept=7.3 * target.intercept,
            coefficients=tuple(7.3 * c for c in target.coefficients)))
        scaled_ranked = evaluate_policies(scaled, baseline, profile, table)
        assert [r.policy_id for r in ranked.rows] == [r.policy_id for r in scaled_ranked.rows]


def test_criterion_6_simulator_determinism(fixtures_dir, tmp_path, capsys):
    with criterion(6, "simulator hand-check, determinism, monotone probes"):
        cfg = DynamicsConfig(agents=1, steps=1, seed=123, income_spread=0.0,
                             renewable_rate=0.1, connection_rate=0.1, connection_decay=0.05)
        knobs = PolicyKnobs(subsidy=0.5, tax=0.2, service=0.5)
        econ, env, soc = run_policy(cfg, knobs)

        # independent hand-stepping of the stated recurrence, bit for bit
        pool = 0.2 * 1.0
        rho = min(1.0, 0.0 + 0.1 * 0.5 * pool / 1)
        d = 1.0 * (1.0 - 0.2) + 0.5 * pool / 1
        c = max(0.0, 0.0 + 0.1 * 0.5 - 0.05)
        assert (econ, env, soc) == (d / 1, 1.0 - 1.0 * (1.0 - rho), c / 1)
        # decimal targets; econ and social land exactly, env carries one
        # rounding step of the recurrence (see ledger analysis)
        assert econ == 0.9
        assert abs(env - 0.01) <= 1e-15
        assert soc == 0.0

        # two CLI sweep runs over the 27-row fixture: byte-identical CSVs
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli_run("sweep", str(fixtures_dir / "pipeline.json"), str(out1)) == 0
        assert cli_run("sweep", str(fixtures_dir / "pipeline.json"), str(out2)) == 0
        capsys.readouterr()
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "ternary.csv").read_bytes() == (out2 / "ternary.csv").read_bytes()

        # monotone probes over a 5x5x5 grid at zero spread
        probe_cfg = DynamicsConfig(agents=3, steps=4, seed=9, income_spread=0.0,
                                   renewable_rate=0.4, connection_rate=0.3,
                                   connection_decay=0.05)
        ss = [0.0, 0.25, 0.5, 0.75, 1.0]
        ts = [0.0, 0.125, 0.25, 0.375, 0.5]
        vs = [0.0, 0.25, 0.5, 0.75, 1.0]
        table = run_sweep(probe_cfg, ss, ts, vs)
        rows = {(r.knobs.subsidy, r.knobs.tax, r.knobs.service): r.indicators
                for r in table.rows}
        for t in ts:
            for v in vs:
                env_line = [rows[(s, t, v)][1] for s in ss if (s, t, v) in rows]
                assert all(a <= b for a, b in zip(env_line, env_line[1:]))
        for s in ss:
            for v in vs:
                econ_line = [rows[(s, t, v)][0] for t in ts if (s, t, v) in rows]
                assert all(a >= b for a, b in zip(econ_line, econ_line[1:]))


STAGES = ("inputs", "activities", "outputs", "outcomes", "impacts")


def _random_dag(rng: random.Random, max_nodes: int):
    n = rng.randint(5, max_nodes)
    stage_of = sorted(rng.choices(range(5), k=n))
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
    inputs = {nd.name: rng.uniform(-1.0, 1.0) for nd in nodes if nd.stage == "inputs"}
    return model, inputs


def _impact_path_sum(model: LogicModel, inputs) -> dict[str, float]:
    out_edges: dict[str, list[Edge]] = {}
    for e in model.edges:
        out_edges.setdefault(e.source, []).append(e)

    def weight_to(src: str, dst: str) -> float:
        if src == dst:
            return 1.0
        return sum(e.weight * weight_to(e.target, dst) for e in out_edges.get(src, []))

    result = {}
    for sink in model.stage_nodes("impacts"):
        total = 0.0
        for node in model.nodes:
            injected = node.baseline + (
                inputs.get(node.name, 0.0) if node.stage == "inputs" else 0.0
            )
            total += injected * weight_to(node.name, sink.name)
        result[sink.name] = total
    return result


def test_criterion_7_logicmodel_oracle():
    with criterion(7, "logic model path-sum oracle and rejection"):
        diamond = LogicModel(
            nodes=(Node("in", "inputs"), Node("a", "activities"),
                   Node("b", "activities"), Node("out", "impacts")),
            edges=(Edge("in", "a", 0.5), Edge("in", "b", 0.5),
                   Edge("a", "out", 1.0), Edge("b", "out", 1.0)),
        )
        _, impacts = propagate(diamond, {"in": 1.0})
        assert impacts["out"] == 1.0

        rng = random.Random(42)
        for _ in range(50):
            model, inputs = _random_dag(rng, max_nodes=12)
            _, impacts = propagate(model, inputs)
            oracle = _impact_path_sum(model, inputs)
            for name, value in impacts.items():
                assert abs(value - oracle[name]) <= 1e-12

        cyclic = LogicModel(
            nodes=(Node("a", "activities"), Node("b", "activities"), Node("z", "impacts")),
            edges=(Edge("a", "b", 1.0), Edge("b", "a", 1.0), Edge("b", "z", 1.0)),
        )
        assert any("cycle" in f for f in validate(cyclic))
        backwards = LogicModel(
            nodes=(Node("a", "inputs"), Node("z", "impacts")),
            edges=(Edge("z", "a", 1.0),),
        )
        assert any("backwards" in f for f in validate(backwards))
        with pytest.raises(ValueError):
            propagate(cyclic, {})


def _layered_network(rng: random.Random, widths):
    layers = [[f"n{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
    edges = []
    matrices = []
    for upper, lower in zip(layers, layers[1:]):
        matrix = [[rng.uniform(-1.0, 1.0) for _ in upper] for _ in lower]
        matrices.append(matrix)
        for si, src in enumerate(upper):
            for di, dst in enumerate(lower):
                edges.append(NetworkEdge(src, dst, matrix[di][si]))
    net = ParameterNetwork(
        fact_nodes=tuple(layers[0]), value_nodes=tuple(layers[-1]), edges=tuple(edges)
    )
    return net, matrices


def test_criterion_8_network_linearity():
    with criterion(8, "network superposition and matrix-product oracle"):
        rng = random.Random(11)
        for widths in ((2, 3, 2), (3, 4, 3, 2), (4, 4, 4)):
            net, matrices = _layered_network(rng, widths)
            d1 = {f: rng.uniform(-2, 2) for f in net.fact_nodes}
            d2 = {f: rng.uniform(-2, 2) for f in net.fact_nodes}
            a, b = 1.3, -0.7
            combo = {f: a * d1[f] + b * d2[f] for f in net.fact_nodes}
            left = propagate_network(net, combo)
            r1, r2 = propagate_network(net, d1), propagate_network(net, d2)
            for v in net.value_nodes:
                assert abs(left[v] - (a * r1[v] + b * r2[v])) <= 1e-12

            # chained per-layer matrix products are the independent oracle
            vec = [d1[f] for f in net.fact_nodes]
            for matrix in matrices:
                vec = [sum(w * x for w, x in zip(row, vec)) for row in matrix]
            got = propagate_network(net, d1)
            for value, expected in zip(net.value_nodes, vec):
                assert abs(got[value] - expected) <= 1e-12


def test_criterion_9_end_to_end_goldens(fixtures_dir, goldens_dir, tmp_path, capsys):
    with criterion(9, "pipeline reproduces committed goldens"):
        scenario = str(fixtures_dir / "pipeline.json")
        started = time.perf_counter()
        for command in ("fit", "sweep", "select", "impact", "network"):
            out = tmp_path / command
            assert cli_run(command, scenario, str(out)) == 0
        elapsed = time.perf_counter() - started
        capsys.readouterr()
        assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"

        mismatches = []
        golden_files = sorted(
            p for p in goldens_dir.rglob("*")
            if p.is_file() and p.suffix in (".json", ".csv")
        )
        assert golden_files, "no committed goldens found"
        for golden in golden_files:
            rel = golden.relative_to(goldens_dir)
            fresh = tmp_path / rel
            if not fresh.exists():
                mismatches.append(f"{rel}: missing from fresh run")
            elif fresh.read_bytes() != golden.read_bytes():
                mismatches.append(f"{rel}: bytes differ")
        assert not mismatches, "; ".join(mismatches)
