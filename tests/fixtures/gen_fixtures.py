"""Regenerate the committed scenario fixtures.

Run from the repository root:

    python tests/fixtures/gen_fixtures.py [OUT_DIR]

OUT_DIR defaults to this file's directory. Outputs are deterministic;
committed files should only change when the fixture definitions below
change.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).parent

THIRD = 1.0 / 3.0

QUESTION_PROBS = [
    [0.05, 0.10, 0.20, 0.35, 0.30],
    [0.10, 0.15, 0.25, 0.30, 0.20],
    [0.05, 0.15, 0.30, 0.30, 0.20],
    [0.20, 0.25, 0.25, 0.20, 0.10],
    [0.15, 0.25, 0.30, 0.20, 0.10],
    [0.10, 0.20, 0.30, 0.25, 0.15],
    [0.05, 0.10, 0.25, 0.35, 0.25],
    [0.10, 0.20, 0.30, 0.25, 0.15],
    [0.05, 0.15, 0.25, 0.35, 0.20],
    [0.05, 0.15, 0.30, 0.30, 0.20],
]


def write_json(out: Path, name: str, doc: dict):
    (out / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def draw_answer(u: float, probs: list[float]) -> int:
    """The first answer level whose cumulative probability exceeds `u`; the
    top level when rounding leaves the sum at or below `u`."""
    acc = 0.0
    for level, p in enumerate(probs, start=1):
        acc += p
        if u < acc:
            return level
    return len(probs)


def make_survey(out: Path):
    """60 seeded respondents answering each question of QUESTION_PROBS on a
    1..5 scale, drawn respondent by respondent."""
    rng = random.Random(20240809)
    lines = ["respondent," + ",".join(f"q{i}" for i in range(1, len(QUESTION_PROBS) + 1))]
    for r in range(60):
        answers = [draw_answer(rng.random(), probs) for probs in QUESTION_PROBS]
        lines.append(f"r{r:04d}," + ",".join(map(str, answers)))
    (out / "survey.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_fig2(out: Path):
    grid = {"start": -20.0, "stop": 20.0, "count": 201}
    write_json(out, "fig2.json", {
        "value_functions": {
            "default": {"kind": "asymmetric", "gain_alpha": 1.0, "loss_beta": 1.0, "loss_lambda": 2.0}
        },
        "layers": [
            {"scope": "I", "value_function": "default", "weight": 0.5},
            {"scope": "community", "value_function": "default", "weight": 0.5},
        ],
        "surface": {"x_n": grid, "x_w": grid},
        "curve": {"layer": "I", "grid": grid},
    })


def make_consensus(out: Path):
    side = [-2.0 + i * (4.0 / 9.0) for i in range(10)]
    probes = [[x, y] for x in side for y in side]
    write_json(out, "consensus.json", {
        "value_functions": {
            "default": {"kind": "asymmetric", "gain_alpha": 1.0, "loss_beta": 1.0, "loss_lambda": 2.0}
        },
        "element_sets": {
            "X_n": {"variables": [{"name": "n1"}, {"name": "n2"}]},
            "X_w": {"variables": [{"name": "w1"}, {"name": "w2"}]},
        },
        "layers": [
            {"scope": "I", "value_function": "default", "weight": 0.5,
             "element_weights": [0.6, 0.4]},
            {"scope": "community", "value_function": "default", "weight": 0.5,
             "element_weights": [0.6, 0.4]},
        ],
        "mapping_f": {
            "source": "X_w", "target": "X_n",
            "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0],
        },
        "consensus": {
            "narrow_layer": "I", "wide_layer": "community",
            "tol": 1e-12, "probes": probes,
        },
    })


def make_pipeline(out: Path):
    row = lambda *vals: list(vals)
    construct_matrix = [
        row(THIRD, THIRD, THIRD, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        row(0.0, 0.0, 0.0, THIRD, THIRD, THIRD, 0.0, 0.0, 0.0, 0.0),
        row(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, THIRD, THIRD, THIRD, 0.0),
    ]
    write_json(out, "pipeline.json", {
        "element_sets": {
            "X_w": {"variables": [
                {"name": "social"}, {"name": "environmental"}, {"name": "economic"},
            ]},
            "X_c": {"variables": [
                {"name": "econ", "unit": "mean disposable income"},
                {"name": "env", "unit": "renewable share"},
                {"name": "social", "unit": "mean connections"},
            ]},
        },
        "survey": {
            "file": "survey.csv",
            "scale": 5,
            "constructs": ["social", "environmental", "economic"],
            "construct_matrix": construct_matrix,
            "target_question": 10,
        },
        "dynamics": {
            "agents": 20, "steps": 6, "seed": 20240809,
            "income_spread": 0.3, "renewable_rate": 0.3,
            "connection_rate": 0.25, "connection_decay": 0.05,
        },
        "sweep": {
            "subsidy": [0.0, 0.25, 0.5],
            "tax": [0.0, 0.1, 0.2],
            "service": [0.0, 0.25, 0.5],
        },
        "weighting_profiles": [
            {"name": "Type A", "mode": "additive", "warn_threshold": 0.2,
             "matrix": [[0.0, 0.0, 0.05], [0.0, 0.05, 0.0], [0.4, 0.0, 0.0]]},
            {"name": "Type B", "mode": "additive", "warn_threshold": 0.2,
             "matrix": [[0.0, 0.0, 0.05], [0.0, 0.4, 0.0], [0.05, 0.0, 0.0]]},
            {"name": "Type C", "mode": "additive", "warn_threshold": 0.2,
             "matrix": [[0.0, 0.0, 0.4], [0.0, 0.05, 0.0], [0.05, 0.0, 0.0]]},
        ],
        "logic_model": {
            "nodes": [
                {"name": "funding", "stage": "inputs", "baseline": 0.0},
                {"name": "staffing", "stage": "inputs", "baseline": 0.0},
                {"name": "outreach", "stage": "activities", "baseline": 0.1},
                {"name": "services", "stage": "outputs", "baseline": 0.2},
                {"name": "participation", "stage": "outcomes", "baseline": 0.05},
                {"name": "cohesion", "stage": "impacts", "baseline": 0.0},
                {"name": "prosperity", "stage": "impacts", "baseline": 0.0},
            ],
            "edges": [
                {"from": "funding", "to": "outreach", "weight": 0.6},
                {"from": "staffing", "to": "outreach", "weight": 0.4},
                {"from": "funding", "to": "services", "weight": 0.5},
                {"from": "outreach", "to": "services", "weight": 0.3},
                {"from": "services", "to": "participation", "weight": 0.7},
                {"from": "outreach", "to": "participation", "weight": 0.2},
                {"from": "participation", "to": "cohesion", "weight": 0.8},
                {"from": "participation", "to": "prosperity", "weight": 0.5},
                {"from": "services", "to": "prosperity", "weight": 0.3},
            ],
            "inputs": {"funding": 1.0, "staffing": 0.5},
            "fact_bindings": {
                "bindings": {"funding": "econ", "outreach": "social"},
                "elements": ["econ", "env", "social"],
                "values": [0.9, 0.3, 0.2],
            },
        },
        "parameter_network": {
            "facts": ["income", "green_energy"],
            "values": ["life_satisfaction", "place_attachment"],
            "edges": [
                {"from": "income", "to": "security", "weight": 0.5},
                {"from": "green_energy", "to": "security", "weight": 0.1},
                {"from": "green_energy", "to": "pride", "weight": 0.6},
                {"from": "security", "to": "life_satisfaction", "weight": 0.7},
                {"from": "pride", "to": "life_satisfaction", "weight": 0.2},
                {"from": "pride", "to": "place_attachment", "weight": 0.8},
            ],
            "deltas": {"income": 0.4, "green_energy": 0.5},
        },
    })


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE
    for make in (make_survey, make_fig2, make_consensus, make_pipeline):
        make(out)
    print("fixtures written to", out)
