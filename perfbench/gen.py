"""Seeded generator for the scaled benchmark scenarios.

Uses only the standard library and imports nothing from `wepolicy`, so the
inputs a seed produces cannot change when the code under test changes.
Each workload writes `scenario.json` (and `survey.csv` where it has a
survey) into a directory and returns its input sizes.

    python3 perfbench/gen.py policy-wide 7 /some/dir
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

SURVEY_SCALE = 5
SURVEY_QUESTIONS = 10
CONSTRUCTS = ("social", "environmental", "economic")
FACTS = ("econ", "env", "social")

# The three weighting profiles of the committed pipeline fixture.
FIXTURE_PROFILES = (
    ("Type A", [[0.0, 0.0, 0.05], [0.0, 0.05, 0.0], [0.4, 0.0, 0.0]]),
    ("Type B", [[0.0, 0.0, 0.05], [0.0, 0.4, 0.0], [0.05, 0.0, 0.0]]),
    ("Type C", [[0.0, 0.0, 0.4], [0.0, 0.05, 0.0], [0.05, 0.0, 0.0]]),
)

POLICY_SIZES = {
    # agents, steps, grid points per knob, respondents, profiles
    "policy-deep": (1000, 60, 5, 2000, 3),
    "policy-wide": (4, 3, 25, 20000, 6),
}

DAG_STAGES = ("inputs", "activities", "outputs", "outcomes", "impacts")
DAG_STAGE_NODES = 800
DAG_FAN_IN = 3
DAG_BINDINGS = 400
DAG_FACT_ELEMENTS = 20
NETWORK_LAYERS = 5
NETWORK_LAYER_NODES = 800
NETWORK_FAN_IN = 3


def _grid(points: int, stop: float) -> list[float]:
    return [stop * i / (points - 1) for i in range(points)]


def _survey_csv(rng: random.Random, respondents: int) -> str:
    """Answers drawn per question from a seeded distribution over [1..L];
    the rating question leans on the construct questions so the fit has
    signal."""
    lines = ["respondent," + ",".join(f"q{i}" for i in range(1, SURVEY_QUESTIONS + 1))]
    centers = [rng.uniform(2.0, 4.0) for _ in range(SURVEY_QUESTIONS - 1)]
    for r in range(respondents):
        answers = [
            min(SURVEY_SCALE, max(1, round(rng.gauss(c, 1.0)))) for c in centers
        ]
        mood = sum(answers) / len(answers) + rng.gauss(0.0, 0.7)
        answers.append(min(SURVEY_SCALE, max(1, round(mood))))
        lines.append(f"r{r:05d}," + ",".join(str(a) for a in answers))
    return "\n".join(lines) + "\n"


def _policy(workload: str, rng: random.Random, out: Path) -> dict:
    agents, steps, points, respondents, n_profiles = POLICY_SIZES[workload]
    third = 1.0 / 3.0
    construct_matrix = [
        [third if q // 3 == c else 0.0 for q in range(SURVEY_QUESTIONS)]
        for c in range(len(CONSTRUCTS))
    ]
    if n_profiles == len(FIXTURE_PROFILES):
        profiles = [
            {"name": name, "mode": "additive", "warn_threshold": 0.2, "matrix": m}
            for name, m in FIXTURE_PROFILES
        ]
    else:
        profiles = [
            {
                "name": f"P{i}",
                "mode": "additive" if i % 2 == 0 else "multiplicative",
                "warn_threshold": 0.2,
                "matrix": [[round(rng.uniform(0.0, 0.4), 3) for _ in FACTS] for _ in CONSTRUCTS],
            }
            for i in range(n_profiles)
        ]
    tax_top = 0.5
    doc = {
        "element_sets": {
            "X_w": {"variables": [{"name": c} for c in CONSTRUCTS]},
            "X_c": {"variables": [{"name": f} for f in FACTS]},
        },
        "survey": {
            "file": "survey.csv",
            "scale": SURVEY_SCALE,
            "constructs": list(CONSTRUCTS),
            "construct_matrix": construct_matrix,
            "target_question": SURVEY_QUESTIONS,
        },
        "dynamics": {
            "agents": agents,
            "steps": steps,
            "seed": rng.randrange(1, 2**31),
            "income_spread": round(rng.uniform(0.1, 0.5), 3),
            "renewable_rate": round(rng.uniform(0.1, 0.4), 3),
            "connection_rate": round(rng.uniform(0.1, 0.3), 3),
            "connection_decay": round(rng.uniform(0.01, 0.08), 3),
        },
        # s + v <= 1 holds exactly on these grids for 15 of 25 (5 points)
        # or 325 of 625 (25 points) subsidy/service pairs.
        "sweep": {
            "subsidy": _grid(points, 1.0),
            "tax": _grid(points, tax_top),
            "service": _grid(points, 1.0),
        },
        "weighting_profiles": profiles,
    }
    (out / "survey.csv").write_text(_survey_csv(rng, respondents), encoding="utf-8")
    _write(out, doc)
    pairs = sum(1 for s in doc["sweep"]["subsidy"] for v in doc["sweep"]["service"] if s + v <= 1.0)
    rows = pairs * points
    return {
        "rows": rows,
        "skipped": points**3 - rows,
        "agent_steps": rows * agents * steps,
        "respondents": respondents,
        "profiles": n_profiles,
    }


def _logic_model(rng: random.Random) -> dict:
    stages = [
        [f"{stage}{i:04d}" for i in range(DAG_STAGE_NODES)] for stage in DAG_STAGES
    ]
    nodes = [
        {"name": name, "stage": stage, "baseline": round(rng.uniform(-0.1, 0.1), 4)}
        for stage, names in zip(DAG_STAGES, stages)
        for name in names
    ]
    edges = [
        {"from": src, "to": dst, "weight": round(rng.uniform(-0.6, 0.6), 4)}
        for prev, cur in zip(stages, stages[1:])
        for dst in cur
        for src in rng.sample(prev, DAG_FAN_IN)
    ]
    elements = [f"f{i:02d}" for i in range(DAG_FACT_ELEMENTS)]
    left = [name for names in stages[:3] for name in names]
    return {
        "nodes": nodes,
        "edges": edges,
        "inputs": {name: round(rng.uniform(0.0, 1.0), 4) for name in stages[0]},
        "fact_bindings": {
            "bindings": {node: rng.choice(elements) for node in rng.sample(left, DAG_BINDINGS)},
            "elements": elements,
            "values": [round(rng.uniform(-0.5, 0.5), 4) for _ in elements],
        },
    }


def _parameter_network(rng: random.Random) -> dict:
    layers = [
        [f"n{layer}_{i:04d}" for i in range(NETWORK_LAYER_NODES)]
        for layer in range(NETWORK_LAYERS)
    ]
    return {
        "facts": layers[0],
        "values": layers[-1],
        "edges": [
            {"from": src, "to": dst, "weight": round(rng.uniform(-0.6, 0.6), 4)}
            for prev, cur in zip(layers, layers[1:])
            for dst in cur
            for src in rng.sample(prev, NETWORK_FAN_IN)
        ],
        "deltas": {name: round(rng.uniform(-1.0, 1.0), 4) for name in layers[0][::2]},
    }


def _impact(rng: random.Random, out: Path) -> dict:
    doc = {"logic_model": _logic_model(rng), "parameter_network": _parameter_network(rng)}
    _write(out, doc)
    return {
        "nodes": len(doc["logic_model"]["nodes"]),
        "edges": len(doc["logic_model"]["edges"]),
        "bindings": DAG_BINDINGS,
        "network_nodes": NETWORK_LAYERS * NETWORK_LAYER_NODES,
        "network_edges": len(doc["parameter_network"]["edges"]),
    }


def _write(out: Path, doc: dict) -> None:
    (out / "scenario.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs for `seed` into `out`; return their sizes."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in POLICY_SIZES:
        return _policy(workload, rng, out)
    if workload == "impact-large":
        return _impact(rng, out)
    raise ValueError(f"no generated inputs for workload {workload!r}")


if __name__ == "__main__":
    name, seed_arg, out_arg = sys.argv[1:]
    target = Path(out_arg)
    target.mkdir(parents=True, exist_ok=True)
    print(json.dumps(generate(name, int(seed_arg), target)))
