"""In-process layer tracing for the benchmark's traced run.

Spans are recorded around the public functions that `wepolicy.cli` and the
library resolve at module level (for example `cli.run_sweep`,
`policy_sim.run_policy`, `evaluator.apply_fact_coupling`). The wrappers are
installed by replacing those module attributes and are restored afterwards,
so nothing under `src/` is edited. Each span records its name, start, end,
parent span and job id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> busy-time metric. Several wrapped functions can feed one span.
SPAN_METRICS = {
    "scenario.load": "scenario.load_s",
    "scenario.validate": "scenario.validate_s",
    "survey.read": "survey.read_s",
    "survey.aggregate": "survey.aggregate_s",
    "survey.fit": "survey.fit_s",
    "policy_sim.sweep": "policy_sim.sweep_s",
    "policy_sim.run_policy": "policy_sim.run_policy_s",
    "policy_sim.ternary": "policy_sim.ternary_s",
    "evaluator.evaluate": "evaluator.evaluate_s",
    "coupling.fact_coupling": "coupling.fact_coupling_s",
    "coupling.consensus": "coupling.consensus_s",
    "coupling.network": "coupling.network_s",
    "we_model.surface": "we_model.surface_s",
    "we_model.curve": "we_model.curve_s",
    "logicmodel.propagate": "logicmodel.propagate_s",
    "logicmodel.couple_facts": "logicmodel.couple_facts_s",
    "logicmodel.validate": "logicmodel.validate_s",
    "graphs.topo": "graphs.topo_s",
    "serialize.csv": "serialize.csv_s",
    "serialize.json": "serialize.json_s",
}

# Spans whose self time (duration minus child spans) is reported.
SELF_METRICS = {"cli.run": "cli.self_s", "evaluator.evaluate": "evaluator.self_s"}

# Spans whose number is reported as a call count.
CALL_METRICS = {
    "coupling.fact_coupling": "coupling.fact_coupling_calls",
    "logicmodel.validate": "logicmodel.validate_calls",
    "graphs.topo": "graphs.topo_calls",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_scenario(c, a, k, r):
    c["scenario.bytes"] += Path(a[0]).stat().st_size


def _count_survey(c, a, k, r):
    c["survey.respondents"] += len(r[0])


def _count_sweep(c, a, k, r):
    cfg = a[0]
    c["policy_sim.rows"] += len(r.rows)
    c["policy_sim.skipped"] += len(r.skipped)
    c["policy_sim.agent_steps"] += len(r.rows) * cfg.agents * cfg.steps


def _count_evaluate(c, a, k, r):
    c["evaluator.rows_scored"] += len(_arg(a, k, 3, "sweep").rows)
    c["evaluator.warned_rows"] += r.perturbation_warnings


def _count_consensus(c, a, k, r):
    probes = len(_arg(a, k, 3, "probe_grid"))
    c["coupling.probes"] += probes
    c["valuefn.evals"] += 2 * probes  # narrow and wide curve once per probe


def _count_network(c, a, k, r):
    c["coupling.network_nodes"] += len(a[0].node_names())


def _count_surface(c, a, k, r):
    c["we_model.cells"] += len(r)
    c["valuefn.evals"] += len(a[1]) + len(r)  # narrow once per row, wide per cell


def _count_curve(c, a, k, r):
    c["we_model.cells"] += len(r)
    c["valuefn.evals"] += len(r)


def _count_propagate(c, a, k, r):
    c["logicmodel.nodes"] += len(a[0].nodes)
    c["logicmodel.edges"] += len(a[0].edges)


def _count_table(c, a, k, r):
    c["serialize.cells"] += len(a[0]) * len(a[1])


def _targets():
    """(module, attribute, span name, counter) for every wrapped function."""
    from wepolicy import cli, coupling, evaluator, logicmodel, policy_sim, scenario

    return [
        (cli, "run", "cli.run", None),
        (cli, "load_scenario", "scenario.load", _count_scenario),
        (cli, "validate_scenario", "scenario.load", _count_scenario),
        (scenario, "parse_scenario", "scenario.validate", None),
        (cli, "read_survey_csv", "survey.read", _count_survey),
        (cli, "aggregate_survey", "survey.aggregate", None),
        (cli, "respondent_scores", "survey.aggregate", None),
        (cli, "fit_target", "survey.fit", None),
        (cli, "run_sweep", "policy_sim.sweep", _count_sweep),
        (policy_sim, "run_policy", "policy_sim.run_policy", None),
        (cli, "normalize_ternary", "policy_sim.ternary", None),
        (cli, "evaluate_policies", "evaluator.evaluate", _count_evaluate),
        (evaluator, "apply_fact_coupling", "coupling.fact_coupling", None),
        (cli, "check_consensus", "coupling.consensus", _count_consensus),
        (cli, "propagate_network", "coupling.network", _count_network),
        (cli, "sample_surface", "we_model.surface", _count_surface),
        (cli, "consensus_curve", "we_model.curve", _count_curve),
        (logicmodel, "propagate", "logicmodel.propagate", _count_propagate),
        (logicmodel, "couple_facts", "logicmodel.couple_facts", None),
        (logicmodel, "validate", "logicmodel.validate", None),
        (logicmodel, "topological_order", "graphs.topo", None),
        (coupling, "topological_order", "graphs.topo", None),
        (cli, "csv_table", "serialize.csv", _count_table),
        (cli, "json_rows", "serialize.json", _count_table),
        (cli, "dump_json", "serialize.json", None),
    ]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        # (name, start, end, parent index or None, job id)
        self.spans: list[tuple | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.job = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def __enter__(self):
        for module, attr, name, counter in _targets():
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, counter):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(self.counts[self.job], args, kwargs, result)
            return result

        return wrapper

    def job_metrics(self, job: int) -> dict[str, float]:
        """Busy time, self time, calls and counts of one job's spans."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, span_job in self.spans:
            if span_job != job:
                continue
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_time: Counter = Counter()
        for index, (name, start, end, parent, span_job) in enumerate(self.spans):
            if span_job == job and name in SELF_METRICS:
                self_time[name] += end - start - child[index]
        out = {metric: busy[span] for span, metric in SPAN_METRICS.items()}
        out.update({metric: self_time[span] for span, metric in SELF_METRICS.items()})
        out.update({metric: calls[span] for span, metric in CALL_METRICS.items()})
        out.update(self.counts[job])
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced jobs; counts repeat exactly."""
    keys = {k for job in per_job for k in job}
    return {k: statistics.median(job.get(k, 0) for job in per_job) for k in keys}
