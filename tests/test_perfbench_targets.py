"""The benchmark's traced run wraps library functions by module attribute;
every name it looks up must still resolve, or `run.py --trace 1` fails, and
each wrapper must be what the commands call, or its spans go missing."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import wepolicy

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer

fixtures, out = sys.argv[2:]
runs = [(command, "pipeline.json") for command in ("fit", "impact", "sweep", "select", "network")]
runs.insert(2, ("consensus-check", "consensus.json"))
spans = {}
with tracer.Tracer() as traced:
    from wepolicy import cli

    for command, fixture in runs:
        first = len(traced.spans)
        argv = [command, "--scenario", f"{fixtures}/{fixture}", "--out", f"{out}/{command}"]
        assert cli.main(argv) == 0, command
        spans[command] = sorted({span[0] for span in traced.spans[first:]})
print(json.dumps(spans))
"""


def test_wrappers_see_the_calls_of_a_fresh_process(fixtures_dir, tmp_path):
    """A wrapper installed on `cli` before any command has run is the
    function the command calls, so its span is recorded. The table writers'
    counter reads the header and the first column, so a writer call without
    a column (say, `sweep`'s `skipped.json` when nothing is skipped, as on
    `pipeline.json`) fails the traced run. The consensus check and the
    parameter network are timed through the names the tracer wraps, also
    though they are defined in separate modules: `network`'s spans include
    its topological sort, which the tracer wraps on `coupling`."""
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER.parent), str(fixtures_dir), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    by_command = json.loads(proc.stdout.splitlines()[-1])
    spans = set().union(*by_command.values())
    assert {"scenario.load", "survey.read", "survey.fit", "logicmodel.propagate",
            "policy_sim.sweep", "evaluator.evaluate", "serialize.csv", "serialize.json"} <= spans
    assert "coupling.consensus" in by_command["consensus-check"]
    assert {"coupling.network", "graphs.topo"} <= set(by_command["network"])


TRACED_VALIDATE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer

with tracer.Tracer() as traced:
    from wepolicy import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", "--scenario", f"{sys.argv[2]}/pipeline.json"])
    assert code == 0, code
print(json.dumps(sorted({span[0] for span in traced.spans})))
"""


def test_a_traced_validate_records_the_survey_read_and_the_sweep(fixtures_dir):
    """`validate` reads the survey file and runs the sweep through the names
    the tracer wraps on `cli`, so a process that runs only `validate`
    records their spans."""
    src = str(Path(wepolicy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VALIDATE, str(TRACER.parent), str(fixtures_dir)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"scenario.load", "scenario.validate", "survey.read", "policy_sim.sweep"} <= spans
