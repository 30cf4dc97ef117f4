"""The benchmark's traced run wraps library functions by module attribute;
every name it looks up must still resolve, or `run.py --trace 1` fails."""

import importlib.util
from pathlib import Path

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
