"""Regenerate the committed golden pipeline outputs.

Run from the repository root:

    python tests/goldens/regen.py

Runs fit, sweep, select, impact, and network on the pipeline fixture and
freezes the output files. The acceptance suite compares fresh runs against
these bytes, so regenerate only when an intentional output change is made.
"""

import shutil
from pathlib import Path

from wepolicy.cli import run

HERE = Path(__file__).parent
SCENARIO = HERE.parent / "fixtures" / "pipeline.json"

COMMANDS = ("fit", "sweep", "select", "impact", "network")

if __name__ == "__main__":
    for command in COMMANDS:
        out = HERE / command
        if out.exists():
            shutil.rmtree(out)
        code = run(command, str(SCENARIO), str(out))
        if code != 0:
            raise SystemExit(f"{command} failed with exit code {code}")
    print("goldens written to", HERE)
