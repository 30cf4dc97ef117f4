"""The committed scenario fixtures are what `fixtures/gen_fixtures.py` writes."""

import subprocess
import sys

FILES = ("survey.csv", "fig2.json", "consensus.json", "pipeline.json")


def test_generator_reproduces_the_committed_fixtures(fixtures_dir, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(fixtures_dir / "gen_fixtures.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name
