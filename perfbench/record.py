"""Maintenance for the benchmark's stored files.

    python3 perfbench/record.py expected
        Rewrite expected.json: the SHA-256 digest of every output of one
        job per workload at the default seed. Run it only after an
        intentional output change (the same occasion as a golden regen).

    python3 perfbench/record.py baseline
        Run every workload untraced once per seed (1..10) and traced once at
        the default seed, print each end-to-end metric's median and
        quartile spread against its bound in BENCHMARK.json, and write
        baseline.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run

BASELINE = run.HERE / "baseline.json"
SEEDS = range(1, 11)
BENCHMARK = run.ROOT / "BENCHMARK.json"


EXPECTED_ABOUT = (
    "SHA-256 of every output of one job at the default seed, recorded with numpy's BLAS"
    " pinned to one thread (OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1), as"
    " run.py runs every timed command. The digests hold only under one BLAS thread: the"
    " policy-wide fit model.json bytes differ at the default thread count of a 2-cpu host,"
    " a known defect of wepolicy that run.py --trace 1 reports as a known failure."
)


def record_expected() -> None:
    stored = {"about": EXPECTED_ABOUT}
    for workload in run.WORKLOADS:
        work = run.WORK / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            commands, _ = run._prepare(workload, run.DEFAULT_SEED, work)
            checker = run.Checker(workload, run.DEFAULT_SEED)
            checker.reference = {}
            job = run._run_job(run.Spawner(), commands, work, checker)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if job["failures"]:
            raise SystemExit(f"{workload}: {job['failures']}")
        stored[workload] = checker.reference
    run.EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED}")


def _result(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run's result and the known failures it printed on stderr."""
    argv = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} failed:\n{proc.stderr}")
    sys.stdout.write(proc.stdout.splitlines()[-2 if trace == 0 else 0] + "\n")
    known = [line for line in proc.stderr.splitlines() if line.startswith("KNOWN FAILURE")]
    return json.loads(proc.stdout.splitlines()[-1]), known


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (run.SRC / "wepolicy").glob("*.py"))


def record_baseline() -> None:
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {
        "src_lines": _src_lines(),
        "host": f"{platform.machine()}, {run.os.cpu_count()} cpus, Python {platform.python_version()}",
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    steady = True
    for workload in run.WORKLOADS:
        runs = [
            _result(workload, seed, bench["run_seconds"], 0)[0]["metrics"]
            for seed in out["seeds"]
        ]
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "unit": runs[0][name]["unit"], "values": values,
            }
            ok = spread < bound / 3
            steady &= ok
            print(f"{workload:13s} {name:12s} median={median:.4f} spread={spread:6.2%} "
                  f"bound={bound:.0%} {'ok' if ok else 'WIDE'}")
        traced, known = _result(workload, run.DEFAULT_SEED, bench["run_seconds"], 1)
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "known_failures": known,
        }
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {BASELINE}; every spread below a third of its bound: {steady}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("expected")
    sub.add_parser("baseline")
    if parser.parse_args().what == "expected":
        record_expected()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
