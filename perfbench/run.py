"""End-to-end benchmark of the `wepolicy` command line.

    python3 perfbench/run.py --workload policy-deep --seed 1 --seconds 28 --trace 0

Every command of a workload runs as a fresh `python -m wepolicy.cli`
process, timed from spawn to exit, one at a time in a closed loop. A *job*
is one pass over the workload's command list; jobs repeat (at least twice)
until another would end after `--seconds`. Every command's output bytes are
checked: fixture outputs against `tests/goldens/` and the digests in
`expected.json`, generated outputs against `expected.json` at the default
seed, and every job against the first job of the run at any seed.

Times are scaled to a reference host speed: between consecutive children
a fixed pure-Python task and a bare interpreter start are timed, and each
child's times are multiplied by how much faster than measured around that
child they ran on a reference host.

With `--trace 0` the end-to-end metrics are reported; with `--trace 1` the
jobs run in-process under `tracer.Tracer` and the per-layer metrics are
reported. Metric names and units come from `BENCHMARK.json`. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
GOLDENS = ROOT / "tests" / "goldens"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"
TRACES = HERE / "traces"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracer as tracing  # noqa: E402

DEFAULT_SEED = 1
MIN_JOBS = 2
IMPORT_PROBES = 5
TAIL_BEYOND = 10

# Host speed is sampled between consecutive children in two ways: the
# median time of an in-process task (it parses a JSON document, sorts its
# rows and runs an integer loop, like wepolicy's compute) and the wall time
# of a bare interpreter start (`python -S -c pass`, like a command's
# start-up). A child's times are scaled by the geometric mean of the two
# reference-over-measured ratios. CALIBRATION_REF_S holds the two times on
# a quiet 2-cpu x86_64 host (Python 3.11).
CALIBRATION_DOC = json.dumps(
    [{"name": f"n{i}", "weight": i * 0.37, "edges": [i, i + 1, i + 2]} for i in range(1500)]
)
CALIBRATION_N = 40_000
CALIBRATION_RUNS = 5
CALIBRATION_REF_S = (0.005, 0.012)

# Timed children and the traced run pin numpy's BLAS to one thread. With
# its default of one thread per core, a command's speed on a small shared
# host hangs on whether the other core is free: while it was not, fixture
# jobs ran 25% slower and their CPU time fell below their wall time, and
# no calibration on the driver's core saw it. One thread keeps the time a
# property of the code under test. The outputs are checked once more at
# the default thread count, see _default_blas_check.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

GENERATED = "scenario.json"
WORKLOADS = {
    "fixtures": [
        ("validate", "pipeline.json"),
        ("surface", "fig2.json"),
        ("consensus-check", "consensus.json"),
        ("fit", "pipeline.json"),
        ("sweep", "pipeline.json"),
        ("select", "pipeline.json"),
        ("impact", "pipeline.json"),
        ("network", "pipeline.json"),
    ],
    "policy-deep": [("fit", GENERATED), ("sweep", GENERATED), ("select", GENERATED)],
    "policy-wide": [("fit", GENERATED), ("sweep", GENERATED), ("select", GENERATED)],
    "impact-large": [("validate", GENERATED), ("impact", GENERATED), ("network", GENERATED)],
}

SETUP_PROBE = (
    "import sys, wepolicy.cli\n"
    "from wepolicy.scenario import load_scenario\n"
    "load_scenario(sys.argv[1])\n"
)


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for `end_to_end` or
    `per_layer`."""
    bench = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _calibrate() -> tuple[float, float]:
    """The host's speed right now: the calibration task's median time and
    a bare interpreter's start-up time."""
    times = []
    for _ in range(CALIBRATION_RUNS):
        start = time.perf_counter()
        rows = json.loads(CALIBRATION_DOC)
        rows.sort(key=lambda row: -row["weight"])
        total = 0
        for i in range(CALIBRATION_N):
            total += i * i
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return statistics.median(times), time.perf_counter() - start


def _env(one_blas_thread: bool = True) -> dict:
    env = {**os.environ, **(ONE_BLAS_THREAD if one_blas_thread else {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs children one at a time and samples the host's speed between
    them, so each child's times can be scaled to the reference speed."""

    def __init__(self):
        self.last = _calibrate()

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path, one_blas_thread=True):
        """Run one child to exit; returns (wall seconds, rusage, exit code,
        scale to reference speed)."""
        with stdout.open("wb") as out, stderr.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=_env(one_blas_thread), stdout=out, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        before, self.last = self.last, _calibrate()
        scale = math.prod(
            2 * ref / (b + a) for ref, b, a in zip(CALIBRATION_REF_S, before, self.last)
        ) ** (1 / len(CALIBRATION_REF_S))
        return wall, usage, proc.returncode, scale


def _command_argv(command: str, scenario: Path, out: Path) -> list[str]:
    argv = [command, "--scenario", str(scenario)]
    return argv if command == "validate" else argv + ["--out", str(out)]


def _outputs(command: str, out: Path, stdout: bytes) -> dict[str, bytes]:
    """A command's output bytes by name; `validate` reports on stdout."""
    if command == "validate":
        return {"stdout": stdout}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def _digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


class Checker:
    """Decides whether a command's outputs are the expected bytes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        use_stored = workload == "fixtures" or seed == DEFAULT_SEED
        self.reference: dict[str, dict[str, str]] = (
            dict(stored.get(workload, {})) if use_stored else {}
        )

    def check(self, command: str, outputs: dict[str, bytes]) -> list[str]:
        problems = []
        digests = _digests(outputs)
        if not digests:
            problems.append("no outputs")
        if self.workload == "fixtures":
            golden_dir = GOLDENS / command
            if golden_dir.is_dir():
                for golden in sorted(golden_dir.iterdir()):
                    if outputs.get(golden.name) != golden.read_bytes():
                        problems.append(f"{golden.name} differs from tests/goldens")
        expected = self.reference.setdefault(command, digests)
        if expected != digests:
            changed = sorted(n for n in digests.keys() | expected.keys() if digests.get(n) != expected.get(n))
            problems.append(f"output bytes differ from the reference: {changed}")
        return problems


def _prepare(workload: str, seed: int, work: Path) -> tuple[list[tuple[str, Path]], dict]:
    """The workload's (command, scenario path) list and its input sizes."""
    if workload == "fixtures":
        sizes = {"commands": len(WORKLOADS[workload])}
        return [(c, FIXTURES / name) for c, name in WORKLOADS[workload]], sizes
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    sizes = gen.generate(workload, seed, inputs)
    return [(c, inputs / name) for c, name in WORKLOADS[workload]], sizes


def _run_job(spawner: Spawner, commands, work: Path, checker: Checker, one_blas_thread=True):
    """One pass over the command list in fresh processes. Wall and CPU
    times (raw and scaled to the reference speed) and peak RSS are listed
    per command."""
    job = {"wall": [], "raw_wall": [], "cpu": [], "rss_kb": [], "failures": []}
    for command, scenario in commands:
        out = work / "out" / command
        shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = work / "stdout", work / "stderr"
        argv = [sys.executable, "-m", "wepolicy.cli", *_command_argv(command, scenario, out)]
        wall, usage, code, scale = spawner.run(argv, work, stdout, stderr, one_blas_thread)
        job["raw_wall"].append(wall)
        job["wall"].append(wall * scale)
        job["cpu"].append((usage.ru_utime + usage.ru_stime) * scale)
        job["rss_kb"].append(usage.ru_maxrss)
        problems = [] if code == 0 else [f"exit code {code}"]
        if b"Traceback" in stderr.read_bytes():
            problems.append("traceback on stderr")
        problems += checker.check(command, _outputs(command, out, stdout.read_bytes()))
        if problems:
            job["failures"].append(f"{command}: " + "; ".join(problems))
    return job


def _setup_round(spawner: Spawner, commands, work: Path) -> dict[Path, float]:
    """Scaled set-up time per scenario: a fresh interpreter importing
    `wepolicy.cli` and loading the scenario. Commands sharing a scenario
    share its probe."""
    probe = {}
    for scenario in sorted({scenario for _, scenario in commands}):
        argv = [sys.executable, "-c", SETUP_PROBE, str(scenario)]
        wall, _, code, scale = spawner.run(argv, work, work / "stdout", work / "stderr")
        if code != 0:
            raise BenchError(f"set-up probe failed on {scenario.name}")
        probe[scenario] = wall * scale
    return probe


def _done(started: float, rounds: int, seconds: float) -> bool:
    """Stop once another round would likely end past `seconds`."""
    if rounds < MIN_JOBS:
        return False
    elapsed = time.perf_counter() - started
    return elapsed * (rounds + 1) / rounds > seconds


def _tail(values: list[float]) -> str:
    """The highest sample with at least TAIL_BEYOND samples above it, with
    its rank: a tail only once a run holds far more than TAIL_BEYOND jobs."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return f"n/a (needs more than {TAIL_BEYOND} jobs, have {n})"
    return f"{sorted(values)[n - TAIL_BEYOND - 1]:.4f} s (job {n - TAIL_BEYOND} of {n} by time)"


def _end_to_end(workload, seed, seconds, commands, sizes, work):
    checker = Checker(workload, seed)
    spawner = Spawner()
    setups, jobs = [], []
    started = time.perf_counter()
    while not _done(started, len(jobs), seconds):
        setups.append(_setup_round(spawner, commands, work))
        jobs.append(_run_job(spawner, commands, work, checker))
    failures = [f for job in jobs for f in job["failures"]]
    attempted = len(jobs) * len(commands)

    # Each command's median over the run, summed over the job: medians of
    # the short command samples shrug off the host's slow spells better
    # than medians of whole jobs.
    def per_command(key):
        return [statistics.median(job[key][i] for job in jobs) for i in range(len(commands))]

    metrics = {
        "wall_s": sum(per_command("wall")),
        "cpu_s": sum(per_command("cpu")),
        "peak_rss_mb": max(per_command("rss_kb")) / 1024,
        "setup_s": sum(statistics.median(r[scenario] for r in setups) for _, scenario in commands),
    }
    units = _units("end_to_end")
    print(f"{workload} seed={seed} inputs={json.dumps(sizes)} jobs={len(jobs)}")
    print(
        f"{workload}: " + "  ".join(f"{k}={metrics[k]:.4f} {u}" for k, u in units.items())
        + f"  wall_tail_s={_tail([sum(job['wall']) for job in jobs])}"
        + f"  failed_frac={len(failures) / attempted:.4f} ({len(failures)}/{attempted} commands)"
        + f"  unscaled_wall_s={sum(per_command('raw_wall')):.4f}"
    )
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return not failures, attempted, len(failures), {k: metrics[k] for k in units}, units


def _import_seconds(spawner: Spawner, work: Path) -> float:
    """Fresh-interpreter `import wepolicy.cli` minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for argv, sink in (("pass", bare), ("import wepolicy.cli", full)):
            wall, _, code, _ = spawner.run(
                [sys.executable, "-c", argv], work, work / "stdout", work / "stderr"
            )
            if code != 0:
                raise BenchError(f"python -c {argv!r} failed")
            sink.append(wall)
    return statistics.median(full) - statistics.median(bare)


def _default_blas_check(spawner: Spawner, commands, work: Path, checker: Checker) -> list[str]:
    """Run one job at numpy's default BLAS thread count against the
    one-thread reference. A difference is a known defect of the program
    (output bytes depend on the BLAS thread count); it is reported, not
    counted."""
    job = _run_job(spawner, commands, work, checker, one_blas_thread=False)
    return [f"at the default BLAS thread count, {failure}" for failure in job["failures"]]


def _in_process_job(cli, commands, work: Path, checker: Checker):
    """One pass over the command list through `cli.main` in this process;
    returns (seconds, failures, output bytes and files written)."""
    failures, written = [], {"cli.bytes_written": 0, "cli.files_written": 0}
    started = time.perf_counter()
    for command, scenario in commands:
        out = work / "out" / command
        shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(_command_argv(command, scenario, out))
        outputs = _outputs(command, out, stdout.getvalue().encode("utf-8"))
        if command != "validate":
            written["cli.bytes_written"] += sum(len(data) for data in outputs.values())
            written["cli.files_written"] += len(outputs)
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += checker.check(command, outputs)
        if problems:
            failures.append(f"{command}: " + "; ".join(problems))
    return time.perf_counter() - started, failures, written


def _traced(workload, seed, seconds, commands, sizes, work):
    checker = Checker(workload, seed)
    spawner = Spawner()
    started = time.perf_counter()
    reference = _run_job(spawner, commands, work, checker)
    failures = list(reference["failures"])
    attempted = len(commands)
    known = _default_blas_check(spawner, commands, work, checker)

    os.environ.update(ONE_BLAS_THREAD)
    sys.path.insert(0, str(SRC))
    from wepolicy import cli

    # A warm-up job lets lazy imports and caches settle before timing.
    _, bad, _ = _in_process_job(cli, commands, work, checker)
    failures += bad
    attempted += len(commands)

    tracer = tracing.Tracer()
    untraced, traced, per_job = [], [], []
    while not _done(started, len(traced), seconds):
        # Alternate which side runs first, so warm-up or collector effects
        # fall on both sides equally.
        for side in ("untraced", "traced") if len(traced) % 2 == 0 else ("traced", "untraced"):
            if side == "untraced":
                elapsed, bad, _ = _in_process_job(cli, commands, work, checker)
                untraced.append(elapsed)
            else:
                tracer.job += 1
                with tracer:
                    elapsed, bad, written = _in_process_job(cli, commands, work, checker)
                traced.append(elapsed)
            failures += bad
            attempted += len(commands)
        per_job.append({**tracer.job_metrics(tracer.job), **written, "trace.job_s": traced[-1]})
    tracer.write(TRACES / f"{workload}.jsonl")

    layer = tracing.median_metrics(per_job)
    layer["cli.import_s"] = _import_seconds(spawner, work)
    # Each round's traced and untraced jobs ran back to back, so their
    # difference is taken per round, where the host's speed drifts least.
    layer["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    scored = layer.get("evaluator.rows_scored", 0)
    layer["evaluator.warn_ratio"] = layer.get("evaluator.warned_rows", 0) / scored if scored else 0.0
    units = _units("per_layer")
    metrics = {name: layer.get(name, 0) for name in units}

    job_s = metrics["trace.job_s"]
    print(f"{workload} seed={seed} inputs={json.dumps(sizes)} traced_jobs={len(traced)}")
    for name, value in metrics.items():
        unit = units[name]
        share = f"  ({value / job_s:6.1%} of traced job)" if unit == "s" and job_s else ""
        print(f"  {name:28s} {value:.6g} {unit}{share}")
    for problem in known:
        print(f"KNOWN FAILURE (not counted) {problem}", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return not failures, attempted, len(failures), metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wepolicy" / "cli.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no wepolicy sources under {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir()
        commands, sizes = _prepare(args.workload, args.seed, work)
        run = _traced if args.trace else _end_to_end
        correct, attempted, failed, metrics, units = run(
            args.workload, args.seed, args.seconds, commands, sizes, work
        )
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
