"""Scenario-driven command line.

One command per pipeline: `surface` samples the two-scope well-being
surface, `consensus-check` tests scope agreement under the declared
mapping, `fit` builds the survey-backed target function, `sweep` runs the
policy grid through the simulator, `select` couples sweep facts into the
target and picks maximizers per weighting profile, `impact` evaluates the
logic model, `network` propagates fact deltas to value parameters, and
`validate` reports scenario findings; it runs `fit`'s survey read, `sweep`'s
simulation, `surface`'s cell check and curve, `consensus-check`'s probes and
the propagation of `impact` and `network`, but fits nothing.

Each command yields its outputs one at a time. Each is written into a
staging directory inside `--out` as soon as it is rendered, so a run holds
one output's text at a time; once the last is written they are renamed
into place. A nonzero exit (or a process killed mid-write) never leaves
partial output files, and a failed run removes the directories it created.

A command runs with the cyclic garbage collector off: what it builds (the
scenario tree, survey columns, output tables and text) is acyclic, so each
collection would only walk it again. `entry`, the process entry point,
ends the process without interpreter teardown once the command has
returned and its output is flushed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable

from . import scenario
from .errors import RankDeficiencyError, ScenarioError, _cut, _quote
from .scenario import Scenario, load_scenario, read_scenario_file
from .serialize import FloatText, csv_table, dump_json, float_texts, json_rows

# Names from the modules that only some commands use. Each starts as a stub
# that, on its first call, imports the module and binds the real function
# here, unless the name was rebound (a tracing wrapper, a test's replacement).
_LAZY = {
    "survey": ("aggregate_survey", "answer_floats", "fit_target", "rescale_answer",
               "respondent_scores"),
    "survey_csv": ("check_survey", "read_survey_csv"),
    "policy_sim": ("DynamicsConfig", "normalize_ternary", "run_sweep"),
    "evaluator": ("evaluate_policies", "profile_slug", "select_best"),
    "we_model": ("consensus_curve", "sample_surface", "surface_terms"),
    "consensus": ("check_consensus",),
    "coupling": ("propagate_network",),
}


def _lazy(module: str, name: str):
    def stub(*args, **kwargs):
        real = getattr(importlib.import_module(f".{module}", __package__), name)
        if globals()[name] is stub:
            globals()[name] = real
        return real(*args, **kwargs)
    return stub


globals().update({name: _lazy(module, name) for module in _LAZY for name in _LAZY[module]})


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_NUMERICAL_ERRORS: tuple[type[Exception], ...] = (
    RankDeficiencyError,
    ZeroDivisionError,
    OverflowError,
    FloatingPointError,
)


def _table(fmt: str, stem: str, header, *columns) -> tuple[str, str]:
    """The `(file name, text)` output of one table, given as one column per
    header name, in format `fmt`."""
    if fmt == "json":
        return f"{stem}.json", json_rows(header, *columns)
    return f"{stem}.csv", csv_table(header, *columns)


def _cmd_surface(sc: Scenario, fmt: str, warnings: list[str]):
    xs_n, xs_w = sc.surface_grids
    cells = sample_surface(sc.model, xs_n, xs_w)
    # Computed before the first output, so its failure creates no directory.
    curve = consensus_curve(*sc.curve) if sc.curve is not None else None
    # Each grid value fills a whole row or column of the grid, so it is
    # formatted once per grid index.
    yield _table(fmt, "surface", ("x_n", "x_w", "W"),
                 [t for t in map(FloatText, xs_n) for _ in xs_w],
                 list(map(FloatText, xs_w)) * len(xs_n),
                 [r[2] for r in cells])
    if curve is not None:  # never empty: the curve grid is not
        yield _table(fmt, "curve", ("x", "W"), *zip(*curve))


def _cmd_consensus(sc: Scenario, fmt: str, warnings: list[str]):
    cfg = sc.consensus
    report = check_consensus(
        narrow=sc.layer_by_label(cfg.narrow_label).scope_function(),
        f=sc.mapping_f,
        wide=sc.layer_by_label(cfg.wide_label).scope_function(),
        probe_grid=cfg.probes,
        tol=cfg.tol,
    )
    if not report.holds:
        warnings.append(
            f"consensus does not hold: max deviation {report.max_deviation!r} > tol {cfg.tol!r}"
        )
    yield "consensus_report.json", dump_json(report.to_dict())


def _read_survey(sc: Scenario):
    """The survey file, no larger than MAX_SURVEY_BYTES, read and checked;
    `fit`, `select` and `validate` read it here."""
    cfg, path = sc.survey, sc.base_dir / sc.survey.file
    try:
        text = scenario.read_capped(path, scenario.MAX_SURVEY_BYTES).decode("utf-8")
        if "\r" in text:  # universal newlines, as a file opened in text mode reads them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        survey = read_survey_csv(text)
        check_survey(survey, cfg.construct_map, cfg.scale)
    except ValueError as err:
        raise ScenarioError([f"survey.file: {err}"]) from None
    return survey


def _fit_from_survey(sc: Scenario):
    survey, cfg = _read_survey(sc), sc.survey
    baseline = aggregate_survey(survey, cfg.construct_map, cfg.scale)
    scores = respondent_scores(survey, cfg.construct_map, cfg.scale)
    # numpy is loaded by now: respondent_scores imports it.
    import numpy as np

    design = np.column_stack((np.ones(len(scores)), scores))
    target = answer_floats(survey.answers[cfg.target_question - 1])
    y = rescale_answer(target, cfg.scale)
    return fit_target(design, y, column_names=cfg.construct_map.constructs), baseline


def _cmd_fit(sc: Scenario, fmt: str, warnings: list[str]):
    model, baseline = _fit_from_survey(sc)
    yield "model.json", dump_json(model.to_dict())
    yield "baseline.json", dump_json(list(baseline))


def _run_sweep(sc: Scenario):
    """The sweep table of `sc`'s dynamics over its policy grid."""
    grid = sc.sweep_grid
    return run_sweep(sc.dynamics, grid["subsidy"], grid["tax"], grid["service"])


def _cmd_sweep(sc: Scenario, fmt: str, warnings: list[str]):
    table = _run_sweep(sc)
    shares = normalize_ternary(table)
    if table.skipped:
        warnings.append(
            f"skipped {len(table.skipped)} inadmissible grid combinations (s + v > 1)"
        )
    ids, knobs, indicators = zip(*table.rows)
    # The knobs and indicators repeat their values down each column.
    floats = map(float_texts, [*zip(*knobs), *zip(*indicators)])
    yield _table(fmt, "sweep", ("policy_id", "s", "t", "v", "econ", "env", "social"),
                 ids, *floats)
    yield _table(fmt, "ternary", ("policy_id", "p_econ", "p_env", "p_soc"), ids, *shares)
    # Three columns also when nothing was skipped.
    skipped = zip(*table.skipped) if table.skipped else ((), (), ())
    yield "skipped.json", json_rows(("s", "t", "v"), *map(float_texts, skipped))


def _cmd_select(sc: Scenario, fmt: str, warnings: list[str]):
    model, baseline = _fit_from_survey(sc)
    table = _run_sweep(sc)
    constructs = sc.survey.construct_map.constructs
    header = ("rank", "policy_id", "W_prime", *(f"x_w_prime_{c}" for c in constructs))
    selection = {}
    for profile in sc.profiles:
        ranked = evaluate_policies(model, baseline, profile, table)
        selection[profile.name] = select_best(ranked)
        if ranked.perturbation_warnings:
            warnings.append(
                f"profile {_quote(profile.name)}: perturbation ratio above threshold on "
                f"{ranked.perturbation_warnings} of {len(ranked.policy_ids)} rows"
            )
        ranks = range(1, len(ranked.policy_ids) + 1)
        yield _table(fmt, f"ranked_{profile_slug(profile.name)}", header,
                     ranks, ranked.policy_ids, ranked.w_prime, *ranked.x_w_prime)
        del ranked  # not held while the next profile is evaluated
    yield "selection.json", dump_json(selection)


def _impact_report(sc: Scenario) -> dict:
    """`impact`'s report; `impact` and `validate` propagate the logic model here."""
    from . import logicmodel

    model = sc.logic_model
    values, impacts = logicmodel.propagate(model, sc.logic_inputs)
    report = {"node_values": values, "impacts": impacts}
    if sc.fact_binding is not None:
        report["coupled_impacts"] = logicmodel.couple_facts(
            model, sc.fact_binding, sc.logic_inputs
        )
    return report


def _cmd_impact(sc: Scenario, fmt: str, warnings: list[str]):
    yield "impact_report.json", dump_json(_impact_report(sc))


def _cmd_network(sc: Scenario, fmt: str, warnings: list[str]):
    deltas = propagate_network(sc.network, sc.network_deltas)
    yield "network.json", dump_json({"value_deltas": deltas})


# Each run command's function, the scenario sections it reads (with every
# section they are checked against; `validate` reads them all), and those it
# requires, in the order a missing one is reported.
_DISPATCH = {
    "surface": (_cmd_surface, ("value_functions", "layers", "surface", "curve"),
                ("layers", "surface")),
    "consensus-check": (_cmd_consensus, ("value_functions", "element_sets", "layers",
                                         "mapping_f", "consensus"), ("consensus", "mapping_f")),
    "fit": (_cmd_fit, ("element_sets", "survey"), ("survey",)),
    "sweep": (_cmd_sweep, ("dynamics", "sweep"), ("dynamics", "sweep")),
    "select": (_cmd_select, ("element_sets", "survey", "dynamics", "sweep", "weighting_profiles"),
               ("weighting_profiles", "survey", "dynamics", "sweep")),
    "impact": (_cmd_impact, ("logic_model",), ("logic_model",)),
    "network": (_cmd_network, ("parameter_network",), ("parameter_network",)),
}


def _write_outputs(out: Path, outputs: Iterable[tuple[str, str]]) -> list[str]:
    """Write every `(name, text)` output into `out`, or none of them; returns
    the names in order.

    Each text is written into a staging directory inside `out` as it
    arrives and then dropped. The first output is rendered before `out` or
    the stage is created, so a command that fails before it creates
    nothing. Once the last output is written, the files are renamed into
    place, so a process killed mid-write leaves no partial output file. On
    any failure, the placed files, the stage and every directory created
    here are removed before the exception propagates.
    """
    names, placed, created, stage = [], [], [], None
    try:
        for name, text in outputs:
            if stage is None:
                # The directories missing before this run, deepest first.
                created = [p for p in (out, *out.parents) if not p.exists()]
                out.mkdir(parents=True, exist_ok=True)
                stage = Path(tempfile.mkdtemp(prefix=".wepolicy-", dir=out))
            (stage / name).write_text(text, encoding="utf-8", newline="")
            del text  # not held while the next output is rendered
            names.append(name)
        for name in names:
            os.replace(stage / name, out / name)
            placed.append(out / name)
    except BaseException:
        for path in placed:
            path.unlink(missing_ok=True)
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for path in created:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    if stage is not None:
        shutil.rmtree(stage, ignore_errors=True)
    return names


def _os_error(err: OSError) -> str:
    """`str(err)`, each file name cut as `_quote` cuts a finding's name."""
    if err.errno is None or err.filename is None:
        return _cut(str(err))
    names = (_quote(name) for name in (err.filename, err.filename2) if name is not None)
    return f"[Errno {err.errno}] {err.strerror}: {' -> '.join(names)}"


def run(command: str, scenario_path: str, out_dir: str, fmt: str = "csv",
        seed: int | None = None) -> int:
    """Run one command; returns the process exit code.

    Output files are only created when the whole command succeeds; a
    RunReport JSON goes to stdout. A `seed` replaces the dynamics seed; the
    report's seed is the one the dynamics ran with, null without dynamics.
    """
    import hashlib  # only here: validate takes no digest

    started = time.perf_counter()
    body, reads, requires = _DISPATCH[command]
    try:
        sc, raw = load_scenario(scenario_path, reads)
        if seed is not None and sc.dynamics is not None:
            try:
                # Through the constructor, which checks the seed.
                sc.dynamics = DynamicsConfig(**dict(sc.dynamics._asdict(), seed=seed))
            except ValueError as err:
                raise ScenarioError([f"--seed: {err}"]) from None
        for section in requires:
            if section not in sc.parsed:
                raise ScenarioError([f"{section}: section required by this command is missing"])
        digest = hashlib.sha256(raw).hexdigest()
        warnings = list(sc.warnings)  # the command appends its own as it runs
        out = Path(out_dir)
        names = _write_outputs(out, body(sc, fmt, warnings))
    except ScenarioError as err:
        for finding in err.findings:
            print(f"error: {finding}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"error: {_os_error(err)}", file=sys.stderr)
        return EXIT_IO

    report = {
        "command": command,
        "scenario_digest": digest,
        "seed": sc.dynamics.seed if sc.dynamics is not None else None,
        "outputs": [str(out / name) for name in names],
        "warnings": warnings,
        "wall_time_s": time.perf_counter() - started,
    }
    print(dump_json(report), end="")
    return EXIT_OK


def validate_scenario(path: str | Path) -> tuple[list[str], list[str]]:
    """Full cross-section consistency findings, as (errors, warnings).

    When the sections a command reads have no findings, they go through
    that command's survey, sweep, surface, curve, consensus or propagation
    step, so a numerical failure there is a finding of that section. The
    first I/O problem propagates as OSError, once every step has run, when
    the document has no other finding."""
    try:
        doc, _ = read_scenario_file(path)
    except ScenarioError as err:
        return err.findings, []
    # Looked up on the module, as load_scenario does, so a tracing wrapper sees it.
    sc = scenario.parse_scenario(doc, Path(path).resolve().parent)
    io_error = None
    for command, section, present, step in (
        ("fit", "survey", sc.survey is not None, lambda: _read_survey(sc)),
        ("sweep", "sweep", sc.dynamics is not None and sc.sweep_grid is not None,
         lambda: _run_sweep(sc)),
        ("surface", "surface", sc.surface_grids is not None,
         lambda: surface_terms(sc.model, *sc.surface_grids)),
        ("surface", "curve", sc.curve is not None, lambda: consensus_curve(*sc.curve)),
        ("consensus-check", "consensus", sc.consensus is not None,
         lambda: list(_cmd_consensus(sc, "csv", []))),
        ("impact", "logic_model", sc.logic_model is not None, lambda: _impact_report(sc)),
        ("network", "parameter_network", sc.network is not None,
         lambda: propagate_network(sc.network, sc.network_deltas)),
    ):
        if present and sc.failed.keys().isdisjoint(_DISPATCH[command][1]):
            try:
                step()
            except ScenarioError as err:
                sc.errors += err.findings
            except _NUMERICAL_ERRORS as err:
                sc.errors.append(f"{section}: {err}")
            except OSError as err:
                io_error = io_error or err
    if io_error is not None and not sc.errors:  # a document with findings reports those
        raise io_error
    return sc.errors, sc.warnings


def _run_validate(scenario_path: str) -> int:
    try:
        errors, warnings = validate_scenario(scenario_path)
    except OSError as err:
        print(f"error: {_os_error(err)}", file=sys.stderr)
        return EXIT_IO
    print(dump_json({"ok": not errors, "errors": errors, "warnings": warnings}), end="")
    return EXIT_OK if not errors else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    """Parse `argv` and run one command; returns the exit code.

    The cyclic garbage collector is off while the command runs and is
    switched back on afterwards only if it was on before, so an in-process
    caller keeps its collector state, also when argparse exits.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = argparse.ArgumentParser(
            prog="wepolicy",
            description="Scenario-driven well-being policy evaluation pipelines.",
        )
        parser.add_argument("command", choices=[*_DISPATCH, "validate"])
        parser.add_argument("--scenario", required=True, help="scenario JSON file")
        parser.add_argument("--out", help="output directory (all commands except validate)")
        parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt",
                            help="table output format (reports are always JSON)")
        parser.add_argument("--seed", type=int, default=None,
                            help="override the scenario's dynamics seed (sweep and select only)")
        args = parser.parse_args(argv)

        if args.command == "validate":
            return _run_validate(args.scenario)
        if not args.out:
            print("error: --out is required for this command", file=sys.stderr)
            return EXIT_VALIDATION
        return run(args.command, args.scenario, args.out, fmt=args.fmt, seed=args.seed)
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    """Process entry point: run `main` on the command line, then exit.

    Once `main` returns, the outputs are written and closed, so after
    flushing stdout and stderr the process ends with `os._exit`, skipping
    the interpreter's teardown of the heap. `main` itself returns normally,
    for in-process callers. BLAS is set to one thread before numpy loads, so
    `fit`'s least squares write the same bytes whatever the CPU count.
    """
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
