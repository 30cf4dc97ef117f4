"""Scenario documents: one JSON file drives every pipeline.

A scenario is a single self-describing JSON object whose sections declare
value functions, scope layers, element sets, mappings, survey and
dynamics configuration, sweep grids, weighting profiles (the fact
couplings), a logic model, and sampling grids. Validation walks the present
sections once, in a fixed order, before anything runs (or only the sections
a caller names): each section checks its own fields and its agreement with
the sections before it, and reports findings naming `section.field` in that
order. It also bounds the work a scenario may ask for before any grid or
sweep is built. An optional number that a section leaves out takes the
default its value type's constructor declares.

This module holds the document's core: the caps, the field readers, the
`Scenario` that every section parser fills, and the `element_sets` and
`survey` parsers. Every other section's parser lives in the module whose
type it builds (`_SECTIONS` names it).
"""

from __future__ import annotations

import importlib
import json
import math
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import MAX_LISTED, DimensionError, ScenarioError, _cut, _quote
from .numeric import left_sum

# A section's module is imported only when a document holds that section, so
# loading a scenario loads only the modules its sections build. Parsing
# `survey` never loads the survey module, which reads the survey file.
if TYPE_CHECKING:
    from .consensus import LinearMap
    from .coupling import ParameterNetwork
    from .evaluator import WeightingProfile
    from .logicmodel import FactBinding, LogicModel
    from .policy_sim import DynamicsConfig
    from .valuefn import ValueCurve
    from .we_model import ConsensusConfig, WellbeingModel, WELayer

# The most points a `surface` (x_n by x_w cells) or a `curve` may sample, or
# (subsidy, tax, service) combinations a `sweep` may list; and the most work
# a sweep may ask for: admissible rows x (agents + steps). The simulator runs
# each indicator once per distinct knob key it reads, so that product is an
# upper bound on the work done. Parsers read them here at call time.
MAX_GRID_POINTS = 1_000_000
MAX_SWEEP_WORK = 10_000_000
# The largest scenario and survey files read, in bytes (`read_capped`);
# well above the largest the benchmark generates (a 1.97 MB scenario, a
# 540 KB survey).
MAX_SCENARIO_BYTES = 32 * 2**20
MAX_SURVEY_BYTES = 16 * 2**20

ROW_SUM_TOL = 1e-12


class ConstructMap(namedtuple("ConstructMap", "constructs matrix")):
    """Row-stochastic matrix folding question scores into constructs.

    Rows = constructs (subjective vector layout), cols = questions.
    """

    __slots__ = ()

    def __new__(cls, constructs: tuple[str, ...], matrix: tuple[tuple[float, ...], ...]):
        if len(constructs) != len(matrix):
            raise DimensionError(
                f"{len(constructs)} construct names for {len(matrix)} matrix rows"
            )
        if len(set(constructs)) != len(constructs):
            raise ValueError("construct names must be unique")
        if not matrix:
            raise ValueError("construct map needs at least one row")
        width = len(matrix[0])
        for name, row in zip(constructs, matrix):
            if len(row) != width:
                raise ValueError("construct matrix rows must all have the same length")
            if any(w < 0 for w in row):
                raise ValueError(f"construct {_quote(name)} has negative weights")
            total = left_sum(row)
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"construct {_quote(name)} weights sum to {total!r}, not 1")
        return super().__new__(cls, constructs, matrix)

    @property
    def question_count(self) -> int:
        return len(self.matrix[0])


class SurveyConfig(NamedTuple):
    file: str
    scale: int
    construct_map: ConstructMap
    target_question: int  # 1-based question index holding the rating


class Scenario:
    """Objects built from a scenario's sections (None when absent or not
    read), with its findings and warnings; usable only when `errors` is empty.
    Every finding goes through `error`, which also records the section
    being parsed as failed. A check that reads an earlier section skips it
    when it has a finding of its own, so no follow-on finding names the
    wrong cause. A section keeps its first MAX_LISTED findings; one more
    finding counts the rest."""

    def __init__(self, base_dir: Path):
        self.base_dir = base_dir
        self.model: WellbeingModel | None = None
        self.mapping_f: LinearMap | None = None
        self.network: ParameterNetwork | None = None
        self.network_deltas: dict[str, float] = {}
        self.survey: SurveyConfig | None = None
        self.dynamics: DynamicsConfig | None = None
        self.sweep_grid: dict[str, list[float]] | None = None
        self.profiles: list[WeightingProfile] | None = None
        self.logic_model: LogicModel | None = None
        self.logic_inputs: dict[str, float] = {}
        self.fact_binding: FactBinding | None = None
        self.surface_grids: tuple[list[float], list[float]] | None = None
        self.curve: tuple[WELayer, list[float]] | None = None
        self.consensus: ConsensusConfig | None = None
        self.parsed: list[str] = []  # the sections read and present, in order
        self.errors: list[str] = []
        self.warnings: list[str] = []
        self.failed: dict[str, int] = {}  # section -> its findings
        self.section = ""  # the section being parsed
        # Read only while parsing, by name: the objects keep what they resolve to.
        self.value_functions: dict[str, ValueCurve] = {}
        self.element_sets: dict[str, tuple[str, ...]] = {}  # set name -> variable names

    def layer_by_label(self, label: str) -> WELayer | None:
        """The layer with scope `label`, or None (also without a model)."""
        if self.model is None:
            return None
        return next((l for l in self.model.layers if l.scope.label == label), None)

    def error(self, msg: str):
        count = self.failed[self.section] = self.failed.get(self.section, 0) + 1
        if count > MAX_LISTED:  # a section's findings are contiguous, the count last
            if count > MAX_LISTED + 1:
                self.errors.pop()
            msg = f"{self.section}: ... ({count - MAX_LISTED} more findings)"
        self.errors.append(msg)

    def attempt(self, parse, *args):
        """parse(*args), or None when it raises a ValueError, whose message
        becomes a finding of the section being parsed."""
        try:
            return parse(*args)
        except ValueError as err:
            self.error(str(err))
            return None

    def layers_model(self, where: str) -> WellbeingModel | None:
        """The layers' model, or None: with a finding at `where` when the
        document has no layers section, and without one when that section
        has findings of its own."""
        if self.model is None and "layers" not in self.failed:
            self.error(f"{where}: requires a layers section")
        return self.model

    def layer(self, label: str, where: str) -> WELayer | None:
        """The layer with scope `label`, or None and a finding at `where`."""
        layer = self.layer_by_label(label)
        if layer is None:
            self.error(f"{where}: unknown scope label {_quote(label)}")
        return layer


def _float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {_quote(value)}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{where}: value must be finite")
    return v


def _floats(spec: dict, where: str, keys: tuple[str, ...]) -> dict[str, float]:
    """`spec`'s numbers for `keys`, in order; an absent key takes its field's default."""
    return {k: _float(spec[k], f"{where}.{k}") for k in keys if k in spec}


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {_quote(value)}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where}: expected a non-empty string, got {_quote(value)}")
    return value


def _matrix(value, where: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where}: expected a non-empty row-major array of rows")
    return tuple(tuple(_vector(row, f"{where}[{i}]")) for i, row in enumerate(value))


def _vector(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected an array of numbers")
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected an array")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object")
    return value


def _names(value, where: str) -> tuple[str, ...]:
    values = _array(value, where)
    if _all_str(values):
        return tuple(values)
    return tuple(_str(v, f"{where}[{i}]") for i, v in enumerate(values))


# Column checks for the graph sections, each a few C-level passes that test
# the types before anything hashes or adds the values. When one fails, the
# caller's per-entry loop finds and words the first bad entry.


def _all_str(values) -> bool:
    """Whether every value is a non-empty str."""
    return {*map(type, values)} <= {str} and all(values)


def _all_finite(values) -> bool:
    """Whether every value is a finite float. A sum is finite unless a value
    is inf or nan, or the sum overflows, which sends finite values to the
    per-entry loop."""
    return {*map(type, values)} <= {float} and math.isfinite(sum(values))


def _check(where: str, fn, *args, **kwargs):
    """Call fn, prefixing the message of any ValueError with the field path."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def grid_values(spec, where: str) -> list[float]:
    """A grid is either {"values": [...]} or {"start", "stop", "count"}."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where}: expected a grid object")
    if "values" in spec:
        vals = _vector(spec["values"], f"{where}.values")
        if not vals:
            raise ValueError(f"{where}.values: grid must be non-empty")
        return vals
    for key in ("start", "stop", "count"):
        if key not in spec:
            raise ValueError(f"{where}: grid needs values or start/stop/count")
    start = _float(spec["start"], f"{where}.start")
    stop = _float(spec["stop"], f"{where}.stop")
    count = _int(spec["count"], f"{where}.count")
    if count < 1:
        raise ValueError(f"{where}.count: must be >= 1, got {count}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    vals = [start + i * step for i in range(count)]
    for i, v in enumerate(vals):
        if not math.isfinite(v):  # stop - start can overflow
            raise ValueError(f"{where}: grid value {i} is not finite: {v!r}")
    return vals


def _parse_element_set(name: str, spec, where: str) -> tuple[str, ...]:
    """The set's variable names in declaration order, which is the layout of
    its vectors. A variable's `unit` is a label that is not read."""
    if not isinstance(spec, dict) or not isinstance(spec.get("variables"), list):
        raise ValueError(f"{where}.variables: expected an array")
    variables = [
        _object(v, f"{where}.variables[{i}]") for i, v in enumerate(spec["variables"])
    ]
    names = [_str(v.get("name"), f"{where}.variables[{i}].name") for i, v in enumerate(variables)]
    if len(set(names)) != len(names):
        raise ValueError(
            f"{where}: element names in {_quote(name)} must be unique: {_quote(names)}"
        )
    return tuple(names)


def parse_element_sets(sc: Scenario, raw):
    if not isinstance(raw, dict):
        raise ValueError("element_sets: expected an object of named sets")
    for name, spec in raw.items():
        es = sc.attempt(_parse_element_set, name, spec, f"element_sets.{_cut(name)}")
        if es is not None:
            sc.element_sets[name] = es


def parse_survey(sc: Scenario, raw):
    where = "survey"
    _object(raw, where)
    constructs = raw.get("constructs")
    if not isinstance(constructs, list) or not constructs:
        raise ValueError(f"{where}.constructs: expected a non-empty array")
    cmap = _check(
        where,
        ConstructMap,
        constructs=tuple(_str(c, f"{where}.constructs[{i}]") for i, c in enumerate(constructs)),
        matrix=_matrix(raw.get("construct_matrix"), f"{where}.construct_matrix"),
    )
    scale = _int(raw.get("scale"), f"{where}.scale")
    if scale < 2:
        raise ValueError(f"{where}.scale: must be >= 2, got {scale}")
    _float(scale, f"{where}.scale")  # answers are rescaled in floats
    target_q = _int(raw.get("target_question"), f"{where}.target_question")
    if not 1 <= target_q <= cmap.question_count:
        raise ValueError(
            f"{where}.target_question: {target_q} outside 1..{cmap.question_count}"
        )
    sc.survey = SurveyConfig(file=_str(raw.get("file"), f"{where}.file"), scale=scale,
                             construct_map=cmap, target_question=target_q)
    xw = sc.element_sets.get("X_w")
    if xw is not None and xw != cmap.constructs:
        raise ValueError(
            f"{where}.constructs: must match element_sets.X_w variable names "
            f"({_quote(list(xw))})"
        )


# Every section a scenario may hold, in the order it is parsed and its findings
# are reported, and the module and function of its parser, each a function of
# the Scenario and the section's JSON value. A section checks its agreement
# with those before it, so a caller that reads it reads those too: layers read
# value_functions; mapping_f and survey read element_sets; weighting_profiles
# read survey and element_sets; sweep reads dynamics; surface and curve read
# layers; and consensus reads layers and mapping_f. Any other key is ignored.
# `mapping_f` (the `consensus` module) and `parameter_network` (`coupling`,
# which loads `graphs`) have separate parser modules, so neither loads the other.
_SECTIONS = (
    ("value_functions", "valuefn", "parse_value_functions"),
    ("element_sets", "scenario", "parse_element_sets"),
    ("layers", "we_model", "parse_layers"),
    ("mapping_f", "consensus", "parse_mapping_f"),
    ("parameter_network", "coupling", "parse_parameter_network"),
    ("survey", "scenario", "parse_survey"),
    ("dynamics", "policy_sim", "parse_dynamics"),
    ("sweep", "policy_sim", "parse_sweep"),
    ("weighting_profiles", "evaluator", "parse_weighting_profiles"),
    ("logic_model", "logicmodel", "parse_logic_model"),
    ("surface", "we_model", "parse_surface"),
    ("curve", "we_model", "parse_curve"),
    ("consensus", "we_model", "parse_consensus"),
)


def parse_scenario(doc: dict, base_dir: Path, sections: tuple[str, ...] | None = None) -> Scenario:
    """The scenario built from the named sections (all for None), with its
    findings in `errors` and its warnings in `warnings`."""
    sc = Scenario(base_dir)
    if not isinstance(doc, dict):
        sc.errors.append("scenario: expected a JSON object")
        return sc
    for name, module, function in _SECTIONS:
        raw = doc.get(name)
        if raw is not None and (sections is None or name in sections):
            parse = getattr(importlib.import_module(f".{module}", __package__), function)
            sc.section = name
            sc.parsed.append(name)
            sc.attempt(parse, sc, raw)
    return sc


def read_capped(path: Path, cap: int) -> bytes:
    """The bytes of `path`, or ValueError when it holds more than `cap`.
    A regular file is refused by its `stat` size before it is read; at most
    `cap + 1` bytes are read in any case, since a device or a FIFO reports
    size 0."""
    size = path.stat().st_size
    if size > cap:
        raise ValueError(f"{size} bytes exceeds the cap of {cap}")
    with path.open("rb") as f:
        data = f.read(size + 1)  # a buffer of the size, not of the cap
        if len(data) > size:  # a device, a FIFO or a file that grew
            data += f.read(cap + 1 - len(data))
    if len(data) > cap:
        raise ValueError(f"stream exceeds the cap of {cap} bytes")
    return data


def read_scenario_file(path: str | Path) -> tuple[dict, bytes]:
    """Read and JSON-parse a scenario no larger than MAX_SCENARIO_BYTES;
    parse errors name line and column."""
    try:
        data = read_capped(Path(path), MAX_SCENARIO_BYTES)
    except ValueError as err:
        raise ScenarioError([f"scenario: {err}"]) from None
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ScenarioError([f"scenario: not valid UTF-8 ({err})"]) from None
    except json.JSONDecodeError as err:
        raise ScenarioError(
            [f"scenario: JSON parse error at line {err.lineno}, column {err.colno}: {err.msg}"]
        ) from None
    # Worded here: the interpreter's own messages differ between versions.
    except ValueError:  # int() refuses a literal over sys.get_int_max_str_digits()
        raise ScenarioError(["scenario: an integer literal has too many digits"]) from None
    except RecursionError:
        raise ScenarioError(["scenario: JSON nests arrays or objects too deeply"]) from None
    return doc, data


def load_scenario(path: str | Path,
                  sections: tuple[str, ...] | None = None) -> tuple[Scenario, bytes]:
    """Load a scenario file and validate the named sections (all for None);
    raises ScenarioError with every finding when validation fails."""
    doc, data = read_scenario_file(path)
    sc = parse_scenario(doc, Path(path).resolve().parent, sections)
    if sc.errors:
        raise ScenarioError(sc.errors)
    return sc, data
