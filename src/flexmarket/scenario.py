"""Scenario configuration: time grid, agents, exogenous series, policy.

A scenario is a single JSON document with sections `time`, `weights`,
`policy`, `series`, and `agents[]` (devices nested per agent). Series
may be inline lists or references to CSV files with a header row and
(step, value) columns, resolved relative to the scenario file.

Raw series must cover the simulation (total_steps values). They are then
padded by cyclically repeating the final day so that every receding
horizon window, including the ones at the end of the day, is fully
covered; after padding every series holds at least
total_steps + horizon_len values, which is what the validation checks.

Scenario and HorizonView are immutable after construction and safe to
share across concurrent readers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import devices as dev
from .devices import ObjectiveWeights


class ScenarioError(ValueError):
    """Base class for scenario loading problems."""


class ScenarioFileError(ScenarioError):
    """Scenario or series file missing/unreadable."""


class ScenarioParseError(ScenarioError):
    """Structurally invalid scenario document."""


class ScenarioValidationError(ScenarioError):
    """A declared invariant is violated; carries the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _check(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ScenarioValidationError(field_name, message)


@dataclass(frozen=True)
class TimeGrid:
    dt_hours: float
    total_steps: int
    horizon_len: int
    temperature_unit: str = "F"

    def __post_init__(self):
        _check(self.dt_hours > 0, "time.dt_hours", "must be positive")
        _check(self.total_steps >= 1, "time.total_steps", "must be >= 1")
        _check(self.horizon_len >= 2, "time.horizon_len", "must be >= 2")
        _check(self.horizon_len <= self.total_steps, "time.horizon_len",
               "must not exceed total_steps")

    @property
    def padded_len(self) -> int:
        return self.total_steps + self.horizon_len


@dataclass(frozen=True)
class ExogenousSeries:
    """Padded exogenous inputs, indexed by step."""

    outdoor_temp: tuple
    irradiance_frac: tuple
    lem_price: tuple

    def validate(self, grid: TimeGrid) -> None:
        need = grid.padded_len
        for name in ("outdoor_temp", "irradiance_frac", "lem_price"):
            seq = getattr(self, name)
            _check(len(seq) >= need, f"series.{name}",
                   f"length {len(seq)} is shorter than total_steps + horizon_len = {need}")
        _check(all(0.0 <= a <= 1.0 for a in self.irradiance_frac),
               "series.irradiance_frac", "values must lie in [0, 1]")
        _check(all(p > 0.0 for p in self.lem_price),
               "series.lem_price", "values must be positive")


@dataclass(frozen=True)
class AgentSpec:
    """One consumer market agent: type parameter, devices, fixed load."""

    id: str
    gamma: float               # disutility preference, currency/kW^2
    devices: tuple             # device parameter records
    fixed_load: tuple          # kW consumed per step (nonnegative magnitudes)
    eps_lo: float = 0.01
    eps_hi: float = 0.5

    def __post_init__(self):
        _check(self.gamma > 0, f"agents.{self.id}.gamma", "must be positive")
        # blame eps_hi unless eps_lo is out of range on its own
        bad = "eps_hi" if self.eps_lo >= 0.0 else "eps_lo"
        _check(0.0 <= self.eps_lo < self.eps_hi,
               f"agents.{self.id}.{bad}", "need 0 <= eps_lo < eps_hi")
        kinds = [d.kind for d in self.devices]
        _check(len(kinds) == len(set(kinds)), f"agents.{self.id}.devices",
               "at most one device of each kind per agent")
        _check(all(v >= 0 for v in self.fixed_load),
               f"agents.{self.id}.fixed_load", "values must be nonnegative")

    def device(self, kind: str):
        for d in self.devices:
            if d.kind == kind:
                return d
        return None


@dataclass(frozen=True)
class SetpointPolicy:
    """How the upstream market picks its setpoint: a fraction beta of the
    offered upward range per clearing, optionally clipped into the price
    positivity region."""

    beta: tuple
    clip_to_positivity: bool = True

    def validate(self, grid: TimeGrid) -> None:
        _check(len(self.beta) >= grid.total_steps, "policy.beta",
               f"needs one value per clearing step ({grid.total_steps})")
        _check(all(0.0 <= b <= 1.0 for b in self.beta), "policy.beta",
               "values must lie in [0, 1]")


@dataclass(frozen=True)
class Scenario:
    time_grid: TimeGrid
    agents: tuple
    series: ExogenousSeries
    policy: SetpointPolicy
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)

    def __post_init__(self):
        _check(len(self.agents) >= 1, "agents", "at least one agent is required")
        ids = [a.id for a in self.agents]
        _check(len(ids) == len(set(ids)), "agents", "agent ids must be unique")
        self.series.validate(self.time_grid)
        self.policy.validate(self.time_grid)
        grid = self.time_grid
        for a in self.agents:
            _check(len(a.fixed_load) >= grid.padded_len,
                   f"agents.{a.id}.fixed_load",
                   f"length {len(a.fixed_load)} is shorter than "
                   f"total_steps + horizon_len = {grid.padded_len}")
            ev = a.device(dev.EV)
            if ev is not None:
                _check(0 <= ev.target_step < grid.total_steps,
                       f"agents.{a.id}.ev.target_step",
                       "must fall within the simulation")

    def agent(self, agent_id: str) -> AgentSpec:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"unknown agent id {agent_id!r}")

    def initial_states(self) -> dict:
        """Per-agent, per-device initial state values."""
        out = {}
        for a in self.agents:
            out[a.id] = {d.kind: getattr(d, "initial_state", None)
                         for d in a.devices}
        return out


@dataclass(frozen=True)
class HorizonView:
    """One receding-horizon window of every exogenous series, plus the
    device states the window starts from. Exactly horizon_len entries
    per series."""

    t_start: int
    dt_hours: float
    length: int
    outdoor_temp: tuple
    irradiance_frac: tuple
    device_states: Mapping[str, Mapping[str, Optional[float]]]
    end_step: int               # the simulation ends at this step (total_steps)

    @property
    def reaches_end(self) -> bool:
        """The window holds the simulation's end step."""
        return self.t_start + self.length >= self.end_step


def slice_horizon(s: Scenario, t_start: int,
                  device_states: Optional[Mapping] = None) -> HorizonView:
    """Window [t_start, t_start + horizon_len - 1] of every series.

    device_states carries the current simulation states (agent id ->
    device kind -> value); omitted, the scenario's initial states apply.
    """
    grid = s.time_grid
    H = grid.horizon_len
    if t_start < 0 or t_start + H > grid.padded_len:
        raise ScenarioValidationError(
            "t_start", f"window [{t_start}, {t_start + H}) exceeds padded range "
                       f"[0, {grid.padded_len})")
    sl = slice(t_start, t_start + H)
    states = device_states if device_states is not None else s.initial_states()
    return HorizonView(
        t_start=t_start,
        dt_hours=grid.dt_hours,
        length=H,
        outdoor_temp=s.series.outdoor_temp[sl],
        irradiance_frac=s.series.irradiance_frac[sl],
        device_states={aid: dict(m) for aid, m in states.items()},
        end_step=grid.total_steps)


def pad_series(values: Sequence[float], grid: TimeGrid, name: str) -> tuple:
    """Extend a raw series to padded_len by cyclically repeating its last day.

    The raw series must cover the simulation; anything shorter fails
    validation (and is therefore also shorter than the padded length the
    series types require)."""
    vals = [float(v) for v in values]
    if len(vals) < grid.total_steps:
        raise ScenarioValidationError(
            name, f"length {len(vals)} is shorter than total_steps + horizon_len "
                  f"= {grid.padded_len} and cannot be padded (needs at least "
                  f"{grid.total_steps} values)")
    day = max(1, min(len(vals), int(round(24.0 / grid.dt_hours))))
    cycle = vals[-day:]
    k = 0
    while len(vals) < grid.padded_len:
        vals.append(cycle[k % day])
        k += 1
    return tuple(vals)


def _read_series_csv(path: Path, name: str) -> list:
    if not path.exists():
        raise ScenarioFileError(f"{name}: series file not found: {path}")
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ScenarioParseError(f"{name}: empty series file {path}")
            for lineno, row in enumerate(reader, start=2):
                if not row or not "".join(row).strip():
                    continue
                if len(row) < 2:
                    raise ScenarioParseError(
                        f"{name}: line {lineno} of {path} needs (step, value)")
                rows.append((int(row[0]),
                             _number(row[1], f"{name}: line {lineno} of {path}")))
    except (ValueError, OSError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioParseError(f"{name}: cannot parse {path}: {exc}") from exc
    rows.sort(key=lambda r: r[0])
    # the sorted steps must be 0..N-1, each once
    for i, (step, _) in enumerate(rows):
        if step == i:
            continue
        if i and step == rows[i - 1][0]:
            problem = f"repeats step {step}"
        elif step > i:
            problem = f"has no step {i}"
        else:
            problem = f"has a negative step {step}"
        raise ScenarioParseError(f"{name}: {path} {problem}; steps must be 0..N-1")
    return [v for _, v in rows]


def _series_values(ref, base_dir: Path, name: str) -> list:
    """A series entry is an inline list or a CSV file reference."""
    if isinstance(ref, str):
        return _read_series_csv(base_dir / ref, name)
    if isinstance(ref, (int, float)):
        raise ScenarioParseError(f"{name}: scalar is not a series; use a list")
    try:
        values = list(ref)
    except TypeError as exc:
        raise ScenarioParseError(f"{name}: expected list or file path: {exc}") from exc
    return [_number(v, f"{name}.{i}") for i, v in enumerate(values)]


def _section(doc: dict, key: str, required: bool = True) -> dict:
    sec = doc.get(key)
    if sec is None:
        if required:
            raise ScenarioParseError(f"missing section {key!r}")
        return {}
    if not isinstance(sec, dict):
        raise ScenarioParseError(f"section {key!r} must be an object")
    return sec


def _number(value, name: str, integer: bool = False):
    """A finite document value as a float, or as an int for a step count;
    a fractional step count is an error, not truncated, and a JSON
    boolean is not a number."""
    if isinstance(value, bool):
        raise ScenarioParseError(f"{name}: not a number: {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"{name}: not a number: {value!r}") from exc
    if not math.isfinite(x):
        raise ScenarioParseError(f"{name}: must be finite, got {value!r}")
    if not integer:
        return x
    if not x.is_integer():
        raise ScenarioParseError(f"{name}: must be an integer, got {value!r}")
    return int(x)


def scenario_from_dict(doc: dict, base_dir: Path = Path(".")) -> Scenario:
    time_sec = _section(doc, "time")
    grid = TimeGrid(
        dt_hours=_number(time_sec.get("dt_hours", 1.0), "time.dt_hours"),
        total_steps=_number(time_sec.get("total_steps", 24), "time.total_steps",
                            integer=True),
        horizon_len=_number(time_sec.get("horizon_len", 24), "time.horizon_len",
                            integer=True),
        temperature_unit=str(time_sec.get("temperature_unit", "F")))

    weights_sec = _section(doc, "weights", required=False)
    known = {f.name for f in fields(ObjectiveWeights)}
    bad = set(weights_sec) - known
    if bad:
        raise ScenarioValidationError(f"weights.{sorted(bad)[0]}", "unknown weight")
    try:
        weights = ObjectiveWeights(**{k: _number(v, f"weights.{k}")
                                      for k, v in weights_sec.items()})
    except dev.DeviceValidationError as exc:
        raise ScenarioValidationError(f"weights.{exc.field}", "must be nonnegative") from exc

    series_sec = _section(doc, "series")
    raw = {}
    for name in ("outdoor_temp", "irradiance_frac", "lem_price"):
        if name not in series_sec:
            raise ScenarioParseError(f"series.{name} is required")
        raw[name] = _series_values(series_sec[name], base_dir, f"series.{name}")
    series = ExogenousSeries(
        outdoor_temp=pad_series(raw["outdoor_temp"], grid, "series.outdoor_temp"),
        irradiance_frac=pad_series(raw["irradiance_frac"], grid, "series.irradiance_frac"),
        lem_price=pad_series(raw["lem_price"], grid, "series.lem_price"))

    policy_sec = _section(doc, "policy", required=False)
    beta_ref = policy_sec.get("beta", 0.0)
    if isinstance(beta_ref, (int, float)):
        beta = (_number(beta_ref, "policy.beta"),) * grid.total_steps
    else:
        beta = tuple(_series_values(beta_ref, base_dir, "policy.beta"))
    clip = policy_sec.get("clip_to_positivity", True)
    # only a JSON boolean: bool("False") would be true
    _check(isinstance(clip, bool), "policy.clip_to_positivity",
           f"must be true or false, got {clip!r}")
    policy = SetpointPolicy(beta=beta, clip_to_positivity=clip)

    agents_sec = doc.get("agents")
    if not isinstance(agents_sec, list) or not agents_sec:
        raise ScenarioParseError("agents must be a nonempty list")
    agents = []
    for idx, a in enumerate(agents_sec):
        if not isinstance(a, dict):
            raise ScenarioParseError(f"agents[{idx}] must be an object")
        aid = str(a.get("id", f"agent{idx + 1}"))
        if a.get("gamma") is None:
            raise ScenarioParseError(f"agents.{aid}.gamma is required")
        gamma = _number(a["gamma"], f"agents.{aid}.gamma")
        fixed_ref = a.get("fixed_load", 0.0)
        fixed = _series_values(fixed_ref, base_dir, f"agents.{aid}.fixed_load") \
            if not isinstance(fixed_ref, (int, float)) \
            else [_number(fixed_ref, f"agents.{aid}.fixed_load")] * grid.total_steps
        devs = []
        dev_sec = a.get("devices", {})
        if not isinstance(dev_sec, dict):
            raise ScenarioParseError(f"agents.{aid}.devices must be an object")
        for kind in dev.DEVICE_KINDS:       # stable order
            if kind in dev_sec:
                try:
                    devs.append(dev.device_from_dict(kind, dev_sec[kind]))
                except dev.DeviceValidationError as exc:
                    raise ScenarioValidationError(
                        f"agents.{aid}.devices.{kind}.{exc.field}", exc.message) from exc
        unknown = set(dev_sec) - set(dev.DEVICE_KINDS)
        if unknown:
            raise ScenarioValidationError(
                f"agents.{aid}.devices.{sorted(unknown)[0]}", "unknown device kind")
        agents.append(AgentSpec(
            id=aid, gamma=gamma, devices=tuple(devs),
            fixed_load=pad_series(fixed, grid, f"agents.{aid}.fixed_load"),
            eps_lo=_number(a.get("eps_lo", 0.01), f"agents.{aid}.eps_lo"),
            eps_hi=_number(a.get("eps_hi", 0.5), f"agents.{aid}.eps_hi")))

    return Scenario(time_grid=grid, agents=tuple(agents), series=series,
                    policy=policy, weights=weights)


def read_scenario_doc(path) -> dict:
    """Read a scenario file's JSON document, which must be an object."""
    path = Path(path)
    if not path.exists():
        raise ScenarioFileError(f"scenario not found: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    return doc


def load_scenario(path) -> Scenario:
    """Read, parse, and fully validate a scenario file."""
    path = Path(path)
    return scenario_from_dict(read_scenario_doc(path), base_dir=path.parent)


def scenario_to_dict(s: Scenario) -> dict:
    """Self-contained document (series inlined); reloads to an equal Scenario."""
    grid = s.time_grid
    return {
        "time": {
            "dt_hours": grid.dt_hours,
            "total_steps": grid.total_steps,
            "horizon_len": grid.horizon_len,
            "temperature_unit": grid.temperature_unit,
        },
        "weights": asdict(s.weights),
        "policy": {
            "beta": list(s.policy.beta),
            "clip_to_positivity": s.policy.clip_to_positivity,
        },
        "series": {
            "outdoor_temp": list(s.series.outdoor_temp),
            "irradiance_frac": list(s.series.irradiance_frac),
            "lem_price": list(s.series.lem_price),
        },
        "agents": [
            {
                "id": a.id,
                "gamma": a.gamma,
                "eps_lo": a.eps_lo,
                "eps_hi": a.eps_hi,
                "fixed_load": list(a.fixed_load),
                "devices": {d.kind: dev.device_to_dict(d) for d in a.devices},
            }
            for a in s.agents
        ],
    }


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")
