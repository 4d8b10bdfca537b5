"""DER device models: parameters, one-step dynamics, limits.

Sign convention, used everywhere in the package: power P is net
injection, so P > 0 means generation into the grid and P < 0 means
consumption. Batteries discharge at P > 0 and charge at P < 0; heat
pumps and fixed loads are always P <= 0; PV is always P >= 0.

Units: power kW, energy kWh, time steps in hours, state of charge
dimensionless in [0, 1], temperatures in the unit declared by the
scenario config (the dynamics are unit-agnostic).

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BATTERY = "battery"
EV = "ev"
HEAT_PUMP = "heat_pump"
PV = "pv"

DEVICE_KINDS = (BATTERY, EV, HEAT_PUMP, PV)


class DeviceValidationError(ValueError):
    """A device parameter violates its declared range; names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise DeviceValidationError(field, message)


@dataclass(frozen=True)
class BatteryParams:
    """Stationary battery storage."""

    self_discharge: float      # per-step loss fraction
    efficiency: float
    capacity_kwh: float
    p_min_kw: float            # most negative charging power (< 0)
    p_max_kw: float            # max discharge power (> 0)
    soc_min: float
    soc_max: float
    soc_init: float

    kind = BATTERY

    def __post_init__(self):
        _require(0.0 <= self.self_discharge < 1.0, "self_discharge", "must be in [0, 1)")
        _require(0.0 < self.efficiency <= 1.0, "efficiency", "must be in (0, 1]")
        _require(self.capacity_kwh > 0.0, "capacity_kwh", "must be positive")
        _require(self.p_min_kw < 0.0 < self.p_max_kw, "p_min_kw",
                 "need p_min_kw < 0 < p_max_kw")
        _require(0.0 <= self.soc_min < self.soc_max <= 1.0, "soc_min",
                 "need 0 <= soc_min < soc_max <= 1")
        _require(self.soc_min <= self.soc_init <= self.soc_max, "soc_init",
                 "must lie within [soc_min, soc_max]")

    @property
    def initial_state(self) -> float:
        return self.soc_init


@dataclass(frozen=True)
class EvParams(BatteryParams):
    """EV battery: same electrical model plus an absence window and a
    charge target (reach soc_target by target_step)."""

    away_start: int = 0        # first absent step (inclusive)
    away_end: int = 0          # last absent step (inclusive)
    soc_target: float = 0.9
    target_step: int = 0

    kind = EV

    def __post_init__(self):
        super().__post_init__()
        _require(self.away_start <= self.away_end, "away_start",
                 "away window needs away_start <= away_end")
        _require(self.target_step >= 0, "target_step", "must be a step index >= 0")
        _require(self.soc_min <= self.soc_target <= self.soc_max, "soc_target",
                 "must lie within the SOC bounds")

    def is_away(self, t: int) -> bool:
        return self.away_start <= t <= self.away_end


@dataclass(frozen=True)
class HpParams:
    """Heat pump / HVAC acting on a first-order thermal RC model."""

    r_th: float                # thermal resistance, degrees per kW
    c_th: float                # thermal capacitance, kWh per degree
    cop: float
    p_rated_kw: float          # max electrical draw (> 0); injection is -p_rated..0
    t_min: float
    t_max: float
    t_setpoint: float
    t_init: float

    kind = HEAT_PUMP

    def __post_init__(self):
        for name in ("r_th", "c_th", "cop", "p_rated_kw"):
            _require(getattr(self, name) > 0.0, name, "must be positive")
        _require(self.t_min < self.t_setpoint < self.t_max, "t_setpoint",
                 "need t_min < t_setpoint < t_max")
        _require(self.t_min <= self.t_init <= self.t_max, "t_init",
                 "must lie within [t_min, t_max]")

    def theta(self, dt_h: float) -> float:
        return math.exp(-dt_h / (self.r_th * self.c_th))

    @property
    def rho(self) -> float:
        return self.r_th * self.cop

    @property
    def initial_state(self) -> float:
        return self.t_init


@dataclass(frozen=True)
class PvParams:
    """Rooftop PV; output capped by irradiance fraction times rating."""

    p_rated_kw: float

    kind = PV

    def __post_init__(self):
        _require(self.p_rated_kw > 0.0, "p_rated_kw", "must be positive")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the multiperiod objective's cost terms."""

    alpha_cyc: float = 0.1     # battery/EV cycling
    xi_ev: float = 10.0        # EV charge-target tracking
    xi_ac: float = 1.0         # indoor comfort tracking
    xi_pv: float = 1.0         # PV curtailment
    utilization: float = 1.0   # PV self-consumption coupling

    def __post_init__(self):
        for name in ("alpha_cyc", "xi_ev", "xi_ac", "xi_pv", "utilization"):
            _require(getattr(self, name) >= 0.0, name, "must be nonnegative")


def battery_soc_step(p: BatteryParams, soc: float, power_kw: float,
                     dt_h: float) -> float:
    """One step of the SOC recurrence. No clamping: feasibility is the
    optimizer's job, this is the raw dynamics."""
    return (1.0 - p.self_discharge) * soc \
        - power_kw * dt_h * p.efficiency / p.capacity_kwh


def hp_temperature_step(p: HpParams, t_in: float, t_out: float,
                        power_kw: float, dt_h: float) -> float:
    """One step of the indoor-temperature recurrence.

    Cooling (t_out > t_in):  T+ = theta*t_in + (1-theta)*(t_out + rho*P)
    Heating (t_out < t_in):  T+ = theta*t_in + (1-theta)*(t_out - rho*P)
    A tie uses the cooling form; the branch sign only matters when the
    temperatures differ. power_kw is an injection, so it must be <= 0.
    """
    if power_kw > 0.0:
        raise ValueError(f"heat pump power must be <= 0 (got {power_kw})")
    th = p.theta(dt_h)
    if t_out >= t_in:
        return th * t_in + (1.0 - th) * (t_out + p.rho * power_kw)
    return th * t_in + (1.0 - th) * (t_out - p.rho * power_kw)


def hp_mode_sign(heating: bool) -> float:
    """Sign of the rho*P term in the thermal recurrence: +1 cooling, -1 heating."""
    return -1.0 if heating else 1.0


def feasible_power_interval(device, t: int, alpha_pv: float = 0.0):
    """Feasible injection interval [lo, hi] in kW for one step.

    alpha_pv is the irradiance fraction at step t and is ignored for
    non-PV devices. The EV interval collapses to {0} while away.
    """
    kind = device.kind
    if kind == EV:
        if device.is_away(t):
            return (0.0, 0.0)
        return (device.p_min_kw, device.p_max_kw)
    if kind == BATTERY:
        return (device.p_min_kw, device.p_max_kw)
    if kind == HEAT_PUMP:
        return (-device.p_rated_kw, 0.0)
    if kind == PV:
        if not 0.0 <= alpha_pv <= 1.0:
            raise ValueError(f"irradiance fraction must be in [0, 1] (got {alpha_pv})")
        return (0.0, alpha_pv * device.p_rated_kw)
    raise ValueError(f"unknown device kind {kind!r}")


_STORAGE_FIELDS = ("self_discharge", "efficiency", "capacity_kwh", "p_min_kw",
                   "p_max_kw", "soc_min", "soc_max", "soc_init")

_STEP_FIELDS = ("away_start", "away_end", "target_step")

# config fields of each device kind, in constructor order
_DEVICE_FIELDS = {
    BATTERY: (BatteryParams, _STORAGE_FIELDS),
    EV: (EvParams, _STORAGE_FIELDS + ("away_start", "away_end", "soc_target",
                                      "target_step")),
    HEAT_PUMP: (HpParams, ("r_th", "c_th", "cop", "p_rated_kw", "t_min",
                           "t_max", "t_setpoint", "t_init")),
    PV: (PvParams, ("p_rated_kw",)),
}


def device_from_dict(kind: str, data: dict):
    """Build a device parameter record from a config mapping."""
    if kind not in _DEVICE_FIELDS:
        raise DeviceValidationError(
            "kind", f"unknown device kind {kind!r}; expected one of {DEVICE_KINDS}")
    ctor, fields = _DEVICE_FIELDS[kind]
    unknown = set(data) - set(fields)
    if unknown:
        raise DeviceValidationError(sorted(unknown)[0], "unknown parameter")
    missing = [f for f in fields if f not in data]
    if missing:
        raise DeviceValidationError(missing[0], "missing parameter")
    vals = {}
    for f in fields:
        try:
            vals[f] = float(data[f])
        except (TypeError, ValueError) as exc:
            raise DeviceValidationError(f, f"not a number: {data[f]!r}") from exc
        if f in _STEP_FIELDS:
            # a step index is never truncated: 3.7 is an error, 3.0 is step 3
            _require(vals[f].is_integer(), f, f"must be an integer, got {data[f]!r}")
            vals[f] = int(vals[f])
    return ctor(**vals)


def device_to_dict(device) -> dict:
    """The config mapping device_from_dict reads back to an equal record."""
    return {f: getattr(device, f) for f in _DEVICE_FIELDS[device.kind][1]}
