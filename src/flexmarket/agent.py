"""Consumer agent logic: flexibility scheduling and price response.

Stage I: each agent solves a multiperiod optimization over a receding
horizon window to pick per-device injection setpoints P_d(t) and
symmetric flexibility half-widths delta_d(t), trading off flexibility
reward, device operating costs (cycling, charge-target, comfort,
curtailment), PV self-consumption, and total net injection. The
absolute-value flexibility bounds eps_lo*|P| <= delta <= eps_hi*|P| are
exact-linearized with a binary split for storage devices (whose
injection can take either sign), which makes the problem a mixed-integer
QP. The first-step results aggregate into a FlexibilityOffer.

Stage II: given announced prices, the agent's welfare is concave
quadratic in its bid, so the best response has a closed form: saturate
at the offer ceiling when the price signal is strong enough, otherwise
bid the interior stationary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from . import devices as dev
from .bnb import BnbConfig, MixedIntegerQp, solve_miqp
from .devices import ObjectiveWeights
from .qp import QpBuilder
from .scenario import AgentSpec, HorizonView


class AgentError(ValueError):
    pass


class DegenerateAgentError(AgentError):
    """Agent with no devices and no fixed load: nothing to schedule."""


class InfeasibleMpoError(AgentError):
    """The agent's scheduling problem has no feasible point."""


@dataclass(frozen=True)
class DeviceSchedule:
    """One device's horizon plan: injections, flexibility, states."""

    kind: str
    power_kw: tuple             # P_d(t) over the window
    delta_kw: tuple             # symmetric half-width per step
    states: tuple               # SOC or temperature at each step start (empty for PV)
    mode_signs: tuple = ()      # heat pump only: +1 cooling / -1 heating per step


@dataclass(frozen=True)
class FlexibilityOffer:
    """Stage-I result reported to the operator for one clearing."""

    agent_id: str
    p0: float                   # baseline net injection at the bid step
    p_lo: float
    p_hi: float
    schedules: Mapping[str, DeviceSchedule]
    solver_status: str = "optimal"
    solver_gap: float = 0.0

    def __post_init__(self):
        if not (self.p_lo <= self.p0 + 1e-9 and self.p0 <= self.p_hi + 1e-9):
            raise AgentError(
                f"offer ordering violated: {self.p_lo} <= {self.p0} <= {self.p_hi}")


@dataclass(frozen=True)
class Bid:
    """Flexible injection the agent commits to for one clearing."""

    p_star: float


def hp_mode_schedule(hp: dev.HpParams, view: HorizonView, t_in_now: float) -> tuple:
    """Cooling/heating sign per window step, fixed before optimizing.

    The executed step (k = 0) uses the known current indoor temperature,
    so its dynamics coincide exactly with the runtime temperature step.
    Later steps fall back to the outdoor forecast against the setpoint,
    which keeps the dynamics decision-independent.
    """
    signs = []
    for k in range(view.length):
        if k == 0:
            heating = view.outdoor_temp[0] < t_in_now
        else:
            heating = view.outdoor_temp[k] < hp.t_setpoint
        signs.append(dev.hp_mode_sign(heating))
    return tuple(signs)


@dataclass
class _MpoLayout:
    """Variable/row bookkeeping for one agent's window problem."""

    P: dict = field(default_factory=dict)        # (kind, k) -> var
    delta: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)    # (kind, k) -> var, k = 1..H
    plus: dict = field(default_factory=dict)
    minus: dict = field(default_factory=dict)
    z: dict = field(default_factory=dict)
    binaries: list = field(default_factory=list)
    mode_signs: dict = field(default_factory=dict)
    kinds: tuple = ()
    H: int = 0


def build_mpo(spec: AgentSpec, view: HorizonView,
              weights: ObjectiveWeights) -> MixedIntegerQp:
    """Assemble the agent's window problem as a mixed-integer QP.

    Variables per step and device: injection P, flexibility delta, a
    state for storage/thermal devices, and the P+/P-/z absolute-value
    split for battery and EV. The returned problem carries its variable
    layout (as `.layout`) so schedules can be read back from a solution.
    """
    H = view.length
    t0 = view.t_start
    fixed = spec.fixed_load[t0:t0 + H]
    if not spec.devices and all(v == 0.0 for v in fixed):
        raise DegenerateAgentError(
            f"agent {spec.id} has no devices and zero fixed load")

    b = QpBuilder()
    lay = _MpoLayout(kinds=tuple(d.kind for d in spec.devices), H=H)
    states_now = view.device_states.get(spec.id, {})

    for d in spec.devices:
        kind = d.kind
        for k in range(H):
            t = t0 + k
            alpha = view.irradiance_frac[k] if kind == dev.PV else 0.0
            lo, hi = dev.feasible_power_interval(d, t, alpha)
            lay.P[kind, k] = b.add_var(lo, hi)
            lay.delta[kind, k] = b.add_var(0.0, math.inf)
            # flexibility envelope: limits must hold at P +- delta
            b.add_le([(lay.P[kind, k], 1.0), (lay.delta[kind, k], 1.0)], hi)
            b.add_ge([(lay.P[kind, k], 1.0), (lay.delta[kind, k], -1.0)], lo)

        if kind in (dev.BATTERY, dev.EV):
            _add_storage(b, lay, d, spec, view, states_now.get(kind))
        elif kind == dev.HEAT_PUMP:
            _add_heat_pump(b, lay, d, spec, view, states_now.get(kind))
        else:
            _add_pv(b, lay, d, spec, view)

    _add_objective(b, lay, spec, view, weights)
    qp = b.build(validate_psd=False)    # PSD by construction: sums of squares
    miqp = MixedIntegerQp(qp, lay.binaries)
    miqp.layout = lay
    return miqp


def _add_storage(b: QpBuilder, lay: _MpoLayout, d, spec: AgentSpec,
                 view: HorizonView, soc_now: Optional[float]) -> None:
    kind = d.kind
    H, dt, t0 = view.length, view.dt_hours, view.t_start
    soc0 = d.soc_init if soc_now is None else soc_now
    coeff = dt * d.efficiency / d.capacity_kwh
    keep = 1.0 - d.self_discharge

    for k in range(H):
        t = t0 + k
        pmax = max(d.p_max_kw, 0.0)
        pmin = min(d.p_min_kw, 0.0)
        away = kind == dev.EV and d.is_away(t)
        lay.plus[kind, k] = b.add_var(0.0, 0.0 if away else pmax)
        lay.minus[kind, k] = b.add_var(0.0, 0.0 if away else -pmin)
        lay.z[kind, k] = b.add_var(0.0, 1.0)
        lay.binaries.append(lay.z[kind, k])
        # split P = P+ - P- with binary gating making |P| = P+ + P- exact
        b.add_eq([(lay.P[kind, k], 1.0), (lay.plus[kind, k], -1.0),
                  (lay.minus[kind, k], 1.0)], 0.0)
        b.add_le([(lay.plus[kind, k], 1.0), (lay.z[kind, k], -pmax)], 0.0)
        b.add_le([(lay.minus[kind, k], 1.0), (lay.z[kind, k], -pmin)], -pmin)
        # eps band on flexibility: eps_lo*|P| <= delta <= eps_hi*|P|
        b.add_le([(lay.plus[kind, k], spec.eps_lo), (lay.minus[kind, k], spec.eps_lo),
                  (lay.delta[kind, k], -1.0)], 0.0)
        b.add_le([(lay.delta[kind, k], 1.0), (lay.plus[kind, k], -spec.eps_hi),
                  (lay.minus[kind, k], -spec.eps_hi)], 0.0)

    for k in range(1, H + 1):
        lay.state[kind, k] = b.add_var(d.soc_min, d.soc_max)
    # SOC recurrence soc' = keep*soc - coeff*P
    b.add_eq([(lay.state[kind, 1], 1.0), (lay.P[kind, 0], coeff)], keep * soc0)
    for k in range(1, H):
        b.add_eq([(lay.state[kind, k + 1], 1.0), (lay.state[kind, k], -keep),
                  (lay.P[kind, k], coeff)], 0.0)
    # anchor the window end: equality when the window reaches the
    # simulation end (start-equals-end over the whole day), otherwise an
    # anti-depletion floor at the configured initial SOC
    if view.reaches_end:
        b.add_eq([(lay.state[kind, H], 1.0)], d.soc_init)
    else:
        b.add_ge([(lay.state[kind, H], 1.0)], d.soc_init)
    # executed-step robustness: an upward settlement deviation within
    # delta must keep the next state feasible
    b.add_ge([(lay.P[kind, 0], -coeff), (lay.delta[kind, 0], -coeff)],
             d.soc_min - keep * soc0)


def _add_heat_pump(b: QpBuilder, lay: _MpoLayout, d, spec: AgentSpec,
                   view: HorizonView, t_in_now: Optional[float]) -> None:
    kind = dev.HEAT_PUMP
    H = view.length
    t_now = d.t_init if t_in_now is None else t_in_now
    th = d.theta(view.dt_hours)
    signs = hp_mode_schedule(d, view, t_now)
    lay.mode_signs[kind] = signs

    for k in range(H):
        # eps band with the known sign |P_hp| = -P_hp
        b.add_le([(lay.P[kind, k], -spec.eps_lo), (lay.delta[kind, k], -1.0)], 0.0)
        b.add_le([(lay.delta[kind, k], 1.0), (lay.P[kind, k], spec.eps_hi)], 0.0)
    for k in range(1, H + 1):
        lay.state[kind, k] = b.add_var(d.t_min, d.t_max)
    # T' = th*T + (1-th)*(T_out + sign*rho*P)
    g = (1.0 - th)
    b.add_eq([(lay.state[kind, 1], 1.0), (lay.P[kind, 0], -g * signs[0] * d.rho)],
             th * t_now + g * view.outdoor_temp[0])
    for k in range(1, H):
        b.add_eq([(lay.state[kind, k + 1], 1.0), (lay.state[kind, k], -th),
                  (lay.P[kind, k], -g * signs[k] * d.rho)],
                 g * view.outdoor_temp[k])
    # executed-step robustness under upward deviation (P rises toward 0):
    # cooling warms the room, heating cools it
    if signs[0] > 0:
        b.add_le([(lay.P[kind, 0], g * d.rho), (lay.delta[kind, 0], g * d.rho)],
                 d.t_max - th * t_now - g * view.outdoor_temp[0])
    else:
        b.add_ge([(lay.P[kind, 0], -g * d.rho), (lay.delta[kind, 0], -g * d.rho)],
                 d.t_min - th * t_now - g * view.outdoor_temp[0])


def _add_pv(b: QpBuilder, lay: _MpoLayout, d, spec: AgentSpec,
            view: HorizonView) -> None:
    kind = dev.PV
    for k in range(view.length):
        # eps band with the known sign |P_pv| = P_pv
        b.add_le([(lay.P[kind, k], spec.eps_lo), (lay.delta[kind, k], -1.0)], 0.0)
        b.add_le([(lay.delta[kind, k], 1.0), (lay.P[kind, k], -spec.eps_hi)], 0.0)


def _add_objective(b: QpBuilder, lay: _MpoLayout, spec: AgentSpec,
                   view: HorizonView, w: ObjectiveWeights) -> None:
    H, t0 = view.length, view.t_start
    fixed = spec.fixed_load[t0:t0 + H]
    for d in spec.devices:
        kind = d.kind
        for k in range(H):
            b.add_linear(lay.delta[kind, k], -1.0)      # reward flexibility
            b.add_linear(lay.P[kind, k], -1.0)          # reward net injection
        if kind in (dev.BATTERY, dev.EV):
            for k in range(H - 1):
                b.add_square([(lay.P[kind, k + 1], 1.0), (lay.P[kind, k], -1.0)],
                             0.0, w.alpha_cyc)
        if kind == dev.EV:
            k_star = d.target_step - t0
            if 1 <= k_star <= H - 1:
                b.add_square([(lay.state[kind, k_star], 1.0)], -d.soc_target, w.xi_ev)
            elif k_star == 0:
                soc0 = view.device_states.get(spec.id, {}).get(kind)
                soc0 = d.soc_init if soc0 is None else soc0
                b.add_const(w.xi_ev * (soc0 - d.soc_target) ** 2)
        if kind == dev.HEAT_PUMP:
            # comfort over the window's steps; step 0 is the fixed start
            t_now = view.device_states.get(spec.id, {}).get(kind)
            t_now = d.t_init if t_now is None else t_now
            b.add_const(w.xi_ac * (t_now - d.t_setpoint) ** 2)
            for k in range(1, H):
                b.add_square([(lay.state[kind, k], 1.0)], -d.t_setpoint, w.xi_ac)
        if kind == dev.PV:
            for k in range(H):
                b.add_square([(lay.P[kind, k], -1.0)],
                             view.irradiance_frac[k] * d.p_rated_kw, w.xi_pv)
    # PV self-consumption: pull PV + battery + EV injections toward zero
    util_kinds = [kk for kk in (dev.PV, dev.BATTERY, dev.EV) if kk in lay.kinds]
    if util_kinds:
        for k in range(H):
            b.add_square([(lay.P[kk, k], 1.0) for kk in util_kinds], 0.0,
                         w.utilization)
    b.add_const(sum(fixed))     # -P_total = -(sum_d P_d - fixed)


def _clip(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _extract_schedules(spec: AgentSpec, view: HorizonView, lay: _MpoLayout,
                       x: np.ndarray) -> dict:
    """Read device schedules out of a solution, snapping solver dust back
    into the feasible boxes so downstream dynamics see clean values."""
    out = {}
    H, t0 = lay.H, view.t_start
    for d in spec.devices:
        kind = d.kind
        powers, deltas, states = [], [], []
        for k in range(H):
            alpha = view.irradiance_frac[k] if kind == dev.PV else 0.0
            lo, hi = dev.feasible_power_interval(d, t0 + k, alpha)
            p = _clip(float(x[lay.P[kind, k]]), lo, hi)
            dl = float(x[lay.delta[kind, k]])
            dl = _clip(dl, 0.0, min(spec.eps_hi * abs(p), hi - p, p - lo))
            powers.append(p)
            deltas.append(dl)
        if kind in (dev.BATTERY, dev.EV, dev.HEAT_PUMP):
            soc_or_t = view.device_states.get(spec.id, {}).get(kind)
            if soc_or_t is None:
                soc_or_t = d.initial_state
            states.append(float(soc_or_t))
            for k in range(1, H):
                states.append(float(x[lay.state[kind, k]]))
        out[kind] = DeviceSchedule(
            kind=kind, power_kw=tuple(powers), delta_kw=tuple(deltas),
            states=tuple(states),
            mode_signs=lay.mode_signs.get(kind, ()))
    return out


def solve_flexibility(spec: AgentSpec, view: HorizonView,
                      weights: ObjectiveWeights,
                      cfg: BnbConfig | None = None) -> FlexibilityOffer:
    """Stage I: solve the window problem and report the first-step offer."""
    t0 = view.t_start
    fixed_now = spec.fixed_load[t0]
    if not spec.devices:
        if all(v == 0.0 for v in spec.fixed_load[t0:t0 + view.length]):
            raise DegenerateAgentError(
                f"agent {spec.id} has no devices and zero fixed load")
        p0 = -fixed_now
        return FlexibilityOffer(spec.id, p0, p0, p0, {})

    miqp = build_mpo(spec, view, weights)
    sol = solve_miqp(miqp, cfg or BnbConfig())
    if sol.status == "infeasible":
        raise InfeasibleMpoError(
            f"agent {spec.id}: window starting at step {t0} is infeasible")
    if not np.all(np.isfinite(sol.primal)):
        raise AgentError(
            f"agent {spec.id}: solver exhausted its budget without a "
            f"feasible schedule for the window starting at step {t0}")
    schedules = _extract_schedules(spec, view, miqp.layout, sol.primal)
    p0 = sum(s.power_kw[0] for s in schedules.values()) - fixed_now
    span = sum(s.delta_kw[0] for s in schedules.values())
    return FlexibilityOffer(
        agent_id=spec.id, p0=p0, p_lo=p0 - span, p_hi=p0 + span,
        schedules=schedules, solver_status=sol.status, solver_gap=sol.gap)


def best_response(gamma: float, p0: float, p_hi: float, mu: float,
                  mu_tilde: float) -> Bid:
    """Welfare-maximizing bid in [p0, p_hi] given announced prices.

    Saturates at p_hi when gamma*(p_hi - p0)/(mu + mu_tilde) < 1/2,
    otherwise bids the interior stationary point p0 + (mu+mu_tilde)/(2*gamma);
    the two branches agree at the boundary.
    """
    if gamma <= 0:
        raise AgentError(f"gamma must be positive (got {gamma})")
    if p_hi < p0 - 1e-12:
        raise AgentError(f"need p_hi >= p0 (got p0={p0}, p_hi={p_hi})")
    s = mu + mu_tilde
    if s < -1e-12:
        raise AgentError(f"price sum mu + mu_tilde must be >= 0 (got {s})")
    span = max(p_hi - p0, 0.0)
    if s > 0.0 and 2.0 * gamma * span < s:
        return Bid(p_hi)
    return Bid(_clip(p0 + s / (2.0 * gamma), p0, p_hi))


def agent_welfare(gamma: float, p0: float, p: float, mu: float,
                mu_tilde: float) -> float:
    """Agent welfare at bid p: flexibility compensation plus energy value
    minus quadratic disutility of deviating from the baseline."""
    if gamma <= 0:
        raise AgentError(f"gamma must be positive (got {gamma})")
    d = p - p0
    return mu_tilde * d + mu * p - gamma * d * d
