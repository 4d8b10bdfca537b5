"""Consumer agent logic: flexibility scheduling and price response.

Stage I: each agent solves a multiperiod optimization over a receding
horizon window to pick per-device injection setpoints P_d(t) and
symmetric flexibility half-widths delta_d(t), trading off flexibility
reward, device operating costs (cycling, charge-target, comfort,
curtailment), PV self-consumption, and total net injection. The
absolute-value flexibility bounds eps_lo*|P| <= delta <= eps_hi*|P| are
exact-linearized with a binary split at each step whose power interval
holds both signs (a battery's steps, an EV's steps at home), which makes
the problem a mixed-integer QP; elsewhere |P| is P or -P. The first-step
results aggregate into a FlexibilityOffer.

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
from .qp import QpBuilder, QpSolution, QuadraticProgram
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
    # the window's root relaxation, to warm-start the agent's next clearing
    root: Optional["RootRelaxation"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (self.p_lo <= self.p0 + 1e-9 and self.p0 <= self.p_hi + 1e-9):
            raise AgentError(
                f"offer ordering violated: {self.p_lo} <= {self.p0} <= {self.p_hi}")


def hp_mode_schedule(hp: dev.HpParams, view: HorizonView, t_in_now: float) -> tuple:
    """Cooling/heating sign per window step, fixed before optimizing.

    The executed step (k = 0) uses the known current indoor temperature,
    so its dynamics coincide exactly with the runtime temperature step.
    Later steps fall back to the outdoor forecast against the setpoint,
    which keeps the dynamics decision-independent.
    """
    return tuple(dev.hp_mode_sign(view.outdoor_temp[k],
                                  t_in_now if k == 0 else hp.t_setpoint)
                 for k in range(view.length))


@dataclass
class _MpoLayout:
    """Variable/row bookkeeping for one agent's window problem. Rows are
    keyed (kind, role, k), k None for a row that is not per-step; a row
    with another definition has another role."""

    P: dict = field(default_factory=dict)        # (kind, k) -> var
    delta: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)    # (kind, k) -> var, k = 1..H
    plus: dict = field(default_factory=dict)
    minus: dict = field(default_factory=dict)
    z: dict = field(default_factory=dict)
    eq: dict = field(default_factory=dict)       # (kind, role, k) -> A_eq row
    le: dict = field(default_factory=dict)       # (kind, role, k) -> A_le row
    mode_signs: dict = field(default_factory=dict)
    start: dict = field(default_factory=dict)    # kind -> SOC or temperature at k = 0
    kinds: tuple = ()
    H: int = 0


def build_mpo(spec: AgentSpec, view: HorizonView,
              weights: ObjectiveWeights) -> MixedIntegerQp:
    """Assemble the agent's window problem as a mixed-integer QP.

    Variables per step and device: injection P, flexibility delta, a
    state for storage/thermal devices, and the P+/P-/z absolute-value
    split, z binary, where the step's power interval holds both signs.
    The returned problem carries its variable layout (as `.layout`) so
    schedules can be read back from a solution.
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
        if kind != dev.PV:
            now = states_now.get(kind)
            lay.start[kind] = d.initial_state if now is None else now
        spans = []
        for k in range(H):
            alpha = view.irradiance_frac[k] if kind == dev.PV else 0.0
            lo, hi = dev.feasible_power_interval(d, t0 + k, alpha)
            spans.append((lo, hi))
            lay.P[kind, k] = b.add_var(lo, hi)
            lay.delta[kind, k] = b.add_var(0.0, math.inf)
            # flexibility envelope: limits must hold at P +- delta
            lay.le[kind, "env_hi", k] = b.add_le(
                [(lay.P[kind, k], 1.0), (lay.delta[kind, k], 1.0)], hi)
            lay.le[kind, "env_lo", k] = b.add_ge(
                [(lay.P[kind, k], 1.0), (lay.delta[kind, k], -1.0)], lo)
            b.add_linear(lay.delta[kind, k], -1.0)      # reward flexibility
            b.add_linear(lay.P[kind, k], -1.0)          # reward net injection
        for k, (lo, hi) in enumerate(spans):
            _add_band(b, lay, kind, k, lo, hi, spec)

        if kind in (dev.BATTERY, dev.EV):
            _add_storage(b, lay, d, spec, view, weights)
        elif kind == dev.HEAT_PUMP:
            _add_heat_pump(b, lay, d, spec, view, weights)
        else:
            _add_pv(b, lay, d, spec, view, weights)

    # PV self-consumption: pull PV + battery + EV injections toward zero
    util_kinds = [kk for kk in (dev.PV, dev.BATTERY, dev.EV) if kk in lay.kinds]
    if util_kinds:
        for k in range(H):
            b.add_square([(lay.P[kk, k], 1.0) for kk in util_kinds], 0.0,
                         weights.utilization)
    b.add_const(sum(fixed))     # -P_total = -(sum_d P_d - fixed)
    miqp = MixedIntegerQp(b.build(), lay.z.values())
    miqp.layout = lay
    return miqp


def _add_band(b: QpBuilder, lay: _MpoLayout, kind: str, k: int, lo: float,
              hi: float, spec: AgentSpec) -> None:
    """The eps band on flexibility, eps_lo*|P| <= delta <= eps_hi*|P|, at
    a step whose power interval is [lo, hi]. Where the interval holds
    both signs, P = P+ - P- with a binary z gating the halves, which makes
    |P| = P+ + P- exact; elsewhere the interval fixes P's sign and |P| is
    P or -P (P at lo = hi = 0), with no binary."""
    P, dl = lay.P[kind, k], lay.delta[kind, k]
    if lo < 0.0 < hi:
        pp = lay.plus[kind, k] = b.add_var(0.0, hi)
        pm = lay.minus[kind, k] = b.add_var(0.0, -lo)
        z = lay.z[kind, k] = b.add_var(0.0, 1.0)
        lay.eq[kind, "split", k] = b.add_eq([(P, 1.0), (pp, -1.0), (pm, 1.0)], 0.0)
        lay.le[kind, "gate_plus", k] = b.add_le([(pp, 1.0), (z, -hi)], 0.0)
        lay.le[kind, "gate_minus", k] = b.add_le([(pm, 1.0), (z, -lo)], -lo)
        abs_p = [(pp, 1.0), (pm, 1.0)]
    else:
        abs_p = [(P, -1.0 if lo < 0.0 else 1.0)]
    lay.le[kind, "eps_lo", k] = b.add_le(
        [(v, spec.eps_lo * s) for v, s in abs_p] + [(dl, -1.0)], 0.0)
    lay.le[kind, "eps_hi", k] = b.add_le(
        [(dl, 1.0)] + [(v, -spec.eps_hi * s) for v, s in abs_p], 0.0)


def _add_storage(b: QpBuilder, lay: _MpoLayout, d, spec: AgentSpec,
                 view: HorizonView, w: ObjectiveWeights) -> None:
    kind = d.kind
    H, dt, t0 = view.length, view.dt_hours, view.t_start
    soc0 = lay.start[kind]
    coeff = dt * d.efficiency / d.capacity_kwh
    keep = 1.0 - d.self_discharge

    for k in range(1, H + 1):
        lay.state[kind, k] = b.add_var(d.soc_min, d.soc_max)
    # SOC recurrence soc' = keep*soc - coeff*P
    lay.eq[kind, "soc", 0] = b.add_eq(
        [(lay.state[kind, 1], 1.0), (lay.P[kind, 0], coeff)], keep * soc0)
    for k in range(1, H):
        lay.eq[kind, "soc", k] = b.add_eq(
            [(lay.state[kind, k + 1], 1.0), (lay.state[kind, k], -keep),
             (lay.P[kind, k], coeff)], 0.0)
    # anchor the window end: when the window holds the simulation's end
    # step, the SOC there equals the configured initial SOC
    # (start-equals-end over the whole day); otherwise an anti-depletion
    # floor on the window's last state, at the initial SOC lowered to the
    # SOC that charging at full power at every step can reach. Both use
    # the band from full discharge to full charge over the steps up to
    # the anchored state.
    k_end = min(H, view.end_step - t0)
    low = reach = soc0
    for k in range(k_end):
        lo, hi = dev.feasible_power_interval(d, t0 + k)
        low = max(keep * low - coeff * hi, d.soc_min)
        reach = min(keep * reach - coeff * lo, d.soc_max)
    if view.reaches_end:
        if not low - 1e-9 <= d.soc_init <= reach + 1e-9:
            raise InfeasibleMpoError(
                f"agent {spec.id}: {kind} cannot return to its initial SOC "
                f"{d.soc_init} by step {view.end_step} from {soc0} at step {t0} "
                f"(reachable [{low:.6g}, {reach:.6g}])")
        lay.eq[kind, "end_eq", None] = b.add_eq(
            [(lay.state[kind, k_end], 1.0)], d.soc_init)
    else:
        lay.le[kind, "end_floor", None] = b.add_ge(
            [(lay.state[kind, H], 1.0)], min(d.soc_init, reach))
    # executed-step robustness: an upward settlement deviation within
    # delta must keep the next state feasible
    lay.le[kind, "robust", None] = b.add_ge(
        [(lay.P[kind, 0], -coeff), (lay.delta[kind, 0], -coeff)],
        d.soc_min - keep * soc0)
    # cycling: penalize step-to-step power changes
    for k in range(H - 1):
        b.add_square([(lay.P[kind, k + 1], 1.0), (lay.P[kind, k], -1.0)],
                     0.0, w.alpha_cyc)
    if kind == dev.EV:
        # charge target at its step; at k = 0 the start state is fixed
        k_star = d.target_step - t0
        if 1 <= k_star <= H - 1:
            b.add_square([(lay.state[kind, k_star], 1.0)], -d.soc_target, w.xi_ev)
        elif k_star == 0:
            b.add_const(w.xi_ev * (soc0 - d.soc_target) ** 2)


def _add_heat_pump(b: QpBuilder, lay: _MpoLayout, d, spec: AgentSpec,
                   view: HorizonView, w: ObjectiveWeights) -> None:
    kind = dev.HEAT_PUMP
    H = view.length
    t_now = lay.start[kind]
    th = d.theta(view.dt_hours)
    signs = hp_mode_schedule(d, view, t_now)
    lay.mode_signs[kind] = signs

    for k in range(1, H + 1):
        lay.state[kind, k] = b.add_var(d.t_min, d.t_max)
    # T' = th*T + (1-th)*(T_out + sign*rho*P)
    g = (1.0 - th)
    lay.eq[kind, "temp", 0] = b.add_eq(
        [(lay.state[kind, 1], 1.0), (lay.P[kind, 0], -g * signs[0] * d.rho)],
        th * t_now + g * view.outdoor_temp[0])
    for k in range(1, H):
        lay.eq[kind, "temp", k] = b.add_eq(
            [(lay.state[kind, k + 1], 1.0), (lay.state[kind, k], -th),
             (lay.P[kind, k], -g * signs[k] * d.rho)],
            g * view.outdoor_temp[k])
    # executed-step robustness under upward deviation (P rises toward 0):
    # cooling warms the room, heating cools it
    if signs[0] > 0:
        lay.le[kind, "robust_cool", None] = b.add_le(
            [(lay.P[kind, 0], g * d.rho), (lay.delta[kind, 0], g * d.rho)],
            d.t_max - th * t_now - g * view.outdoor_temp[0])
    else:
        lay.le[kind, "robust_heat", None] = b.add_ge(
            [(lay.P[kind, 0], -g * d.rho), (lay.delta[kind, 0], -g * d.rho)],
            d.t_min - th * t_now - g * view.outdoor_temp[0])
    # comfort over the window's steps; step 0 is the fixed start
    b.add_const(w.xi_ac * (t_now - d.t_setpoint) ** 2)
    for k in range(1, H):
        b.add_square([(lay.state[kind, k], 1.0)], -d.t_setpoint, w.xi_ac)


def _add_pv(b: QpBuilder, lay: _MpoLayout, d, spec: AgentSpec,
            view: HorizonView, w: ObjectiveWeights) -> None:
    kind = dev.PV
    for k in range(view.length):
        # curtailment: pull P toward the available output
        b.add_square([(lay.P[kind, k], -1.0)],
                     view.irradiance_frac[k] * d.p_rated_kw, w.xi_pv)


def _clip(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _extract_schedules(spec: AgentSpec, lay: _MpoLayout, qp: QuadraticProgram,
                       x: np.ndarray) -> dict:
    """Read device schedules out of a solution, snapping solver dust back
    into the program's own power bounds so downstream dynamics see clean
    values."""
    out = {}
    for d in spec.devices:
        kind = d.kind
        powers, deltas, states = [], [], ()
        for k in range(lay.H):
            i = lay.P[kind, k]
            lo, hi = float(qp.lb[i]), float(qp.ub[i])
            p = _clip(float(x[i]), lo, hi)
            dl = float(x[lay.delta[kind, k]])
            dl = _clip(dl, 0.0, min(spec.eps_hi * abs(p), hi - p, p - lo))
            powers.append(p)
            deltas.append(dl)
        if kind in lay.start:
            states = (float(lay.start[kind]),) + tuple(
                float(x[lay.state[kind, k]]) for k in range(1, lay.H))
        out[kind] = DeviceSchedule(
            kind=kind, power_kw=tuple(powers), delta_kw=tuple(deltas),
            states=states,
            mode_signs=lay.mode_signs.get(kind, ()))
    return out


@dataclass(frozen=True)
class RootRelaxation:
    """One window's root relaxation with the layout that names its
    entries; the agent's next clearing starts from it, shifted."""

    t_start: int
    layout: _MpoLayout
    solution: QpSolution


def _shift_pairs(old: dict, new: dict) -> np.ndarray:
    """Rows (new index, old index): key (..., k) takes old (..., k+1), or
    old (..., k) when the old window has no k+1 (its last step holds); a
    step-free key (k None) takes its own; a key without a match has no
    row."""
    pairs = []
    for key, i in new.items():
        k = key[-1]
        j = old.get(key if k is None else key[:-1] + (k + 1,))
        if j is None and k is not None:
            j = old.get(key)
        if j is not None:
            pairs.append((i, j))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def shift_root(old: _MpoLayout, root: QpSolution, new: _MpoLayout,
               qp: QuadraticProgram) -> QpSolution:
    """The root relaxation of the window one step earlier, moved onto the
    window `new` lays out: primal and multipliers alike, by name, with
    unmatched entries 0. A warm start only; its status is "shifted"."""
    def moved(pairs, values, size):
        out = np.zeros(size)
        out[pairs[:, 0]] = values[pairs[:, 1]]
        return out

    var = np.vstack([_shift_pairs(getattr(old, f), getattr(new, f))
                     for f in ("P", "delta", "state", "plus", "minus", "z")])
    return QpSolution(
        moved(var, root.primal, qp.n), moved(var, root.dual_bounds, qp.n),
        moved(_shift_pairs(old.eq, new.eq), root.dual_eq, qp.n_eq),
        moved(_shift_pairs(old.le, new.le), root.dual_ineq, qp.n_le),
        np.nan, "shifted")


def solve_flexibility(spec: AgentSpec, view: HorizonView,
                      weights: ObjectiveWeights,
                      cfg: BnbConfig | None = None,
                      prev: RootRelaxation | None = None) -> FlexibilityOffer:
    """Stage I: solve the window problem and report the first-step offer.
    A `prev` (offer.root) of the window one step earlier, shifted, starts
    the root relaxation."""
    t0 = view.t_start
    miqp = build_mpo(spec, view, weights)
    if prev is not None and prev.t_start == t0 - 1:
        miqp.root_warm = shift_root(prev.layout, prev.solution, miqp.layout,
                                    miqp.base)
    sol = solve_miqp(miqp, cfg or BnbConfig())
    if sol.status == "infeasible":
        raise InfeasibleMpoError(
            f"agent {spec.id}: window starting at step {t0} is infeasible")
    if not np.all(np.isfinite(sol.primal)):
        raise AgentError(
            f"agent {spec.id}: solver exhausted its budget without a "
            f"feasible schedule for the window starting at step {t0}")
    schedules = _extract_schedules(spec, miqp.layout, miqp.base, sol.primal)
    p0 = sum(s.power_kw[0] for s in schedules.values()) - spec.fixed_load[t0]
    span = sum(s.delta_kw[0] for s in schedules.values())
    return FlexibilityOffer(
        agent_id=spec.id, p0=p0, p_lo=p0 - span, p_hi=p0 + span,
        schedules=schedules, solver_status=sol.status, solver_gap=sol.gap,
        root=RootRelaxation(t0, miqp.layout, sol.root))


def best_response(gamma: float, p0: float, p_hi: float, mu: float,
                  mu_tilde: float) -> float:
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
        return p_hi
    return _clip(p0 + s / (2.0 * gamma), p0, p_hi)


def agent_welfare(gamma: float, p0: float, p: float, mu: float,
                mu_tilde: float) -> float:
    """Agent welfare at bid p: flexibility compensation plus energy value
    minus quadratic disutility of deviating from the baseline."""
    if gamma <= 0:
        raise AgentError(f"gamma must be positive (got {gamma})")
    d = p - p0
    return mu_tilde * d + mu * p - gamma * d * d
