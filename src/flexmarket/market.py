"""Market loop: per-clearing protocol, day simulation, equilibrium checks.

One clearing follows a fixed sequence: agents solve their horizon
problems and report offers; the operator aggregates them and receives a
setpoint request (a policy fraction beta of the offered upward range,
optionally projected into the price-positivity region); the operator
announces the closed-form prices; agents respond with closed-form bids;
the clearing settles with flexibility and energy payments that balance
the upstream bill exactly.

Settlement maps each agent's aggregate deviation back onto its devices
in proportion to their offered flexibility at the bid step, then
advances device states one step through the device dynamics. The next
clearing re-plans from those states (receding horizon). Agent types
gamma are read once from the scenario and held fixed across clearings.

Runs are deterministic: identical scenarios produce identical traces,
given the same BLAS build and BLAS thread count. The thread count sets
the order in which BLAS sums, so a run at another count can differ in
the last bits (the bundled day's trace hashes differently with
OPENBLAS_NUM_THREADS=1 and 2); processes at the same count agree.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import devices as dev
from .agent import (FlexibilityOffer, best_response, agent_welfare,
                    solve_flexibility)
from .bnb import BnbConfig
from .pricing import (AggregateFlex, PriceSignal, aggregate_offers,
                      check_budget_balance, check_tol, operator_utility,
                      compute_prices, positivity_region, saturation_cap)
from .scenario import Scenario, slice_horizon


class MarketError(RuntimeError):
    """Pipeline failure during a clearing; carries the step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"clearing {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class AgentClearing:
    """One agent's numbers for one clearing."""

    agent_id: str
    p0: float
    p_lo: float
    p_hi: float
    bid: float
    pay_flex: float             # mu_tilde * (bid - p0)
    pay_energy: float           # mu * bid


@dataclass(frozen=True)
class ClearingResult:
    step: int
    prices: PriceSignal
    p_tilde: float
    agg: AggregateFlex
    agents: tuple               # AgentClearing per agent, scenario order
    lem_settlement: float       # pi * sum(bids)
    budget_residual: float
    tracking_error: float
    pi: float
    degenerate: bool = False

    @property
    def bids(self) -> tuple:
        return tuple(a.bid for a in self.agents)


def clear_market(offers: Sequence[FlexibilityOffer], gammas: Sequence[float],
                 p_tilde: float, pi: float, step: int = 0) -> ClearingResult:
    """Steps 5-7 of the clearing protocol: prices, bids, settlement.

    A degenerate request (setpoint equal to the aggregate baseline) asks
    for no flexibility: energy prices at the upstream rate, zero
    flexibility price, and every agent settles at its baseline.
    """
    agg = aggregate_offers(offers, gammas)
    prices = compute_prices(agg, p_tilde, pi)
    degenerate = p_tilde == agg.p0_t
    rows = []
    for offer, gamma in zip(offers, gammas):
        if degenerate:
            bid = offer.p0
        else:
            bid = best_response(gamma, offer.p0, offer.p_hi,
                                prices.mu, prices.mu_tilde)
        rows.append(AgentClearing(
            agent_id=offer.agent_id, p0=offer.p0, p_lo=offer.p_lo,
            p_hi=offer.p_hi, bid=bid,
            pay_flex=prices.mu_tilde * (bid - offer.p0),
            pay_energy=prices.mu * bid))
    bids = [r.bid for r in rows]
    total = sum(bids)
    budget = check_budget_balance(prices, bids, agg, pi)
    return ClearingResult(
        step=step, prices=prices, p_tilde=p_tilde, agg=agg,
        agents=tuple(rows), lem_settlement=pi * total,
        budget_residual=budget.residual,
        tracking_error=abs(total - p_tilde), pi=pi, degenerate=degenerate)


@dataclass(frozen=True)
class DeviceRecord:
    """Settled outcome of one device at one step."""

    step: int
    agent_id: str
    kind: str
    power_kw: float             # settled injection actually executed
    planned_kw: float           # stage-I setpoint before settlement
    delta_kw: float             # offered half-width at this step
    state_begin: Optional[float]


@dataclass(frozen=True)
class SimulationTrace:
    clearings: tuple
    agent_ids: tuple
    injections: Mapping[str, tuple]      # settled net injection per step
    device_records: tuple                # DeviceRecord, step-major order
    final_states: Mapping[str, Mapping[str, Optional[float]]]
    metadata: dict


def _apportion(offer: FlexibilityOffer, deviation: float) -> dict:
    """Split an aggregate upward deviation across devices in proportion
    to their offered first-step flexibility."""
    span = sum(s.delta_kw[0] for s in offer.schedules.values())
    out = {}
    for kind, sched in offer.schedules.items():
        if deviation != 0.0 and span > 0.0:
            out[kind] = sched.power_kw[0] + deviation * (sched.delta_kw[0] / span)
        else:
            out[kind] = sched.power_kw[0]
    return out


def request_setpoint(agg: AggregateFlex, beta: float, pi: float,
                     clip_to_positivity: bool) -> float:
    """The setpoint the operator requests at one clearing.

    A fraction beta of the offered upward range, capped just below the
    least-flexible agent's saturation point, so that every best response
    stays interior. With clip_to_positivity, a request outside the
    positivity region is projected into it. Where no setpoint lies both
    in the region and under the cap (the region is empty, or starts
    above the cap), the request is the baseline: no flexibility.
    """
    p_tilde = agg.p0_t + beta * (agg.p_hi_t - agg.p0_t)
    cap = saturation_cap(agg)
    if cap < math.inf:
        cap = agg.p0_t + (cap - agg.p0_t) * (1.0 - 1e-6)
        p_tilde = min(p_tilde, cap)
    if clip_to_positivity and p_tilde != agg.p0_t:
        region = positivity_region(agg, pi)
        if region.empty or region.start > cap:
            p_tilde = agg.p0_t
        elif not region.contains(p_tilde):
            # p_tilde <= cap and region.start <= cap, so the projection is too
            p_tilde = region.project(p_tilde)
    return p_tilde


def default_solver_config() -> BnbConfig:
    """Day-simulation solver budget: a node count bounded at 24.

    The iterated rounding dive supplies the incumbent, and the rest of
    the budget goes to best-bound search from the root. That budget
    seldom closes the gap on day-scale windows (62 of the bundled day's
    72 solves end at the limit), so the returned gap is reported rather
    than closed."""
    return BnbConfig(node_limit=24)


def run_simulation(s: Scenario, solver_cfg: Optional[BnbConfig] = None) -> SimulationTrace:
    """Run the full receding-horizon day: one clearing per step.

    Each agent's root relaxation starts from its own root at the clearing
    before, shifted one step. At the first clearing, where no agent has
    one, the first agent with a given tuple of device kinds solves cold,
    and each later agent with the same kinds starts from that root."""
    cfg = solver_cfg or default_solver_config()
    grid = s.time_grid
    gammas = [a.gamma for a in s.agents]        # reported once, held fixed
    states = s.initial_states()
    clearings = []
    device_records = []
    injections = {a.id: [] for a in s.agents}
    solver_notes = []
    # each agent's last root relaxation: a warm start, never a constraint
    roots = [None] * len(s.agents)
    kinds = [tuple(d.kind for d in a.devices) for a in s.agents]

    for t in range(grid.total_steps):
        view = slice_horizon(s, t, states)
        # device kinds -> the root its first agent solved at this clearing
        firsts = {}
        offers = []
        try:
            for a, key, root in zip(s.agents, kinds, roots):
                offer = solve_flexibility(a, view, s.weights, cfg,
                                          firsts.get(key) if root is None else root)
                firsts.setdefault(key, offer.root)
                offers.append(offer)
        except Exception as exc:
            raise MarketError(t, f"stage-I scheduling failed: {exc}") from exc
        roots = [offer.root for offer in offers]
        for offer in offers:
            if offer.solver_status != "optimal":
                solver_notes.append(
                    {"step": t, "agent": offer.agent_id,
                     "status": offer.solver_status, "gap": offer.solver_gap})

        agg = aggregate_offers(offers, gammas)
        pi = s.series.lem_price[t]
        p_tilde = request_setpoint(agg, s.policy.beta[t], pi,
                                   s.policy.clip_to_positivity)
        try:
            cr = clear_market(offers, gammas, p_tilde, pi, step=t)
        except Exception as exc:
            raise MarketError(t, f"clearing failed: {exc}") from exc
        clearings.append(cr)

        # settle: apportion each agent's deviation onto its devices and
        # advance states through the device dynamics
        new_states = {}
        for a, offer, row in zip(s.agents, offers, cr.agents):
            settled = _apportion(offer, row.bid - offer.p0)
            agent_states = dict(states.get(a.id, {}))
            for d in a.devices:
                kind = d.kind
                sched = offer.schedules[kind]
                power = settled[kind]
                begin = agent_states.get(kind)
                device_records.append(DeviceRecord(
                    step=t, agent_id=a.id, kind=kind, power_kw=power,
                    planned_kw=sched.power_kw[0], delta_kw=sched.delta_kw[0],
                    state_begin=begin))
                if kind in (dev.BATTERY, dev.EV):
                    agent_states[kind] = dev.battery_soc_step(
                        d, begin, power, grid.dt_hours)
                elif kind == dev.HEAT_PUMP:
                    agent_states[kind] = dev.hp_temperature_step(
                        d, begin, s.series.outdoor_temp[t], power, grid.dt_hours)
            new_states[a.id] = agent_states
            injections[a.id].append(sum(settled.values()) - a.fixed_load[t])
        states = new_states

    meta = {
        "weights": asdict(s.weights),
        "solver": {
            "node_limit": cfg.node_limit, "gap_tol": cfg.gap_tol,
            "non_optimal_solves": solver_notes,
        },
        "policy": {"clip_to_positivity": s.policy.clip_to_positivity},
        "determinism": ("seed-free; identical scenarios yield identical traces "
                        "given the same BLAS build and BLAS thread count"),
        "notes": [
            "ev charge-target term is dropped for windows that do not "
            "contain the target step",
            "settled deviations are apportioned to devices in proportion "
            "to offered first-step flexibility",
        ],
    }
    return SimulationTrace(
        clearings=tuple(clearings),
        agent_ids=tuple(a.id for a in s.agents),
        injections={k: tuple(v) for k, v in injections.items()},
        device_records=tuple(device_records),
        final_states=states,
        metadata=meta)


@dataclass(frozen=True)
class EquilibriumReport:
    """Result of checking one clearing against the equilibrium claims."""

    step: int
    improvements: Mapping[str, float]    # best welfare gain found per agent
    operator_utility: float
    nash_ok: bool
    stackelberg_ok: bool

    @property
    def passed(self) -> bool:
        return self.nash_ok and self.stackelberg_ok


def verify_equilibrium(cr: ClearingResult, offers: Sequence[FlexibilityOffer],
                       gammas: Sequence[float], grid_points: int = 10000,
                       tol: float = 1e-6) -> EquilibriumReport:
    """Grid-search audit of the equilibrium at one clearing.

    Nash: no agent can improve its welfare by moving its bid anywhere in
    [p0, p_hi] (others fixed; the coupling is through the already
    announced prices), up to tol plus the grid's resolution slack.
    Stackelberg: the operator's tracking utility is zero, so no price
    pair could do better. A degenerate clearing requested no flexibility
    and played no game; its Nash test passes vacuously.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    check_tol(tol)
    improvements = {}
    nash_ok = True
    for offer, gamma, row in zip(offers, gammas, cr.agents):
        if cr.degenerate:
            improvements[offer.agent_id] = 0.0
            continue
        span = row.p_hi - row.p0
        base = agent_welfare(gamma, row.p0, row.bid, cr.prices.mu,
                           cr.prices.mu_tilde)
        h = span / (grid_points - 1) if span > 0 else 0.0
        devs = h * np.arange(grid_points)
        welfare = (cr.prices.mu_tilde * devs + cr.prices.mu * (row.p0 + devs)
                   - gamma * devs * devs)
        best = max(base, float(welfare.max()))
        slack = gamma * h * h / 4.0
        improvements[offer.agent_id] = best - base
        if best - base > tol + slack:
            nash_ok = False
    u = operator_utility([r.bid for r in cr.agents], cr.p_tilde)
    return EquilibriumReport(
        step=cr.step, improvements=improvements, operator_utility=u,
        nash_ok=nash_ok, stackelberg_ok=u >= -tol)
