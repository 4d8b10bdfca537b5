"""Checks run on every round after its timed region.

Everything here is recomputed from the written trace files (parsed with
the csv module, not with the program's reader), the scenario's input
parameters, and the stage-I problems and solutions seen at each
`solve_miqp` call. The program's own pricing, bidding, dynamics and KKT
code is not used.

One operation is one agent at one clearing. It fails when any check that
touches it fails:

  prices     mu and mu_tilde from an independent 2x2 linear solve of the
             budget identity and the aggregate best response
  budget     the zero-profit residual and the tracking error, recomputed
  bid        the concave first-order condition of the agent's welfare on
             [p0, p_hi]; payments; settled injection equals the bid
  schedule   the returned solution against its own QuadraticProgram rows
             and bounds to 1e-6; binaries integral; the absolute-value
             split exact, min(P+, P-) <= 1e-7
  devices    executed powers within their feasible intervals, and every
             state re-simulated with the SOC and thermal recurrences below

A mismatch that is not about one operation (a missing file or row, a
trace that differs from the in-memory result) is a structural error and
makes the whole run incorrect.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROW_TOL = 1e-6          # schedule rows, bounds and binaries
SPLIT_TOL = 1e-7        # min(P+, P-) at every storage step
PRICE_TOL = 1e-8        # relative, prices and budget
BID_TOL = 1e-9          # relative, first-order condition and settlement
STATE_TOL = 1e-9        # re-simulated state against the trace
BOUND_TOL = 1e-6        # states and powers against their limits


@dataclass
class Solve:
    """What the checks keep of one stage-I solve: its outcome, no arrays.

    The schedule is checked against its own problem as `solve_miqp`
    returns (`check_schedule`), so neither the problem nor the solution
    outlives the solve, as in `run_simulation` itself.
    """

    step: int
    agent_id: str
    status: str
    gap: float
    nodes: int
    violation: float                 # largest row or bound violation
    reasons: tuple                   # why the schedule fails, if it does


@dataclass
class CheckReport:
    attempted: int = 0
    failures: dict = field(default_factory=dict)     # (step, agent) -> [reason]
    structural: list = field(default_factory=list)
    violations: list = field(default_factory=list)   # (step, agent, viol, status, gap)

    def fail(self, step: int, agent: str, reason: str) -> None:
        self.failures.setdefault((step, agent), []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def max_violation(self) -> float:
        return max((v[2] for v in self.violations), default=0.0)


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:] if r]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- physics

def soc_next(soc: float, power_kw: float, dt_h: float, battery) -> float:
    """Stored energy keeps (1 - self_discharge) of itself per step and
    changes by the injected energy times the efficiency (the model's
    charge accounting, the same factor in both directions)."""
    energy = soc * battery.capacity_kwh * (1.0 - battery.self_discharge)
    energy -= power_kw * dt_h * battery.efficiency
    return energy / battery.capacity_kwh


def indoor_next(t_in: float, t_out: float, power_kw: float, dt_h: float,
                hp) -> float:
    """First-order RC room: the temperature relaxes toward a steady state
    with time constant R*C. The heat pump moves COP*|P| of heat, out of
    the room when it is cooler than outside, into it otherwise, which
    shifts the steady state by R*COP*|P|."""
    heat = hp.cop * abs(power_kw)
    steady = t_out - hp.r_th * heat if t_out >= t_in else t_out + hp.r_th * heat
    decay = math.exp(-dt_h / (hp.r_th * hp.c_th))
    return steady + (t_in - steady) * decay


def power_limits(device, t: int, irradiance: float):
    kind = device.kind
    if kind == "pv":
        return 0.0, irradiance * device.p_rated_kw
    if kind == "heat_pump":
        return -device.p_rated_kw, 0.0
    if kind == "ev" and device.away_start <= t <= device.away_end:
        return 0.0, 0.0
    return device.p_min_kw, device.p_max_kw


def state_limits(device):
    if device.kind == "heat_pump":
        return device.t_min, device.t_max
    return device.soc_min, device.soc_max


# ------------------------------------------------------------- schedules

def row_violation(qp, x: np.ndarray) -> float:
    """Largest violation of the program's bounds, equalities and <= rows."""
    x = np.asarray(x, dtype=float)
    if x.shape != (qp.n,) or not np.all(np.isfinite(x)):
        return math.inf
    viol = [0.0]
    if qp.n:
        viol.append(float(np.max(qp.lb - x)))
        viol.append(float(np.max(x - qp.ub)))
    if qp.A_eq.shape[0]:
        viol.append(float(np.max(np.abs(qp.A_eq @ x - qp.b_eq))))
    if qp.A_le.shape[0]:
        viol.append(float(np.max(qp.A_le @ x - qp.b_le)))
    return max(viol)


def check_schedule(step: int, agent_id: str, miqp, sol) -> Solve:
    """Check the schedule `solve_miqp` returned against its own problem."""
    reasons = []
    x = np.asarray(sol.primal, dtype=float)
    viol = row_violation(miqp.base, x)
    if viol > ROW_TOL:
        reasons.append(f"schedule breaks its rows by {viol:.3g}")
    if len(miqp.binary_vars) and np.all(np.isfinite(x)):
        z = x[list(miqp.binary_vars)]
        frac = float(np.max(np.abs(z - np.round(z))))
        if frac > ROW_TOL:
            reasons.append(f"binary off by {frac:.3g}")
    lay = getattr(miqp, "layout", None)
    if lay is not None and lay.plus and np.all(np.isfinite(x)):
        both = max(min(x[lay.plus[key]], x[lay.minus[key]]) for key in lay.plus)
        if both > SPLIT_TOL:
            reasons.append(f"split not exact ({both:.3g})")
    return Solve(step, agent_id, sol.status, float(sol.gap), int(sol.nodes),
                 viol, tuple(reasons))


# -------------------------------------------------------------- the round

def check_round(scenario, trace, trace_dir: Path, solves: list) -> CheckReport:
    """Check one round's written trace and in-memory result, and count the
    findings `check_schedule` made on its solves."""
    report = CheckReport()
    trace_dir = Path(trace_dir)
    try:
        clearings = read_csv(trace_dir / "clearings.csv")
        agent_rows = read_csv(trace_dir / "agents.csv")
        device_rows = read_csv(trace_dir / "devices.csv")
    except (OSError, ValueError) as exc:
        report.structural.append(f"trace unreadable: {exc}")
        return report

    grid = scenario.time_grid
    agents = scenario.agents
    ids = [a.id for a in agents]
    report.attempted += grid.total_steps * len(agents)
    if len(clearings) != grid.total_steps or len(agent_rows) != grid.total_steps * len(agents):
        report.structural.append("trace row counts do not match the scenario")
        return report
    _compare_with_memory(trace, clearings, agent_rows, report)

    by_step = {}
    for r in agent_rows:
        by_step.setdefault(int(r["step"]), []).append(r)
    for c in clearings:
        t = int(c["step"])
        rows = by_step.get(t, [])
        if [r["agent_id"] for r in rows] != ids:
            report.structural.append(f"step {t}: agent rows out of order")
            continue
        for reason in _clearing_problems(scenario, t, c, rows):
            for aid in ids:
                report.fail(t, aid, reason)
        for a, r in zip(agents, rows):
            for reason in _agent_problems(scenario, a, t, c, r):
                report.fail(t, a.id, reason)

    _check_devices(scenario, trace, device_rows, agent_rows, report)

    solved = {(rec.step, rec.agent_id) for rec in solves}
    for a in agents:
        if a.devices:
            for t in range(grid.total_steps):
                if (t, a.id) not in solved:
                    report.structural.append(f"step {t}: no stage-I solve for {a.id}")
    for rec in solves:
        if rec.violation > ROW_TOL:
            report.violations.append((rec.step, rec.agent_id, rec.violation,
                                      rec.status, rec.gap))
        for reason in rec.reasons:
            report.fail(rec.step, rec.agent_id, reason)
    return report


def _compare_with_memory(trace, clearings, agent_rows, report) -> None:
    """The written numbers must be the very numbers the run produced."""
    for cr, c in zip(trace.clearings, clearings):
        pairs = ((cr.prices.mu, c["mu"]), (cr.prices.mu_tilde, c["mu_tilde"]),
                 (cr.p_tilde, c["p_tilde"]), (cr.agg.p0_t, c["p0_t"]))
        if any(v != float(s) for v, s in pairs):
            report.structural.append(f"step {cr.step}: clearings.csv differs from the run")
    flat = [row for cr in trace.clearings for row in cr.agents]
    for row, r in zip(flat, agent_rows):
        if row.bid != float(r["bid"]) or row.p0 != float(r["p0"]):
            report.structural.append(f"agents.csv differs from the run at {row.agent_id}")
            break


def _clearing_problems(scenario, t: int, c: dict, rows: list) -> list:
    problems = []
    gamma = {a.id: a.gamma for a in scenario.agents}
    pi = scenario.series.lem_price[t]
    mu, mu_t = float(c["mu"]), float(c["mu_tilde"])
    p_tilde = float(c["p_tilde"])
    p0s = [float(r["p0"]) for r in rows]
    bids = [float(r["bid"]) for r in rows]
    p0_t, bid_t = math.fsum(p0s), math.fsum(bids)
    if not _close(p0_t, float(c["p0_t"]), 1e-12):
        problems.append("aggregate baseline differs from the agents' sum")
    if float(c["pi"]) != pi:
        problems.append("upstream price differs from the scenario")
    degenerate = c["degenerate"] == "true"
    if degenerate != (p_tilde == float(c["p0_t"])):
        problems.append("degenerate flag inconsistent with the request")
    if degenerate:
        if mu != pi or mu_t != 0.0:
            problems.append("degenerate clearing not priced at the upstream rate")
    else:
        g_t = math.fsum(1.0 / gamma[r["agent_id"]] for r in rows
                        if float(r["p_hi"]) - float(r["p0"]) > 0.0)
        # budget:    mu*P + mu_tilde*(P - P0) = pi*P
        # response:  (g_t/2) * (mu + mu_tilde) = P - P0
        a = np.array([[p_tilde, p_tilde - p0_t], [g_t / 2.0, g_t / 2.0]])
        b = np.array([pi * p_tilde, p_tilde - p0_t])
        try:
            ref_mu, ref_mu_t = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            ref_mu, ref_mu_t = math.nan, math.nan
        if not (_close(mu, ref_mu, PRICE_TOL) and _close(mu_t, ref_mu_t, PRICE_TOL)):
            problems.append(f"prices ({mu}, {mu_t}) differ from the 2x2 solve "
                            f"({ref_mu}, {ref_mu_t})")
        if abs(bid_t - p_tilde) > PRICE_TOL * max(1.0, abs(p_tilde)):
            problems.append(f"tracking error {abs(bid_t - p_tilde):.3g}")
    residual = abs(mu_t * (bid_t - p0_t) + mu * bid_t - pi * bid_t)
    if residual > PRICE_TOL * max(1.0, abs(pi * bid_t)):
        problems.append(f"budget residual {residual:.3g}")
    if abs(residual - float(c["budget_residual"])) > PRICE_TOL * max(1.0, abs(pi * bid_t)):
        problems.append("reported budget residual differs from the recomputed one")
    if abs(abs(bid_t - p_tilde) - float(c["tracking_error"])) > PRICE_TOL * max(1.0, abs(p_tilde)):
        problems.append("reported tracking error differs from the recomputed one")
    if not _close(float(c["lem_settlement"]), pi * bid_t, 1e-12):
        problems.append("upstream settlement differs from pi * sum(bids)")
    return problems


def _agent_problems(scenario, agent, t: int, c: dict, r: dict) -> list:
    problems = []
    mu, mu_t = float(c["mu"]), float(c["mu_tilde"])
    p0, p_lo, p_hi, bid = (float(r[k]) for k in ("p0", "p_lo", "p_hi", "bid"))
    scale = max(1.0, abs(p0), abs(p_hi))
    if float(r["gamma"]) != agent.gamma:
        problems.append("gamma differs from the scenario")
    if not (p_lo <= p0 + 1e-12 * scale and p0 <= p_hi + 1e-12 * scale
            and abs((p_hi - p0) - (p0 - p_lo)) <= BID_TOL * scale):
        problems.append("offer range not symmetric around the baseline")
    tol = BID_TOL * scale
    if c["degenerate"] == "true":
        if bid != p0:
            problems.append("degenerate clearing bid is not the baseline")
    elif not (p0 - tol <= bid <= p_hi + tol):
        problems.append(f"bid {bid} outside [{p0}, {p_hi}]")
    else:
        # welfare W(p) = mu_t*(p - p0) + mu*p - gamma*(p - p0)^2 is concave;
        # its maximizer on [p0, p_hi] has W' = 0 inside, W' >= 0 at p_hi
        # and W' <= 0 at p0
        slope = mu_t + mu - 2.0 * agent.gamma * (bid - p0)
        slope_tol = BID_TOL * max(1.0, abs(mu) + abs(mu_t))
        at_top = bid >= p_hi - tol
        at_base = bid <= p0 + tol
        ok = ((at_top and slope >= -slope_tol) or (at_base and slope <= slope_tol)
              or abs(slope) <= slope_tol)
        if not ok:
            problems.append(f"bid violates its first-order condition (W' = {slope:.3g})")
    if not _close(float(r["pay_flex"]), mu_t * (bid - p0), 1e-12):
        problems.append("flexibility payment differs from mu_tilde * (bid - p0)")
    if not _close(float(r["pay_energy"]), mu * bid, 1e-12):
        problems.append("energy payment differs from mu * bid")
    if abs(float(r["settled_injection"]) - bid) > BID_TOL * max(1.0, abs(bid)):
        problems.append("settled injection differs from the bid")
    return problems


def _check_devices(scenario, trace, device_rows, agent_rows, report) -> None:
    """Powers within limits; states re-simulated step by step."""
    grid = scenario.time_grid
    dt = grid.dt_hours
    series = scenario.series
    rows = {}
    for r in device_rows:
        rows[(int(r["step"]), r["agent_id"], r["device"])] = r
    offered = {(int(r["step"]), r["agent_id"]): r for r in agent_rows}
    for a in scenario.agents:
        for t in range(grid.total_steps):
            total = planned = span = 0.0
            for d in a.devices:
                r = rows.get((t, a.id, d.kind))
                if r is None:
                    report.structural.append(f"step {t}: no device row {a.id}/{d.kind}")
                    continue
                p = float(r["power_kw"])
                total += p
                planned += float(r["planned_kw"])
                span += float(r["delta_kw"])
                lo, hi = power_limits(d, t, series.irradiance_frac[t])
                if not (lo - BOUND_TOL <= p <= hi + BOUND_TOL):
                    report.fail(t, a.id, f"{d.kind} power {p} outside [{lo}, {hi}]")
                if d.kind == "pv":
                    continue
                begin = float(r["state"])
                if t == 0 and begin != d.initial_state:
                    report.fail(t, a.id, f"{d.kind} does not start from its initial state")
                if d.kind == "heat_pump":
                    nxt = indoor_next(begin, series.outdoor_temp[t], p, dt, d)
                else:
                    nxt = soc_next(begin, p, dt, d)
                after = rows.get((t + 1, a.id, d.kind))
                seen = (float(after["state"]) if after is not None
                        else trace.final_states[a.id][d.kind])
                if abs(seen - nxt) > STATE_TOL * max(1.0, abs(nxt)):
                    report.fail(t, a.id, f"{d.kind} state {seen} differs from "
                                         f"the re-simulated {nxt}")
                lo_s, hi_s = state_limits(d)
                if not (lo_s - BOUND_TOL <= nxt <= hi_s + BOUND_TOL):
                    report.fail(t, a.id, f"{d.kind} state {nxt} outside [{lo_s}, {hi_s}]")
            fixed = a.fixed_load[t]
            offer = offered.get((t, a.id))
            if offer is None or not a.devices:
                continue
            inj, p0 = float(offer["settled_injection"]), float(offer["p0"])
            scale = BID_TOL * max(1.0, abs(inj), abs(p0))
            if abs(total - fixed - inj) > scale:
                report.fail(t, a.id, "device powers do not sum to the settled injection")
            if abs(planned - fixed - p0) > scale:
                report.fail(t, a.id, "planned powers do not sum to the baseline")
            if abs(span - (float(offer["p_hi"]) - p0)) > scale:
                report.fail(t, a.id, "device half-widths do not sum to the offer range")
