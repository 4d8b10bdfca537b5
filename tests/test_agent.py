from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp, minimize

import flexmarket.agent as agent
from flexmarket.agent import (AgentError, DegenerateAgentError,
                              InfeasibleMpoError, best_response, build_mpo,
                              agent_welfare, shift_root, solve_flexibility)
from flexmarket.bnb import BnbConfig, enumerate_binaries, solve_miqp
from flexmarket.devices import BATTERY, EV, HEAT_PUMP, battery_soc_step
from flexmarket.market import default_solver_config
from flexmarket.qp import AdmmSolver
from flexmarket.scenario import read_scenario_doc, scenario_from_dict, slice_horizon

DAY = Path(__file__).resolve().parent.parent / "scenarios" / "three_agent_day.json"

EXACT_CFG = BnbConfig()


def make_scenario(devices, total=6, H=4, fixed=2.0, irr=None, **agent_kw):
    doc = {
        "time": {"dt_hours": 1.0, "total_steps": total, "horizon_len": H},
        "series": {
            "outdoor_temp": [75, 78, 82, 85, 83, 80][:total],
            "irradiance_frac": irr or [0.1, 0.4, 0.8, 0.9, 0.6, 0.2][:total],
            "lem_price": [0.1] * total,
        },
        "policy": {"beta": 0.3},
        "agents": [dict(id="a1", gamma=1.0, fixed_load=fixed,
                        devices=devices, **agent_kw)],
    }
    return scenario_from_dict(doc)


BS = {"self_discharge": 0.001, "efficiency": 0.95, "capacity_kwh": 10.0,
      "p_min_kw": -3.0, "p_max_kw": 3.0, "soc_min": 0.1, "soc_max": 0.9,
      "soc_init": 0.5}
EVD = {"self_discharge": 0.001, "efficiency": 0.92, "capacity_kwh": 12.0,
       "p_min_kw": -3.0, "p_max_kw": 3.0, "soc_min": 0.1, "soc_max": 0.9,
       "soc_init": 0.5, "away_start": 50, "away_end": 51, "soc_target": 0.8,
       "target_step": 3}
HPD = {"r_th": 2.0, "c_th": 2.0, "cop": 3.0, "p_rated_kw": 3.0,
       "t_min": 66.0, "t_max": 74.0, "t_setpoint": 70.0, "t_init": 70.0}
PVD = {"p_rated_kw": 4.0}


# --- problem assembly -------------------------------------------------------

def test_fixed_load_only_builds_empty_problem():
    s = make_scenario({}, fixed=5.0)
    miqp = build_mpo(s.agents[0], slice_horizon(s, 0), s.weights)
    assert miqp.base.n == 0
    assert len(miqp.binary_vars) == 0


def test_binary_count_battery_plus_ev():
    s = make_scenario({"battery": BS, "ev": EVD}, H=4)
    miqp = build_mpo(s.agents[0], slice_horizon(s, 0), s.weights)
    assert len(miqp.binary_vars) == 2 * 4
    # each binary gates its P+ and its P- row and appears nowhere else
    A_le = miqp.base.A_le.tocsc()
    for j in miqp.binary_vars:
        assert A_le.indptr[j + 1] - A_le.indptr[j] == 2


def test_bundled_day_binaries_gate_only_two_signed_steps(day_scenario):
    # a step carries a binary exactly when its power bounds hold both
    # signs; home3's EV-away steps (9..17) carry none, so its all-away
    # windows at clearings 9 and 10 need a single node
    s, total = day_scenario, 0
    for t in range(s.time_grid.total_steps):
        for a in s.agents:
            miqp = build_mpo(a, slice_horizon(s, t), s.weights)
            lay, qp = miqp.layout, miqp.base
            two_signed = [key for key, i in lay.P.items()
                          if qp.lb[i] < 0.0 < qp.ub[i]]
            assert list(lay.z) == two_signed, (a.id, t)
            assert miqp.binary_vars == tuple(lay.z[key] for key in two_signed)
            total += len(miqp.binary_vars)
    assert total == 624
    view = slice_horizon(s, 9, {"home3": {EV: 0.5464}})
    miqp = build_mpo(s.agent("home3"), view, s.weights)
    assert miqp.binary_vars == ()
    sol = solve_miqp(miqp, default_solver_config())
    assert sol.status == "optimal" and sol.nodes == 1


def test_one_signed_storage_step_gets_a_signed_band(monkeypatch):
    # a battery step whose interval excludes a sign has its band on P (or
    # -P) and no binary; the other steps keep the split
    interval = agent.dev.feasible_power_interval

    def one_signed(d, t, alpha=0.0):
        lo, hi = interval(d, t, alpha)
        return {1: (0.0, hi), 2: (lo, 0.0)}.get(t, (lo, hi))

    monkeypatch.setattr(agent.dev, "feasible_power_interval", one_signed)
    s = make_scenario({"battery": BS}, H=4)
    miqp = build_mpo(s.agents[0], slice_horizon(s, 0), s.weights)
    lay, A_le = miqp.layout, miqp.base.A_le.toarray()
    assert list(lay.z) == [(BATTERY, 0), (BATTERY, 3)]
    assert list(lay.plus) == list(lay.z)
    eps_hi = s.agents[0].eps_hi
    for k, sign in ((1, 1.0), (2, -1.0)):
        row = A_le[lay.le[BATTERY, "eps_hi", k]]
        assert row[lay.delta[BATTERY, k]] == 1.0
        assert row[lay.P[BATTERY, k]] == -eps_hi * sign
        assert np.count_nonzero(row) == 2
    got = solve_miqp(miqp, EXACT_CFG)
    ref_obj, _, _ = enumerate_binaries(miqp)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(ref_obj, rel=1e-9, abs=1e-9)


def test_degenerate_agent_rejected():
    s = make_scenario({}, fixed=0.0)
    with pytest.raises(DegenerateAgentError):
        build_mpo(s.agents[0], slice_horizon(s, 0), s.weights)
    with pytest.raises(DegenerateAgentError):
        solve_flexibility(s.agents[0], slice_horizon(s, 0), s.weights)


def test_battery_only_h2_matches_slsqp_enumeration():
    """Independent oracle: enumerate binaries, solve each leaf with SLSQP."""
    s = make_scenario({"battery": BS}, H=2)
    view = slice_horizon(s, 0)
    miqp = build_mpo(s.agents[0], view, s.weights)
    got = solve_miqp(miqp, EXACT_CFG)
    assert got.status == "optimal"

    qp = miqp.base
    Q = qp.Q.toarray()
    best = np.inf
    for mask in range(2 ** len(miqp.binary_vars)):
        lo = qp.lb.copy()
        hi = qp.ub.copy()
        for k, j in enumerate(miqp.binary_vars):
            v = float((mask >> k) & 1)
            lo[j] = max(lo[j], v)
            hi[j] = min(hi[j], v)
        if np.any(lo > hi):
            continue
        cons = [LinearConstraint(qp.A_eq.toarray(), qp.b_eq, qp.b_eq),
                LinearConstraint(qp.A_le.toarray(), -np.inf, qp.b_le)]
        x0 = np.clip(np.zeros(qp.n), lo, hi)
        res = minimize(lambda x: 0.5 * x @ Q @ x + qp.c @ x + qp.c0, x0,
                       jac=lambda x: Q @ x + qp.c,
                       bounds=list(zip(lo, hi)), constraints=cons,
                       method="SLSQP", options={"maxiter": 500, "ftol": 1e-12})
        if res.success:
            best = min(best, res.fun)
    assert got.objective == pytest.approx(best, rel=1e-5, abs=1e-6)


# --- stage I offers ---------------------------------------------------------

def test_offer_fixed_load_only():
    s = make_scenario({}, fixed=5.0)
    offer = solve_flexibility(s.agents[0], slice_horizon(s, 0), s.weights)
    assert (offer.p0, offer.p_lo, offer.p_hi) == (-5.0, -5.0, -5.0)


def test_offer_pv_only_at_night():
    s = make_scenario({"pv": PVD}, fixed=2.0, irr=[0.0] * 6)
    offer = solve_flexibility(s.agents[0], slice_horizon(s, 0), s.weights,
                              EXACT_CFG)
    assert offer.p0 == pytest.approx(-2.0, abs=1e-7)
    assert offer.p_hi - offer.p_lo == pytest.approx(0.0, abs=1e-7)


def test_offer_battery_matches_enumeration():
    s = make_scenario({"battery": BS}, H=4)
    view = slice_horizon(s, 0)
    offer = solve_flexibility(s.agents[0], view, s.weights, EXACT_CFG)
    miqp = build_mpo(s.agents[0], view, s.weights)
    ref_obj, _, ref_sol = enumerate_binaries(miqp)
    got = solve_miqp(miqp, EXACT_CFG)
    assert got.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-8)
    lay = miqp.layout
    p0_ref = ref_sol.primal[lay.P[BATTERY, 0]] - s.agents[0].fixed_load[0]
    assert offer.p0 == pytest.approx(p0_ref, abs=1e-5)


def test_offer_symmetry_exact():
    s = make_scenario({"battery": BS, "pv": PVD, "heat_pump": HPD})
    offer = solve_flexibility(s.agents[0], slice_horizon(s, 0), s.weights,
                              EXACT_CFG)
    # by construction: p0 plus and minus the same first-step half-width
    span = sum(sched.delta_kw[0] for sched in offer.schedules.values())
    assert offer.p_hi == offer.p0 + span and offer.p_lo == offer.p0 - span
    assert offer.p_lo <= offer.p0 <= offer.p_hi


def test_offer_eps_band_and_resimulation():
    s = make_scenario({"battery": BS, "ev": EVD, "heat_pump": HPD, "pv": PVD})
    spec = s.agents[0]
    view = slice_horizon(s, 0)
    offer = solve_flexibility(spec, view, s.weights, EXACT_CFG)
    for kind, sched in offer.schedules.items():
        d = spec.device(kind)
        for k in range(view.length):
            p, dl = sched.power_kw[k], sched.delta_kw[k]
            assert spec.eps_lo * abs(p) <= dl + 1e-6
            assert dl <= spec.eps_hi * abs(p) + 1e-6
        if kind in (BATTERY, EV):
            soc = sched.states[0]
            for k in range(1, view.length):
                soc = battery_soc_step(d, soc, sched.power_kw[k - 1], 1.0)
                assert soc == pytest.approx(sched.states[k], abs=1e-5)
                assert d.soc_min - 1e-6 <= soc <= d.soc_max + 1e-6
        if kind == HEAT_PUMP:
            t_in = sched.states[0]
            for k in range(1, view.length):
                sign = sched.mode_signs[k - 1]
                th = d.theta(1.0)
                t_in = th * t_in + (1 - th) * (
                    view.outdoor_temp[k - 1] + sign * d.rho * sched.power_kw[k - 1])
                assert t_in == pytest.approx(sched.states[k], abs=1e-5)
                assert d.t_min - 1e-6 <= t_in <= d.t_max + 1e-6


def test_ev_away_window_zero_in_offer():
    evd = dict(EVD, away_start=1, away_end=2)
    s = make_scenario({"ev": evd})
    offer = solve_flexibility(s.agents[0], slice_horizon(s, 0), s.weights,
                              EXACT_CFG)
    sched = offer.schedules[EV]
    assert sched.power_kw[1] == 0.0
    assert sched.power_kw[2] == 0.0
    assert sched.delta_kw[1] == 0.0


def test_infeasible_mpo_raises():
    # brutal self-discharge makes the end-of-day SOC equality unreachable
    bad = dict(BS, self_discharge=0.5, p_min_kw=-0.1, p_max_kw=0.1,
               capacity_kwh=1.0, soc_init=0.9, soc_max=0.9)
    s = make_scenario({"battery": bad}, total=4, H=4)
    with pytest.raises(InfeasibleMpoError):
        solve_flexibility(s.agents[0], slice_horizon(s, 0), s.weights)


@pytest.mark.parametrize("t, soc", [(9, 0.5464), (10, 0.5459)])
def test_away_ev_window_end_floor_is_reachable(day_scenario, t, soc):
    # home3's EV is away for the whole window and self-discharge keeps it
    # below soc_init, so a floor at soc_init had no feasible point; HiGHS
    # checks the MIQP's own rows, apart from the program's solver
    home3 = day_scenario.agent("home3")
    view = slice_horizon(day_scenario, t, {"home3": {EV: soc}})
    assert all(home3.device(EV).is_away(t + k) for k in range(view.length))
    miqp = build_mpo(home3, view, day_scenario.weights)
    qp = miqp.base
    integrality = np.zeros(qp.n)
    integrality[list(miqp.binary_vars)] = 1
    res = milp(np.zeros(qp.n), integrality=integrality,
               bounds=Bounds(qp.lb, qp.ub),
               constraints=[LinearConstraint(qp.A_eq.toarray(), qp.b_eq, qp.b_eq),
                            LinearConstraint(qp.A_le.toarray(), -np.inf, qp.b_le)])
    assert res.status == 0


def test_unreachable_end_of_day_soc_is_named_before_any_solve(monkeypatch):
    # home3's EV is away from step 14 through the day's end, so from SOC
    # 0.4 it cannot return to its soc_init 0.55 for the window-end equality
    doc = read_scenario_doc(DAY)
    doc["agents"][2]["devices"]["ev"].update(away_start=14, away_end=24)
    s = scenario_from_dict(doc, base_dir=DAY.parent)
    view = slice_horizon(s, 16, {"home3": {EV: 0.4}})
    assert view.reaches_end

    def no_solve(miqp, cfg):
        raise AssertionError("the window was solved")

    monkeypatch.setattr(agent, "solve_miqp", no_solve)
    with pytest.raises(InfeasibleMpoError,
                       match=r"agent home3: ev cannot return .* by step 24"):
        solve_flexibility(s.agent("home3"), view, s.weights)


@pytest.mark.parametrize("t", range(16, 24))
def test_planned_soc_at_the_day_end_is_soc_init(day_scenario, day_run, t):
    # each window from clearing 16 on holds the day's end, step 24; the
    # equality pins the SOC there, not at the window's last state, which
    # after clearing 16 lies in the padded series
    end = day_scenario.time_grid.total_steps
    states = {}
    for r in day_run["trace"].device_records:
        if r.step == t:
            states.setdefault(r.agent_id, {})[r.kind] = r.state_begin
    view = slice_horizon(day_scenario, t, states)
    for a in day_scenario.agents:
        miqp = build_mpo(a, view, day_scenario.weights)
        sol = solve_miqp(miqp, default_solver_config())
        for d in a.devices:
            if d.kind in (BATTERY, EV):
                soc = sol.primal[miqp.layout.state[d.kind, end - t]]
                assert soc == pytest.approx(d.soc_init, abs=1e-9), (a.id, d.kind)


def test_shift_moves_root_one_step_earlier(day_scenario):
    # home1's windows at clearings 15 and 16: the second one reaches the
    # day's end, so its window-end floor becomes an equality
    home1, w = day_scenario.agent("home1"), day_scenario.weights
    prev = solve_flexibility(home1, slice_horizon(day_scenario, 15), w).root
    miqp = build_mpo(home1, slice_horizon(day_scenario, 16), w)
    old, new, H = prev.layout, miqp.layout, miqp.layout.H
    root = prev.solution
    warm = shift_root(old, root, new, miqp.base)
    assert warm.status == "shifted"
    for key, i in new.P.items():
        kind, k = key
        j = old.P[kind, min(k + 1, H - 1)]
        assert warm.primal[i] == root.primal[j]
        assert warm.dual_bounds[i] == root.dual_bounds[j]
    for (kind, k), i in new.state.items():
        assert warm.primal[i] == root.primal[old.state[kind, min(k + 1, H)]]
    for (kind, role, k), i in new.le.items():
        if k is not None:
            j = old.le[kind, role, min(k + 1, H - 1)]
            assert warm.dual_ineq[i] == root.dual_ineq[j]
    for kind in (BATTERY, EV):
        assert warm.dual_ineq[new.le[kind, "robust", None]] == \
            root.dual_ineq[old.le[kind, "robust", None]]
        assert (kind, "end_floor", None) in old.le
        assert warm.dual_eq[new.eq[kind, "end_eq", None]] == 0.0
        assert warm.dual_eq[new.eq[kind, "soc", H - 2]] == \
            root.dual_eq[old.eq[kind, "soc", H - 1]]
        assert warm.dual_eq[new.eq[kind, "soc", H - 1]] == \
            root.dual_eq[old.eq[kind, "soc", H - 1]]
    # a warm start only: the root relaxation comes out the same, sooner
    ws = AdmmSolver(miqp.base)
    cold, hot = ws.solve(), ws.solve(warm=warm)
    assert hot.status == cold.status == "optimal"
    assert abs(hot.objective - cold.objective) <= 1e-9 * abs(cold.objective)
    assert hot.iterations < cold.iterations


# --- stage II best response -------------------------------------------------

def test_best_response_interior():
    assert best_response(1.0, -5.0, -3.0, 1.0, 1.0) == pytest.approx(-4.0)


def test_best_response_saturated():
    assert best_response(1.0, -5.0, -3.0, 3.0, 3.0) == pytest.approx(-3.0)


def test_best_response_zero_prices():
    assert best_response(1.0, -5.0, -3.0, 0.0, 0.0) == pytest.approx(-5.0)


def test_best_response_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        gamma = float(rng.uniform(0.05, 8.0))
        p0 = float(rng.uniform(-30, 30))
        span = float(rng.uniform(0.0, 5.0))
        mu = float(rng.uniform(0, 2))
        mut = float(rng.uniform(0, 2))
        bid = best_response(gamma, p0, p0 + span, mu, mut)
        grid = np.linspace(p0, p0 + span, 10000)
        welfare = mut * (grid - p0) + mu * grid - gamma * (grid - p0) ** 2
        assert agent_welfare(gamma, p0, bid, mu, mut) >= welfare.max() - 1e-6
        assert bid <= p0 + span + 1e-12


def test_best_response_monotone_in_price_sum():
    bids = [best_response(1.0, -5.0, -3.0, 0.0, s)
            for s in np.linspace(0.0, 6.0, 50)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bids, bids[1:]))
    assert max(bids) <= -3.0 + 1e-12


def test_best_response_precondition_errors():
    with pytest.raises(AgentError):
        best_response(0.0, -5.0, -3.0, 1.0, 1.0)
    with pytest.raises(AgentError):
        best_response(1.0, -3.0, -5.0, 1.0, 1.0)
    with pytest.raises(AgentError):
        best_response(1.0, -5.0, -3.0, -1.0, 0.5)


def test_agent_welfare_values():
    assert agent_welfare(1.0, -5.0, -5.0, 2.0, 7.0) == pytest.approx(-10.0)
    assert agent_welfare(1.0, -5.0, -4.0, 1.0, 1.0) == pytest.approx(-4.0)
    # zero prices: any deviation strictly hurts
    assert agent_welfare(1.0, -5.0, -4.5, 0.0, 0.0) < agent_welfare(1.0, -5.0, -5.0, 0.0, 0.0)
