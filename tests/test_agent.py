import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize

from flexmarket.agent import (AgentError, DegenerateAgentError,
                              InfeasibleMpoError, best_response, build_mpo,
                              agent_welfare, solve_flexibility)
from flexmarket.bnb import BnbConfig, enumerate_binaries, solve_miqp
from flexmarket.devices import BATTERY, EV, HEAT_PUMP, battery_soc_step
from flexmarket.scenario import scenario_from_dict, slice_horizon

EXACT_CFG = BnbConfig(qp_tol=1e-5, final_tol=1e-7, polish_nodes=True)


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
    ref_obj, _, ref_sol = enumerate_binaries(miqp, EXACT_CFG)
    got = solve_miqp(miqp, EXACT_CFG)
    assert got.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-8)
    lay = miqp.layout
    p0_ref = ref_sol.primal[lay.P[BATTERY, 0]] - s.agents[0].fixed_load[0]
    assert offer.p0 == pytest.approx(p0_ref, abs=1e-5)


def test_offer_symmetry_exact():
    s = make_scenario({"battery": BS, "pv": PVD, "heat_pump": HPD})
    offer = solve_flexibility(s.agents[0], slice_horizon(s, 0), s.weights,
                              EXACT_CFG)
    assert offer.p_hi - offer.p0 == offer.p0 - offer.p_lo  # by construction
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


# --- stage II best response -------------------------------------------------

def test_best_response_interior():
    assert best_response(1.0, -5.0, -3.0, 1.0, 1.0).p_star == pytest.approx(-4.0)


def test_best_response_saturated():
    assert best_response(1.0, -5.0, -3.0, 3.0, 3.0).p_star == pytest.approx(-3.0)


def test_best_response_zero_prices():
    assert best_response(1.0, -5.0, -3.0, 0.0, 0.0).p_star == pytest.approx(-5.0)


def test_best_response_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        gamma = float(rng.uniform(0.05, 8.0))
        p0 = float(rng.uniform(-30, 30))
        span = float(rng.uniform(0.0, 5.0))
        mu = float(rng.uniform(0, 2))
        mut = float(rng.uniform(0, 2))
        bid = best_response(gamma, p0, p0 + span, mu, mut).p_star
        grid = np.linspace(p0, p0 + span, 10000)
        welfare = mut * (grid - p0) + mu * grid - gamma * (grid - p0) ** 2
        assert agent_welfare(gamma, p0, bid, mu, mut) >= welfare.max() - 1e-6
        assert bid <= p0 + span + 1e-12


def test_best_response_monotone_in_price_sum():
    bids = [best_response(1.0, -5.0, -3.0, 0.0, s).p_star
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
