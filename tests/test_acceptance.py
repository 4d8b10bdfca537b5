"""Acceptance suite: one test per exit criterion, each printing a
PASS line with its measured margins (run with -s to see them inline).

Closed-form pricing and bidding are checked against independent
numerical oracles on randomized inputs; the solver is checked against
exhaustive enumeration; the bundled day scenario is checked for
equilibrium, physical consistency, and qualitative behavior.
"""

import time

import numpy as np
import pytest

from flexmarket import devices as dev
from flexmarket.agent import (FlexibilityOffer, best_response, build_mpo,
                              agent_welfare)
from flexmarket.bnb import BnbConfig, enumerate_binaries, solve_miqp
from flexmarket.market import verify_equilibrium
from flexmarket.pricing import AggregateFlex, compute_prices, positivity_region
from flexmarket.scenario import scenario_from_dict, slice_horizon

EXACT_CFG = BnbConfig(node_limit=200000, gap_tol=1e-9)


def _ok(n, label, detail=""):
    print(f"ACCEPTANCE {n} {label}: PASS {detail}")


def test_criterion_1_closed_form_prices_match_root_finder():
    """Prices agree with a numerical solve of {budget balance, aggregate
    response} on 1000 random net-load tuples, to 1e-8 relative, < 5 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p0 = -float(rng.uniform(1.0, 80.0))
        gt = float(rng.uniform(0.1, 10.0))
        pi = float(rng.uniform(0.01, 0.5))
        span = float(rng.uniform(0.05, 0.45)) * abs(p0)
        p_t = p0 + float(rng.uniform(0.02, 1.0)) * span
        agg = AggregateFlex(p0_t=p0, p_lo_t=p0 - span, p_hi_t=p0 + span,
                            gamma_t=gt, agent_gammas=(1.0,),
                            agent_spans=(span,))
        ps = compute_prices(agg, p_t, pi)
        # oracle: the two clearing equations solved numerically
        #   mu*p_t + mu_tilde*(p_t - p0) = pi*p_t
        #   (gt/2)*mu + (gt/2)*mu_tilde  = p_t - p0
        A = np.array([[p_t, p_t - p0], [gt / 2.0, gt / 2.0]])
        b = np.array([pi * p_t, p_t - p0])
        mu_o, mut_o = np.linalg.solve(A, b)
        err = max(abs(ps.mu - mu_o) / max(1.0, abs(mu_o)),
                  abs(ps.mu_tilde - mut_o) / max(1.0, abs(mut_o)))
        worst = max(worst, err)
        assert err <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(1, "closed-form prices vs 2x2 root-finder",
        f"(1000 tuples, max rel err {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_2_best_response_grid_oracle():
    """Best response attains the 10^4-point grid-search maximum within
    1e-6, and the saturated branch triggers exactly on its condition."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(1000):
        gamma = float(rng.uniform(0.05, 8.0))
        p0 = float(rng.uniform(-30.0, 30.0))
        span = float(rng.uniform(0.0, 5.0)) if k % 2 else float(rng.uniform(0.0, 0.2))
        mu = float(rng.uniform(0.0, 2.0))
        mut = float(rng.uniform(0.0, 2.0))
        bid = best_response(gamma, p0, p0 + span, mu, mut)
        grid = np.linspace(p0, p0 + span, 10000)
        welfare = mut * (grid - p0) + mu * grid - gamma * (grid - p0) ** 2
        gap = abs(agent_welfare(gamma, p0, bid, mu, mut) - float(welfare.max()))
        worst = max(worst, gap)
        assert gap <= 1e-6
        s = mu + mut
        saturated = s > 0.0 and gamma * span / s < 0.5
        if saturated:
            assert bid == p0 + span
        else:
            assert bid == pytest.approx(min(p0 + (s / (2 * gamma) if gamma else 0.0),
                                            p0 + span), abs=1e-12)
    _ok(2, "best response vs 10^4-point grid",
        f"(1000 samples, max welfare gap {worst:.2e})")


def test_criterion_3_equilibrium_on_bundled_day(day_scenario, day_run):
    """Every clearing of the bundled 3-agent day passes the equilibrium
    audit; budget residual <= 1e-8 relative; full run < 60 s."""
    trace = day_run["trace"]
    gammas = [a.gamma for a in day_scenario.agents]
    worst_impr = 0.0
    worst_op = 0.0
    for cr in trace.clearings:
        offers = [FlexibilityOffer(a.agent_id, a.p0, a.p_lo, a.p_hi, {})
                  for a in cr.agents]
        rep = verify_equilibrium(cr, offers, gammas, grid_points=10000,
                                 tol=1e-6)
        assert rep.passed, f"clearing {cr.step} fails equilibrium"
        assert abs(rep.operator_utility) <= 1e-8
        assert cr.budget_residual <= 1e-8 * max(1.0, abs(cr.lem_settlement))
        worst_impr = max(worst_impr, max(rep.improvements.values()))
        worst_op = min(worst_op, rep.operator_utility)
    assert day_run["seconds"] < 60.0
    _ok(3, "Nash + Stackelberg equilibrium on bundled day",
        f"(24 clearings, max improvement {worst_impr:.2e}, "
        f"|tracking utility| <= {abs(worst_op):.2e}, run {day_run['seconds']:.1f} s)")


def test_criterion_4_positivity_region(day_scenario):
    """Prices are strictly positive inside the region; the flexibility
    price is nonpositive below it; the sign change sits within 1e-6 of
    the analytic boundary. 500 random net-load aggregates."""
    rng = np.random.default_rng(404)
    for _ in range(500):
        p0 = -float(rng.uniform(2.0, 60.0))
        gt = float(rng.uniform(0.2, 6.0))
        pi = float(rng.uniform(0.02, 0.4))
        lb = p0 + pi * gt / 2.0
        span = (lb - p0) * float(rng.uniform(2.0, 6.0))   # region nonempty
        agg = AggregateFlex(p0_t=p0, p_lo_t=p0 - span, p_hi_t=p0 + span,
                            gamma_t=gt, agent_gammas=(1.0,),
                            agent_spans=(span,))
        region = positivity_region(agg, pi)
        assert region.lo == pytest.approx(lb, rel=1e-12)
        inside = lb + (agg.p_hi_t - lb) * float(rng.uniform(0.05, 0.95))
        ps = compute_prices(agg, inside, pi)
        assert ps.mu > 0.0 and ps.mu_tilde > 0.0
        below = p0 + (lb - p0) * float(rng.uniform(0.05, 0.95))
        ps2 = compute_prices(agg, below, pi)
        assert ps2.mu_tilde <= 0.0
        # sign change brackets the boundary within 1e-6
        eps = 1e-6 * max(1.0, abs(lb))
        assert compute_prices(agg, lb + eps, pi).mu_tilde > 0.0
        assert compute_prices(agg, lb - eps, pi).mu_tilde < 0.0
    _ok(4, "price positivity region boundaries", "(500 aggregates)")


def _random_mpo_instance(rng):
    H = int(rng.integers(2, 5))
    with_ev = rng.random() < 0.25 and H <= 4
    devices = {}
    devices["battery"] = {
        "self_discharge": float(rng.uniform(0.0, 0.01)),
        "efficiency": float(rng.uniform(0.85, 1.0)),
        "capacity_kwh": float(rng.uniform(5.0, 20.0)),
        "p_min_kw": -float(rng.uniform(1.0, 5.0)),
        "p_max_kw": float(rng.uniform(1.0, 5.0)),
        "soc_min": float(rng.uniform(0.05, 0.15)),
        "soc_max": float(rng.uniform(0.85, 0.95)),
        "soc_init": float(rng.uniform(0.35, 0.65)),
    }
    if with_ev:
        away = int(rng.integers(0, H))
        devices["ev"] = {
            "self_discharge": 0.0,
            "efficiency": float(rng.uniform(0.85, 1.0)),
            "capacity_kwh": float(rng.uniform(10.0, 40.0)),
            "p_min_kw": -float(rng.uniform(1.0, 6.0)),
            "p_max_kw": float(rng.uniform(1.0, 6.0)),
            "soc_min": 0.1, "soc_max": 0.9,
            "soc_init": float(rng.uniform(0.3, 0.7)),
            "away_start": away, "away_end": away,
            "soc_target": float(rng.uniform(0.4, 0.9)),
            "target_step": int(rng.integers(0, H)),
        }
    doc = {
        "time": {"dt_hours": 1.0, "total_steps": H, "horizon_len": H},
        "series": {
            "outdoor_temp": [70.0] * H,
            "irradiance_frac": list(rng.uniform(0.0, 1.0, H)),
            "lem_price": [0.1] * H,
        },
        "policy": {"beta": 0.0},
        "agents": [{"id": "x", "gamma": 1.0,
                    "eps_lo": 0.01,
                    "eps_hi": float(rng.uniform(0.2, 0.5)),
                    "fixed_load": float(rng.uniform(0.5, 4.0)),
                    "devices": devices}],
    }
    s = scenario_from_dict(doc)
    return build_mpo(s.agents[0], slice_horizon(s, 0), s.weights)


def test_criterion_5_miqp_matches_enumeration():
    """Branch-and-bound equals exhaustive enumeration on 200 random
    window problems (H <= 4, <= 8 binaries) to 1e-6 relative, and the
    absolute-value split is exact at every returned solution."""
    rng = np.random.default_rng(505)
    worst = 0.0
    worst_gate = 0.0
    n_bins_max = 0
    for i in range(200):
        miqp = _random_mpo_instance(rng)
        n_bins_max = max(n_bins_max, len(miqp.binary_vars))
        assert len(miqp.binary_vars) <= 8
        got = solve_miqp(miqp, EXACT_CFG)
        ref_obj, ref_bits, _ = enumerate_binaries(miqp)
        if ref_bits is None:
            assert got.status == "infeasible", f"instance {i}"
            continue
        assert got.status == "optimal", f"instance {i}: {got.status}"
        rel = abs(got.objective - ref_obj) / max(1.0, abs(ref_obj))
        worst = max(worst, rel)
        assert rel <= 1e-6, f"instance {i}"
        lay = miqp.layout
        for (kind, k), j in lay.plus.items():
            gate = min(got.primal[j], got.primal[lay.minus[kind, k]])
            worst_gate = max(worst_gate, gate)
            assert gate <= 1e-7, f"instance {i} {kind} step {k}"
    _ok(5, "branch-and-bound vs exhaustive enumeration",
        f"(200 instances, <= {n_bins_max} binaries, max rel gap {worst:.2e}, "
        f"max gating residual {worst_gate:.2e})")


def test_criterion_6_device_fidelity_on_trace(day_scenario, day_run):
    """Re-simulating the settled schedules through the device dynamics
    reproduces the trace states to 1e-9 with bounds respected to 1e-6;
    the EV injects exactly zero while away."""
    s = day_scenario
    trace = day_run["trace"]
    grid = s.time_grid
    worst = 0.0
    recs = {}
    for r in trace.device_records:
        recs.setdefault((r.agent_id, r.kind), []).append(r)
    for (aid, kind), rows in recs.items():
        rows.sort(key=lambda r: r.step)
        d = s.agent(aid).device(kind)
        if kind == dev.PV:
            continue
        state = rows[0].state_begin
        for r in rows:
            worst = max(worst, abs(state - r.state_begin))
            assert abs(state - r.state_begin) <= 1e-9
            if kind in (dev.BATTERY, dev.EV):
                assert d.soc_min - 1e-6 <= r.state_begin <= d.soc_max + 1e-6
                state = dev.battery_soc_step(d, state, r.power_kw, grid.dt_hours)
            else:
                assert d.t_min - 1e-6 <= r.state_begin <= d.t_max + 1e-6
                state = dev.hp_temperature_step(
                    d, state, s.series.outdoor_temp[r.step], r.power_kw,
                    grid.dt_hours)
        final = trace.final_states[aid][kind]
        assert abs(state - final) <= 1e-9
    for r in trace.device_records:
        if r.kind == dev.EV:
            d = s.agent(r.agent_id).device(dev.EV)
            if d.is_away(r.step):
                assert r.power_kw == 0.0
    _ok(6, "device-model fidelity of settled trace",
        f"(max resimulation error {worst:.2e}; EV away injection exactly 0)")


def test_criterion_7_qualitative_day_behavior(day_scenario, day_run):
    """Aggregate stays a net load all day; batteries charge at the
    irradiance peak; indoor temperature stays in the comfort band."""
    s = day_scenario
    trace = day_run["trace"]
    total = [sum(trace.injections[a][t] for a in trace.agent_ids)
             for t in range(s.time_grid.total_steps)]
    assert all(v < 0.0 for v in total)
    peak = max(range(s.time_grid.total_steps),
               key=lambda t: s.series.irradiance_frac[t])
    charging = [r for r in trace.device_records
                if r.kind == dev.BATTERY and r.step == peak]
    assert charging and all(r.power_kw < 0.0 for r in charging)
    for r in trace.device_records:
        if r.kind == dev.HEAT_PUMP:
            d = s.agent(r.agent_id).device(dev.HEAT_PUMP)
            assert d.t_min - 1e-6 <= r.state_begin <= d.t_max + 1e-6
    _ok(7, "qualitative day behavior",
        f"(net load all day; batteries charge at step {peak}; comfort band held)")


def test_criterion_8_degenerate_day(degenerate_day_run):
    """A zero flexibility request all day clears at the upstream price
    with zero flexibility price and zero tracking error."""
    trace = degenerate_day_run
    for cr in trace.clearings:
        assert cr.degenerate
        assert cr.prices.mu == cr.pi
        assert cr.prices.mu_tilde == 0.0
        assert cr.tracking_error == 0.0
        assert cr.budget_residual <= 1e-12 * max(1.0, abs(cr.lem_settlement))
    _ok(8, "degenerate zero-request day",
        "(mu == pi, mu_tilde == 0, tracking error 0 at all 24 clearings)")
