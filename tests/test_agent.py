import dataclasses
import hashlib
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp, minimize

import flexmarket.agent as agent
from flexmarket.agent import (AgentError, DegenerateAgentError,
                              InfeasibleMpoError, best_response, build_mpo,
                              agent_welfare, shift_root, solve_flexibility)
from flexmarket.bnb import BnbConfig, enumerate_binaries, solve_miqp
from flexmarket.devices import BATTERY, EV, HEAT_PUMP, PV, battery_soc_step
from flexmarket.market import default_solver_config, run_simulation
from flexmarket.qp import AdmmSolver, QpSolution
from flexmarket.scenario import read_scenario_doc, scenario_from_dict, slice_horizon

DAY = Path(__file__).resolve().parent.parent / "scenarios" / "three_agent_day.json"

EXACT_CFG = BnbConfig()


def make_scenario(devices, total=6, H=4, fixed=2.0, irr=None, temps=None,
                  **agent_kw):
    doc = {
        "time": {"dt_hours": 1.0, "total_steps": total, "horizon_len": H},
        "series": {
            "outdoor_temp": temps or [75, 78, 82, 85, 83, 80][:total],
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
    # day's end, so its window-end floor becomes an equality. Step k takes
    # old step k+1 up to H-3; steps H-2 and H-1 (states H-1 and H) keep
    # their own, so the old last step starts only the new last step
    home1, w = day_scenario.agent("home1"), day_scenario.weights
    prev = solve_flexibility(home1, slice_horizon(day_scenario, 15), w).root
    miqp = build_mpo(home1, slice_horizon(day_scenario, 16), w)
    old, new, H = prev.layout, miqp.layout, miqp.layout.H
    root = prev.solution
    warm = shift_root(old, root, new, miqp.base)
    assert warm.status == "shifted"
    for key, i in new.P.items():
        kind, k = key
        j = old.P[kind, k + 1 if k <= H - 3 else k]
        assert warm.primal[i] == root.primal[j]
        assert warm.dual_bounds[i] == root.dual_bounds[j]
    for (kind, k), i in new.state.items():
        j = old.state[kind, k + 1 if k <= H - 2 else k]
        assert warm.primal[i] == root.primal[j]
    for (kind, role, k), i in new.le.items():
        if len(new.le.lists[kind, role]) == H:
            j = old.le[kind, role, k + 1 if k <= H - 3 else k]
            assert warm.dual_ineq[i] == root.dual_ineq[j]
    for kind in (BATTERY, EV):
        # a family of one takes its own old entry
        assert warm.dual_ineq[new.le[kind, "robust", 0]] == \
            root.dual_ineq[old.le[kind, "robust", 0]]
        assert (kind, "end_floor", 0) in old.le
        assert warm.dual_eq[new.eq[kind, "end_eq", 0]] == 0.0
        assert warm.dual_eq[new.eq[kind, "soc", H - 3]] == \
            root.dual_eq[old.eq[kind, "soc", H - 2]]
        assert warm.dual_eq[new.eq[kind, "soc", H - 2]] == \
            root.dual_eq[old.eq[kind, "soc", H - 2]]
        assert warm.dual_eq[new.eq[kind, "soc", H - 1]] == \
            root.dual_eq[old.eq[kind, "soc", H - 1]]
    # a warm start only: the root relaxation comes out the same, sooner
    ws = AdmmSolver(miqp.base)
    cold, hot = ws.solve(), ws.solve(warm=warm)
    assert hot.status == cold.status == "optimal"
    assert abs(hot.objective - cold.objective) <= 1e-9 * abs(cold.objective)
    assert hot.iterations < cold.iterations


def _shift_by_name(old, root, new, qp):
    """shift_root's rule read entry by entry through the keyed layout: an
    entry at step k of a sort whose last step is `last` (H-1, or H for the
    states) takes old step k+1 for k < last-1 and its own old step for the
    last two steps, or its own where the chosen old entry is missing (so a
    family of one, which has no step 1, takes its own); anything else
    starts at 0."""
    def moved(old_map, new_map, last, values, size):
        out = np.zeros(size)
        for key, i in new_map.items():
            k = key[-1]
            j = None
            if k < last - 1:
                j = old_map.get(key[:-1] + (k + 1,))
            if j is None:
                j = old_map.get(key)
            if j is not None:
                out[i] = values[j]
        return out

    def var(values):
        parts = [moved(getattr(old, f), getattr(new, f),
                       new.H if f == "state" else new.H - 1, values, qp.n)
                 for f in ("P", "delta", "state", "plus", "minus", "z")]
        return sum(parts[1:], parts[0])

    return (var(root.primal), var(root.dual_bounds),
            moved(old.eq, new.eq, new.H - 1, root.dual_eq, qp.n_eq),
            moved(old.le, new.le, new.H - 1, root.dual_ineq, qp.n_le))


def _extract_by_step(spec, miqp, x):
    """_extract_schedules read step by step through the keyed layout."""
    lay, qp = miqp.layout, miqp.base
    out = {}
    for d in spec.devices:
        kind, powers, deltas, states = d.kind, [], [], ()
        for k in range(lay.H):
            i = lay.P[kind, k]
            lo, hi = float(qp.lb[i]), float(qp.ub[i])
            p = min(max(float(x[i]), lo), hi)
            dl = float(x[lay.delta[kind, k]])
            powers.append(p)
            deltas.append(min(max(dl, 0.0), min(spec.eps_hi * abs(p), hi - p, p - lo)))
        if kind in miqp.start:
            states = (float(miqp.start[kind]),) + tuple(
                float(x[lay.state[kind, k]]) for k in range(1, lay.H))
        out[kind] = agent.DeviceSchedule(kind, tuple(powers), tuple(deltas), states,
                                         miqp.mode_signs.get(kind, ()))
    return out


def _same(a, b):
    return [v.tobytes() for v in a] == [v.tobytes() for v in b]


def _checked_run(monkeypatch, s):
    """Run the day with every shift_root and _extract_schedules call
    checked against the by-name references; returns the shifted layouts."""
    shifted = []
    shift, extract = agent.shift_root, agent._extract_schedules

    def checked_shift(old, root, new, qp):
        warm = shift(old, root, new, qp)
        assert warm.status == "shifted" and np.isnan(warm.objective)
        assert _same((warm.primal, warm.dual_bounds, warm.dual_eq, warm.dual_ineq),
                     _shift_by_name(old, root, new, qp))
        shifted.append((old, new))
        return warm

    def checked_extract(spec, miqp, x):
        got = extract(spec, miqp, x)
        ref = _extract_by_step(spec, miqp, x)
        assert repr(got) == repr(ref)
        return got

    monkeypatch.setattr(agent, "shift_root", checked_shift)
    monkeypatch.setattr(agent, "_extract_schedules", checked_extract)
    run_simulation(s)
    return shifted


def test_shift_equals_the_rule_by_name_on_the_bundled_day(day_scenario, monkeypatch):
    # every clearing after the first shifts each home's root; home1's and
    # home2's storage windows turn their window-end floor into an equality
    shifted = _checked_run(monkeypatch, day_scenario)
    assert len(shifted) == 3 * (day_scenario.time_grid.total_steps - 1)
    assert any((BATTERY, "end_floor", 0) in old.le
               and (BATTERY, "end_eq", 0) in new.eq for old, new in shifted)


def test_shift_equals_the_rule_by_name_through_a_heat_pump_mode_flip(monkeypatch):
    # the outdoor temperature crosses the indoor one at every step, so the
    # executed step's mode flips at every clearing; its robustness row is
    # one row whatever the mode, so every window keeps the frame and the
    # old row starts the new one
    s = make_scenario({"heat_pump": HPD, "pv": PVD}, total=6, H=4,
                      temps=[75, 64, 76, 63, 77, 62])
    built, build = [], agent.build_mpo
    monkeypatch.setattr(agent, "build_mpo", lambda *a: built.append(build(*a)) or built[-1])
    shifted = _checked_run(monkeypatch, s)
    modes = [p.mode_signs[HEAT_PUMP][0] for p in built]
    assert len(shifted) == 5 and all(a != b for a, b in zip(modes, modes[1:]))
    assert all(old is new and (HEAT_PUMP, "robust") in new.le.lists for old, new in shifted)
    assert len({id(p.frame) for p in built}) == 1


_ROLES = {"eq": ("soc", "split"), "le": ("env_hi", "eps_lo", "gate_plus")}


def _random_layout(data, H):
    """A one-device layout with random families: any sort or row role may
    be missing, and any step of a family may have no entry."""
    lay = agent._MpoLayout((BATTERY,), H)
    count = {"var": 0, "eq": 0, "le": 0}

    def fill(fams, name, space):
        fam = fams.new(*name)
        for k in range(len(fam)):
            if data.draw(st.booleans()):
                fam[k] = count[space]
                count[space] += 1

    for sort in ("P", "delta", "state", "plus", "minus", "z"):
        if data.draw(st.booleans()):
            fill(getattr(lay, sort), (BATTERY,), "var")
    for sort, roles in _ROLES.items():
        fams = getattr(lay, sort)
        for role in data.draw(st.lists(st.sampled_from(roles), unique=True)):
            fill(fams, (BATTERY, role), sort)
        for role in data.draw(st.lists(st.sampled_from(("end", "robust")), unique=True)):
            fams.lists[BATTERY, role] = [count[sort]]
            count[sort] += 1
    return lay, SimpleNamespace(n=count["var"], n_eq=count["eq"], n_le=count["le"])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_shift_equals_the_rule_by_name_on_random_families(data):
    old, old_qp = _random_layout(data, data.draw(st.integers(1, 6)))
    new, qp = _random_layout(data, data.draw(st.integers(1, 6)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    root = QpSolution(rng.normal(size=old_qp.n), rng.normal(size=old_qp.n),
                            rng.normal(size=old_qp.n_eq), rng.normal(size=old_qp.n_le),
                            1.0, "optimal")
    warm = shift_root(old, root, new, qp)
    assert _same((warm.primal, warm.dual_bounds, warm.dual_eq, warm.dual_ineq),
                 _shift_by_name(old, root, new, qp))
    # the keyed reads list each entry once, as the lists hold them
    for sort in ("P", "state", "z", "eq", "le"):
        fams = getattr(new, sort)
        keys = list(fams)
        assert len(keys) == len(set(keys)) == len(fams)
        assert sorted(fams[key] for key in keys) == sorted(
            i for fam in fams.lists.values() for i in fam if i is not None)


# --- frames: a window shape declared once, refreshed per window ------------

_SORTS = ("P", "delta", "state", "plus", "minus", "z", "eq", "le")


def _program_facts(miqp):
    """All of a window's program: each array's dtype, shape and bytes (so
    a zero's sign counts), the blocks' shapes, c0's bytes, the binaries,
    the layout families, and the window's start states and mode signs."""
    qp, lay = miqp.base, miqp.layout
    arrays = [qp.lb, qp.ub, qp.c, qp.b_eq, qp.b_le]
    for m in (qp.Q, qp.A_eq, qp.A_le):
        arrays += [m.data, m.indices, m.indptr]
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            [m.shape for m in (qp.Q, qp.A_eq, qp.A_le)],
            np.float64(qp.c0).tobytes(), miqp.binary_vars, lay.kinds, lay.H,
            {sort: getattr(lay, sort).lists for sort in _SORTS},
            repr(miqp.start), repr(miqp.mode_signs))


def _carried_builds(spec, views, weights, frame=None):
    """Each view's program built through the frame the last build left,
    each checked equal to a fresh build of its view."""
    out = []
    for view in views:
        got = build_mpo(spec, view, weights, frame)
        assert _program_facts(got) == _program_facts(build_mpo(spec, view, weights))
        out.append(got)
        frame = got.frame
    return out


_LEVELS = {BATTERY: (0.1, 0.5, 0.9), EV: (0.1, 0.5, 0.9),
           HEAT_PUMP: (66.0, 69.5, 70.5, 74.0)}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_a_carried_frame_builds_what_a_fresh_build_does(data):
    # agents of one to four devices over 2-4 successive windows from drawn
    # states: where a window keeps the shape of the one before, the frame
    # is refreshed, and the program must still equal a fresh build's
    total = 8
    H = data.draw(st.integers(2, 4))
    kinds = data.draw(st.lists(st.sampled_from((BATTERY, EV, HEAT_PUMP, PV)),
                               min_size=1, max_size=4, unique=True))
    devices = {BATTERY: BS, HEAT_PUMP: HPD, PV: PVD}
    devices = {kind: devices.get(kind) for kind in kinds}
    if EV in devices:
        away = data.draw(st.integers(0, total + H))
        devices[EV] = dict(EVD, away_start=away,
                           away_end=data.draw(st.integers(away, total + H)),
                           target_step=data.draw(st.integers(0, total - 1)))
    series = lambda values: data.draw(st.lists(st.sampled_from(values),
                                               min_size=total, max_size=total))
    s = make_scenario(devices, total=total, H=H, fixed=series((0.0, 1.5)),
                      irr=series((0.0, 0.3, 1.0)),
                      temps=series((62.0, 69.5, 70.0, 78.0)))
    spec, frame = s.agents[0], None
    t0 = data.draw(st.integers(0, total - 2))
    for t in range(t0, t0 + data.draw(st.integers(2, min(4, total - t0)))):
        states = {kind: data.draw(st.sampled_from(_LEVELS[kind]))
                  for kind in devices if kind in _LEVELS}
        view = slice_horizon(s, t, {spec.id: states})
        try:
            fresh = build_mpo(spec, view, s.weights)
        except AgentError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                build_mpo(spec, view, s.weights, frame)
            continue
        got = build_mpo(spec, view, s.weights, frame)
        assert _program_facts(got) == _program_facts(fresh)
        frame = got.frame


@pytest.mark.parametrize("day, digest, windows, frames", [
    pytest.param("day_scenario", "8ec01c3108fb49a448a27b519b6693a6ea12591dc8a63d789eec4b79b516adbc",
                 72, 55, id="bundled"),
    pytest.param("fleet_scenario", "bc35d5880cbcdd98ef9d4473c49df3c5b03eaecf4748c2ca6e718d8b13bba93b",
                 720, 30, id="fleet")])
def test_window_programs_keep_their_bytes(request, day, digest, windows, frames):
    # each agent's 24 windows from the scenario's initial states, each
    # built through the frame the window before left (no solve, so no
    # BLAS): the bytes of every program, hashed in call order, are those
    # each digest was taken from before slots replaced the frame's
    # hand-written refresh. They rest on IEEE doubles and on math.exp
    # (a heat pump's theta) rounding as glibc's does. The bundled day
    # declares most of its frames afresh, and the generated fleet day
    # refreshes 690 of its 720 windows. The frames are counted while
    # every frame is alive, since a freed frame's id may be reused
    s = request.getfixturevalue(day)
    h, made = hashlib.sha256(), []
    for spec in s.agents:
        frame = None
        for t in range(s.time_grid.total_steps):
            miqp = build_mpo(spec, slice_horizon(s, t), s.weights, frame)
            frame, qp = miqp.frame, miqp.base
            made.append(frame)
            for part in (qp.Q.data, qp.Q.indices, qp.Q.indptr, qp.c, qp.lb, qp.ub,
                         qp.A_eq.data, qp.A_eq.indices, qp.A_eq.indptr, qp.b_eq,
                         qp.A_le.data, qp.A_le.indices, qp.A_le.indptr, qp.b_le):
                h.update(part.tobytes())
            h.update(repr(float(qp.c0)).encode())
    assert h.hexdigest() == digest
    assert len(made) == windows and len({id(f) for f in made}) == frames


def test_frame_declared_anew_for_another_agent_weights_step_length_or_horizon(day_scenario):
    # a frame's first recorded read is the agent, the weights, the step
    # length and the horizon, so home1's frame passed to any window that
    # differs in one of them declares anew. home1 without its EV reads
    # as home1 up to the EV, so a device read made before the agent's
    # would raise there
    home1, view, weights = (day_scenario.agent("home1"), slice_horizon(day_scenario, 0),
                            day_scenario.weights)
    frame = build_mpo(home1, view, weights).frame
    doc = read_scenario_doc(DAY)
    doc["time"]["dt_hours"] = 0.5
    half = slice_horizon(scenario_from_dict(doc, base_dir=DAY.parent), 0)
    assert half.dt_hours == 0.5 and half.length == view.length
    # the first 6 steps of the 8-step window, with the same agent
    short = dataclasses.replace(view, length=6, outdoor_temp=view.outdoor_temp[:6],
                                irradiance_frac=view.irradiance_frac[:6])
    no_ev = dataclasses.replace(home1, devices=tuple(d for d in home1.devices if d.kind != EV))
    for spec, v, w in [(day_scenario.agent("home2"), view, weights), (no_ev, view, weights),
                       (home1, view, dataclasses.replace(weights, xi_pv=2.0)),
                       (home1, half, weights), (home1, short, weights)]:
        got = build_mpo(spec, v, w, frame)
        assert got.frame is not frame
        assert _program_facts(got) == _program_facts(build_mpo(spec, v, w))


def test_frame_follows_an_ev_leaving_home_inside_the_window():
    # the EV leaves at step 3: windows 0-2 hold 3, 2 and 1 steps at home,
    # each a binary and a shape of its own; windows 3-5 lie away
    # throughout and share one frame
    evd = dict(EVD, away_start=3, away_end=9, target_step=1)
    s = make_scenario({"ev": evd, "pv": PVD}, total=10, H=4,
                      irr=[0.5] * 10, temps=[75.0] * 10)
    progs = _carried_builds(s.agents[0], [slice_horizon(s, t) for t in range(6)],
                            s.weights)
    assert [len(p.binary_vars) for p in progs] == [3, 2, 1, 0, 0, 0]
    frames = [p.frame for p in progs]
    assert len({id(f) for f in frames[:4]}) == 4
    assert frames[3] is frames[4] is frames[5]


def test_frame_declared_anew_where_the_window_end_becomes_an_equality(
        day_scenario, day_run):
    # home2's windows at clearings 14-17 from the day's states: 15
    # refreshes 14's frame; 16 holds the day's end, so its floor becomes
    # an equality, and 17 anchors the end one step earlier in its window
    home2 = day_scenario.agent("home2")
    states = {}
    for r in day_run["trace"].device_records:
        if r.agent_id == "home2":
            states.setdefault(r.step, {})[r.kind] = r.state_begin
    views = [slice_horizon(day_scenario, t, {"home2": states[t]})
             for t in (14, 15, 16, 17)]
    progs = _carried_builds(home2, views, day_scenario.weights)
    assert progs[1].frame is progs[0].frame
    assert progs[2].frame is not progs[1].frame
    assert progs[3].frame is not progs[2].frame
    assert (BATTERY, "end_floor") in progs[1].layout.le.lists
    assert (BATTERY, "end_eq") in progs[2].layout.eq.lists


def test_frame_follows_heat_pump_mode_flips():
    # window 1 keeps window 0's cooling step 0 with other later signs, and
    # window 2 heats at step 0: the robustness row is one row whose side
    # follows the executed step's mode, so all three refresh one frame
    s = make_scenario({"heat_pump": HPD, "pv": PVD}, total=6, H=4,
                      temps=[75, 75, 64, 76, 63, 62])
    progs = _carried_builds(s.agents[0], [slice_horizon(s, t) for t in range(3)],
                            s.weights)
    assert [p.mode_signs[HEAT_PUMP] for p in progs[:2]] == [
        (1.0, 1.0, -1.0, 1.0), (1.0, -1.0, 1.0, -1.0)]
    assert progs[2].mode_signs[HEAT_PUMP][0] == -1.0
    assert progs[0].frame is progs[1].frame is progs[2].frame
    assert not np.array_equal(progs[0].base.A_eq.data, progs[1].base.A_eq.data)
    assert list(progs[2].layout.le.lists) == list(progs[0].layout.le.lists)
    assert (HEAT_PUMP, "robust") in progs[2].layout.le.lists


def test_frame_refreshes_pv_through_zero_irradiance():
    s = make_scenario({"pv": PVD}, total=6, H=4, irr=[0.0, 0.0, 0.5, 1.0, 0.0, 0.0])
    progs = _carried_builds(s.agents[0], [slice_horizon(s, t) for t in range(3)],
                            s.weights)
    assert progs[0].frame is progs[1].frame is progs[2].frame
    qp, P = progs[0].base, progs[0].layout.P
    # no output: P is pinned at 0, its envelope side is -0.0, and the
    # curtailment adds nothing to the injection reward
    assert qp.ub[P[PV, 0]] == 0.0 and np.signbit(qp.b_le[progs[0].layout.le[PV, "env_lo", 0]])
    assert qp.c[P[PV, 0]] == -1.0


def test_writing_into_a_window_program_leaves_the_next_unchanged():
    # the heat pump's temperature coefficients make A_eq each window's
    # own; the battery's power interval is the shape's, so A_le holds no
    # window's number and is shared read-only, as Q and the blocks'
    # structure are
    s = make_scenario({"battery": BS, "heat_pump": HPD, "pv": PVD}, total=8, H=4,
                      temps=[75, 78, 82, 85, 83, 80, 78, 76], irr=[0.5] * 8)
    spec, w = s.agents[0], s.weights
    first = build_mpo(spec, slice_horizon(s, 0), w)
    second = build_mpo(spec, slice_horizon(s, 1), w, first.frame)
    assert second.frame is first.frame
    before = _program_facts(second)
    qp = first.base
    for a in (qp.lb, qp.ub, qp.c, qp.b_eq, qp.b_le, qp.A_eq.data):
        a[:] = 7.0
    for a in (qp.Q.data, qp.Q.indices, qp.A_eq.indptr, qp.A_le.indices, qp.A_le.data):
        with pytest.raises(ValueError, match="read-only"):
            a[:] = 7
    assert _program_facts(second) == before
    third = _carried_builds(spec, [slice_horizon(s, 2)], w, first.frame)
    assert third[0].frame is first.frame


def test_per_window_checks_hold_on_a_refreshed_frame():
    # each check runs on a window whose shape the frame has, where a
    # feasible window refreshes it
    w = make_scenario({}).weights
    s = make_scenario({}, total=8, H=2, fixed=[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                      irr=[0.5] * 8, temps=[75.0] * 8)
    frame = build_mpo(s.agents[0], slice_horizon(s, 0), w).frame
    assert build_mpo(s.agents[0], slice_horizon(s, 1), w, frame).frame is frame
    with pytest.raises(DegenerateAgentError):
        build_mpo(s.agents[0], slice_horizon(s, 3), w, frame)

    s = make_scenario({"battery": dict(BS, p_min_kw=-0.5, p_max_kw=0.5)}, total=4, H=4)
    spec = s.agents[0]
    at = lambda soc: slice_horizon(s, 0, {spec.id: {BATTERY: soc}})
    frame = build_mpo(spec, at(0.45), w).frame
    assert build_mpo(spec, at(0.55), w, frame).frame is frame
    with pytest.raises(InfeasibleMpoError, match="cannot return to its initial SOC"):
        build_mpo(spec, at(0.1), w, frame)

    s = make_scenario({"pv": PVD}, total=6, H=4)
    view = slice_horizon(s, 1)
    frame = build_mpo(s.agents[0], slice_horizon(s, 0), w).frame
    assert build_mpo(s.agents[0], view, w, frame).frame is frame
    bad = dataclasses.replace(view, irradiance_frac=(0.4, 1.5, 0.9, 0.6))
    with pytest.raises(ValueError, match="irradiance fraction must be in"):
        build_mpo(s.agents[0], bad, w, frame)


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
