from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flexmarket import devices as dev
from flexmarket import market
from flexmarket.agent import FlexibilityOffer, solve_flexibility
from flexmarket.market import (AgentClearing, ClearingResult, MarketError,
                               clear_market, request_setpoint, run_simulation,
                               verify_equilibrium)
from flexmarket.pricing import (PriceSignal, PricingError, aggregate_offers, compute_prices,
                                positivity_region)
from flexmarket.qp import AdmmSolver
from flexmarket.scenario import load_scenario, scenario_from_dict
from flexmarket.traceio import read_trace, write_trace


def offer(p0, p_lo, p_hi, aid="a"):
    return FlexibilityOffer(aid, p0, p_lo, p_hi, {})


def test_clear_market_degenerate():
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "abc"]
    cr = clear_market(offers, [1.0, 1.0, 1.0], -12.0, 0.42)
    assert cr.degenerate
    assert cr.prices.mu == 0.42
    assert cr.prices.mu_tilde == 0.0
    assert cr.bids == (-4.0, -4.0, -4.0)
    assert cr.tracking_error == 0.0
    assert cr.budget_residual == pytest.approx(0.0, abs=1e-12)


def test_clear_market_derived_three_agents():
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "abc"]
    cr = clear_market(offers, [1.0, 1.0, 1.0], -9.0, 1.0)
    assert cr.prices.mu == pytest.approx(1.25)
    assert cr.prices.mu_tilde == pytest.approx(0.75)
    assert cr.bids == pytest.approx((-3.0, -3.0, -3.0))
    assert sum(cr.bids) == pytest.approx(-9.0)
    assert cr.tracking_error <= 1e-12
    # settlement payments recompute from prices and bids
    for row in cr.agents:
        assert row.pay_flex == pytest.approx(cr.prices.mu_tilde * (row.bid - row.p0))
        assert row.pay_energy == pytest.approx(cr.prices.mu * row.bid)
    paid = sum(r.pay_flex + r.pay_energy for r in cr.agents)
    assert paid == pytest.approx(cr.lem_settlement, rel=1e-12)


def test_clear_market_setpoint_out_of_range():
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "ab"]
    with pytest.raises(PricingError):
        clear_market(offers, [1.0, 1.0], -5.0, 1.0)    # above p_hi_t = -6


def small_scenario(beta=0.3, clip=True):
    return scenario_from_dict({
        "time": {"dt_hours": 1.0, "total_steps": 6, "horizon_len": 4},
        "series": {
            "outdoor_temp": [75, 78, 82, 85, 83, 80],
            "irradiance_frac": [0.1, 0.4, 0.8, 0.9, 0.6, 0.2],
            "lem_price": [0.10, 0.12, 0.10, 0.15, 0.25, 0.20],
        },
        "policy": {"beta": beta, "clip_to_positivity": clip},
        "agents": [
            {"id": "a1", "gamma": 0.9, "fixed_load": [3.0, 3.5, 4.0, 4.0, 4.5, 5.0],
             "devices": {
                 "battery": {"self_discharge": 0.001, "efficiency": 0.95,
                             "capacity_kwh": 10.0, "p_min_kw": -3.0,
                             "p_max_kw": 3.0, "soc_min": 0.1, "soc_max": 0.9,
                             "soc_init": 0.5},
                 "pv": {"p_rated_kw": 4.0}}},
            {"id": "a2", "gamma": 1.5, "fixed_load": 2.0,
             "devices": {
                 "ev": {"self_discharge": 0.001, "efficiency": 0.92,
                        "capacity_kwh": 12.0, "p_min_kw": -3.0, "p_max_kw": 3.0,
                        "soc_min": 0.1, "soc_max": 0.9, "soc_init": 0.5,
                        "away_start": 2, "away_end": 3, "soc_target": 0.7,
                        "target_step": 5}}},
        ],
    })


def test_run_simulation_identities(mini_trace):
    for cr in mini_trace.clearings:
        assert cr.budget_residual <= 1e-6 * max(1.0, abs(cr.lem_settlement))
        assert cr.tracking_error <= 1e-8
        # settlement conservation
        paid = sum(r.pay_flex + r.pay_energy for r in cr.agents)
        assert paid == pytest.approx(cr.lem_settlement, rel=1e-8, abs=1e-10)


def test_run_simulation_deterministic(mini_scenario):
    a = run_simulation(mini_scenario)
    b = run_simulation(mini_scenario)
    for ca, cb in zip(a.clearings, b.clearings):
        assert ca.prices.mu == cb.prices.mu
        assert ca.prices.mu_tilde == cb.prices.mu_tilde
        assert ca.bids == cb.bids
    for ra, rb in zip(a.device_records, b.device_records):
        assert ra == rb


def test_resimulation_consistency(mini_scenario, mini_trace):
    s = mini_scenario
    grid = s.time_grid
    recs = {}
    for r in mini_trace.device_records:
        recs.setdefault((r.agent_id, r.kind), []).append(r)
    for (aid, kind), rows in recs.items():
        rows.sort(key=lambda r: r.step)
        d = s.agent(aid).device(kind)
        if kind == dev.PV:
            continue
        state = rows[0].state_begin
        for k, r in enumerate(rows):
            assert r.state_begin == state
            if kind in (dev.BATTERY, dev.EV):
                state = dev.battery_soc_step(d, state, r.power_kw, grid.dt_hours)
                assert d.soc_min - 1e-6 <= state <= d.soc_max + 1e-6
            else:
                state = dev.hp_temperature_step(
                    d, state, s.series.outdoor_temp[r.step], r.power_kw,
                    grid.dt_hours)
                assert d.t_min - 1e-6 <= state <= d.t_max + 1e-6
        assert state == pytest.approx(
            mini_trace.final_states[aid][kind], abs=0.0)


def test_ev_away_window_zero_in_trace():
    s = small_scenario()
    trace = run_simulation(s)
    for r in trace.device_records:
        if r.kind == dev.EV and 2 <= r.step <= 3:
            assert r.power_kw == 0.0
            assert r.delta_kw == 0.0


def test_mu_tilde_monotone_in_beta():
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "abc"]
    gammas = [1.0, 1.0, 1.0]
    agg = aggregate_offers(offers, gammas)
    last = -np.inf
    for beta in np.linspace(0.05, 0.95, 19):
        p_t = agg.p0_t + beta * (agg.p_hi_t - agg.p0_t)
        ps = compute_prices(agg, p_t, 0.1)
        if ps.positivity_ok:
            assert ps.mu_tilde >= last - 1e-12
            last = ps.mu_tilde


def test_verify_equilibrium_passes_on_clearing():
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "abc"]
    gammas = [1.0, 1.0, 1.0]
    cr = clear_market(offers, gammas, -9.5, 1.0)
    rep = verify_equilibrium(cr, offers, gammas, grid_points=10000, tol=1e-6)
    assert rep.passed
    assert max(rep.improvements.values()) <= 1e-6 + 1e-9


def test_verify_equilibrium_rejects_inflated_flex_price():
    from flexmarket.agent import best_response
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "abc"]
    gammas = [1.0, 1.0, 1.0]
    cr = clear_market(offers, gammas, -9.5, 1.0)
    bad_prices = PriceSignal(cr.prices.mu, cr.prices.mu_tilde * 1.1, True, True)
    rows = []
    for o, g in zip(offers, gammas):
        bid = best_response(g, o.p0, o.p_hi, bad_prices.mu,
                            bad_prices.mu_tilde)
        rows.append(AgentClearing(o.agent_id, o.p0, o.p_lo, o.p_hi, bid,
                                  bad_prices.mu_tilde * (bid - o.p0),
                                  bad_prices.mu * bid))
    bad = ClearingResult(step=0, prices=bad_prices, p_tilde=cr.p_tilde,
                         agg=cr.agg, agents=tuple(rows),
                         lem_settlement=0.0, budget_residual=0.0,
                         tracking_error=abs(sum(r.bid for r in rows) - cr.p_tilde),
                         pi=1.0)
    rep = verify_equilibrium(bad, offers, gammas)
    assert not rep.stackelberg_ok
    assert rep.operator_utility < -1e-6


def test_verify_equilibrium_zero_prices_trivial():
    o = offer(-4.0, -5.0, -3.0)
    prices = PriceSignal(0.0, 0.0, False, True)
    row = AgentClearing("a", -4.0, -5.0, -3.0, -4.0, 0.0, 0.0)
    agg = aggregate_offers([o], [1.0])
    cr = ClearingResult(step=0, prices=prices, p_tilde=-4.0, agg=agg,
                        agents=(row,), lem_settlement=0.0,
                        budget_residual=0.0, tracking_error=0.0, pi=0.0)
    rep = verify_equilibrium(cr, [o], [1.0])
    assert rep.passed


def test_verify_equilibrium_grid_points_validated():
    o = offer(-4.0, -5.0, -3.0)
    cr = clear_market([o], [1.0], -3.9, 1.0)
    with pytest.raises(ValueError):
        verify_equilibrium(cr, [o], [1.0], grid_points=10)


@pytest.mark.parametrize("tol", [np.inf, -np.inf, np.nan, -1.0, 0.0])
def test_verify_equilibrium_rejects_bad_tol(tol):
    # inf passed a clearing with a moved bid; nan and -1 failed every one
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "abc"]
    cr = clear_market(offers, [1.0, 1.0, 1.0], -9.5, 1.0)
    with pytest.raises(ValueError, match="tol"):
        verify_equilibrium(cr, offers, [1.0, 1.0, 1.0], tol=tol)


def test_market_error_carries_step():
    s = small_scenario()
    # poison the scenario: make stage I infeasible at step 0 by an
    # unreachable terminal condition
    doc = {
        "time": {"dt_hours": 1.0, "total_steps": 4, "horizon_len": 4},
        "series": {"outdoor_temp": [70.0] * 4, "irradiance_frac": [0.0] * 4,
                   "lem_price": [0.1] * 4},
        "policy": {"beta": 0.0},
        "agents": [{"id": "x", "gamma": 1.0, "fixed_load": 1.0, "devices": {
            "battery": {"self_discharge": 0.5, "efficiency": 1.0,
                        "capacity_kwh": 1.0, "p_min_kw": -0.1,
                        "p_max_kw": 0.1, "soc_min": 0.1, "soc_max": 0.9,
                        "soc_init": 0.9}}}],
    }
    bad = scenario_from_dict(doc)
    with pytest.raises(MarketError) as err:
        run_simulation(bad)
    assert err.value.step == 0


def _sign_crossing_day(clip):
    # a home whose PV almost covers its load: the baseline is a small net
    # load whose upward range can reach past zero, and at pi = 1.2 no
    # setpoint prices flexibility above zero, so the region is empty
    return scenario_from_dict({
        "time": {"dt_hours": 1.0, "total_steps": 3, "horizon_len": 2},
        "series": {"outdoor_temp": [70.0] * 3, "irradiance_frac": [0.6] * 3,
                   "lem_price": [1.2] * 3},
        "policy": {"beta": 1.0, "clip_to_positivity": clip},
        "agents": [{"id": "a", "gamma": 1.0, "fixed_load": 0.65, "devices": {
            "battery": {"self_discharge": 0.0, "efficiency": 1.0,
                        "capacity_kwh": 10.0, "p_min_kw": -3.0, "p_max_kw": 3.0,
                        "soc_min": 0.1, "soc_max": 0.9, "soc_init": 0.5},
            "pv": {"p_rated_kw": 1.0}}}],
    })


def test_an_empty_positivity_region_clears_at_the_baseline():
    # with clip_to_positivity on, a clearing whose region is empty falls
    # back to the degenerate clearing, also where the request would cross
    # the baseline's sign; with it off, such a request stops the run
    crossed = 0
    for cr in run_simulation(_sign_crossing_day(clip=True)).clearings:
        if positivity_region(cr.agg, cr.pi).empty:
            assert cr.degenerate and cr.p_tilde == cr.agg.p0_t
            assert (cr.prices.mu, cr.prices.mu_tilde) == (cr.pi, 0.0)
            crossed += cr.agg.p0_t < 0.0 < cr.agg.p_hi_t
    assert crossed
    with pytest.raises(MarketError, match="must share a sign"):
        run_simulation(_sign_crossing_day(clip=False))


def test_trace_metadata_records_configuration(mini_trace):
    meta = mini_trace.metadata
    assert meta["weights"]["alpha_cyc"] == 0.1
    assert "identical traces" in meta["determinism"]
    # the BLAS thread count sets the order in which BLAS sums
    assert "same BLAS build and BLAS thread count" in meta["determinism"]
    assert "solver" in meta


def test_read_trace_returns_every_written_field_exactly(day_scenario, day_run,
                                                        tmp_path):
    # compared by repr, so that a changed type, a zero's sign or a None
    # state fails as surely as a changed number
    trace = day_run["trace"]
    gamma = {a.id: a.gamma for a in day_scenario.agents}
    write_trace(trace, tmp_path, [a.gamma for a in day_scenario.agents])
    data = read_trace(tmp_path)
    clearings = [dict(
        step=cr.step, pi=cr.pi, p0_t=cr.agg.p0_t, p_lo_t=cr.agg.p_lo_t,
        p_hi_t=cr.agg.p_hi_t, p_tilde=cr.p_tilde, mu=cr.prices.mu,
        mu_tilde=cr.prices.mu_tilde, positivity_ok=cr.prices.positivity_ok,
        saturation_ok=cr.prices.saturation_ok, lem_settlement=cr.lem_settlement,
        budget_residual=cr.budget_residual, tracking_error=cr.tracking_error,
        degenerate=cr.degenerate) for cr in trace.clearings]
    agents = [dict(
        step=cr.step, agent_id=r.agent_id, gamma=gamma[r.agent_id], p0=r.p0,
        p_lo=r.p_lo, p_hi=r.p_hi, bid=r.bid, pay_flex=r.pay_flex,
        pay_energy=r.pay_energy,
        settled_injection=trace.injections[r.agent_id][cr.step])
        for cr in trace.clearings for r in cr.agents]
    devices = [dict(
        step=r.step, agent_id=r.agent_id, device=r.kind, power_kw=r.power_kw,
        planned_kw=r.planned_kw, delta_kw=r.delta_kw, state=r.state_begin)
        for r in trace.device_records]
    assert repr(data.clearings) == repr(clearings)
    assert repr(data.agents) == repr(agents)
    assert repr(data.devices) == repr(devices)
    assert any(r["state"] is None for r in data.devices)      # the PV rows
    assert data.metadata["agent_ids"] == list(trace.agent_ids)
    assert repr(data.metadata["final_states"]) == repr(
        {a: dict(m) for a, m in trace.final_states.items()})


class _Stop(Exception):
    pass


def _first_two_clearings(monkeypatch, s):
    """Per stage-I solve of clearings 0 and 1 of `s`: the agent, its view,
    the solver config, the root it was given, its offer and the
    active-set changes it took; and the count of all changes, which goes
    on counting after the run. The run stops at clearing 2."""
    qp_solve = AdmmSolver.solve
    changes = [0]

    def counted(ws, *args, **kwargs):
        sol = qp_solve(ws, *args, **kwargs)
        changes[0] += sol.iterations
        return sol

    def recorded(spec, view, weights, cfg, prev=None):
        if view.t_start > 1:
            raise _Stop
        before = changes[0]
        offer = solve_flexibility(spec, view, weights, cfg, prev)
        calls.append(SimpleNamespace(spec=spec, view=view, cfg=cfg, prev=prev,
                                     offer=offer, changes=changes[0] - before))
        return offer

    calls = []
    monkeypatch.setattr(AdmmSolver, "solve", counted)
    monkeypatch.setattr(market, "solve_flexibility", recorded)
    with pytest.raises(MarketError) as err:
        run_simulation(s)
    assert isinstance(err.value.__cause__, _Stop)
    return calls, changes


def test_clearing_zero_starts_each_fleet_root_from_its_group_first(
        monkeypatch, short_fleet_scenario):
    # the 30 homes all hold a heat pump and PV: the first solves cold, the
    # other 29 start from its root, and their offers are a cold solve's
    calls, changes = _first_two_clearings(monkeypatch, short_fleet_scenario)
    first = [c for c in calls if c.view.t_start == 0]
    assert len(first) == 30 and first[0].prev is None
    assert all(c.prev is first[0].offer.root for c in first[1:])
    warm = sum(c.changes for c in first)
    changes[0] = 0
    for c in first:
        cold = solve_flexibility(c.spec, c.view, short_fleet_scenario.weights, c.cfg,
                                 prev=None)
        for name in ("p0", "p_lo", "p_hi"):
            got, want = getattr(c.offer, name), getattr(cold, name)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (c.spec.id, name)
    assert 4 * warm <= changes[0], (warm, changes[0])
    # at clearing 1 each agent starts from its own root again
    own = {c.spec.id: c.offer.root for c in first}
    assert all(c.prev is own[c.spec.id] for c in calls if c.view.t_start == 1)


def test_clearing_zero_groups_roots_by_device_kinds(monkeypatch, generated_days,
                                                    day_scenario):
    # exact_storage: s0, s1 and s4 hold a battery, s2 and s3 an EV. The
    # bundled homes hold three different device sets, so none gets a root
    # but its own
    storage = load_scenario(generated_days["exact_storage"])
    calls, _ = _first_two_clearings(monkeypatch, storage)
    roots = {c.spec.id: c.offer.root for c in calls if c.view.t_start == 0}
    given = {c.spec.id: c.prev for c in calls if c.view.t_start == 0}
    assert given["s0"] is None and given["s2"] is None
    assert given["s1"] is roots["s0"] and given["s4"] is roots["s0"]
    assert given["s3"] is roots["s2"]
    calls, _ = _first_two_clearings(monkeypatch, day_scenario)
    roots = {c.spec.id: c.offer.root for c in calls if c.view.t_start == 0}
    for c in calls:
        assert c.prev is (None if c.view.t_start == 0 else roots[c.spec.id])


_offer = st.tuples(st.floats(-60.0, 10.0), st.floats(0.0, 30.0),     # p0, span
                   st.floats(0.01, 5.0))                              # gamma


@settings(max_examples=300, deadline=None)
@given(others=st.lists(_offer, min_size=1, max_size=4),
       small=st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 0.2), st.floats(0.1, 5.0)),
       pi=st.floats(0.0, 2.0), beta=st.floats(0.0, 1.0))
# the fleet day's clearing 5: its agents' sum, with f01 (gamma 1.0007)
# the least flexible, gamma*span 0.0283 < pi/2; the region starts at
# -146.0315, above the saturation cap -146.0819
@example(others=[(-146.9334987016685 + 0.5, 19.399355838471399 - 0.028307921,
                  1.0 / (30.06082563338085 - 1.0 / 1.0007))],
         small=(-0.5, 0.028307921, 1.0007), pi=0.06, beta=1.0)
def test_a_clipped_request_is_the_baseline_or_prices_positive_and_interior(
        others, small, pi, beta):
    # a net load whose least flexible agent saturates before the
    # positivity region starts has no setpoint that both prices positive
    # and keeps every best response interior: it requests the baseline
    offers = [offer(p0, p0 - span, p0 + span, str(i))
              for i, (p0, span, _) in enumerate(others + [small])]
    agg = aggregate_offers(offers, [g for _, _, g in others + [small]])
    assume(agg.p0_t < 0.0)
    p_tilde = request_setpoint(agg, beta, pi, clip_to_positivity=True)
    if p_tilde != agg.p0_t:
        prices = compute_prices(agg, p_tilde, pi)
        assert prices.positivity_ok and prices.saturation_ok, (p_tilde, prices)
