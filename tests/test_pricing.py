import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flexmarket.agent import FlexibilityOffer, best_response
from flexmarket.pricing import (PROJECT_INSET, AggregateFlex, PricingError,
                                aggregate_offers, check_budget_balance, compute_prices,
                                operator_utility, positivity_region, saturation_cap)


def offer(p0, p_lo, p_hi, aid="a"):
    return FlexibilityOffer(aid, p0, p_lo, p_hi, {})


def agg_netload(p0=-12.0, span=3.0, gamma_t=3.0, n=3):
    gammas = tuple(n / gamma_t for _ in range(n))
    spans = tuple(span / n for _ in range(n))
    return AggregateFlex(p0_t=p0, p_lo_t=p0 - span, p_hi_t=p0 + span,
                         gamma_t=gamma_t, agent_gammas=gammas,
                         agent_spans=spans)


# --- aggregation ------------------------------------------------------------

def test_gamma_t_harmonic_sum():
    offers = [offer(-4.0, -5.0, -3.0, a) for a in "abc"]
    agg = aggregate_offers(offers, [1.0, 2.0, 4.0])
    assert agg.gamma_t == pytest.approx(1.75)


def test_single_offer_identity():
    agg = aggregate_offers([offer(-5.0, -6.0, -4.0)], [2.0])
    assert (agg.p0_t, agg.p_lo_t, agg.p_hi_t) == (-5.0, -6.0, -4.0)
    assert agg.gamma_t == pytest.approx(0.5)


def test_componentwise_sums():
    agg = aggregate_offers([offer(-5.0, -6.0, -4.0, "a"),
                            offer(-7.0, -8.0, -6.0, "b")], [1.0, 1.0])
    assert (agg.p0_t, agg.p_lo_t, agg.p_hi_t) == (-12.0, -14.0, -10.0)


def test_passive_agents_do_not_count_toward_gamma_t():
    offers = [offer(-4.0, -5.0, -3.0, "a"), offer(-2.0, -2.0, -2.0, "b")]
    agg = aggregate_offers(offers, [1.0, 5.0])
    assert agg.gamma_t == pytest.approx(1.0)


def test_aggregate_errors():
    with pytest.raises(PricingError):
        aggregate_offers([], [])
    with pytest.raises(PricingError):
        aggregate_offers([offer(-1.0, -1.0, -1.0)], [0.0])
    with pytest.raises(PricingError):
        aggregate_offers([offer(-1.0, -1.0, -1.0)], [1.0, 2.0])


# --- closed-form prices -----------------------------------------------------

def test_prices_against_linear_system_oracle():
    agg = agg_netload(p0=-12.0, span=3.0, gamma_t=3.0)
    ps = compute_prices(agg, -9.0, 1.0)
    assert ps.mu == pytest.approx(1.25)
    assert ps.mu_tilde == pytest.approx(0.75)
    # oracle: solve {budget, aggregate response} as a 2x2 linear system
    A = np.array([[-9.0, -9.0 - (-12.0)], [1.5, 1.5]])
    b = np.array([-9.0 * 1.0, 3.0])
    mu_o, mut_o = np.linalg.solve(A, b)
    assert ps.mu == pytest.approx(mu_o, rel=1e-12)
    assert ps.mu_tilde == pytest.approx(mut_o, rel=1e-12)
    assert ps.positivity_ok


def test_degenerate_setpoint_prices_at_upstream_rate():
    agg = agg_netload()
    ps = compute_prices(agg, agg.p0_t, 0.7)
    assert ps.mu == 0.7
    assert ps.mu_tilde == 0.0


def test_net_generator_negative_flex_price_flagged():
    agg = AggregateFlex(p0_t=10.0, p_lo_t=8.0, p_hi_t=16.0, gamma_t=4.0,
                        agent_gammas=(1.0,), agent_spans=(6.0,))
    ps = compute_prices(agg, 11.0, 2.0)
    assert ps.mu_tilde == pytest.approx(11.0 * (2.0 - 8.0) / 40.0)  # -1.65
    assert not ps.positivity_ok


def test_price_preconditions():
    agg = agg_netload()
    with pytest.raises(PricingError):
        compute_prices(agg, -20.0, 1.0)        # below baseline
    with pytest.raises(PricingError):
        compute_prices(agg, -8.0, 1.0)         # above offered ceiling
    zero = AggregateFlex(p0_t=0.0, p_lo_t=0.0, p_hi_t=0.0, gamma_t=1.0)
    with pytest.raises(PricingError):
        compute_prices(zero, 0.0, 1.0)


def test_two_mu_tilde_forms_agree():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p0 = -float(rng.uniform(2.0, 60.0))
        gt = float(rng.uniform(0.2, 8.0))
        pi = float(rng.uniform(0.02, 0.5))
        span = float(rng.uniform(0.05, 0.4)) * abs(p0)
        p_t = p0 + float(rng.uniform(0.05, 1.0)) * span
        agg = AggregateFlex(p0_t=p0, p_lo_t=p0 - span, p_hi_t=p0 + span,
                            gamma_t=gt, agent_gammas=(1.0,), agent_spans=(span,))
        ps = compute_prices(agg, p_t, pi)
        alt = p_t * (pi - ps.mu) / (p_t - p0)
        assert abs(alt - ps.mu_tilde) <= 1e-9 * max(1.0, abs(ps.mu_tilde))


def test_composition_identity_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        gammas = rng.uniform(0.3, 4.0, n)
        p0s = -rng.uniform(1.0, 10.0, n)
        spans = rng.uniform(0.3, 2.0, n)
        offers = [offer(p0, p0 - sp, p0 + sp, str(i))
                  for i, (p0, sp) in enumerate(zip(p0s, spans))]
        agg = aggregate_offers(offers, gammas)
        pi = float(rng.uniform(0.02, 0.3))
        p_t = agg.p0_t + float(rng.uniform(0.05, 0.9)) * (agg.p_hi_t - agg.p0_t)
        ps = compute_prices(agg, p_t, pi)
        if not (ps.positivity_ok and ps.saturation_ok):
            continue
        total = sum(best_response(g, o.p0, o.p_hi, ps.mu, ps.mu_tilde)
                    for g, o in zip(gammas, offers))
        assert abs(total - p_t) <= 1e-8 * max(1.0, abs(p_t))
        rep = check_budget_balance(ps, [best_response(g, o.p0, o.p_hi, ps.mu,
                                                      ps.mu_tilde)
                                        for g, o in zip(gammas, offers)],
                                   agg, pi)
        assert rep.ok


# --- positivity region ------------------------------------------------------

def test_region_netload_example():
    agg = AggregateFlex(p0_t=-12.0, p_lo_t=-14.0, p_hi_t=-10.0, gamma_t=3.0,
                        agent_gammas=(1.0,), agent_spans=(2.0,))
    r = positivity_region(agg, 1.0)
    assert r.lo == pytest.approx(-10.5)
    assert r.hi == pytest.approx(-10.0)
    assert r.lo_strict
    assert r.contains(-10.0) and not r.contains(-10.5)
    # prices flip sign across the boundary
    ps_in = compute_prices(agg, -10.4, 1.0)
    assert ps_in.mu > 0 and ps_in.mu_tilde > 0
    ps_out = compute_prices(agg, -10.6, 1.0)
    assert ps_out.mu_tilde < 0


def test_region_zero_price_limit():
    agg = agg_netload(p0=-12.0, span=3.0)
    r = positivity_region(agg, 0.0)
    assert r.lo == pytest.approx(-12.0)
    assert r.lo_strict


def test_region_net_generator_roots():
    agg = AggregateFlex(p0_t=10.0, p_lo_t=2.0, p_hi_t=30.0, gamma_t=4.0,
                        agent_gammas=(1.0,), agent_spans=(20.0,))
    r = positivity_region(agg, 2.0)
    a2 = 10.0 + 2.0 + 0.5 * np.sqrt(4.0 * (40.0 + 4.0))
    assert r.lo == pytest.approx(14.0)
    assert r.hi == pytest.approx(a2)
    # root check: (P - p0)^2 - pi*P*gamma_t/2 vanishes at a1, a2
    a1 = 12.0 - 0.5 * np.sqrt(4.0 * 44.0)
    for root in (a1, a2):
        assert (root - 10.0) ** 2 - 2.0 * root * 4.0 / 2.0 == pytest.approx(0.0, abs=1e-9)


def test_region_projection():
    agg = agg_netload(p0=-12.0, span=3.0, gamma_t=3.0)
    r = positivity_region(agg, 1.0)
    inside = r.project(-11.9)
    assert r.contains(inside)
    assert r.project(agg.p_hi_t) == agg.p_hi_t


@settings(max_examples=200, deadline=None)
@given(p0=st.floats(-50.0, -0.01), up=st.floats(0.0, 100.0),
       gamma_t=st.floats(0.05, 10.0), pi=st.floats(0.01, 2.0),
       frac=st.floats(1e-6, 1.0), request=st.floats(-100.0, 100.0))
@example(p0=-1.0, up=3.0, gamma_t=1.0, pi=0.1, frac=1.0, request=1.0)
def test_netload_region_admits_only_setpoints_that_price(p0, up, gamma_t, pi,
                                                         frac, request):
    # the region's upper end stops short of zero: a setpoint at or past
    # it would cross the baseline's sign, which compute_prices refuses,
    # or price flexibility at zero. The upper end, points from 1e-6 of
    # the width above the strict lower end, and every projection into
    # the region price with both prices positive (within a few ulps of
    # the lower end, mu_tilde can round to zero)
    agg = AggregateFlex(p0_t=p0, p_lo_t=p0 - 1.0, p_hi_t=p0 + up, gamma_t=gamma_t,
                        agent_gammas=(1.0 / gamma_t,), agent_spans=(up,))
    r = positivity_region(agg, pi)
    assert r.hi < 0.0 and not r.contains(0.0)
    assume(not r.empty)
    projected = r.project(request)
    assert r.contains(projected)
    for point in (r.hi, r.lo + frac * (r.hi - r.lo), projected):
        if r.contains(point):
            assert compute_prices(agg, point, pi).positivity_ok, point


@settings(max_examples=300, deadline=None)
@given(p0=st.floats(-50.0, -0.01), up=st.floats(0.0, 100.0),
       gamma_t=st.floats(0.05, 10.0), pi=st.floats(0.0, 2.0),
       frac=st.floats(0.0, 1.0), request=st.floats(-100.0, 100.0))
@example(p0=-2.0353206796036454, up=3.0, gamma_t=2.442544558758639,
         pi=0.9170110592989833, frac=0.0, request=-0.9154004929975316)
def test_netload_region_admits_from_one_rule(p0, up, gamma_t, pi, frac, request):
    # the strict lower end admits setpoints from PROJECT_INSET*max(1, |lo|)
    # above it, for contains and project alike: the smallest admitted
    # float is that point, and it, the float one ulp above lo, the upper
    # end, points between and every projection price with both prices
    # positive wherever they are admitted
    agg = AggregateFlex(p0_t=p0, p_lo_t=p0 - 1.0, p_hi_t=p0 + up, gamma_t=gamma_t,
                        agent_gammas=(1.0 / gamma_t,), agent_spans=(up,))
    r = positivity_region(agg, pi)
    start = r.lo + PROJECT_INSET * max(1.0, abs(r.lo))
    assert not r.contains(math.nextafter(start, -math.inf))
    assert r.contains(start) == (not r.empty) == (start <= r.hi)
    points = [math.nextafter(r.lo, math.inf), start, r.hi, start + frac * (r.hi - start)]
    if not r.empty:
        points.append(r.project(request))
        assert r.project(-math.inf) == start
    for point in points:
        if r.contains(point):
            assert compute_prices(agg, point, pi).positivity_ok, point


def test_region_zero_baseline_rejected():
    zero = AggregateFlex(p0_t=0.0, p_lo_t=0.0, p_hi_t=0.0, gamma_t=1.0)
    with pytest.raises(PricingError):
        positivity_region(zero, 1.0)


# --- budget, saturation, utility --------------------------------------------

def test_budget_residual_exact_at_equilibrium():
    agg = agg_netload(p0=-12.0, span=3.0, gamma_t=3.0)
    ps = compute_prices(agg, -9.0, 1.0)
    bids = [-3.0, -3.0, -3.0]
    rep = check_budget_balance(ps, bids, agg, 1.0)
    assert rep.residual == pytest.approx(0.0, abs=1e-12)
    assert rep.ok


def test_budget_degenerate_clearing():
    agg = agg_netload()
    ps = compute_prices(agg, agg.p0_t, 0.7)
    bids = [agg.p0_t / 3.0] * 3
    assert check_budget_balance(ps, bids, agg, 0.7).residual == pytest.approx(0.0)


def test_budget_perturbation_linearity():
    agg = agg_netload(p0=-12.0, span=3.0, gamma_t=3.0)
    ps = compute_prices(agg, -9.0, 1.0)
    from flexmarket.pricing import PriceSignal
    bumped = PriceSignal(ps.mu + 0.1, ps.mu_tilde, True, True)
    rep = check_budget_balance(bumped, [-3.0, -3.0, -3.0], agg, 1.0)
    assert rep.residual == pytest.approx(0.9)


@pytest.mark.parametrize("tol", [np.inf, -np.inf, np.nan, -1.0, 0.0])
def test_budget_balance_rejects_bad_tol(tol):
    # inf accepted the residual of bids moved by 1.0
    agg = agg_netload(p0=-12.0, span=3.0, gamma_t=3.0)
    ps = compute_prices(agg, -9.0, 1.0)
    with pytest.raises(ValueError, match="tol"):
        check_budget_balance(ps, [-2.0, -2.0, -2.0], agg, 1.0, tol=tol)


_agent = st.tuples(st.floats(0.1, 5.0),      # gamma
                   st.floats(0.05, 3.0),     # upward span
                   st.floats(0.1, 5.0))      # load beyond the span


@settings(derandomize=True, deadline=None)
@given(agents=st.lists(_agent, min_size=1, max_size=5),
       passive=st.lists(st.floats(0.1, 5.0), max_size=2),
       net_load=st.booleans(), pi=st.floats(0.01, 1.0),
       below=st.floats(0.0, 1.0 - 1e-9), above=st.floats(0.0, 1.0))
@example(agents=[(1.0, 2.0, 2.0)] * 3, passive=[1.0], net_load=True, pi=0.1,
         below=0.5, above=0.5)
def test_no_saturation_inequality(agents, passive, net_load, pi, below, above):
    """compute_prices flags saturation exactly past saturation_cap: the
    prices satisfy mu + mu_tilde = 2*(P - p0_t)/gamma_t, so the cap is
    where the least flexible responsive agent reaches its ceiling.
    Zero-range agents are present but exempt."""
    sign = -1.0 if net_load else 1.0
    offers, gammas = [], []
    for g, span, load in agents:
        p0 = -(load + span) if net_load else load
        offers.append(offer(p0, p0 - span, p0 + span))
        gammas.append(g)
    for g in passive:
        offers.append(offer(sign, sign, sign))
        gammas.append(g)
    agg = aggregate_offers(offers, gammas)
    cap = saturation_cap(agg)
    reach = cap - agg.p0_t
    p_in = agg.p0_t + reach * below
    assume(p_in != agg.p0_t)
    assert compute_prices(agg, p_in, pi).saturation_ok
    lo_out = agg.p0_t + reach * (1.0 + 1e-9)
    assume(lo_out < agg.p_hi_t)
    p_out = lo_out + (agg.p_hi_t - lo_out) * above
    assert not compute_prices(agg, p_out, pi).saturation_ok


def test_saturation_cap_keeps_everyone_interior():
    offers = [offer(-4.0, -5.0, -3.0, "a"), offer(-4.0, -4.2, -3.8, "b")]
    gammas = [1.0, 2.0]
    agg = aggregate_offers(offers, gammas)
    cap = saturation_cap(agg)
    p_t = agg.p0_t + (cap - agg.p0_t) * (1 - 1e-9)
    ps = compute_prices(agg, p_t, 0.1)
    assert ps.saturation_ok
    above = agg.p0_t + (cap - agg.p0_t) * (1 + 1e-6)
    ps2 = compute_prices(agg, above, 0.1)
    assert not ps2.saturation_ok


def test_operator_utility():
    assert operator_utility([-3.0, -3.0, -3.0], -9.0) == 0.0
    assert operator_utility([-4.0, -3.0, -3.0], -9.0) == pytest.approx(-1.0)
    assert operator_utility([2.0], 1.0) == pytest.approx(-1.0)
