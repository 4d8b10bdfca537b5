"""Operator-side market logic: aggregation, closed-form prices, checks.

The operator aggregates the agents' baseline injections and flexibility
ranges, receives a setpoint request P_tilde from the upstream market,
and announces two prices: the electricity price mu and the flexibility
price mu_tilde. The pair is the unique solution of the zero-profit
budget identity combined with the aggregate best-response equation, so
the agents' closed-form bids sum exactly to the setpoint:

    mu       = pi*P_tilde/P0 - 2*(P_tilde - P0)^2 / (gamma_t * P0)
    mu_tilde = P_tilde*(2*(P_tilde - P0) - pi*gamma_t) / (gamma_t * P0)

where P0 is the aggregate baseline, gamma_t = sum(1/gamma_i), and pi is
the upstream price. Both prices are positive only for setpoints inside
an explicit region; the operator can project requests into it. A
separate no-saturation condition guarantees no single agent is pushed
to its ceiling.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .agent import FlexibilityOffer

# a net-load region admits setpoints from this far above its strict
# lower end, relative to max(1, |lo|)
PROJECT_INSET = 1e-6


class PricingError(ValueError):
    pass


@dataclass(frozen=True)
class AggregateFlex:
    """Aggregated stage-I offers, plus the per-agent data needed to
    recompute the operator's checks.

    gamma_t sums 1/gamma_i over the responsive agents (those offering a
    positive upward range); an agent with no range settles at its
    baseline regardless of prices, so counting its type would break the
    aggregate-response identity the prices are solved against.
    """

    p0_t: float
    p_lo_t: float
    p_hi_t: float
    gamma_t: float                       # sum of 1/gamma_i, responsive agents
    agent_gammas: tuple = ()
    agent_spans: tuple = ()              # per-agent upward range p_hi - p0

    def __post_init__(self):
        if not (self.p_lo_t <= self.p0_t + 1e-9 and self.p0_t <= self.p_hi_t + 1e-9):
            raise PricingError(
                f"aggregate ordering violated: {self.p_lo_t} <= {self.p0_t} "
                f"<= {self.p_hi_t}")
        if self.gamma_t <= 0 and self.p_hi_t > self.p0_t + 1e-12:
            raise PricingError("gamma_t must be positive when the aggregate "
                               "offers upward flexibility")


@dataclass(frozen=True)
class PriceSignal:
    mu: float
    mu_tilde: float
    positivity_ok: bool
    saturation_ok: bool


@dataclass(frozen=True)
class PositivityRegion:
    """Admissible setpoint interval for strictly positive prices.

    lo_strict marks the net-load case, whose lower endpoint (where the
    flexibility price crosses zero) is excluded: the region admits
    setpoints from `start`, PROJECT_INSET*max(1, |lo|) above it, so no
    admitted setpoint prices flexibility at a rounded zero.
    """

    lo: float
    hi: float
    lo_strict: bool

    @property
    def start(self) -> float:
        """The lowest admitted setpoint."""
        if self.lo_strict:
            return self.lo + PROJECT_INSET * max(1.0, abs(self.lo))
        return self.lo

    @property
    def empty(self) -> bool:
        return not self.start <= self.hi

    def contains(self, p: float) -> bool:
        return self.start <= p <= self.hi

    def project(self, p: float) -> float:
        """The nearest admitted setpoint."""
        if self.empty:
            raise PricingError("positivity region is empty; cannot project")
        return min(max(p, self.start), self.hi)


def aggregate_offers(offers: Sequence[FlexibilityOffer],
                     gammas: Sequence[float]) -> AggregateFlex:
    """Component-wise totals plus the harmonic type sum gamma_t."""
    if not offers:
        raise PricingError("cannot aggregate an empty set of offers")
    if len(offers) != len(gammas):
        raise PricingError("offers and gammas must pair up")
    if any(g <= 0 for g in gammas):
        raise PricingError("agent gammas must be positive")
    return AggregateFlex(
        p0_t=sum(o.p0 for o in offers),
        p_lo_t=sum(o.p_lo for o in offers),
        p_hi_t=sum(o.p_hi for o in offers),
        gamma_t=sum(1.0 / g for g, o in zip(gammas, offers)
                    if o.p_hi - o.p0 > 0.0),
        agent_gammas=tuple(float(g) for g in gammas),
        agent_spans=tuple(o.p_hi - o.p0 for o in offers))


def _saturation_ok(mu_sum: float, gammas: Sequence[float],
                   spans: Sequence[float]) -> bool:
    """No agent is pushed to its ceiling: mu + mu_tilde < 2*gamma_i*span_i
    strictly, for every agent with an upward range; zero-range agents
    cannot be saturated upward and are exempt."""
    for g, span in zip(gammas, spans):
        if span > 0.0 and not mu_sum < 2.0 * g * span:
            return False
    return True


def compute_prices(agg: AggregateFlex, p_tilde: float, pi: float) -> PriceSignal:
    """Closed-form price pair for one clearing.

    Requires a nonzero aggregate baseline with the setpoint on the same
    side (a net load stays a net load), and the setpoint within the
    offered range. The degenerate request p_tilde == p0_t prices energy
    at the upstream rate with zero flexibility price.
    """
    p0 = agg.p0_t
    if p0 == 0.0:
        raise PricingError("aggregate baseline is zero; prices are undefined")
    if not (agg.p0_t - 1e-9 <= p_tilde <= agg.p_hi_t + 1e-9):
        raise PricingError(
            f"setpoint {p_tilde} outside the offered range "
            f"[{agg.p0_t}, {agg.p_hi_t}]")
    if p_tilde * p0 < 0.0:
        raise PricingError(
            f"setpoint {p_tilde} and baseline {p0} must share a sign")
    if p_tilde == p0:
        # zero flexibility requested: budget balances at the upstream rate
        mu, mu_tilde = pi, 0.0
    else:
        gt = agg.gamma_t
        dev = p_tilde - p0
        mu = pi * p_tilde / p0 - 2.0 * dev * dev / (gt * p0)
        mu_tilde = p_tilde * (2.0 * dev - pi * gt) / (gt * p0)
    return PriceSignal(
        mu=mu, mu_tilde=mu_tilde,
        positivity_ok=mu > 0.0 and mu_tilde > 0.0,
        saturation_ok=_saturation_ok(mu + mu_tilde, agg.agent_gammas,
                                     agg.agent_spans))


def saturation_cap(agg: AggregateFlex) -> float:
    """Largest setpoint that keeps every agent's best response interior.

    The aggregate response gives mu + mu_tilde = 2*(P - p0_t)/gamma_t,
    so the no-saturation condition for every responsive agent bounds the
    setpoint by p0_t + gamma_t * min_i(gamma_i * span_i). Infinite when
    no agent offers an upward range.
    """
    margins = [g * s for g, s in zip(agg.agent_gammas, agg.agent_spans)
               if s > 0.0]
    if not margins:
        return math.inf
    return agg.p0_t + agg.gamma_t * min(margins)


def positivity_region(agg: AggregateFlex, pi: float) -> PositivityRegion:
    """Setpoint interval on which both closed-form prices are positive.

    Net load (p0_t < 0): the flexibility price is positive strictly
    above p0_t + pi*gamma_t/2 and strictly below zero, where the
    setpoint would cross the baseline's sign, and the energy price is
    positive throughout. The region is (p0_t + pi*gamma_t/2, hi] with
    hi = min(p_hi_t, -PROJECT_INSET*max(1, |lo|)), so that it excludes 0.
    Net generator (p0_t > 0): the energy price additionally requires
    the setpoint between the roots a1 <= a2 of
    (P - p0_t)^2 = pi*P*gamma_t/2.
    """
    p0, gt = agg.p0_t, agg.gamma_t
    if p0 == 0.0:
        raise PricingError("aggregate baseline is zero; region is undefined")
    lo_tilde = p0 + pi * gt / 2.0
    if p0 < 0.0:
        below_zero = -PROJECT_INSET * max(1.0, abs(lo_tilde))
        return PositivityRegion(lo=lo_tilde, hi=min(agg.p_hi_t, below_zero),
                                lo_strict=True)
    disc = pi * gt / 2.0 * (4.0 * p0 + pi * gt / 2.0)
    root = 0.5 * math.sqrt(max(disc, 0.0))
    a1 = p0 + pi * gt / 4.0 - root
    a2 = p0 + pi * gt / 4.0 + root
    return PositivityRegion(lo=max(a1, lo_tilde), hi=min(a2, agg.p_hi_t),
                            lo_strict=False)


@dataclass(frozen=True)
class BudgetReport:
    residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


def check_tol(tol: float) -> None:
    """Reject an audit tolerance that is not finite and positive: inf
    passes anything, and nan or one below zero fails everything."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def check_budget_balance(prices: PriceSignal, bids: Sequence[float],
                         agg: AggregateFlex, pi: float,
                         tol: float = 1e-8) -> BudgetReport:
    """Zero-profit identity: flexibility payments plus energy payments
    must equal the upstream settlement, |mu_tilde*(Pt - P0) + mu*Pt - pi*Pt|."""
    check_tol(tol)
    pt = sum(bids)
    residual = abs(prices.mu_tilde * (pt - agg.p0_t) + prices.mu * pt - pi * pt)
    return BudgetReport(residual=residual,
                        tolerance=tol * max(1.0, abs(pi * pt)))


def operator_utility(bids: Sequence[float], p_tilde: float) -> float:
    """Operator utility: negative squared tracking miss, always <= 0."""
    pt = sum(bids)
    miss = pt - p_tilde
    return -(miss * miss)
