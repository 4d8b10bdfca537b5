"""Consumer-level flexibility market: DER scheduling, price clearing, simulation.

Agents coordinate batteries, EVs, heat pumps, and PV through a
receding-horizon mixed-integer QP, report baseline injections and
symmetric flexibility ranges, and play a leader-follower pricing game
with a not-for-profit operator that computes closed-form electricity
and flexibility prices to track an upstream setpoint at zero profit.
"""

from .agent import (DeviceSchedule, FlexibilityOffer, best_response,
                    build_mpo, agent_welfare, solve_flexibility)
from .bnb import BnbConfig, MixedIntegerQp, MiqpSolution, solve_miqp
from .devices import (BatteryParams, EvParams, HpParams, ObjectiveWeights,
                      PvParams, battery_soc_step, feasible_power_interval,
                      hp_temperature_step)
from .market import (ClearingResult, EquilibriumReport, SimulationTrace,
                     clear_market, run_simulation, verify_equilibrium)
from .pricing import (AggregateFlex, PriceSignal, PositivityRegion,
                      aggregate_offers, check_budget_balance,
                      operator_utility, compute_prices, positivity_region,
                      saturation_cap)
from .qp import QpSolution, QuadraticProgram, check_kkt, solve_qp
from .scenario import (AgentSpec, ExogenousSeries, HorizonView, Scenario,
                       SetpointPolicy, TimeGrid, load_scenario,
                       save_scenario, slice_horizon)

__version__ = "0.1.0"
