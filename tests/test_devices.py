import numpy as np
import pytest

from flexmarket import devices as dev
from flexmarket.agent import build_mpo, hp_mode_schedule
from flexmarket.devices import (BatteryParams, DeviceValidationError, EvParams,
                                HpParams, ObjectiveWeights, PvParams,
                                battery_soc_step, feasible_power_interval,
                                hp_temperature_step)
from flexmarket.scenario import AgentSpec, HorizonView


def battery(**kw):
    base = dict(self_discharge=0.0, efficiency=1.0, capacity_kwh=10.0,
                p_min_kw=-3.0, p_max_kw=3.0, soc_min=0.0, soc_max=1.0,
                soc_init=0.5)
    base.update(kw)
    return BatteryParams(**base)


def ev(**kw):
    base = dict(self_discharge=0.0, efficiency=1.0, capacity_kwh=10.0,
                p_min_kw=-3.0, p_max_kw=3.0, soc_min=0.0, soc_max=1.0,
                soc_init=0.5, away_start=9, away_end=17, soc_target=0.9,
                target_step=8)
    base.update(kw)
    return EvParams(**base)


def hp(**kw):
    base = dict(r_th=2.0, c_th=2.0, cop=3.0, p_rated_kw=3.0, t_min=66.0,
                t_max=74.0, t_setpoint=70.0, t_init=70.0)
    base.update(kw)
    return HpParams(**base)


def window_cost(devices, powers, weights, states=None, irr=None, t_start=0):
    """Cost terms of the agent's window objective (build_mpo) at a given
    schedule: the objective less its linear rewards, with zero
    flexibility and no fixed load. powers maps device kind to one
    injection per step; states maps kind to the state at each step's
    start, the first being the window's starting state."""
    states = states or {}
    H = len(next(iter(powers.values())))
    spec = AgentSpec("a", 1.0, tuple(devices), (0.0,) * (t_start + H))
    view = HorizonView(
        t_start=t_start, dt_hours=1.0, length=H, outdoor_temp=(80.0,) * H,
        irradiance_frac=irr or (0.0,) * H,
        device_states={"a": {k: v[0] for k, v in states.items()}},
        end_step=t_start + H + 1)
    miqp = build_mpo(spec, view, weights)
    x = np.zeros(miqp.base.n)
    for kind, ps in powers.items():
        for k, p in enumerate(ps):
            x[miqp.layout.P[kind, k]] = p
    for kind, vals in states.items():
        for k in range(1, H):
            x[miqp.layout.state[kind, k]] = vals[k]
    return miqp.base.objective_value(x) + sum(map(sum, powers.values()))


# --- one-step dynamics ------------------------------------------------------

def test_soc_step_lossless_charge():
    assert battery_soc_step(battery(), 0.5, -2.0, 1.0) == pytest.approx(0.7)


def test_soc_step_self_discharge_only():
    p = battery(self_discharge=0.1)
    assert battery_soc_step(p, 0.5, 0.0, 1.0) == pytest.approx(0.45)


def test_soc_step_discharge_with_efficiency():
    # hand evaluation of the recurrence: 0.5 - 2*1*0.9/10 = 0.32
    p = battery(efficiency=0.9)
    assert battery_soc_step(p, 0.5, 2.0, 1.0) == pytest.approx(0.32)


def test_soc_step_affine_superposition():
    rng = np.random.default_rng(0)
    p = battery(self_discharge=0.05, efficiency=0.93)
    for _ in range(50):
        s1, s2 = rng.uniform(0, 1, 2)
        q1, q2 = rng.uniform(-3, 3, 2)
        a = rng.uniform(0, 1)
        mix = battery_soc_step(p, a * s1 + (1 - a) * s2,
                               a * q1 + (1 - a) * q2, 1.0)
        parts = a * battery_soc_step(p, s1, q1, 1.0) \
            + (1 - a) * battery_soc_step(p, s2, q2, 1.0)
        assert mix == pytest.approx(parts, abs=1e-12)


def test_hp_step_identity_limit():
    # dt -> 0 makes theta -> 1: temperature holds
    p = hp(r_th=1000.0, c_th=1000.0)
    assert hp_temperature_step(p, 25.0, 35.0, -1.0, 1e-9) == pytest.approx(25.0)


def test_hp_step_cooling_steady_state():
    # theta=0.9, rho=2: 0.9*25 + 0.1*(35 - 10) = 25, a fixed point
    p = hp(r_th=1.0, c_th=1.0 / np.log(10.0) * np.log(10.0), cop=2.0)
    th = p.theta(1.0)
    t_next = hp_temperature_step(p, 25.0, 35.0, -5.0, 1.0)
    assert t_next == pytest.approx(th * 25.0 + (1 - th) * (35.0 - 10.0))
    # explicit fixed-point check with theta pinned to 0.9
    p9 = hp(r_th=1.0, c_th=-1.0 / np.log(0.9), cop=2.0)
    assert p9.theta(1.0) == pytest.approx(0.9)
    assert hp_temperature_step(p9, 25.0, 35.0, -5.0, 1.0) == pytest.approx(25.0)


def test_hp_step_heating_steady_state():
    p9 = hp(r_th=1.0, c_th=-1.0 / np.log(0.9), cop=2.0)
    assert hp_temperature_step(p9, 20.0, 10.0, -5.0, 1.0) == pytest.approx(20.0)


def test_hp_step_rejects_positive_power():
    with pytest.raises(ValueError):
        hp_temperature_step(hp(), 70.0, 80.0, 0.5, 1.0)


def test_hp_step_contraction():
    rng = np.random.default_rng(1)
    p = hp()
    for _ in range(100):
        t_in = rng.uniform(50, 90)
        t_out = rng.uniform(30, 110)
        power = -rng.uniform(0, 3)
        out = hp_temperature_step(p, t_in, t_out, power, 1.0)
        target = t_out + p.rho * power if t_out >= t_in else t_out - p.rho * power
        lo, hi = min(t_in, target), max(t_in, target)
        assert lo - 1e-9 <= out <= hi + 1e-9


@pytest.mark.parametrize("t_out", [67.0, 68.0, 69.0])
def test_hp_mode_schedule_step_zero_matches_temperature_step(t_out):
    # the window's executed step and the settled step take one mode: the
    # indoor temperature (68, not the setpoint 70) decides it, and a tie
    # cools
    p, t_in, power = hp(), 68.0, -2.0
    view = HorizonView(t_start=0, dt_hours=1.0, length=2,
                       outdoor_temp=(t_out, 60.0), irradiance_frac=(0.0, 0.0),
                       device_states={}, end_step=2)
    sign = hp_mode_schedule(p, view, t_in)[0]
    assert sign == (1.0 if t_out >= t_in else -1.0)
    th = p.theta(1.0)
    assert hp_temperature_step(p, t_in, t_out, power, 1.0) == \
        th * t_in + (1.0 - th) * (t_out + sign * p.rho * power)


# --- feasible intervals -----------------------------------------------------

def test_ev_interval_away_is_zero():
    e = ev(away_start=9, away_end=17)
    for t in range(9, 18):
        assert feasible_power_interval(e, t) == (0.0, 0.0)
    assert feasible_power_interval(e, 8) == (-3.0, 3.0)
    assert feasible_power_interval(e, 18) == (-3.0, 3.0)


def test_pv_interval_scales_with_irradiance():
    assert feasible_power_interval(PvParams(4.0), 0, 0.5) == (0.0, 2.0)
    with pytest.raises(ValueError):
        feasible_power_interval(PvParams(4.0), 0, 1.5)


def test_hp_interval_sign():
    assert feasible_power_interval(hp(p_rated_kw=3.0), 0) == (-3.0, 0.0)


def test_battery_interval():
    assert feasible_power_interval(battery(), 5) == (-3.0, 3.0)


# --- cost terms of the window objective -----------------------------------

NO_UTIL = ObjectiveWeights(utilization=0.0)


def test_constant_battery_schedule_zero_cost():
    v = window_cost([battery()], {"battery": (1.0,) * 4}, NO_UTIL)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_battery_cycling_single_step():
    w = ObjectiveWeights(alpha_cyc=0.1, utilization=0.0)
    # brute-force sum over the single difference
    v = window_cost([battery()], {"battery": (0.0, 2.0)}, w)
    assert v == pytest.approx(0.1 * (2.0 - 0.0) ** 2)


def test_hp_perfect_tracking_zero_cost():
    v = window_cost([hp()], {"heat_pump": (-1.0,) * 4}, ObjectiveWeights(),
                    states={"heat_pump": (70.0,) * 4})
    assert v == pytest.approx(0.0, abs=1e-9)


def test_ev_tracking_term_only_in_window():
    w = ObjectiveWeights(alpha_cyc=0.0, xi_ev=10.0, utilization=0.0)
    e = ev(target_step=2, soc_target=0.9)
    states = {"ev": (0.5, 0.6, 0.7, 0.8)}
    powers = {"ev": (0.0,) * 4}
    inside = window_cost([e], powers, w, states=states, t_start=0)
    assert inside == pytest.approx(10.0 * (0.7 - 0.9) ** 2)
    # target at the window's first step: the known starting state counts
    first = window_cost([e], powers, w, states=states, t_start=2)
    assert first == pytest.approx(10.0 * (0.5 - 0.9) ** 2)
    outside = window_cost([e], powers, w, states=states, t_start=3)
    assert outside == pytest.approx(0.0, abs=1e-12)


def test_pv_curtailment_cost():
    w = ObjectiveWeights(xi_pv=1.0, utilization=0.0)
    v = window_cost([PvParams(4.0)], {"pv": (2.0, 3.0)}, w, irr=(0.5, 1.0))
    assert v == pytest.approx((0.5 * 4 - 2.0) ** 2 + (1.0 * 4 - 3.0) ** 2)


def test_objectives_nonnegative_random():
    rng = np.random.default_rng(2)
    w = ObjectiveWeights()
    for _ in range(30):
        sched = tuple(rng.uniform(-3, 3, 4))
        states = tuple(rng.uniform(0, 1, 4))
        assert window_cost([battery()], {"battery": sched}, w,
                           states={"battery": states}) >= 0.0
        temps = tuple(rng.uniform(60, 80, 4))
        hp_sched = tuple(-rng.uniform(0, 3, 4))
        assert window_cost([hp()], {"heat_pump": hp_sched}, w,
                           states={"heat_pump": temps}) >= 0.0


def test_utilization_objective():
    def util(pv, bs, weight):
        w = ObjectiveWeights(alpha_cyc=0.0, xi_pv=0.0, utilization=weight)
        return window_cost([battery(), PvParams(4.0)],
                           {"battery": bs, "pv": pv}, w, irr=(1.0,) * len(pv))
    assert util((2.0,) * 3, (-2.0,) * 3, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert util((0.0,), (0.0,), 5.0) == pytest.approx(0.0, abs=1e-12)
    assert util((3.0,), (-1.0,), 1.0) == pytest.approx(4.0)


# --- parameter validation ---------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("self_discharge", 1.0), ("efficiency", 0.0), ("efficiency", 1.2),
    ("capacity_kwh", 0.0), ("p_min_kw", 0.5), ("soc_min", 0.8),
    ("soc_init", 0.05)])
def test_battery_validation(field, value):
    kw = {field: value}
    if field == "soc_min":
        kw = {"soc_min": 0.8, "soc_max": 0.7}
    if field == "soc_init":
        kw = {"soc_min": 0.2, "soc_init": 0.05}
    with pytest.raises(DeviceValidationError):
        battery(**kw)


def test_ev_validation():
    with pytest.raises(DeviceValidationError):
        ev(away_start=5, away_end=4)
    with pytest.raises(DeviceValidationError):
        ev(soc_target=1.5)
    with pytest.raises(DeviceValidationError):
        ev(target_step=-1)


def test_hp_validation():
    with pytest.raises(DeviceValidationError):
        hp(r_th=0.0)
    with pytest.raises(DeviceValidationError):
        hp(t_setpoint=80.0)
    with pytest.raises(DeviceValidationError):
        hp(t_init=60.0)


def test_device_from_dict_roundtrip_and_errors():
    b = battery()
    d = dev.device_to_dict(b)
    assert dev.device_from_dict("battery", d) == b
    with pytest.raises(DeviceValidationError):
        dev.device_from_dict("toaster", {})
    with pytest.raises(DeviceValidationError):
        dev.device_from_dict("pv", {"p_rated_kw": 4.0, "bogus": 1})
    with pytest.raises(DeviceValidationError):
        dev.device_from_dict("pv", {})
